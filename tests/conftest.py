"""Shared fixtures: the profile family the whole suite revolves around.

Three named profiles cover the three regimes.  "subcritical" and
"canonical supercritical" are referenced by frozen expected values in
several modules, so their parameters must not change casually.
"""

import os

import numpy as np
import pytest

from emaflow import IntegratorConfig, ProfilePreset


def pytest_configure(config):
    # Tests that run `python -m emaflow` in a subprocess need the source
    # tree that pyproject's pythonpath setting gives this process.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path
    )


@pytest.fixture
def equilibrium():
    return ProfilePreset("equilibrium").build()


@pytest.fixture
def subcritical_profile():
    # max |u0'| = 0.3 at the origin, mu0 = nu0 = 0.2 everywhere:
    # margin kappa(1 - 2*0.2) - 0.3^2 = 0.51 on both branches.
    return ProfilePreset("quadratic", {"a": 0.2, "c": 0.3, "d": 1.0}).build()


@pytest.fixture
def canonical_supercritical():
    # u0'(0) = -2 with a flat potential; the origin characteristic
    # blows up at the first root of 1 - 2 sin t, i.e. t = pi/6.
    return ProfilePreset("quadratic", {"a": 0.0, "c": -2.0, "d": 1.0}).build()


@pytest.fixture
def tight_config():
    return IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
