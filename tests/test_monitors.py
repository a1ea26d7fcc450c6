"""Conserved-quantity monitors over recorded trajectories.

Drift budgets here are deliberately loose multiples of what tight tolerances
actually deliver; the point is catching structural regressions, not timing
noise.
"""

import math

import numpy as np
import pytest

from emaflow.errors import SingularInput
from emaflow.spectral import (
    IntegratorConfig,
    integrate,
    monitor_ellipse,
    monitor_swirl_invariants,
)


def test_rest_state_has_zero_drift():
    traj = integrate("qnu", (0.0, 0.0), 1.0)
    assert monitor_ellipse(traj, 1.0) == 0.0


def test_oscillation_drift_under_tight_tolerances(tight_config):
    cfg = tight_config.replace(horizon=50.0)
    traj = integrate("qnu", (0.5, 0.0), 1.0, config=cfg)
    assert monitor_ellipse(traj, 1.0) <= 1e-8


def test_qnu_follows_the_closed_form_of_its_linear_chart(tight_config):
    # In the chart w = q/(1-nu), v = 1/(1-nu) the (q, nu) flow is the
    # harmonic oscillator v'' = kappa(1 - v), w = v', so
    # v(t) = 1 + (v0-1) cos(sqrt(kappa) t) + (w0/sqrt(kappa)) sin(sqrt(kappa) t)
    # and q = w/v, nu = 1 - 1/v at every recorded time.  With abs_tol at
    # rel_tol/100 the worst pointwise error is about 4 rel_tol (3.9e-8,
    # 4.3e-10 and 4.4e-12 at rel_tol 1e-8, 1e-10 and 1e-12), so the bound
    # is 10 rel_tol, and a hundredfold tighter tolerance must shrink the
    # error at least thirtyfold (it shrinks ninetyfold).
    q0, nu0, kappa = 0.4, 0.2, 1.3
    w0, v0, root = q0 / (1.0 - nu0), 1.0 / (1.0 - nu0), math.sqrt(kappa)

    def run(cfg):
        traj = integrate("qnu", (q0, nu0), kappa, config=cfg.replace(horizon=30.0))
        assert traj.termination.kind == "horizon_reached"
        phase = root * traj.times
        v = 1.0 + (v0 - 1.0) * np.cos(phase) + (w0 / root) * np.sin(phase)
        w = -(v0 - 1.0) * root * np.sin(phase) + w0 * np.cos(phase)
        exact = np.column_stack([w / v, 1.0 - 1.0 / v])
        return traj, np.max(np.abs(traj.states - exact))

    loose = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    (_, loose_error), (traj, tight_error) = run(loose), run(tight_config)
    assert loose_error <= 10.0 * loose.rel_tol
    assert tight_error <= 10.0 * tight_config.rel_tol
    assert tight_error <= loose_error / 30.0
    assert monitor_ellipse(traj, kappa) <= 1e-9


def test_swirl_free_trajectory_keeps_zero_angular_moment(tight_config):
    traj = integrate(
        "swirl", (0.1, 0.2, 0.0, 0.1, 0.0, 0.0), 1.0, config=tight_config
    )
    drifts = monitor_swirl_invariants(traj, 1.0)
    assert drifts["angular_moment"] == 0.0
    assert drifts["swirl_energy"] <= 1e-8


def test_rotating_trajectory_conserves_both_invariants(tight_config):
    traj = integrate(
        "swirl", (0.0, 0.3, 0.0, 0.2, 0.1, 0.5), 1.0, config=tight_config
    )
    drifts = monitor_swirl_invariants(traj, 1.0)
    assert drifts["angular_moment"] <= 1e-8
    assert drifts["swirl_energy"] <= 1e-8


def test_pure_rotation_bounds_gradient_branch(tight_config):
    # rotation alone keeps (q, nu, theta/r) on a closed orbit, yet the
    # entrained (p, mu, theta_r) branch still hits a pole late in the run
    cfg = tight_config.replace(horizon=50.0)
    traj = integrate("swirl", (0.0, 0.0, 0.0, 0.0, 0.0, 0.5), 1.0, config=cfg)
    assert traj.termination.kind == "blowup_detected"
    assert traj.termination.t_est == pytest.approx(27.2375, abs=0.05)

    drifts = monitor_swirl_invariants(traj, 1.0)
    assert drifts["angular_moment"] <= 1e-8
    assert drifts["swirl_energy"] <= 1e-8
    assert np.max(np.abs(traj.states[:, [1, 3, 5]])) <= 10.0


def test_monitor_rejects_degenerate_states():
    traj = integrate("qnu", (0.0, 1.5), 1.0)
    with pytest.raises(SingularInput, match="nu >= 1"):
        monitor_ellipse(traj, 1.0)
