"""Bitwise pins of the batched Dormand-Prince attempt, through both drivers.

Each hash covers every value a driver hands out, so any change to the
arithmetic of _Stepper.attempt, or to its order, moves it.
"""

import hashlib

import numpy as np

from emaflow.lagrange import EnsembleRun
from emaflow.profiles import ProfilePreset
from emaflow.spectral import IntegratorConfig, batch, integrate_batch


def _digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return sha.hexdigest()


def test_ensemble_run_is_bitwise_pinned():
    profile = ProfilePreset("quadratic", {"a": 0.2, "c": 0.3, "d": 1.0}).build()
    run = EnsembleRun(
        profile, n_chars=2048, t_end=2.0, config=IntegratorConfig(rel_tol=1e-10)
    )
    emitted = []
    for snap, state in run:
        emitted += [[snap.t, snap.bkm_integrand], snap.grid, snap.rho, snap.u]
        emitted += [snap.p, snap.q, snap.mu, snap.nu, state]
    assert run.termination.kind == "horizon_reached"
    assert len(emitted) == 9 * 9
    digest = _digest(emitted)
    assert digest == "3e57a59692512677df5e7652bd48b9fb4a7432fd9b2a7a6ec4cb6de8f074421b"


def test_batch_lanes_accepting_together_then_apart_are_bitwise_pinned(monkeypatch):
    # Nearby bounded qnu lanes accept in step for many attempts, so an
    # attempt where every live lane accepts and one where only some do
    # both occur; a blowup lane leaves the batch part-way.  Nine lanes
    # are below the hand-off, so the batch is made to step to the end.
    monkeypatch.setattr(batch, "_HANDOFF", 1)
    attempt = batch._Stepper.attempt
    every, some = [], []

    def counted(self):
        step = attempt(self)
        (every if step.accepted.all() else some).append(step.accepted.any())
        return step

    monkeypatch.setattr(batch._Stepper, "attempt", counted)
    states = [(0.5 + 1e-3 * i, 0.01 * i) for i in range(8)] + [(-1.2, 0.0)]
    res = integrate_batch("qnu", states, 1.0, config=IntegratorConfig(horizon=30.0))
    assert res.kinds == ("horizon_reached",) * 8 + ("blowup_detected",)
    assert len(every) >= 50 and sum(some) >= 10, (len(every), sum(some))
    digest = _digest([res.t_est, res.final_time, res.final_state])
    assert digest == "3504f39eec12e02281c96cdac8f47d1b88888b0f752665ba87c1f281a3164bde"
