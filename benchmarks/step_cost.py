"""Cost of one Dormand-Prince attempt: scalar stepper against the batch.

    PYTHONPATH=src python benchmarks/step_cost.py [--rounds 5]

The scalar figure is one integrate(record=False) run of the qnu system
from (0.99, 0) at rel_tol 1e-9 to horizon 200, divided by its attempts
(accepted plus rejected steps).  The batch figure is one
batch._Stepper.attempt() over L qnu lanes that all stay bounded, for L
in 1, 8, 64, 512 and 4096.  The break-even is the lane count at which
one batched attempt costs as much as L scalar attempts; below it a loop
of scalar calls is faster.  Each figure is the best of --rounds rounds.
Prints one JSON object.
"""

import argparse
import json
import time

import numpy as np

from emaflow.spectral import IntegratorConfig, batch, integrate, integrator
from emaflow.spectral.systems import rhs_qnu

CFG = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, horizon=200.0)
LANES = (1, 8, 64, 512, 4096)
ATTEMPTS = 40


def scalar_attempts(y0):
    # Each attempt evaluates six stages; the start and the initial step
    # size take one evaluation each.
    calls = [0]

    def counted(state, kappa):
        calls[0] += 1
        return rhs_qnu(state, kappa)

    saved = integrator.SYSTEM_RHS
    integrator.SYSTEM_RHS = (counted,) + saved[1:]
    try:
        integrator._stepper.__wrapped__(0, 2)(y0, 1.0, 1.0, 0.0, CFG, False)
    finally:
        integrator.SYSTEM_RHS = saved
    return (calls[0] - 2) // 6


def scalar_us(y0, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        integrate("qnu", y0, 1.0, config=CFG, record=False)
        best = min(best, time.perf_counter() - t0)
    return best / scalar_attempts(y0) * 1e6


def batch_us(lanes, rounds):
    rng = np.random.default_rng(lanes)
    y0 = np.vstack([rng.uniform(0.1, 0.9, lanes), np.zeros(lanes)])
    best = float("inf")
    for _ in range(rounds):
        stepper = batch._Stepper(lambda y: rhs_qnu(y, 1.0), y0.copy(), CFG)
        t0 = time.perf_counter()
        for _ in range(ATTEMPTS):
            stepper.attempt()
        best = min(best, time.perf_counter() - t0)
    return best / ATTEMPTS * 1e6


def break_even(scalar, attempt):
    # First crossing of lanes * scalar over the batch cost, with the
    # batch cost interpolated linearly between measured lane counts.
    points = sorted(attempt.items())
    for (l0, b0), (l1, b1) in zip(points, points[1:]):
        if l1 * scalar >= b1:
            # lanes*scalar - batch(lanes) changes sign in [l0, l1]
            slope = (b1 - b0) / (l1 - l0)
            return (b0 - slope * l0) / (scalar - slope)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    rounds = parser.parse_args().rounds
    scalar = scalar_us((0.99, 0.0), rounds)
    attempt = {lanes: batch_us(lanes, rounds) for lanes in LANES}
    print(json.dumps({
        "scalar_us_per_attempt": round(scalar, 2),
        "batch_us_per_attempt": {str(k): round(v, 1) for k, v in attempt.items()},
        "break_even_lanes": round(break_even(scalar, attempt), 1),
    }))


if __name__ == "__main__":
    main()
