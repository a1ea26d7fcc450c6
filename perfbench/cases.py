"""Three fixed in-process integrator cases, one timing each.

    python3 perfbench/cases.py [--toy]

These are the cases of benchmarks/bench_backends.py, with the swirl
case labelled by what it does: from (0, 0.3, 0, 0.2, 0.1, 0.5) the
rotating system blows up at t = 14.158 (blowup_detected), well before
its horizon of 25.  Prints one JSON object with a row per case.
"""

import json
import sys
import time

import emaflow.spectral as spectral
from emaflow.threshold import sharpness_bisect


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return (time.perf_counter() - t0) * 1e3, result


def main():
    toy = "--toy" in sys.argv[1:]
    horizon = 20.0 if toy else 200.0
    tight = spectral.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)

    ms, traj = timed(lambda: spectral.integrate("qnu", (0.5, 0.0), 1.0, config=tight.replace(horizon=horizon)))
    osc = {"name": "spectral.case.qnu_oscillation_h200_ms", "ms": ms,
           "termination": traj.termination.kind, "steps": len(traj.times) - 1,
           "expect": "horizon_reached"}

    ms, boundary = timed(lambda: sharpness_bisect(0.0, 1.0, tol=0.1 if toy else 1e-3))
    bis = {"name": "spectral.case.sharpness_bisect_h0_ms", "ms": ms,
           "boundary": boundary, "expect_boundary": 1.0, "tol": 0.1 if toy else 1e-3}

    ms, traj = timed(lambda: spectral.integrate(
        "swirl", (0.0, 0.3, 0.0, 0.2, 0.1, 0.5), 1.0, config=tight.replace(horizon=25.0)))
    rot = {"name": "spectral.case.swirl_blowup_before_h25_ms", "ms": ms,
           "termination": traj.termination.kind, "t_est": traj.termination.t_est,
           "steps": len(traj.times) - 1, "expect": "blowup_detected"}

    print(json.dumps({"backend": spectral.BACKEND, "rows": [osc, bis, rot]}))


if __name__ == "__main__":
    main()
