"""Throughput comparison: compiled stepper kernels vs the pure-Python twin.

Each backend runs in its own interpreter because the choice is made at
import time.  The workload mirrors real use: long oscillatory runs at
tight tolerances (sweep cells), a threshold bisection, and a rotating
six-variable trajectory that blows up at t = 14.158, before its horizon
of 25.

Usage: python benchmarks/bench_backends.py [--repeats N]
"""

import argparse
import json
import os
import subprocess
import sys
import textwrap

WORKLOAD = textwrap.dedent(
    """\
    import json
    import time

    import emaflow.spectral as spectral
    from emaflow.threshold import sharpness_bisect

    REPEATS = {repeats}

    def timed(label, fn):
        best = float("inf")
        steps = 0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            steps = fn()
            best = min(best, time.perf_counter() - t0)
        return {{"label": label, "seconds": best, "steps": steps}}

    def oscillation():
        cfg = spectral.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, horizon=200.0)
        traj = spectral.integrate("qnu", (0.5, 0.0), 1.0, config=cfg)
        return len(traj.times) - 1

    def bisection():
        sharpness_bisect(0.0, 1.0)
        return 0

    def rotation():
        cfg = spectral.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, horizon=25.0)
        traj = spectral.integrate(
            "swirl", (0.0, 0.3, 0.0, 0.2, 0.1, 0.5), 1.0, config=cfg
        )
        return len(traj.times) - 1

    rows = [
        timed("qnu oscillation, horizon 200, rel_tol 1e-10", oscillation),
        timed("sharpness bisection at h0 = 0", bisection),
        timed("swirl rotation, blowup at t=14.158 (horizon 25), rel_tol 1e-10", rotation),
    ]
    print(json.dumps({{"backend": spectral.BACKEND, "rows": rows}}))
    """
)


def run_backend(pure_python: bool, repeats: int) -> dict:
    env = dict(os.environ)
    if pure_python:
        env["EMAFLOW_PURE_PYTHON"] = "1"
    else:
        env.pop("EMAFLOW_PURE_PYTHON", None)
    proc = subprocess.run(
        [sys.executable, "-c", WORKLOAD.format(repeats=repeats)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats per case (best of N)")
    args = parser.parse_args()

    compiled = run_backend(pure_python=False, repeats=args.repeats)
    python = run_backend(pure_python=True, repeats=args.repeats)
    if compiled["backend"] == python["backend"]:
        print("compiled extension unavailable; both runs used the fallback")

    width = max(len(r["label"]) for r in compiled["rows"])
    print(
        f"{'case':<{width}}  {'compiled':>10}  {'python':>10}"
        f"  {'speedup':>8}  {'steps/s':>10}"
    )
    for got, ref in zip(compiled["rows"], python["rows"]):
        ratio = ref["seconds"] / got["seconds"]
        rate = f"{got['steps'] / got['seconds']:>10.0f}" if got["steps"] else " " * 10
        print(
            f"{got['label']:<{width}}  {got['seconds']*1e3:>8.2f}ms"
            f"  {ref['seconds']*1e3:>8.2f}ms  {ratio:>7.1f}x  {rate}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
