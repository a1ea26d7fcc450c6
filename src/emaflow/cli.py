"""Command-line entry points.

Four subcommands share one config file:

    emaflow simulate --config run.ini --out results/
    emaflow classify --config run.ini
    emaflow sweep    --config run.ini
    emaflow validate --config run.ini

Exit codes: 0 for a regular finish, 2 when a singularity (or a failed
validation criterion) is detected, 1 for usage, I/O, and configuration
errors.  Errors print a single line to stderr.  All file outputs are
byte-deterministic for a fixed config and seed.  --threads N caps the
worker processes validate runs its criteria in (default: every CPU the
process may run on) and changes no output; a swirl_sigma sweep runs as
one batch and the pointwise sweep is closed-form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import SWIRL_FIELDS, RunConfig, load_run_config
from .errors import EmaflowError
from .lagrange import EnsembleRun, bkm_integral, gradient_bound_check, state_drift
from .spectral import BACKEND
from .threshold import (
    classify_point,
    classify_profile,
    default_classification_grid,
    sigma_membership_batch,
)

__all__ = ["main"]


def _fmt(x) -> str:
    # repr of a float is the shortest string that round-trips.
    return repr(float(x))


def _write_csv(path: Path, header, rows):
    # Rows are written as they come, to a temporary file beside path
    # that replaces it only once every row is written: an error while
    # rows are produced leaves path as it was.
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as out:
            out.write(",".join(header) + "\n")
            out.writelines(",".join(row) + "\n" for row in rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return text


def _outdir(config: RunConfig) -> Path:
    path = Path(config.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(config: RunConfig) -> int:
    profile = config.build_profile()
    run = EnsembleRun(
        profile,
        n_chars=config.n_chars,
        t_end=config.t_end,
        config=config.integrator,
        output_times=np.linspace(0.0, config.t_end, config.n_snapshots),
        grid_size=config.grid_size,
    )
    outdir = _outdir(config)

    # Each output time is written and folded into the diagnostics, then
    # dropped, so memory does not grow with the number of snapshots.
    times, integrands = [], []
    path_drift = density_drift = 0.0
    bound_margin = None

    def rows():
        nonlocal path_drift, density_drift, bound_margin
        for snap, state in run:
            t_str = _fmt(snap.t)
            block = np.column_stack((snap.grid, snap.rho, snap.u, snap.p, snap.q, snap.mu, snap.nu))
            # tolist() gives Python floats, whose repr is what _fmt writes.
            yield from ((t_str, ",".join(map(repr, row))) for row in block.tolist())
            times.append(snap.t)
            integrands.append(snap.bkm_integrand)
            path, density = state_drift(profile, run.seeds, run.rho0, state)
            path_drift = max(path_drift, path)
            density_drift = max(density_drift, density)
            _, margin = gradient_bound_check(snap)
            bound_margin = margin if bound_margin is None else min(bound_margin, margin)

    _write_csv(outdir / "snapshots.csv", ("t", "r", "rho", "u", "p", "q", "mu", "nu"), rows())

    termination = run.termination
    diag = {
        "backend": BACKEND,
        "preset": config.preset,
        "n": profile.dimension,
        "kappa": config.kappa,
        "seed": config.seed,
        "n_chars": config.n_chars,
        "t_end": config.t_end,
        "termination": termination.kind,
        "t_blowup_estimate": termination.t_est,
        "n_snapshots_written": len(times),
        "bkm_integral": bkm_integral(times, integrands) if len(times) >= 2 else None,
        "path_invariant_drift": path_drift,
        "density_consistency_drift": density_drift,
        "gradient_bound_min_margin": bound_margin,
    }
    _write_json(outdir / "diagnostics.json", diag)

    print(f"simulate: termination={termination.kind} snapshots={len(times)} out={outdir}")
    return 0 if termination.kind == "horizon_reached" else 2


def cmd_classify(config: RunConfig) -> int:
    profile = config.build_profile()
    grid = default_classification_grid(profile, config.classify_grid_size)
    verdict = classify_profile(profile, grid)

    payload = {
        "class": verdict.regime,
        "witness_r": verdict.witness_r,
        "t_blowup": verdict.t_blowup,
        "horizon": verdict.horizon,
        "margins": verdict.margins,
        "preset": config.preset,
        "n": profile.dimension,
        "kappa": profile.kappa,
        "grid_size": int(grid.size),
    }
    text = _write_json(_outdir(config) / "verdict.json", payload)
    sys.stdout.write(text)
    return 0


def _sweep_rows(config: RunConfig):
    ax1, ax2 = config.sweep_axis1, config.sweep_axis2
    vals1 = np.linspace(ax1.lo, ax1.hi, ax1.count)
    vals2 = np.linspace(ax2.lo, ax2.hi, ax2.count)
    tasks = [(float(v1), float(v2)) for v1 in vals1 for v2 in vals2]

    cells = [{ax1.name: v1, ax2.name: v2} for v1, v2 in tasks]
    if config.sweep_mode == "pointwise_threshold":
        verdicts = [
            classify_point(cell["lambda0"], cell["h0"], config.kappa) for cell in cells
        ]
    else:
        base = {name: 0.0 for name in SWIRL_FIELDS}
        base.update(config.sweep_fixed)
        # SWIRL_FIELDS runs in SwirlState order; every cell is one lane
        # of a single batched integration.
        states = [tuple({**base, **cell}[name] for name in SWIRL_FIELDS) for cell in cells]
        verdicts = sigma_membership_batch(
            states,
            config.kappa,
            horizon=config.sweep_horizon,
            config=config.integrator,
        )

    rows = []
    for (v1, v2), verdict in zip(tasks, verdicts):
        t_blowup = "" if verdict.t_blowup is None else _fmt(verdict.t_blowup)
        rows.append((_fmt(v1), _fmt(v2), verdict.regime, t_blowup))
    return (ax1.name, ax2.name, "regime", "t_blowup"), rows


def cmd_sweep(config: RunConfig) -> int:
    header, rows = _sweep_rows(config)
    outdir = _outdir(config)
    _write_csv(outdir / "sweep.csv", header, rows)
    print(f"sweep: mode={config.sweep_mode} cells={len(rows)} out={outdir}")
    return 0


def cmd_validate(config: RunConfig) -> int:
    from .validation import resolve_suites, run_criteria

    names = resolve_suites(config.validate_suites)
    workers = config.threads or len(os.sched_getaffinity(0))
    results = run_criteria(names, seed=config.seed, workers=workers)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status}  {res.name}: measured={res.measured:.6g} "
            f"budget={res.budget:.6g} ({res.elapsed_s:.2f}s)"
        )
    report = {
        "backend": BACKEND,
        "seed": config.seed,
        "all_passed": all(res.passed for res in results),
        "criteria": [
            {
                "name": res.name,
                "description": res.description,
                "passed": res.passed,
                "measured": res.measured,
                "budget": res.budget,
                "elapsed_s": res.elapsed_s,
            }
            for res in results
        ],
    }
    _write_json(_outdir(config) / "report.json", report)
    return 0 if report["all_passed"] else 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route them through the single
    # error path instead so usage problems exit 1.
    def error(self, message):
        raise EmaflowError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="emaflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, func, help_text in (
        ("simulate", cmd_simulate, "advance a characteristic ensemble, write snapshots"),
        ("classify", cmd_classify, "classify a profile against the critical threshold"),
        ("sweep", cmd_sweep, "grid sweep over initial data, write sweep.csv"),
        ("validate", cmd_validate, "run the acceptance criteria, write report.json"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH", help="INI config file")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        cmd.add_argument("--out", metavar="DIR", help="output directory")
        cmd.add_argument(
            "--threads",
            type=int,
            metavar="N",
            help="cap on validate's worker processes (default: every usable CPU); "
            "changes no output",
        )
        cmd.add_argument("--seed", type=int, metavar="N", help="sampling seed")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise EmaflowError("a subcommand is required (see --help)")
        config = load_run_config(
            args.config,
            args.set,
            out=args.out,
            threads=args.threads,
            seed=args.seed,
        )
        # Overflow and invalid operations on outside data are reported by
        # the finiteness checks as typed errors; a NumPy warning on top
        # would break the single-line stderr contract.
        with np.errstate(all="ignore"):
            return args.func(config)
    except (EmaflowError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
