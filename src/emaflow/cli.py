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
process may run on, or os.cpu_count() where the platform reports no CPU
affinity, as macOS does not) and changes no output; a swirl_sigma sweep
runs as one batch and the pointwise sweep is closed-form.

NumPy is imported only by the commands that build arrays: simulate,
validate and a swirl_sigma sweep, each with NumPy's floating-point
warnings off.  classify and a pointwise sweep judge the closed-form
threshold on plain floats and never import it, which is most of the
cold start they save.  No command imports numpy.random or numpy.ma, and
none calls BLAS, so importing this module (not a bare import of emaflow)
sets OPENBLAS_NUM_THREADS=1 unless the environment already sets it:
OpenBLAS would otherwise start a thread pool at NumPy's import.  Set
the variable to give a caller's own BLAS calls more threads.

simulate runs in two processes.  This one steps the ensemble,
interpolates each output time and folds it into the diagnostics; a
writer forked before the stepping formats snapshots.csv from the t and
the float block of each output time, sent as one fixed-size raw record
over a pipe whose end ends the stream.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

# Before anything imports NumPy: see the module docstring.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import SWIRL_FIELDS, RunConfig, load_run_config
from .errors import EmaflowError, WorkerError
from .spectral import BACKEND
from .threshold import (
    _linspace,
    classify_point,
    classify_profile,
    default_classification_grid,
    sigma_membership_batch,
)

__all__ = ["main"]


def _numpy_quiet(func):
    """func, run with NumPy imported and its floating-point warnings off.

    Overflow and invalid operations on outside data are reported by the
    finiteness checks as typed errors; a NumPy warning on top would
    break the single-line stderr contract.
    """

    @functools.wraps(func)
    def quiet(*args, **kwargs):
        import numpy as np

        with np.errstate(all="ignore"):
            return func(*args, **kwargs)

    return quiet


def _fmt(x) -> str:
    # repr of a float is the shortest string that round-trips.
    return repr(float(x))


@contextlib.contextmanager
def _replacing(path: Path):
    # Every output is written to the temporary file beside path that
    # this yields, which replaces path only once the block completes: an
    # error while the output is produced or written leaves path as it was.
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header, rows):
    # Rows are written as they come.
    with _replacing(path) as tmp, tmp.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(",".join(row) + "\n" for row in rows)


def _write_blocks(path: Path, header, rows, blocks):
    # A CSV of float blocks, formatted in a forked writer process while
    # this process produces the blocks.  blocks yields (t, block) pairs,
    # block a float64 array of shape (rows, len(header) - 1); each of its
    # rows becomes the line `t,x0,x1,...`, every float in repr.  Each pair
    # goes down the pipe as one raw record, t then the block, and closing
    # the pipe ends the stream.  path is replaced only once this process
    # has sent every block and the writer has exited 0: an error in
    # either process leaves path as it was.
    import numpy as np

    with _replacing(path) as tmp:
        pid, data, err = _start_writer(tmp, header, rows)
        try:
            for t, block in blocks:
                record = memoryview(np.float64(t).tobytes() + block.tobytes())
                while record:
                    record = record[os.write(data, record):]
        except BrokenPipeError:
            pass  # the writer has died; its exit status says how
        finally:
            os.close(data)
            _, status = os.waitpid(pid, 0)
            with open(err, "rb") as pipe:
                reason = pipe.read().decode(errors="replace")
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise WorkerError(f"the snapshot writer process {how}" + (reason and f": {reason}"))


def _start_writer(tmp: Path, header, rows):
    # Forks the writer on a new file tmp.  Returns its pid, the write end
    # of the pipe that carries the blocks and the read end of the one
    # that carries its error message.
    data_r, data_w = os.pipe()
    err_r, err_w = os.pipe()
    try:
        with open(tmp, "wb") as out:
            pid = os.fork()
            if pid == 0:
                _writer(data_r, out.fileno(), err_w, header, rows, (data_w, err_r))
    except BaseException:
        os.close(data_w)
        os.close(err_r)
        raise
    finally:
        os.close(data_r)
        os.close(err_w)
    return pid, data_w, err_r


def _writer(data, out, err, header, rows, parent_ends):
    # The writer process.  It leaves only through os._exit, so it never
    # returns into its caller nor runs the caller's exit handlers or
    # buffered output.  It reads records of 1 + rows * (len(header) - 1)
    # float64 until the pipe ends; a record cut short fails its reshape.
    # Status 0 means out holds every record that arrived; only the parent
    # knows whether that was all of them.  After an exception it is
    # status 1, and err carries the exception, cut short so that it fits
    # the pipe: the parent reads it only once this process has exited.
    status = 1
    try:
        import numpy as np

        for fd in parent_ends:
            os.close(fd)
        columns = len(header) - 1
        with open(data, "rb") as pipe, open(out, "w", encoding="utf-8") as csv:
            csv.write(",".join(header) + "\n")
            while record := pipe.read(8 * (1 + rows * columns)):
                values = np.frombuffer(record, dtype=float)
                t = repr(float(values[0]))
                # tolist() gives Python floats, whose repr is what _fmt writes.
                lines = values[1:].reshape(rows, columns).tolist()
                csv.writelines(f"{t},{','.join(map(repr, line))}\n" for line in lines)
        status = 0
    except BaseException as exc:
        os.write(err, f"{type(exc).__name__}: {exc}".encode()[:1024])
    finally:
        os._exit(status)


def _write_json(path: Path, payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")
    return text


def _outdir(config: RunConfig) -> Path:
    path = Path(config.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@_numpy_quiet
def cmd_simulate(config: RunConfig) -> int:
    import numpy as np

    from .lagrange import EnsembleRun, bkm_integral, gradient_bound_check, state_drift

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

    # Each output time is sent to the writer and folded into the
    # diagnostics, then dropped before the ensemble steps on, so memory
    # does not grow with the number of snapshots.
    times, integrands = [], []
    path_drift = density_drift = 0.0
    bound_margin = None

    def blocks():
        nonlocal path_drift, density_drift, bound_margin
        for snap, state in run:
            columns = (snap.grid, snap.rho, snap.u, snap.p, snap.q, snap.mu, snap.nu)
            yield snap.t, np.column_stack(columns)
            times.append(snap.t)
            integrands.append(snap.bkm_integrand)
            path, density = state_drift(profile, run.seeds, run.rho0, state)
            path_drift = max(path_drift, path)
            density_drift = max(density_drift, density)
            _, margin = gradient_bound_check(snap)
            bound_margin = margin if bound_margin is None else min(bound_margin, margin)
            del snap, state, columns

    header = ("t", "r", "rho", "u", "p", "q", "mu", "nu")
    _write_blocks(outdir / "snapshots.csv", header, config.grid_size, blocks())

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

    # The verdict's fields, regime stored as "class", and the run's inputs.
    fields = dataclasses.asdict(verdict)
    payload = {
        "class": fields.pop("regime"),
        **fields,
        "preset": config.preset,
        "n": profile.dimension,
        "kappa": profile.kappa,
        "grid_size": len(grid),
    }
    text = _write_json(_outdir(config) / "verdict.json", payload)
    sys.stdout.write(text)
    return 0


def _sweep_rows(config: RunConfig):
    ax1, ax2 = config.sweep_axis1, config.sweep_axis2
    vals1 = _linspace(ax1.lo, ax1.hi, ax1.count)
    vals2 = _linspace(ax2.lo, ax2.hi, ax2.count)
    tasks = [(v1, v2) for v1 in vals1 for v2 in vals2]

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
        verdicts = _numpy_quiet(sigma_membership_batch)(
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


@_numpy_quiet
def cmd_validate(config: RunConfig) -> int:
    from .validation import resolve_suites, run_criteria

    names = resolve_suites(config.validate_suites)
    # os.sched_getaffinity exists only on platforms with a CPU-affinity
    # call (not on macOS); without it, count every CPU.
    affinity = getattr(os, "sched_getaffinity", None)
    workers = config.threads or (len(affinity(0)) if affinity else os.cpu_count() or 1)
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
        "criteria": [dataclasses.asdict(res) for res in results],
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
        return args.func(config)
    except (EmaflowError, OSError, MemoryError) as exc:
        message = " ".join(str(exc).split()) or "out of memory"
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
