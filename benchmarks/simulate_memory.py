"""Resident memory of one `emaflow simulate`, layer by layer and process by process.

    PYTHONPATH=src python benchmarks/simulate_memory.py [--seed 1] [-- SIMULATE ARGS...]

Runs one simulate in this process, by default the command of the
perfbench `ensemble_snapshots` workload at --seed (16384
characteristics, 65 snapshots on a 1024-point grid).  simulate steps
the ensemble in this process and formats snapshots.csv in a forked
writer process.  The script reads VmRSS (resident now) and VmHWM
(resident peak so far) of this process from /proc/self/status at four
points:

* import: after `import emaflow.cli`;
* stepper: when `_Stepper.__init__` returns, that is, once the start
  block, its live copy and the initial step have been made, before
  the first attempt;
* ensemble: when the last snapshot has been handed to the writer, that
  is, once the ensemble has run to its end;
* csv: when the writer has exited and snapshots.csv is in place.

The stepper point is found by wrapping `spectral.batch._Stepper.__init__`
(the first call only) and the last two by wrapping `cli._write_blocks`,
so the script measures any tree that has both.  writer is the peak resident
size of the writer process, the ru_maxrss of RUSAGE_CHILDREN once it
has been reaped (this process starts no other child).  It counts the
pages the writer shares with this process from the fork.  Outputs go
to a temporary directory unless the arguments give --out.  Prints one
JSON object with the figures in MB (2^20 bytes) and the exit code, and
nothing else: simulate's own summary line is discarded.
Linux only.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import tempfile


def _status_mb():
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {key: int(fields[key].split()[0]) / 1024.0 for key in ("VmRSS", "VmHWM")}


def _workload_args(seed):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
    try:
        from workloads import EnsembleSnapshots
    finally:
        sys.path.pop(0)
    return [str(arg) for arg in EnsembleSnapshots(seed).commands[0].args]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="ensemble_snapshots seed")
    parser.add_argument("args", nargs="*", help="simulate arguments (after --)")
    opts = parser.parse_args()
    args = opts.args or _workload_args(opts.seed)
    if args[0] != "simulate":
        parser.error("the arguments must be a simulate command")

    import emaflow.cli as cli

    points = {"import": _status_mb()}
    from emaflow.spectral import batch

    stepper_init = batch._Stepper.__init__

    def measured_stepper_init(self, *args, **kwargs):
        stepper_init(self, *args, **kwargs)
        points.setdefault("stepper", _status_mb())

    batch._Stepper.__init__ = measured_stepper_init
    write_blocks = cli._write_blocks

    def measured_write_blocks(path, header, rows, blocks):
        def all_blocks():
            yield from blocks
            points["ensemble"] = _status_mb()

        write_blocks(path, header, rows, all_blocks())
        points["csv"] = _status_mb()
        points["writer"] = {"maxrss": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}

    cli._write_blocks = measured_write_blocks
    with tempfile.TemporaryDirectory() as tmp:
        out = [] if "--out" in args else ["--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args + out)
    print(json.dumps({"args": " ".join(args), "exit_code": code, "mb": points}, indent=1))


if __name__ == "__main__":
    main()
