"""Child-side entry point: one `emaflow` CLI command in a fresh interpreter.

    python3 perfbench/launch.py TIMING_JSON [--trace SPANS_JSON] [--probe] -- ARGS...

Records CLOCK_MONOTONIC when the interpreter starts running this file and
when `emaflow.cli` has been imported, runs `emaflow.cli.main(ARGS)`
exactly as `python -m emaflow ARGS` does, and writes the timestamps, the
exit code and the library versions to TIMING_JSON.  With --probe it stops
after the import (a set-up sample).  With --trace it wraps the layers
with tracer.py after the import and writes the spans to SPANS_JSON.
"""

import time

T_START = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402

# Resolve imports the way `python -m emaflow` does, without this
# script's directory in front of the path.
HERE = sys.path.pop(0)


def main():
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    timing_path = opts[0]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    probe = "--probe" in opts

    import emaflow.cli

    t_imported = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    tracer = None
    if spans_path is not None:
        sys.path.insert(0, HERE)
        import tracer

        sys.path.pop(0)
        if cli_args and cli_args[0] == "validate":
            import emaflow.validation  # noqa: F401  (so its functions are wrapped)
        tracer.install()

    code = 0 if probe else emaflow.cli.main(cli_args)
    t_end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    if tracer is not None:
        tracer.dump(spans_path)

    numpy = sys.modules.get("numpy")
    scipy = sys.modules.get("scipy")
    record = {
        "t_start_ns": T_START,
        "t_imported_ns": t_imported,
        "t_end_ns": t_end,
        "exit_code": code,
        "backend": emaflow.spectral.BACKEND,
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "scipy": getattr(scipy, "__version__", None),
    }
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
