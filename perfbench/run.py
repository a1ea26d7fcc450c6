"""emaflow benchmark: batch CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the program is the source tree next to this
directory (`src/emaflow`), on whichever kernel backend it provides.
Every command is a fresh interpreter started through launch.py, one
after another from this process (a closed loop with one client).

A run first takes set-up samples (interpreter start to `emaflow.cli`
imported), then starts the workload's batch of commands again and
again until --seconds have passed; the last batch runs to its end.
End-to-end metrics are medians over batches or commands.  With
--trace 1 the run first makes one untraced batch, then traced ones;
the layer metrics come from the traced batches and the overhead is
their wall time over an untraced batch of the same commands.
Correctness oracles and the determinism check run after the timed
region and feed `attempted` and `failed`.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}.  The full record (metadata, output hashes,
failures, details) goes to .perfbench/results/ under the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
LAUNCH = os.path.join(HERE, "launch.py")
CASES = os.path.join(HERE, "cases.py")
COMMAND_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from workloads import WORKLOADS, ValidateBattery  # noqa: E402


def _now():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(cli_args, workdir, tag, *, probe=False, trace=False):
    """Run one command through launch.py; return its measurements."""
    outdir = os.path.join(workdir, tag)
    os.makedirs(outdir)
    timing = os.path.join(outdir, "_timing.json")
    spans = os.path.join(outdir, "_spans.json") if trace else None
    argv = [sys.executable, LAUNCH, timing]
    argv += ["--trace", spans] if trace else []
    argv += ["--probe"] if probe else []
    argv += ["--"] + cli_args + ([] if probe else ["--out", outdir])
    with open(os.path.join(outdir, "_stdout"), "wb") as out, open(
        os.path.join(outdir, "_stderr"), "wb"
    ) as err:
        t0 = _now()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=workdir)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {
        "outdir": outdir,
        "exit_code": proc.returncode,
        "latency_s": (t1 - t0) / 1e9,
        "t0": t0,
        "t1": t1,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "spans": spans,
    }
    try:
        with open(timing, encoding="utf-8") as fh:
            child = json.load(fh)
    except (OSError, ValueError):
        child = None
    if child is not None:
        rec["interpreter_s"] = (child["t_start_ns"] - t0) / 1e9
        rec["import_s"] = (child["t_imported_ns"] - child["t_start_ns"]) / 1e9
        rec["setup_s"] = (child["t_imported_ns"] - t0) / 1e9
        rec["child"] = child
    return rec


def run_batch(commands, workdir, label, trace=False):
    cmds = [spawn(c.args, workdir, f"{label}-cmd{i}", trace=trace) for i, c in enumerate(commands)]
    return {
        "label": label,
        "trace": trace,
        "commands": cmds,
        "outdirs": [c["outdir"] for c in cmds],
        "wall_s": (cmds[-1]["t1"] - cmds[0]["t0"]) / 1e9,
    }


# ---------------------------------------------------------------- checks


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def output_hashes(batch):
    out = {}
    for i, cmd in enumerate(batch["commands"]):
        for name in sorted(os.listdir(cmd["outdir"])):
            if not name.startswith("_"):
                out[f"cmd{i}/{name}"] = _sha256(os.path.join(cmd["outdir"], name))
    return out


def _ops_of_command(wl, index):
    ids = wl.op_ids()
    return ids if len(wl.commands) == 1 else [ids[index]]


def _safe_ops(wl, batch):
    try:
        return wl.ops(batch["outdirs"])
    except (OSError, ValueError, KeyError, IndexError):
        return {}


def evaluate(wl, batches):
    """Oracles on the first batch, byte-level agreement of every later
    batch with it.  Returns (attempted, {(batch, op): reason})."""
    ids = wl.op_ids()
    failed = {}
    for b, batch in enumerate(batches):
        for i, cmd in enumerate(batch["commands"]):
            missing = [
                name for name in wl.commands[i].outputs
                if not os.path.isfile(os.path.join(cmd["outdir"], name))
            ]
            if cmd["exit_code"] != 0 or missing:
                reason = f"command {i} exited {cmd['exit_code']}, missing {missing}"
                for op in _ops_of_command(wl, i):
                    failed[(b, op)] = reason
    try:
        bad = wl.check(batches[0]["outdirs"])
    except Exception as exc:  # malformed outputs fail every operation
        bad = {op: f"oracle could not read the outputs: {exc!r}" for op in ids}
    for op, reason in bad.items():
        failed.setdefault((0, op), reason)
    first = _safe_ops(wl, batches[0])
    for b, batch in enumerate(batches[1:], 1):
        ops = _safe_ops(wl, batch)
        for op in ids:
            if ops.get(op) != first.get(op):
                failed.setdefault((b, op), f"output differs from {batches[0]['label']}")
    return len(ids) * len(batches), failed


# ---------------------------------------------------------------- layers


def _quantile_tail(values):
    """Value with ten samples beyond it (the highest such percentile),
    or the maximum when there are fewer than eleven."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _new_stats():
    return {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": [], "tags": {}}


def reduce_spans(paths):
    """Aggregate span files into {name: stats}."""
    stats = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names = data["names"]
        for spans in data["threads"]:
            child_ns = [0] * len(spans)
            for s in spans:
                if s is not None and s[3] >= 0:
                    child_ns[s[3]] += s[2] - s[1]
            for idx, s in enumerate(spans):
                if s is None:
                    continue
                name = names[s[0]]
                st = stats.setdefault(name, _new_stats())
                dur = s[2] - s[1]
                st["calls"] += 1
                st["busy_ns"] += dur
                st["self_ns"] += dur - child_ns[idx]
                st["durations"].append(dur)
                st["tags"][s[4]] = st["tags"].get(s[4], 0) + 1
    return stats


def layer_metrics(wl, ref, untraced, traced, setup_recs, cases):
    """Per-layer metrics, counts and times per traced batch."""
    n = len(traced)
    stats = reduce_spans([c["spans"] for b in traced for c in b["commands"] if os.path.isfile(c["spans"])])
    wall = statistics.median(b["wall_s"] for b in traced)
    m = {}

    def get(name):
        return stats.get(name) or _new_stats()

    def put(name, metric, value, unit):
        m[f"{name}.{metric}"] = (value, unit)

    def calls(name):
        put(name, "calls", get(name)["calls"] / n, "count")

    def busy(name, *extra):
        st = get(name)
        put(name, "busy_s", st["busy_ns"] / n / 1e9, "s")
        if "self" in extra:
            put(name, "self_s", st["self_ns"] / n / 1e9, "s")
        if "share" in extra:
            put(name, "share", st["busy_ns"] / n / 1e9 / wall, "ratio")
        if "tail" in extra:
            put(name, "tail_ms", _quantile_tail(st["durations"]) / 1e6, "ms")

    m["setup.interpreter_s"] = (statistics.median(r["interpreter_s"] for r in setup_recs), "s")
    m["setup.import_s"] = (statistics.median(r["import_s"] for r in setup_recs), "s")
    shares = [c["import_s"] / c["latency_s"] for b in traced for c in b["commands"] if "import_s" in c]
    m["setup.import_share"] = (statistics.median(shares), "ratio")

    integ = get("spectral.integrate")
    calls("spectral.integrate")
    busy("spectral.integrate", "share", "tail")
    durs = integ["durations"]
    put("spectral.integrate", "p50_ms", statistics.median(durs) / 1e6 if durs else 0.0, "ms")
    for kind in ("horizon_reached", "blowup_detected", "step_underflow"):
        put("spectral.integrate", kind, integ["tags"].get(kind, 0) / n, "count")

    calls("threshold.sigma_membership")
    busy("threshold.sigma_membership", "tail")
    calls("threshold.classify_profile")
    busy("threshold.classify_profile")
    calls("threshold.classify_point")

    calls("lagrange.advance_ensemble")
    busy("lagrange.advance_ensemble", "self", "share")
    busy("cli.main", "self")
    out_bytes = sum(
        os.path.getsize(os.path.join(c["outdir"], f))
        for c in ref["commands"] for f in os.listdir(c["outdir"]) if not f.startswith("_")
    )
    m["cli.output_bytes"] = (out_bytes, "bytes")
    busy("config.load_run_config")
    for name in ("flow.flow_radius", "flow.pushforward_density"):
        calls(name)
        busy(name)
    busy("profiles.derive_density")
    calls("quadrature.integrate_adaptive")

    elapsed = ValidateBattery.elapsed(ref["outdirs"][0]) if isinstance(wl, ValidateBattery) else {}
    for name in ValidateBattery.criteria:
        m[f"validation.{name}.elapsed_s"] = (elapsed.get(name, 0.0), "s")

    m["child.cpu_s"] = (sum(c["cpu_s"] for c in ref["commands"]), "s")
    m["trace.overhead_ratio"] = (wall / untraced["wall_s"], "ratio")
    m["trace.spans"] = (sum(st["calls"] for st in stats.values()) / n, "count")
    for row in cases:
        m[row["name"]] = (row["ms"], "ms")
    return m




def run_cases(toy):
    proc = subprocess.run(
        [sys.executable, CASES] + (["--toy"] if toy else []),
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=COMMAND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return [], {"cases": f"cases.py exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    rows = json.loads(proc.stdout.splitlines()[-1])["rows"]
    failed = {}
    for row in rows:
        if "expect" in row and row["termination"] != row["expect"]:
            failed[row["name"]] = f"termination {row['termination']}, expected {row['expect']}"
        if "expect_boundary" in row and abs(row["boundary"] - row["expect_boundary"]) > row["tol"]:
            failed[row["name"]] = f"bisected boundary {row['boundary']!r}"
    return rows, failed


# ---------------------------------------------------------------- metadata


def metadata(seed, child):
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    child = child or {}
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "backend": child.get("backend"),
        "python": child.get("python"),
        "numpy": child.get("numpy"),
        "scipy": child.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------- a run


def run_workload(name, seed, seconds, trace, toy=False):
    wl = WORKLOADS[name](seed, toy=toy)
    workdir = os.path.join(STATE, "work", f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return _run(wl, seed, seconds, trace, toy, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed, seconds, trace, toy, workdir):
    def probe(tag):
        return spawn(wl.commands[0].args[:1], workdir, tag, probe=True)

    probe("warmup")  # fills caches, compiles bytecode
    # Set-up samples on both sides of the timed region, so that their
    # median sees the machine as the batches do.
    probes = [probe(f"probe{i}") for i in range((wl.probes + 1) // 2)]

    batches = []
    start = _now()
    own_traced = hasattr(wl, "traced_commands")
    traced_commands = wl.traced_commands if own_traced else wl.commands
    if trace:
        batches.append(run_batch(wl.commands, workdir, "untraced"))
        if own_traced:
            # The overhead is measured against the same commands untraced.
            batches.append(run_batch(traced_commands, workdir, "untraced-as-traced"))
    untraced = batches[-1] if trace else None
    while True:
        label = f"batch{len(batches)}"
        batches.append(run_batch(traced_commands if trace else wl.commands, workdir, label, trace=trace))
        if (_now() - start) / 1e9 >= seconds:
            break

    probes += [probe(f"probe{i}") for i in range(len(probes), wl.probes)]
    cases, case_failed = run_cases(toy) if trace else ([], {})
    commands = [c for b in batches for c in b["commands"]]
    setup_recs = [r for r in probes + commands if "setup_s" in r]
    child = next((r["child"] for r in setup_recs), None)
    meta = metadata(seed, child)

    if SRC not in sys.path:  # the oracles import emaflow
        sys.path.insert(0, SRC)
    attempted, failed = evaluate(wl, batches)
    attempted += len(cases) if trace else 0
    failures = [f"{batches[b]['label']}:{op}: {why}" for (b, op), why in sorted(failed.items())]
    failures += [f"case:{op}: {why}" for op, why in sorted(case_failed.items())]
    n_failed = len(failed) + len(case_failed)

    timed = [b for b in batches if b["trace"] == trace]
    latencies = [c["latency_s"] for b in timed for c in b["commands"]]
    details = {
        "batches": len(timed),
        "commands": len(latencies),
        "setup_s_samples": [r["setup_s"] for r in setup_recs],
        "cmd_latency": _latency_ladder(latencies),
        "batch_wall_s": [b["wall_s"] for b in timed],
        "fail_ratio": n_failed / attempted,
    }
    if trace:
        metrics = layer_metrics(wl, batches[0], untraced, timed, setup_recs, cases)
        details["cases"] = cases
    else:
        metrics = {
            "wall_s": (statistics.median(b["wall_s"] for b in timed), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in setup_recs), "s"),
            "peak_rss_mb": (max(c["maxrss_mb"] for c in commands), "MB"),
            "cmd_p50_s": (statistics.median(latencies), "s"),
        }
        details["samples"] = {
            "wall_s": len(timed),
            "setup_s": len(setup_recs),
            "peak_rss_mb": len(commands),
            "cmd_p50_s": len(latencies),
        }
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "meta": meta,
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
        "failures": failures[:50],
        "hashes": {b["label"]: output_hashes(b) for b in batches},
    }
    return record


def _latency_ladder(latencies):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"samples": n, "unit": "s", "p50": statistics.median(ordered)}
    if n > 10:
        k = n - 11
        out["tail"] = {"percentile": round(100.0 * k / (n - 1), 1), "value": ordered[k], "beyond": n - 1 - k}
    return out


def save(record):
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{record['workload']}-s{record['seed']}-t{record['trace']}{'-toy' if record['toy'] else ''}.json"
    path = os.path.join(results, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def summary_lines(record):
    d = record["details"]
    head = (
        f"{record['workload']}: seed={record['seed']} trace={record['trace']} "
        f"backend={record['meta']['backend']} batches={d['batches']} commands={d['commands']}"
    )
    lines = [head]
    samples = d.get("samples", {})
    for key, m in record["metrics"].items():
        n = f"  (n={samples[key]})" if key in samples else ""
        lines.append(f"  {key:<48} {m['value']:>14.6g} {m['unit']}{n}")
    lines.append(
        f"  {'fail_ratio':<48} {d['fail_ratio']:>14.6g} ratio"
        f"  ({record['failed']} of {record['attempted']} operations)"
    )
    lad = d["cmd_latency"]
    tail = lad.get("tail")
    text = f"  command latency: p50={lad['p50']:.4f} s over {lad['samples']} samples"
    if tail:
        text += f"; p{tail['percentile']:g}={tail['value']:.4f} s ({tail['beyond']} samples beyond)"
    lines.append(text)
    lines += [f"  FAILED {f}" for f in record["failures"][:10]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "emaflow", "cli.py")):
        print(f"error: no emaflow source tree at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), toy=args.toy)
        path = save(record)
        print("\n".join(summary_lines(record)))
        print(f"  record: {os.path.relpath(path, ROOT)}")
        records.append(record)
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
