"""Self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with tiny inputs and
checks that each run is correct and reports exactly the metrics of
BENCHMARK.json with their units.  Then it corrupts one output of each
workload (a sweep regime, a snapshot density, a criterion verdict, a
classify t_blowup) and checks that the oracles and the determinism
check count failed operations.  Exits 0 when every check holds.
"""

import json
import os
import shutil
import sys

import run

PROBLEMS = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def _edit(path, fn):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    new = fn(text)
    assert new != text, f"corruption left {path} unchanged"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new)


def _flip_regime(text):
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[2] = "subcritical" if cells[2] == "supercritical" else "supercritical"
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _perturb_density(text):
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _fail_criterion(text):
    return text.replace('"passed": true', '"passed": false', 1)


def _perturb_t_blowup(text):
    verdict = json.loads(text)
    verdict["t_blowup"] *= 1.0 + 1e-9
    return json.dumps(verdict, indent=2, sort_keys=True) + "\n"


# workload -> (index of the command to corrupt, output file, corruption)
CORRUPTIONS = {
    "sigma_sweep": (0, "sweep.csv", _flip_regime),
    "ensemble_snapshots": (0, "snapshots.csv", _perturb_density),
    "validate_battery": (0, "report.json", _fail_criterion),
    "classify_cold": (1, "verdict.json", _perturb_t_blowup),  # case 1 is supercritical
}


def check_metrics(record, specs):
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    expect(got == want, f"{record['workload']} trace={record['trace']}: metric names and units match BENCHMARK.json")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, run.SRC)  # the oracles import emaflow
    for name in spec["workloads"]:
        name = name["name"]
        for trace, specs in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            record = run.run_workload(name, 0, 0.0, trace, toy=True)
            expect(record["correct"] and record["failed"] == 0 and record["attempted"] >= 1,
                   f"{name} trace={int(trace)}: {record['failed']}/{record['attempted']} failed")
            check_metrics(record, specs)
            expect(record["meta"]["backend"] is not None and record["meta"]["nproc"] >= 1,
                   f"{name} trace={int(trace)}: metadata recorded")

        wl = run.WORKLOADS[name](0, toy=True)
        workdir = os.path.join(run.STATE, "selftest", name)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            good = run.run_batch(wl.commands, workdir, "good")
            twin = run.run_batch(wl.commands, workdir, "twin")
            _, failed = run.evaluate(wl, [good, twin])
            expect(not failed, f"{name}: clean batches pass the oracles and agree")

            index, filename, corrupt = CORRUPTIONS[name]
            _edit(os.path.join(twin["outdirs"][index], filename), corrupt)
            attempted, failed = run.evaluate(wl, [good, twin])
            expect(failed and all(b == 1 for b, _ in failed),
                   f"{name}: corrupted second batch -> {len(failed)}/{attempted} failed (determinism)")
            attempted, failed = run.evaluate(wl, [twin])
            expect(bool(failed), f"{name}: corrupted batch -> {len(failed)}/{attempted} failed (oracle)")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    if not PROBLEMS:
        print("self-test passed")
        return 0
    print(f"self-test failed: {len(PROBLEMS)} problem(s)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
