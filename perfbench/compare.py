"""Summarise and compare benchmark records written by run.py.

    python3 perfbench/compare.py spread RECORDS...
    python3 perfbench/compare.py diff BASE_RECORDS NEW_RECORDS

RECORDS is a results directory (.perfbench/results) or record files.
`spread` prints, per workload and end-to-end metric, the median, the
quartiles and their distance as a share of the median, next to the
metric's bound from BENCHMARK.json.  `diff` compares the medians of two
sets of untraced records against the bounds and exits 1 when a metric
got worse by more than its bound.  Records from different kernel
backends are never paired: `diff` refuses them and exits 2.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_records(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
        else:
            files.append(path)
    records = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not record.get("toy") and record.get("trace") == 0:
            records.append(record)
    return records


def by_workload(records):
    groups = {}
    for record in records:
        groups.setdefault(record["workload"], []).append(record)
    return groups


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def backends(records):
    return {r["meta"]["backend"] for r in records}


def cmd_spread(paths):
    spec = load_spec()
    for workload, records in sorted(by_workload(load_records(paths)).items()):
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"{workload}: {len(records)} runs, backends {sorted(backends(records))}, "
              f"fail_ratio {failed}/{attempted}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            med, q1, q3, spread = stats(values)
            flag = "ok" if spread <= metric["bound"] / 3 else ("wide" if spread <= metric["bound"] else "OVER BOUND")
            print(f"  {metric['name']:<12} median {med:10.4f} {metric['unit']:<3} q1 {q1:10.4f} q3 {q3:10.4f}"
                  f"  spread {spread:6.3f}  bound {metric['bound']:.2f}  {flag}")
    return 0


def cmd_diff(base_paths, new_paths):
    spec = load_spec()
    base = by_workload(load_records(base_paths))
    new = by_workload(load_records(new_paths))
    status = 0
    for workload in sorted(set(base) & set(new)):
        b_back, n_back = backends(base[workload]), backends(new[workload])
        if len(b_back | n_back) != 1:
            print(f"{workload}: refusing to compare backends {sorted(b_back)} and {sorted(n_back)}")
            return 2
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs, backend {b_back.pop()}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_med, _, _, b_spread = stats([r["metrics"][name]["value"] for r in base[workload]])
            n_med, _, _, _ = stats([r["metrics"][name]["value"] for r in new[workload]])
            change = n_med / b_med - 1.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > metric["bound"] else "within bound"
            if worse > metric["bound"]:
                status = 1
            print(f"  {name:<12} base {b_med:10.4f} new {n_med:10.4f} {metric['unit']:<3} change {change:+7.2%}"
                  f"  base spread {b_spread:6.3f}  bound {metric['bound']:.2f}  {verdict}")
    return status


def main(argv):
    if len(argv) >= 2 and argv[0] == "spread":
        return cmd_spread(argv[1:])
    if len(argv) == 3 and argv[0] == "diff":
        return cmd_diff([argv[1]], [argv[2]])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
