"""The criteria in worker processes: same results, same error contract,
no process left behind."""

import dataclasses
import json
import multiprocessing
import subprocess
import sys

import pytest

from emaflow import validation
from emaflow.validation import run_criteria

CHEAP = ["blowup_time_agreement", "dimension_independence", "phase_diagram_golden"]


def _without_elapsed(result):
    return dataclasses.replace(result, elapsed_s=0.0)


def test_pool_results_equal_the_serial_ones():
    serial = run_criteria(CHEAP, seed=3)
    pooled = run_criteria(CHEAP, seed=3, workers=2)
    assert [r.name for r in pooled] == CHEAP
    assert [_without_elapsed(r) for r in pooled] == [_without_elapsed(r) for r in serial]
    assert multiprocessing.active_children() == []


def test_one_worker_or_one_unit_forks_nothing(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(validation, "ProcessPoolExecutor", no_pool)
    assert [r.name for r in run_criteria(CHEAP, workers=1)] == CHEAP
    assert [r.name for r in run_criteria(CHEAP[:1], workers=4)] == CHEAP[:1]


def test_shared_ensembles_run_as_one_unit():
    names = ["flow_lagrange_equivalence", "energy_conservation", "path_invariants"]
    assert validation._units(names) == [
        ("flow_lagrange_equivalence", "path_invariants"),
        ("energy_conservation",),
    ]
    assert validation._units(["path_invariants", "dimension_independence"]) == [
        ("path_invariants",),
        ("dimension_independence",),
    ]


def _report(path):
    report = json.loads((path / "report.json").read_text())
    for entry in report["criteria"]:
        entry.pop("elapsed_s")
    return report


def test_validate_report_is_the_same_for_any_thread_count(tmp_path):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "emaflow", "validate", "--threads", threads,
             "--out", str(out), "--set", "validate.suites=" + ",".join(CHEAP)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        reports.append(_report(out))
    assert reports[0] == reports[1]
    assert [c["name"] for c in reports[0]["criteria"]] == CHEAP


# Runs main() with two stand-in criteria put in the registry before any
# fork: one that divides by zero, so a NumPy warning would be a second
# stderr line, and one that passes, raises or kills its process, as
# argv[1] says.  In a fresh interpreter, so nothing of pytest's warning
# capture reaches the workers.
_VALIDATE_STAND_INS = """
import multiprocessing, os, sys
import numpy as np
from emaflow import validation
from emaflow.cli import main
from emaflow.errors import DomainError

def divides_by_zero(seed):
    return True, float(np.ones(1)[0] / 0.0), float("inf"), {}

def ends(seed):
    if sys.argv[1] == "raise":
        raise DomainError("the criterion saw a bad point")
    if sys.argv[1] == "exit":
        os._exit(3)
    return True, 0.0, 1.0, {}

validation._REGISTRY = (
    ("divides_by_zero", "warns nothing", divides_by_zero),
    ("ends", "ends as argv[1] says", ends),
)
code = main(["validate", *sys.argv[2:]])
assert multiprocessing.active_children() == [], "a worker outlived main()"
sys.exit(code)
"""


def _validate_stand_ins(tmp_path, mode, threads):
    return subprocess.run(
        [sys.executable, "-c", _VALIDATE_STAND_INS, mode, "--threads", threads,
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "mode,code,stderr",
    [("pass", 0, ""), ("raise", 1, "error: DomainError: the criterion saw a bad point\n")],
)
def test_stderr_and_exit_code_do_not_depend_on_the_pool(tmp_path, mode, code, stderr, threads):
    proc = _validate_stand_ins(tmp_path, mode, threads)
    assert (proc.returncode, proc.stderr) == (code, stderr)


def test_a_dead_worker_is_one_typed_error_line(tmp_path):
    proc = _validate_stand_ins(tmp_path, "exit", "2")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: WorkerError: a validation worker process died")
    assert len(proc.stderr.splitlines()) == 1
