"""The criteria in worker processes: same results, same error contract,
no process left behind."""

import dataclasses
import json
import math
import multiprocessing
import subprocess
import sys

import numpy as np
import pytest

from emaflow import validation
from emaflow.flow import conserved_energy
from emaflow.lagrange import default_seeds, ensemble_energies
from emaflow.spectral import Termination
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


def test_no_criterion_calls_an_eigenvalue_solver(monkeypatch):
    # energy_conservation's Gauss-Legendre rule comes from Newton's
    # method, so no criterion calls LAPACK, in this process or in a
    # worker, and the pool needs no step before the fork.
    def refused(*args, **kwargs):
        raise AssertionError("an eigenvalue solver was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    monkeypatch.setattr(np.linalg, "eigh", refused)
    names = [*validation._SHARED_ENSEMBLES, "dimension_independence"]
    for workers in (1, 2):
        validation._equivalence_runs.cache_clear()
        results = run_criteria(names, seed=3, workers=workers)
        assert [r.name for r in results] == names and all(r.passed for r in results)
        assert multiprocessing.active_children() == []


def test_shared_criteria_fail_on_ensembles_that_stopped_early(monkeypatch):
    # Each ensemble cut after t = 0.5 as if its characteristics crossed
    # there: all three criteria that read them fail, and say why.
    def stopped(result):
        return dataclasses.replace(
            result,
            termination=Termination(kind="crossing_detected", t_est=0.5),
            snapshots=result.snapshots[:2],
            char_times=result.char_times[:2],
            char_states=result.char_states[:2],
        )

    cut = tuple(
        (profile, stopped(result), nodes, weights)
        for profile, result, nodes, weights in validation._equivalence_runs()
    )
    monkeypatch.setattr(validation, "_equivalence_runs", lambda: cut)
    results = run_criteria(list(validation._SHARED_ENSEMBLES))
    assert [r.name for r in results] == list(validation._SHARED_ENSEMBLES)
    for r in results:
        assert (r.passed, r.measured) == (False, math.inf)
        assert r.details == {"termination": "crossing_detected"}


def test_shared_ensembles_run_as_one_unit():
    names = ["flow_lagrange_equivalence", "energy_conservation", "path_invariants"]
    assert validation._units(names + ["dimension_independence"]) == [
        tuple(names),
        ("dimension_independence",),
    ]
    assert validation._units(["path_invariants", "dimension_independence"]) == [
        ("path_invariants",),
        ("dimension_independence",),
    ]


def test_energy_entry_does_not_depend_on_its_partners():
    # energy_conservation reads the ensembles it shares with flow and
    # path; alone, after them in one unit, or in a worker, its entry is
    # the same.
    partners = ["flow_lagrange_equivalence", "energy_conservation", "path_invariants"]
    entries = []
    for names, workers in ((["energy_conservation"], 1), (partners, 1), (partners, 2)):
        validation._equivalence_runs.cache_clear()
        results = run_criteria(names + ["dimension_independence"], workers=workers)
        entries += [_without_elapsed(r) for r in results if r.name == "energy_conservation"]
    assert entries[0].passed and entries[1:] == entries[:1] * 2
    # test_profiles.ROUTE_BOUND: the two routes to Gamma^{-1}
    assert entries[0].details["mass_route_difference"] <= 1e-13


def test_energy_reads_the_node_rows_of_the_shared_ensembles():
    # At t = 0 the rows seeded on the rule's nodes hold the initial data
    # there, so their energy is the closed form's.
    for profile, result, nodes, weights in validation._equivalence_runs():
        on_nodes = validation._on_nodes(result, nodes)
        assert np.array_equal(on_nodes.seeds, nodes)
        e0 = ensemble_energies(profile, on_nodes, weights)[0]
        assert e0 == pytest.approx(conserved_energy(profile, nodes, weights, 0.0), rel=1e-13)


def test_shared_ensembles_are_seeded_on_the_union_of_radii_and_rule_nodes():
    for profile, result, nodes, _ in validation._equivalence_runs():
        union = np.union1d(default_seeds(profile, 2048), nodes)
        assert result.seeds.tobytes() == union.tobytes()


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
# stderr line (in a worker, it guards that the fork hands the workers
# the caller's error state), and one that passes, raises or kills its
# process, as argv[1] says.  In a fresh interpreter, so nothing of pytest's warning
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

validation._REGISTRY = {
    "divides_by_zero": ("warns nothing", divides_by_zero),
    "ends": ("ends as argv[1] says", ends),
}
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
