"""End-to-end acceptance run: every shipped criterion at its stated budget.

Each criterion prints one PASS/FAIL line (run with -s to watch them);
the suite fails if any measured value lands outside its budget.
"""

from emaflow import cli
from emaflow.validation import available_criteria, resolve_suites, run_criteria

EXPECTED = (
    "threshold_sharpness",
    "blowup_time_agreement",
    "ellipse_invariant",
    "swirl_invariants",
    "euler_poisson_boundedness",
    "flow_lagrange_equivalence",
    "energy_conservation",
    "path_invariants",
    "dimension_independence",
    "phase_diagram_golden",
)


def test_registry_is_complete():
    assert available_criteria() == EXPECTED
    assert tuple(resolve_suites(("all",))) == EXPECTED


def test_all_acceptance_criteria_pass():
    results = run_criteria(resolve_suites(("all",)), seed=0)
    assert [r.name for r in results] == list(EXPECTED)
    failures = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name}: measured={r.measured:g} budget={r.budget:g}")
        if not r.passed:
            failures.append(r)
    assert not failures, [
        f"{r.name}: measured={r.measured!r} exceeds budget={r.budget!r}"
        for r in failures
    ]


def test_phase_diagram_never_reaches_the_cli(tmp_path, monkeypatch):
    # The criterion classifies the sweep's cells itself: it neither runs
    # the sweep command nor writes a file.
    def unreachable(*args, **kwargs):
        raise AssertionError("phase_diagram_golden went through the CLI")

    monkeypatch.setattr(cli, "cmd_sweep", unreachable)
    monkeypatch.setattr(cli, "_write_csv", unreachable)
    monkeypatch.chdir(tmp_path)
    (result,) = run_criteria(["phase_diagram_golden"])
    assert result.passed
    assert result.details == {"nodes": 41 * 41, "node_mismatches": 0}
    assert list(tmp_path.iterdir()) == []
