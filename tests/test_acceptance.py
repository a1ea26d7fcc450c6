"""End-to-end acceptance run: every shipped criterion at its stated budget.

Each criterion prints one PASS/FAIL line (run with -s to watch them);
the suite fails if any measured value lands outside its budget.
"""

import dataclasses
import math

import pytest

from emaflow import cli, validation
from emaflow.spectral import integrate, integrate_batch
from emaflow.threshold import Verdict, blowup_time_closed_form, classify_point
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
    # The 41 x 41 cells and a pair of points at each of the 41 heights.
    assert result.details == {"nodes": 41 * 41 + 2 * 41, "node_mismatches": 0}
    assert list(tmp_path.iterdir()) == []


# Stand-ins for the routes the criteria import, each broken one way.
def _stopped_at_a_pole(*args, **kwargs):
    traj = integrate(*args, **kwargs)
    return dataclasses.replace(
        traj, termination=dataclasses.replace(traj.termination, kind="blowup_detected")
    )


def _never_blows_up(*args, **kwargs):
    result = integrate_batch(*args, **kwargs)
    return dataclasses.replace(result, kinds=("horizon_reached",) * len(result.kinds))


def _judges_by_dimension(profile, r_grid=None):
    return Verdict("subcritical" if profile.dimension == 2 else "boundary")


def _divides_by_kappa(lambda0, h0, kappa):
    # The root's phase over kappa where it belongs over sqrt(kappa).
    t = blowup_time_closed_form(lambda0, h0, kappa)
    return None if t is None else t * math.sqrt(kappa) / kappa


def _flips_one_cell(lambda0, h0, kappa):
    # (-2, -1) is supercritical: lambda0^2 = 4 > kappa(1 - 2 h0) = 3.
    if (lambda0, h0) == (-2.0, -1.0):
        return Verdict("subcritical")
    return classify_point(lambda0, h0, kappa)


# Test id -> (criterion, route, stand-in, count in details, its value).
_BROKEN_ROUTES = {
    "ellipse_invariant": ("ellipse_invariant", "integrate", _stopped_at_a_pole, "unbounded", 20),
    "swirl_invariants": ("swirl_invariants", "integrate", _stopped_at_a_pole, "unbounded", 20),
    "blowup_time_agreement": (
        "blowup_time_agreement", "integrate_batch", _never_blows_up, "undetected_blowups", 50
    ),
    # Every blowup is found; the times are off by the factor sqrt(kappa).
    "blowup_time_agreement-kappa": (
        "blowup_time_agreement", "blowup_time_closed_form", _divides_by_kappa,
        "undetected_blowups", 0,
    ),
    "dimension_independence": (
        "dimension_independence", "classify_profile", _judges_by_dimension, None, 10
    ),
    "phase_diagram_golden": (
        "phase_diagram_golden", "classify_point", _flips_one_cell, "node_mismatches", 1
    ),
}


@pytest.mark.parametrize(
    "name,route,stand_in,count,expected",
    list(_BROKEN_ROUTES.values()),
    ids=list(_BROKEN_ROUTES),
)
def test_each_criterion_fails_on_a_broken_route(
    monkeypatch, name, route, stand_in, count, expected
):
    # A criterion that cannot fail checks nothing: with the route it
    # checks broken, each one fails and counts the failures in details.
    monkeypatch.setattr(validation, route, stand_in)
    (result,) = run_criteria([name])
    assert result.passed is False
    if count is None:  # dimension_independence marks each mismatched preset
        assert sum(" != " in v for v in result.details.values()) == expected
    else:
        assert result.details[count] == expected
