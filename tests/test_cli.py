"""Command-line interface: exit codes, file outputs, determinism."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from emaflow.cli import main
from emaflow.config import SWIRL_FIELDS
from emaflow.spectral import SwirlState
from emaflow.threshold import sigma_membership

CANONICAL = [
    "--set", "profile.preset=quadratic",
    "--set", "profile.a=0",
    "--set", "profile.c=-2",
    "--set", "profile.d=1",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- simulate


def test_simulate_equilibrium(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, stdout, stderr = run_cli(["simulate", "--out", out], capsys)
    assert code == 0
    assert stderr == ""
    assert "termination=horizon_reached" in stdout

    with open(tmp_path / "run" / "snapshots.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "r", "rho", "u", "p", "q", "mu", "nu"]
    # static profile: every field column is constant
    for row in rows[1:]:
        assert row[2:] == ["1.0", "0.0", "0.0", "0.0", "0.0", "0.0"]

    diag = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    assert diag["termination"] == "horizon_reached"
    assert diag["t_blowup_estimate"] is None
    assert diag["bkm_integral"] == 0.0


def test_simulate_supercritical_exits_2(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, stdout, _ = run_cli(["simulate", "--out", out, *CANONICAL], capsys)
    assert code == 2
    assert "termination=blowup_detected" in stdout
    diag = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    assert abs(diag["t_blowup_estimate"] - math.pi / 6.0) <= 1e-2


# ---------------------------------------------------------------- classify


def test_classify_equilibrium(tmp_path, capsys):
    out = str(tmp_path / "cl")
    code, _, _ = run_cli(["classify", "--out", out], capsys)
    assert code == 0
    verdict = json.loads((tmp_path / "cl" / "verdict.json").read_text())
    assert verdict["class"] == "subcritical"
    assert verdict["t_blowup"] is None
    assert verdict["margins"] == {"gradient_branch": 1.0, "ratio_branch": 1.0}


def test_classify_supercritical_still_exits_0(tmp_path, capsys):
    # a verdict is the product, not a failure
    out = str(tmp_path / "cl")
    code, _, _ = run_cli(["classify", "--out", out, *CANONICAL], capsys)
    assert code == 0
    verdict = json.loads((tmp_path / "cl" / "verdict.json").read_text())
    assert verdict["class"] == "supercritical"
    assert verdict["witness_r"] == 0.0
    assert verdict["t_blowup"] == pytest.approx(math.pi / 6.0, abs=1e-12)


def test_classify_boundary_tuned(tmp_path, capsys):
    out = str(tmp_path / "cl")
    c = math.sqrt(0.4)
    code, _, _ = run_cli(
        [
            "classify", "--out", out,
            "--set", "profile.preset=quadratic",
            "--set", "profile.a=0.3",
            "--set", f"profile.c={c!r}",
            "--set", "profile.d=1",
        ],
        capsys,
    )
    assert code == 0
    verdict = json.loads((tmp_path / "cl" / "verdict.json").read_text())
    assert verdict["class"] == "boundary"


# ---------------------------------------------------------------- sweep


def test_sweep_single_cell(tmp_path, capsys):
    out = str(tmp_path / "sw")
    code, stdout, _ = run_cli(
        [
            "sweep", "--out", out,
            "--set", "sweep.axis1=lambda0, 0, 0, 1",
            "--set", "sweep.axis2=h0, 0, 0, 1",
        ],
        capsys,
    )
    assert code == 0
    assert "cells=1" in stdout
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda0,h0,regime,t_blowup"
    assert lines[1] == "0.0,0.0,subcritical,"
    assert len(lines) == 2


SWEEP_ARGS = [
    "--set", "sweep.axis1=lambda0, -1.5, 1.5, 5",
    "--set", "sweep.axis2=h0, -0.5, 0.45, 4",
]


def test_sweep_deterministic_across_threads(tmp_path, capsys):
    outputs = []
    for tag, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = str(tmp_path / tag)
        code, _, _ = run_cli(
            ["sweep", "--out", out, "--threads", threads, *SWEEP_ARGS], capsys
        )
        assert code == 0
        outputs.append((tmp_path / tag / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


SWIRL_SWEEP_ARGS = [
    "--set", "sweep.mode=swirl_sigma",
    "--set", "sweep.horizon=20",
    "--set", "sweep.axis1=p0, -0.9, 0.9, 3",
    "--set", "sweep.axis2=theta_over_r0, 0.05, 0.65, 3",
    "--set", "sweep.q0=0.01",
    "--set", "sweep.nu0=-0.01",
]


def test_swirl_sweep_is_one_batch_of_sigma_verdicts(tmp_path, capsys):
    outputs = []
    for tag, threads in (("a", "1"), ("b", "4")):
        out = str(tmp_path / tag)
        code, _, _ = run_cli(
            ["sweep", "--out", out, "--threads", threads, *SWIRL_SWEEP_ARGS], capsys
        )
        assert code == 0
        outputs.append((tmp_path / tag / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]

    rows = list(csv.reader(outputs[0].decode().splitlines()))
    assert rows[0] == ["p0", "theta_over_r0", "regime", "t_blowup"]
    assert {row[2] for row in rows[1:]} == {"subcritical", "supercritical"}
    for p0, tor0, regime, t_blowup in rows[1:]:
        state = SwirlState(float(p0), 0.01, 0.0, -0.01, 0.0, float(tor0))
        verdict = sigma_membership(state, 1.0, horizon=20.0)
        assert regime == verdict.regime
        if verdict.t_blowup is None:
            assert t_blowup == ""
        else:
            assert abs(float(t_blowup) - verdict.t_blowup) <= 1e-12 * verdict.t_blowup


def test_simulate_deterministic_across_runs(tmp_path, capsys):
    payloads = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        code, _, _ = run_cli(
            ["simulate", "--out", out, "--set", "simulate.n_chars=64"], capsys
        )
        assert code == 0
        payloads.append(
            (
                (tmp_path / tag / "snapshots.csv").read_bytes(),
                (tmp_path / tag / "diagnostics.json").read_bytes(),
            )
        )
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------- validate


def test_validate_selected_suites(tmp_path, capsys):
    out = str(tmp_path / "val")
    code, stdout, _ = run_cli(
        [
            "validate", "--out", out,
            "--set", "validate.suites=ellipse_invariant, blowup_time_agreement",
        ],
        capsys,
    )
    assert code == 0
    assert stdout.count("PASS") == 2
    report = json.loads((tmp_path / "val" / "report.json").read_text())
    assert report["all_passed"] is True
    assert [c["name"] for c in report["criteria"]] == [
        "blowup_time_agreement",
        "ellipse_invariant",
    ]
    for c in report["criteria"]:
        assert c["passed"] is True
        assert c["measured"] <= c["budget"]


def test_validate_euler_poisson_seed_11(tmp_path, capsys):
    # Seed 11 draws samples whose excursion certificate overflows.
    code, _, stderr = run_cli(
        [
            "validate", "--seed", "11", "--out", str(tmp_path / "v"),
            "--set", "validate.suites=euler_poisson_boundedness",
        ],
        capsys,
    )
    assert code in (0, 2)
    assert len(stderr.splitlines()) <= 1


def test_validate_rejects_empty_selection(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["validate", "--out", str(tmp_path / "v"), "--set", "validate.suites="],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error: ConfigError:")
    assert "empty suite selection" in stderr


def test_validate_rejects_unknown_suite(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["validate", "--out", str(tmp_path / "v"), "--set", "validate.suites=wibble"],
        capsys,
    )
    assert code == 1
    assert "unknown validation suite" in stderr


# ---------------------------------------------------------------- error contract


@pytest.mark.parametrize(
    "argv,needle",
    [
        ([], "a subcommand is required"),
        (["frobnicate"], "invalid choice"),
        (["simulate", "--set", "garbage"], "SECTION.KEY=VALUE"),
        (["simulate", "--set", "profile.preset=unknown_thing"], "unknown preset"),
        (["simulate", "--config", "/nonexistent/run.ini"], "cannot read"),
    ],
)
def test_usage_errors_exit_1(tmp_path, capsys, argv, needle):
    if argv and argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "x")]
    code, _, stderr = run_cli(argv, capsys)
    assert code == 1
    lines = [l for l in stderr.splitlines() if l]
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert needle in lines[0]


# Outside values the parsers accept or must reject: every float,
# including nan, infinities, the extremes and subnormals, plus garbage.
# The only ones that parse as integers are small, so grid sizes and axis
# counts drawn from them allocate little.
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e308", "-1e308", "1e200", "5e-324", "", "abc", "1,2", "0x10"]),
    st.integers(-3, 3).map(str),
)


def _set(key, value):
    return ["--set", f"{key}={value}"]


def _profile_sets(draw, kappas):
    argv = _set("profile.preset", draw(st.sampled_from(["quadratic", "bump", "equilibrium", "x"])))
    keys = st.sampled_from(
        ["run.kappa", "run.n", "profile.a", "profile.b", "profile.c", "profile.d",
         "profile.rc", "profile.s", "profile.r_max"]
    )
    for key, value in draw(st.lists(st.tuples(keys, NUMBERS), max_size=4)):
        argv += _set(key, draw(kappas) if key == "run.kappa" else value)
    return argv


@st.composite
def classify_argv(draw):
    argv = ["classify"] + _profile_sets(draw, NUMBERS)
    return argv + _set("classify.grid_size", draw(st.integers(-2, 64).map(str) | NUMBERS))


@st.composite
def pointwise_sweep_argv(draw):
    argv = ["sweep"]
    for key, name in (("sweep.axis1", "lambda0"), ("sweep.axis2", "h0")):
        count = draw(st.integers(0, 4).map(str) | NUMBERS)
        argv += _set(key, f"{name}, {draw(NUMBERS)}, {draw(NUMBERS)}, {count}")
    if draw(st.booleans()):
        argv += _set("run.kappa", draw(NUMBERS))
    return argv


def _bounded_steps(kappa):
    # An ensemble takes about sqrt(kappa) * t_end steps with no cap, so
    # a finite kappa far above 1 runs for minutes (1e6 takes seconds,
    # 1e10 minutes); it is the same open defect that keeps
    # simulate.t_end out of this test.
    try:
        return not 1e4 < float(kappa) < math.inf
    except ValueError:
        return True


@st.composite
def simulate_argv(draw):
    argv = ["simulate"] + _profile_sets(draw, NUMBERS.filter(_bounded_steps))
    for key in ("simulate.n_chars", "simulate.grid_size", "simulate.n_snapshots"):
        argv += _set(key, draw(st.integers(2, 8)))
    return argv


def _short_horizon(horizon, kappa):
    # Like simulate.t_end, the horizon sets the step count and nothing
    # caps it: a bounded lane takes about horizon * max(1, sqrt(kappa))
    # steps (a 3x3 sweep at kappa 100 took 2.5 s to horizon 50 and 61 s
    # to horizon 1000).  Keep that product at 10 or below.
    try:
        scale = math.sqrt(max(1.0, float(kappa)))
    except ValueError:
        scale = 1.0
    try:
        return not 10.0 / scale < float(horizon) < math.inf
    except ValueError:
        return True


def _mostly(plausible):
    # NUMBERS one time in four, else a plausible value, so that a fair
    # share of examples gets past the config checks into the integrator.
    return st.integers(0, 3).flatmap(lambda k: NUMBERS if k == 0 else plausible)


def _within(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr))


@st.composite
def swirl_sweep_argv(draw):
    argv = ["sweep"] + _set("sweep.mode", "swirl_sigma")
    fields = draw(st.permutations(SWIRL_FIELDS))
    for key, name in (("sweep.axis1", fields[0]), ("sweep.axis2", fields[1])):
        count = draw(_mostly(st.integers(1, 3).map(str)))
        argv += _set(key, f"{name}, {draw(_within(-2, 0))}, {draw(_within(0.5, 2))}, {count}")
    for name in fields[2:2 + draw(st.integers(0, 4))]:
        argv += _set(f"sweep.{name}", draw(_within(-1, 1)))
    kappa = draw(_within(0.01, 100).filter(_bounded_steps))
    # The horizon is always set: the default, 500 / sqrt(kappa), grows
    # without bound as kappa goes to 0.
    horizon = draw(_within(0.01, 10).filter(lambda h: _short_horizon(h, kappa)))
    return argv + _set("run.kappa", kappa) + _set("sweep.horizon", horizon)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    argv=st.one_of(classify_argv(), pointwise_sweep_argv(), simulate_argv(), swirl_sweep_argv())
)
@example(argv=["classify", "--set", "profile.preset=quadratic", "--set", "profile.c=1e308"])
@example(argv=["classify", "--set", "profile.preset=bump", "--set", "profile.c=1e200"])
@example(argv=["classify", "--set", "profile.preset=quadratic", "--set", "profile.r_max=5e-324"])
@example(argv=["classify", "--set", "profile.preset=quadratic", "--set", "profile.d=1e200"])
@example(
    argv=["classify", "--set", "profile.preset=bump", "--set", "profile.s=1e200",
          "--set", "profile.rc=2e200", "--set", "profile.r_max=1e201"]
)
@example(argv=["simulate", "--set", "simulate.n_chars=8", "--set", "profile.preset=quadratic",
               "--set", "profile.c=1e200"])
@example(argv=["simulate", "--set", "simulate.n_chars=8", "--set", "profile.preset=bump",
               "--set", "profile.b=-2.6e284", "--set", "profile.c=-2.6e284"])
@example(argv=["simulate", "--set", "simulate.n_chars=2", "--set", "profile.preset=quadratic",
               "--set", "profile.a=1e308"])
def test_fuzzed_overrides_keep_the_error_contract(tmp_path_factory, argv):
    out = str(tmp_path_factory.mktemp("fuzz"))
    stderr = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", out])
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().splitlines()) <= 1


def test_overflowing_profile_prints_one_error_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "emaflow", "classify", "--out", str(tmp_path),
         "--set", "profile.preset=quadratic", "--set", "profile.c=1e308"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: DomainError: point (-inf, 0.0) must be finite"]


def test_simulate_from_a_pole_ends_at_t0(tmp_path, capsys):
    argv = ["simulate", "--out", str(tmp_path), "--set", "simulate.n_chars=8",
            "--set", "profile.preset=quadratic", "--set", "profile.c=1e200"]
    code, _, stderr = run_cli(argv, capsys)
    assert (code, stderr) == (2, "")
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["termination"] == "blowup_detected"
    assert diag["t_blowup_estimate"] == 0.0


def test_simulate_rejects_an_overflowing_initial_density(tmp_path, capsys):
    argv = ["simulate", "--out", str(tmp_path), "--set", "simulate.n_chars=8",
            "--set", "profile.preset=bump", "--set", "profile.b=-2.6e284",
            "--set", "profile.c=-2.6e284"]
    code, _, stderr = run_cli(argv, capsys)
    assert code == 1
    assert stderr.splitlines() == [
        "error: DomainError: initial characteristic data of the profile are not finite"
    ]
    assert not (tmp_path / "snapshots.csv").exists()


# ---------------------------------------------------------------- module entry point


# Runs main() with the rest of the command line, then fails if anything
# imported scipy on the way.
_WITHOUT_SCIPY = (
    "import sys; from emaflow.cli import main; code = main(sys.argv[1:]); "
    "assert 'scipy' not in sys.modules, 'scipy was imported'; sys.exit(code)"
)


def test_commands_run_on_numpy_alone(tmp_path):
    # scipy is a test dependency only; it would cost every cold command
    # most of its start-up time.
    probe = subprocess.run(
        [sys.executable, "-c", "import emaflow.cli, sys; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert (probe.returncode, probe.stderr) == (0, "")
    for argv in (["classify"], ["simulate", "--set", "simulate.n_chars=32"]):
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, *argv, "--out", str(tmp_path / argv[0])],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")


_NO_STEPPER_UNTIL_INTEGRATE = """
import sys
import emaflow.cli
from emaflow.spectral import _kernels_py, integrate
generated = _kernels_py._stepper.cache_info
assert generated().currsize == 0, "import"
assert emaflow.cli.main(sys.argv[1:]) == 0
assert generated().currsize == 0, "classify"
integrate("qnu", (0.5, 0.0), 1.0)
assert generated().currsize == 1, "integrate"
"""


def test_classify_generates_no_stepper(tmp_path):
    # A scalar stepper is generated on its system's first integrate
    # call; import and a cold classify, which integrates nothing, must
    # not pay for one.
    proc = subprocess.run(
        [sys.executable, "-c", _NO_STEPPER_UNTIL_INTEGRATE,
         "classify", "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_module_entry_point(tmp_path):
    out = str(tmp_path / "run")
    proc = subprocess.run(
        [sys.executable, "-m", "emaflow", "simulate", "--out", out,
         "--set", "simulate.n_chars=32"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "termination=horizon_reached" in proc.stdout

    bad = subprocess.run(
        [sys.executable, "-m", "emaflow", "nope"], capture_output=True, text=True
    )
    assert bad.returncode == 1
    assert bad.stderr.startswith("error: ")
