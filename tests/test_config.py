"""INI run configuration: parsing, precedence, and validation."""

import re
import textwrap
from dataclasses import fields

import pytest

from emaflow.config import (
    INTEGRATOR_KEYS,
    KEYS,
    POINTWISE_FIELDS,
    SWEEP_MODES,
    SWIRL_FIELDS,
    RunConfig,
    SweepAxis,
    load_run_config,
)
from emaflow.errors import ConfigError
from emaflow.spectral import IntegratorConfig

FULL_INI = textwrap.dedent(
    """\
    [run]
    n = 3
    kappa = 2.0
    seed = 7
    threads = 2
    out = results

    [profile]
    preset = quadratic
    a = 0.1
    c = 0.5
    d = 1.5

    [integrator]
    rel_tol = 1e-9
    abs_tol = 1e-11
    max_step = 0.5

    [simulate]
    t_end = 2.5
    n_chars = 256
    grid_size = 64
    n_snapshots = 5

    [classify]
    grid_size = 128

    [sweep]
    mode = swirl_sigma
    axis1 = q0, 0.05, 1.65, 17
    axis2 = nu0, -0.6, 0.3, 4
    theta_over_r0 = 0.4
    horizon = 60

    [validate]
    suites = ellipse_invariant, swirl_invariants
    """
)


@pytest.fixture
def ini_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL_INI)
    return str(path)


def test_defaults():
    rc = load_run_config()
    assert rc.preset == "equilibrium"
    assert rc.n == 2 and rc.kappa == 1.0
    assert rc.threads is None and rc.seed == 0 and rc.out == "out"
    assert rc.sweep_mode == "pointwise_threshold"
    assert rc.validate_suites == ("all",)
    assert SWEEP_MODES == ("pointwise_threshold", "swirl_sigma")
    assert POINTWISE_FIELDS == ("lambda0", "h0")
    assert SWIRL_FIELDS == ("p0", "q0", "mu0", "nu0", "theta_r0", "theta_over_r0")


def test_full_file_round_trip(ini_path):
    rc = load_run_config(ini_path)
    assert rc.n == 3 and rc.kappa == 2.0 and rc.seed == 7
    assert rc.threads == 2 and rc.out == "results"
    assert rc.preset == "quadratic"
    assert rc.profile_params == {"a": 0.1, "c": 0.5, "d": 1.5}
    assert rc.integrator.rel_tol == 1e-9
    assert rc.integrator.abs_tol == 1e-11
    assert rc.integrator.max_step == 0.5
    assert (rc.t_end, rc.n_chars, rc.grid_size, rc.n_snapshots) == (2.5, 256, 64, 5)
    assert rc.classify_grid_size == 128
    assert rc.sweep_mode == "swirl_sigma"
    assert rc.sweep_axis1 == SweepAxis("q0", 0.05, 1.65, 17)
    assert rc.sweep_axis2 == SweepAxis("nu0", -0.6, 0.3, 4)
    assert rc.sweep_fixed == {"theta_over_r0": 0.4}
    assert rc.sweep_horizon == 60.0
    assert rc.validate_suites == ("ellipse_invariant", "swirl_invariants")


def test_build_profile(ini_path):
    profile = load_run_config(ini_path).build_profile()
    assert profile.name == "quadratic"
    assert profile.dimension == 3
    assert profile.kappa == 2.0


def test_set_overrides_beat_file(ini_path):
    rc = load_run_config(ini_path, ("run.kappa=3.5", "profile.a=0.2"))
    assert rc.kappa == 3.5
    assert rc.profile_params["a"] == 0.2


def test_direct_flags_beat_set_overrides(ini_path):
    rc = load_run_config(
        ini_path, ("run.threads=8",), threads=4, seed=99, out="direct"
    )
    assert rc.threads == 4 and rc.seed == 99 and rc.out == "direct"


def test_empty_suites_parse_to_empty_tuple(ini_path):
    rc = load_run_config(ini_path, ("validate.suites=",))
    assert rc.validate_suites == ()


@pytest.mark.parametrize("arg", ["runkappa=3", "run.kappa"])
def test_malformed_set_argument(ini_path, arg):
    with pytest.raises(ConfigError, match="SECTION.KEY=VALUE"):
        load_run_config(ini_path, (arg,))


def test_unknown_key_and_section(ini_path):
    with pytest.raises(ConfigError, match="unknown key run.wibble"):
        load_run_config(ini_path, ("run.wibble=3",))
    with pytest.raises(ConfigError, match="unknown config section"):
        load_run_config(ini_path, ("wibble.x=3",))


def test_non_numeric_value_rejected(ini_path):
    with pytest.raises(ConfigError, match="expected a number"):
        load_run_config(ini_path, ("run.kappa=fast",))
    with pytest.raises(ConfigError, match="expected an integer"):
        load_run_config(ini_path, ("run.seed=0.5",))


def test_bad_axis_grammar(ini_path):
    with pytest.raises(ConfigError, match="name, lo, hi, count"):
        load_run_config(ini_path, ("sweep.axis1=q0, 0, 1",))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config("/nonexistent/run.ini")


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("key_without_section = 3\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_run_config(str(path))


@pytest.mark.parametrize(
    "attrs,msg",
    [
        (dict(n=0), "run.n"),
        (dict(kappa=0.0), "run.kappa"),
        (dict(threads=0), "run.threads"),
        (dict(t_end=0.0), "simulate.t_end"),
        (dict(n_chars=1), "simulate.n_chars"),
        (dict(grid_size=1), "simulate.grid_size"),
        (dict(n_snapshots=0), "simulate.n_snapshots"),
        (dict(classify_grid_size=0), "classify.grid_size"),
        (dict(sweep_mode="fancy"), "sweep.mode"),
        (dict(sweep_axis1=SweepAxis("lambda0", 0, 1, 0)), "count"),
        (dict(sweep_axis1=SweepAxis("lambda0", 1.0, 1.0, 3)), "hi > lo"),
        (
            dict(
                sweep_axis1=SweepAxis("h0", 0, 1, 2),
                sweep_axis2=SweepAxis("h0", 0, 1, 2),
            ),
            "distinct",
        ),
        (dict(sweep_axis1=SweepAxis("q0", 0, 1, 2)), "not valid for mode"),
        (dict(sweep_horizon=-3.0), "sweep.horizon"),
    ],
)
def test_validation_rejects_bad_values(attrs, msg):
    rc = RunConfig()
    for name, value in attrs.items():
        setattr(rc, name, value)
    with pytest.raises(ConfigError, match=msg):
        rc.validate()


# One non-default value per table key: as written, and as parsed.
SAMPLES = {
    "run.n": ("3", 3),
    "run.kappa": ("2.5", 2.5),
    "run.seed": ("7", 7),
    "run.threads": ("2", 2),
    "run.out": ("results", "results"),
    "profile.preset": ("bump", "bump"),
    "simulate.t_end": ("2.5", 2.5),
    "simulate.n_chars": ("256", 256),
    "simulate.grid_size": ("64", 64),
    "simulate.n_snapshots": ("5", 5),
    "classify.grid_size": ("128", 128),
    "sweep.mode": ("swirl_sigma", "swirl_sigma"),
    "sweep.axis1": ("q0, 0.05, 1.65, 17", SweepAxis("q0", 0.05, 1.65, 17)),
    "sweep.axis2": ("nu0, -0.6, 0.3, 4", SweepAxis("nu0", -0.6, 0.3, 4)),
    "sweep.horizon": ("60", 60.0),
    "validate.suites": ("energy_conservation, path_invariants",
                        ("energy_conservation", "path_invariants")),
}


def test_each_field_is_set_by_exactly_one_table_key():
    open_ended = {"profile_params", "integrator", "sweep_fixed"}
    assert sorted(name for name, _, _ in KEYS.values()) == sorted(
        f.name for f in fields(RunConfig) if f.name not in open_ended
    )


def test_every_table_key_round_trips_through_set():
    assert set(SAMPLES) == {f"{section}.{key}" for section, key in KEYS}
    rc = load_run_config(set_args=[f"{key}={raw}" for key, (raw, _) in SAMPLES.items()])
    default = RunConfig()
    for (section, key), (name, _, _) in KEYS.items():
        value = SAMPLES[f"{section}.{key}"][1]
        assert getattr(rc, name) == value != getattr(default, name)


def test_integrator_keys_are_the_config_fields_but_horizon():
    assert set(INTEGRATOR_KEYS) == {f.name for f in fields(IntegratorConfig)} - {"horizon"}
    values = dict(rel_tol=1e-9, abs_tol=1e-11, max_step=0.5, min_step=1e-12, blowup_magnitude=1e8)
    rc = load_run_config(set_args=[f"integrator.{k}={v!r}" for k, v in values.items()])
    assert {k: getattr(rc.integrator, k) for k in INTEGRATOR_KEYS} == values


def test_integrator_horizon_is_an_unknown_key():
    # simulate.t_end and sweep.horizon set the horizon of their commands.
    with pytest.raises(ConfigError, match="unknown key integrator.horizon"):
        load_run_config(set_args=["integrator.horizon=5"])


def test_bad_integrator_value_names_its_key():
    with pytest.raises(ConfigError, match="integrator.rel_tol"):
        load_run_config(set_args=["integrator.rel_tol=0"])


@pytest.mark.parametrize("key", ["simulate.t_end", "run.kappa", "sweep.horizon"])
def test_nan_is_rejected(key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_run_config(set_args=[f"{key}=nan"])
