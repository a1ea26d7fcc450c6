"""Characteristic-ensemble solver: transport consistency, monitors, failure modes."""

import math
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

import emaflow.lagrange
from emaflow.errors import ConfigError, DomainError
from emaflow.flow import flow_radius, pushforward_density
from emaflow.lagrange import (
    EnsembleRun,
    EulerianSnapshot,
    _pchip,
    _sorted_distinct,
    advance_ensemble,
    bkm_integral,
    default_seeds,
    gradient_bound_check,
)
from emaflow.profiles import ProfilePreset, derive_density
from emaflow.spectral import IntegratorConfig, Termination, batch


def _density_from_flow(profile, r, t):
    # invert the flow map for the tracer radius, clamping at the hull
    top = flow_radius(profile, profile.r_max, t)
    if r <= 0.0:
        r0 = 0.0
    elif r >= top:
        r0 = profile.r_max
    else:
        r0 = brentq(
            lambda s: flow_radius(profile, s, t) - r, 0.0, profile.r_max, xtol=1e-13
        )
    return pushforward_density(profile, r0, t)


def test_equilibrium_ensemble_is_static(equilibrium):
    res = advance_ensemble(
        equilibrium, n_chars=64, t_end=1.0, output_times=[0.0, 0.5, 1.0], grid_size=64
    )
    assert res.termination.kind == "horizon_reached"
    assert res.char_times == [0.0, 0.5, 1.0]
    first, last = res.snapshots[0], res.snapshots[-1]
    for field in ("rho", "u", "p", "q", "mu", "nu"):
        assert np.array_equal(getattr(first, field), getattr(last, field))
    assert np.all(first.rho == 1.0)


def test_default_seeds_cover_domain(equilibrium):
    seeds = default_seeds(equilibrium, 16)
    assert seeds.shape == (17,)
    assert seeds[0] == 0.0
    assert seeds[1] == pytest.approx(1e-3 * equilibrium.r_max)
    assert seeds[-1] == equilibrium.r_max
    assert np.all(np.diff(seeds) > 0)


def test_density_matches_flow_pushforward(subcritical_profile, tight_config):
    res = advance_ensemble(
        subcritical_profile, n_chars=512, t_end=1.0, config=tight_config, grid_size=128
    )
    snap = res.snapshots[-1]
    diffs = [
        abs(_density_from_flow(subcritical_profile, r, 1.0) - rho)
        for r, rho in zip(snap.grid, snap.rho)
    ]
    assert max(diffs) <= 1e-4


def test_interpolation_dominates_tolerance_budget(subcritical_profile):
    # the Eulerian resampling error sits well above the ODE error, so
    # tightening integrator tolerances leaves the field comparison flat
    from emaflow.spectral import IntegratorConfig, batch

    diffs = {}
    for rel in (1e-8, 1e-10):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
        res = advance_ensemble(
            subcritical_profile, n_chars=512, t_end=1.0, config=cfg, grid_size=128
        )
        snap = res.snapshots[-1]
        diffs[rel] = max(
            abs(_density_from_flow(subcritical_profile, r, 1.0) - rho)
            for r, rho in zip(snap.grid, snap.rho)
        )
    assert diffs[1e-8] <= 1e-4 and diffs[1e-10] <= 1e-4
    assert 0.5 <= diffs[1e-8] / diffs[1e-10] <= 2.0


def test_blowup_terminates_ensemble(canonical_supercritical):
    res = advance_ensemble(canonical_supercritical, n_chars=128, t_end=1.0, grid_size=64)
    assert res.termination.kind == "blowup_detected"
    assert abs(res.termination.t_est - math.pi / 6.0) <= 1e-2


def test_step_underflow_ends_the_ensemble(subcritical_profile):
    # rel_tol 1e-12 wants steps shorter than min_step = 0.05 before the
    # first output time after t = 0.
    config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, min_step=0.05)
    res = advance_ensemble(subcritical_profile, n_chars=8, t_end=5.0, config=config)
    assert res.termination == Termination(kind="step_underflow")
    assert [snap.t for snap in res.snapshots] == [0.0]


def test_blowup_test_ignores_radii_beyond_the_magnitude():
    # Only p, q, mu and nu are watched: radii past blowup_magnitude are
    # not a pole.
    profile = ProfilePreset("quadratic", {"a": 0.2, "c": 0.3, "r_max": 1e10}).build()
    res = advance_ensemble(profile, n_chars=16, t_end=0.5, grid_size=8)
    assert res.termination.kind == "horizon_reached"
    assert res.char_states[-1][-1, 0] > IntegratorConfig().blowup_magnitude


def test_transport_identities_along_characteristics(subcritical_profile, tight_config):
    p = subcritical_profile
    res = advance_ensemble(
        p, n_chars=128, t_end=1.0, config=tight_config,
        output_times=[0.0, 0.3, 0.7, 1.0], grid_size=64,
    )
    assert res.char_times == [0.0, 0.3, 0.7, 1.0]
    assert np.array_equal(res.rho0, derive_density(p, res.seeds))

    start = res.char_states[0]
    invariant0 = start[:, 0] * (1.0 - start[:, 5])
    for k, t in enumerate(res.char_times):
        snap = res.char_states[k]
        # radii stay ordered and agree with the closed-form map
        assert np.all(np.diff(snap[:, 0]) > 0)
        assert np.max(np.abs(snap[:, 0] - flow_radius(p, res.seeds, t))) <= 1e-6
        # r (1 - nu) rides along unchanged
        invariant = snap[:, 0] * (1.0 - snap[:, 5])
        scale = np.maximum(1.0, start[:, 0])
        assert np.max(np.abs(invariant - invariant0) / scale) <= 1e-8
        # density via the accumulated divergence vs the eigenvalue product
        rho_continuity = res.rho0 * np.exp(-snap[:, 6])
        rho_determinant = (1.0 - snap[:, 4]) * (1.0 - snap[:, 5]) ** (p.dimension - 1)
        assert np.max(np.abs(rho_continuity - rho_determinant)) <= 1e-6


# ---------------------------------------------------------------- accumulation monitor


def _bkm_samples(snapshots):
    # The (times, integrands) that `emaflow simulate` integrates.
    snapshots = list(snapshots)
    return [s.t for s in snapshots], [s.bkm_integrand for s in snapshots]


def test_accumulation_integral_flat_at_equilibrium(equilibrium):
    res = advance_ensemble(
        equilibrium, n_chars=32, t_end=1.0, output_times=[0.0, 0.5, 1.0], grid_size=32
    )
    assert bkm_integral(*_bkm_samples(res.snapshots)) == 0.0


def test_accumulation_integral_over_one_period(subcritical_profile, tight_config):
    times = list(np.linspace(0.0, 2.0 * math.pi, 9))
    res = advance_ensemble(
        subcritical_profile, n_chars=512, t_end=2.0 * math.pi,
        config=tight_config, output_times=times, grid_size=128,
    )
    integral = bkm_integral(*_bkm_samples(res.snapshots))
    assert integral == pytest.approx(2.907630533323631, rel=1e-6)


def test_accumulation_integral_grows_near_breakdown(
    canonical_supercritical, tight_config
):
    tc = math.pi / 6.0
    res = advance_ensemble(
        canonical_supercritical, n_chars=512, t_end=0.99 * tc, config=tight_config,
        output_times=[0.0, 0.5 * tc, 0.99 * tc], grid_size=128,
    )
    assert res.termination.kind == "horizon_reached"
    early = bkm_integral(*_bkm_samples(res.snapshots[:2]))
    full = bkm_integral(*_bkm_samples(res.snapshots))
    assert full / early >= 10.0


def test_bkm_monitor_input_validation(equilibrium):
    with pytest.raises(ConfigError, match="no snapshots"):
        bkm_integral([], [])
    res = advance_ensemble(equilibrium, n_chars=8, t_end=1.0, output_times=[0.0, 0.5])
    with pytest.raises(ConfigError, match="strictly increasing"):
        bkm_integral(*_bkm_samples(reversed(res.snapshots)))
    with pytest.raises(ConfigError, match="strictly increasing"):
        bkm_integral([0.0, np.nan], [1.0, 1.0])


# ---------------------------------------------------------------- gradient bound


def test_gradient_bound_on_real_snapshots(equilibrium, subcritical_profile):
    res = advance_ensemble(equilibrium, n_chars=32, t_end=1.0, grid_size=32)
    assert gradient_bound_check(res.snapshots[-1]) == (True, 0.0)

    res = advance_ensemble(subcritical_profile, n_chars=128, t_end=1.0, grid_size=64)
    ok, _ = gradient_bound_check(res.snapshots[-1])
    assert ok


def test_gradient_bound_flags_inconsistent_snapshot():
    g = np.linspace(0.1, 1.0, 8)
    snap = EulerianSnapshot(
        t=0.0, grid=g, rho=np.ones(8), u=np.zeros(8),
        p=np.full(8, 0.1), q=np.full(8, 0.9),
        mu=np.zeros(8), nu=np.zeros(8), bkm_integrand=np.zeros(8),
    )
    ok, margin = gradient_bound_check(snap)
    assert not ok
    assert margin == pytest.approx(-0.8)


# ---------------------------------------------------------------- crossing detection


def _collapsing_outer_half(state, kappa, n):
    r = state[0]
    dr = np.zeros_like(r)
    half = r.shape[0] // 2
    dr[half:] = -2.0 * r[half:]
    return (dr,) + tuple(np.zeros_like(row) for row in state[1:])


def test_crossing_reported_as_termination(equilibrium, monkeypatch):
    monkeypatch.setattr(emaflow.lagrange, "rhs_characteristics", _collapsing_outer_half)
    res = advance_ensemble(equilibrium, n_chars=8, t_end=2.0, grid_size=16)
    assert res.termination.kind == "crossing_detected"
    assert 0.0 < res.termination.t_est <= 2.0


# ---------------------------------------------------------------- dense output


def _count_attempts(monkeypatch):
    attempts = []
    attempt = batch._Stepper.attempt

    def counted(self):
        attempts.append(None)
        return attempt(self)

    monkeypatch.setattr(batch._Stepper, "attempt", counted)
    return attempts


def test_output_times_do_not_steer_the_steps(subcritical_profile, tight_config, monkeypatch):
    attempts = _count_attempts(monkeypatch)
    t_end = 2.0 * math.pi
    runs = []
    for times in (np.linspace(0.0, t_end, 65), [0.0, t_end]):
        attempts.clear()
        res = advance_ensemble(
            subcritical_profile, n_chars=128, t_end=t_end, config=tight_config,
            output_times=times, grid_size=32,
        )
        runs.append((res, len(attempts)))
    (dense, dense_attempts), (ends, end_attempts) = runs
    assert len(dense.char_times) == 65 and dense_attempts == end_attempts
    assert dense.termination == ends.termination
    assert dense.termination.kind == "horizon_reached"
    assert dense.char_times[-1] == ends.char_times[-1] == t_end
    assert dense.char_states[-1].tobytes() == ends.char_states[-1].tobytes()


DENSE_PROFILES = {
    "subcritical": (("quadratic", {"a": 0.2, "c": 0.3, "d": 1.0}), 2.0 * math.pi),
    "bump": (("bump", {"a": 0.1, "b": 0.2, "c": -0.3}), 3.0),
    "before_the_pole": (("quadratic", {"a": 0.0, "c": -2.0, "d": 1.0}), 0.5),
}


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
@pytest.mark.parametrize("name", sorted(DENSE_PROFILES))
def test_dense_outputs_agree_with_landed_runs(name, rel_tol):
    # A run whose t_end is the output time lands its last step on it.
    (preset, params), t_end = DENSE_PROFILES[name]
    profile = ProfilePreset(preset, dict(params)).build()
    config = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-2 * rel_tol)
    kwargs = dict(n_chars=64, config=config, grid_size=16)
    times = np.linspace(0.0, t_end, 9)
    res = advance_ensemble(profile, t_end=t_end, output_times=times, **kwargs)
    assert res.termination.kind == "horizon_reached"
    for tau, state in zip(res.char_times[1:-1], res.char_states[1:-1]):
        landed = advance_ensemble(profile, t_end=tau, output_times=[tau], **kwargs)
        want = landed.char_states[0]
        assert np.max(np.abs(state - want) / np.maximum(1.0, np.abs(want))) <= 10.0 * rel_tol


def test_crossing_at_an_interpolated_output_time_ends_the_run(equilibrium, monkeypatch):
    monkeypatch.setattr(emaflow.lagrange, "rhs_characteristics", _collapsing_outer_half)
    kwargs = dict(n_chars=8, t_end=2.0, grid_size=16)
    # Without output times inside the steps the crossing shows at a step's end.
    step_end = advance_ensemble(equilibrium, output_times=[0.0], **kwargs).termination
    assert step_end.kind == "crossing_detected"
    times = np.linspace(0.0, 2.0, 401)
    res = advance_ensemble(equilibrium, output_times=times, **kwargs)
    assert res.termination.kind == "crossing_detected"
    assert res.termination.t_est in times and res.termination.t_est < step_end.t_est
    assert res.char_times == [t for t in times.tolist() if t < res.termination.t_est]
    assert all(np.all(np.diff(state[:, 0]) > 0.0) for state in res.char_states)


def test_blowup_magnitude_at_an_interpolated_output_time_ends_the_run(
    canonical_supercritical, monkeypatch
):
    dense = batch._Stepper.dense
    peaks = []

    def recorded(self, theta, h):
        state = dense(self, theta, h)
        peaks.append(np.abs(state.reshape(7, -1)[2:6]).max())
        return state

    monkeypatch.setattr(batch._Stepper, "dense", recorded)
    config = IntegratorConfig(blowup_magnitude=1e4)
    kwargs = dict(n_chars=64, t_end=1.0, config=config, grid_size=8)
    ends = advance_ensemble(canonical_supercritical, output_times=[0.0], **kwargs)
    res = advance_ensemble(
        canonical_supercritical, output_times=np.linspace(0.0, 1.0, 2001), **kwargs
    )
    # The last dense state passed the threshold and was not emitted; the
    # run ends with the pole of the step that spans it.
    assert peaks[-1] > 1e4 and all(peak <= 1e4 for peak in peaks[:-1])
    assert len(res.char_times) == len(peaks)
    assert all(np.abs(state[:, 2:6]).max() <= 1e4 for state in res.char_states)
    assert res.termination == ends.termination
    assert res.termination.kind == "blowup_detected"


_ATTEMPT_FAULTS = """
import resource

from emaflow.lagrange import EnsembleRun
from emaflow.profiles import ProfilePreset
from emaflow.spectral import IntegratorConfig, batch


class Enough(Exception):
    pass


faults = []
attempt = batch._Stepper.attempt


def counted(self):
    step = attempt(self)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    if len(faults) == 30:
        raise Enough
    return step


batch._Stepper.attempt = counted
profile = ProfilePreset("quadratic", {"a": 0.2, "c": 0.3, "d": 1.0}).build()
config = IntegratorConfig(rel_tol=1e-10)
try:
    for _ in EnsembleRun(profile, 16384, 2.0, config, output_times=[0.0, 2.0]):
        pass
except Enough:
    pass
print((faults[29] - faults[4]) / 25)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_ensemble_attempts_reuse_their_pages():
    # An attempt's state-size temporaries reuse heap pages only because
    # _Stepper.__init__ frees its start block, which lifts glibc's
    # dynamic mmap threshold above them.  Kept alive, that block left the
    # threshold low and each attempt faulted in some 530 fresh pages; as
    # it is, attempts 6-30 of this run fault in none.  A fresh interpreter
    # starts from glibc's default threshold.
    proc = subprocess.run(
        [sys.executable, "-c", _ATTEMPT_FAULTS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 50.0


def test_ensemble_holds_three_state_arrays_above_its_live_set(subcritical_profile, monkeypatch):
    # Besides y and the stage block, an attempt must hold three
    # state-size arrays at once: y5 (the stage argument array), the error
    # scale and |y5| while the scale is formed; y5, the scale and the
    # error vector while it is scaled; y5, the error vector and its
    # square in _rms.  A snapshot holds the temporaries of one field's
    # interpolation, fewer.  The allowance covers what is not state-size:
    # the one-lane arrays, the 256-point grid fields and Python objects.
    m = 16384
    state_bytes = 7 * (m + 1) * 8
    limit = 3 * state_bytes + 64 * 1024
    excess = {"attempt": [], "snapshot": []}

    def traced(name, fn):
        def call(*args):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            excess[name].append(tracemalloc.get_traced_memory()[1] - live)
            return out

        return call

    monkeypatch.setattr(batch._Stepper, "attempt", traced("attempt", batch._Stepper.attempt))
    monkeypatch.setattr(emaflow.lagrange, "_snapshot", traced("snapshot", emaflow.lagrange._snapshot))
    run = EnsembleRun(subcritical_profile, m, 1.0, output_times=[0.0, 0.3, 1.0])
    tracemalloc.start()
    try:
        for _ in run:
            pass
    finally:
        tracemalloc.stop()
    assert run.termination.kind == "horizon_reached"
    assert len(excess["snapshot"]) == 3 and excess["attempt"]
    assert max(excess["attempt"]) <= limit, max(excess["attempt"]) / state_bytes
    assert max(excess["snapshot"]) <= limit, max(excess["snapshot"]) / state_bytes


def test_a_second_pass_over_an_ensemble_run_repeats_the_first(subcritical_profile):
    # The run keeps no start fields; each pass forms them again from t = 0.
    run = EnsembleRun(subcritical_profile, 64, 1.0, output_times=[0.0, 0.3, 1.0], grid_size=32)
    passes = []
    for _ in range(2):
        passes.append([(snap, state.copy()) for snap, state in run])
        assert run.termination.kind == "horizon_reached"
    first, second = passes
    assert [snap.t for snap, _ in second] == [0.0, 0.3, 1.0]
    for (snap1, state1), (snap2, state2) in zip(first, second, strict=True):
        assert state2.tobytes() == state1.tobytes()
        for name in ("rho", "u", "p", "q", "mu", "nu"):
            assert getattr(snap2, name).tobytes() == getattr(snap1, name).tobytes()
        assert snap2.bkm_integrand == snap1.bkm_integrand


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(t_end=0.0), "t_end"),
        (dict(n_chars=1), "at least 2"),
        (dict(output_times=[]), "empty"),
        (dict(output_times=[2.0]), "lie in"),
        (dict(grid_size=1), "grid_size"),
        (dict(seeds=np.array([0.5, 0.4])), "increasing"),
        (dict(seeds=np.array([0.5])), "1-d array"),
        (dict(seeds=np.array([0.5, 99.0])), "lie in"),
        (dict(output_times=[0.0, np.nan, 0.5]), "finite"),
        (dict(seeds=np.array([0.0, np.nan, 0.5])), "finite"),
        (dict(n_chars=8.5), "n_chars must be an integer"),
        (dict(n_chars=8.0), "n_chars must be an integer"),
        (dict(grid_size=8.5), "grid_size must be an integer"),
        (dict(grid_size=8.0), "grid_size must be an integer"),
    ],
)
def test_ensemble_input_validation(equilibrium, kwargs, msg):
    with pytest.raises(ConfigError, match=msg):
        advance_ensemble(equilibrium, **({"n_chars": 8, "t_end": 1.0} | kwargs))


@pytest.mark.parametrize(
    "values",
    [
        [3.0, 1.0, 2.0, 1.0, 3.0],
        [0.5],
        [0.0, -0.0, 1.0, -0.0],
        [-0.0, 0.0],
        [2.0, -1e300, 5e-324, 2.0, 0.0, -5e-324],
        (np.arange(1000) * 37 % 80 - 40) / 7.0,
    ],
)
def test_sorted_distinct_is_unique_bitwise(values):
    x = np.array(values)
    assert _sorted_distinct(x).tobytes() == np.unique(x).tobytes()


def test_output_times_are_sorted_and_deduplicated(equilibrium):
    run = EnsembleRun(equilibrium, n_chars=8, output_times=[1.0, 0.5, 0.5, 0.0], grid_size=8)
    assert [snap.t for snap, _ in run] == [0.0, 0.5, 1.0]


# ---------------------------------------------------------------- snapshot interpolant


def _assert_pchip_is_scipy(x, y, xi):
    from scipy.interpolate import PchipInterpolator

    got = _pchip(x, y, xi)
    for row, values in zip(got, y):
        want = PchipInterpolator(x, values, extrapolate=False)(xi)
        assert np.array_equal(row, want)
        assert np.array_equal(np.signbit(row), np.signbit(want))


@pytest.mark.parametrize("m", [2, 3, 5, 64, 16385])
def test_pchip_equals_scipy_bitwise(m, rng):
    # Random increasing nodes over several scales; rows that are smooth,
    # flat in runs, exactly zero in places and changing sign.
    gaps = rng.uniform(0.1, 1.0, m - 1) * 10.0 ** rng.uniform(-3.0, 2.0, m - 1)
    x = np.concatenate([[0.0], np.cumsum(gaps)])
    smooth = np.sin(3.0 * x / x[-1]) * np.exp(-x / x[-1])
    runs = np.repeat(rng.normal(size=m), 3)[:m]
    sparse = rng.integers(-2, 3, m) * 0.5
    signs = rng.choice([-1.0, 0.0, 1.0], m) * rng.exponential(1.0, m)
    y = np.vstack([smooth, runs, sparse, signs, -smooth])
    xi = np.concatenate([x, [x[0], x[-1]], rng.uniform(x[0], x[-1], 4096)])
    _assert_pchip_is_scipy(x, y, xi)


@pytest.mark.parametrize(
    "x,y,end,branch",
    [
        # The three-point end slope changes sign: it is set to 0.
        ([0.0, 1.0, 2.0], [0.0, 1.0, 6.0], 0, "flip"),
        ([0.0, 1.0, 2.0], [6.0, 1.0, 0.0], -1, "flip"),
        # The secants change sign and the slope exceeds three times the
        # end secant: it is capped at that.
        ([0.0, 10.0, 11.0], [0.0, 10.0, 5.0], 0, "cap"),
        ([0.0, 1.0, 11.0], [5.0, 0.0, 10.0], -1, "cap"),
    ],
)
def test_pchip_end_slopes_take_both_shape_preserving_branches(x, y, end, branch):
    from scipy.interpolate import PchipInterpolator

    x, y = np.array(x), np.array(y)
    secant = (y[1] - y[0]) / (x[1] - x[0]) if end == 0 else (y[-1] - y[-2]) / (x[-1] - x[-2])
    slope = PchipInterpolator(x, y).derivative()(x[end])
    assert slope == (0.0 if branch == "flip" else 3.0 * secant)
    xi = np.concatenate([x, np.linspace(x[0], x[-1], 101)])
    _assert_pchip_is_scipy(x, np.vstack([y, -y, 2.5 * y]), xi)


def test_pchip_rejects_non_finite_fields():
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(DomainError, match="not finite"):
        _pchip(x, np.array([[0.0, np.inf, 1.0]]), x)
    # Finite values whose secant overflows.
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="slopes are not finite"):
        _pchip(x * 1e-300, np.array([[-1e300, 1e300, 0.0]]), x * 1e-300)
