"""Right-hand sides and the adaptive integrator for the spectral ODE systems."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emaflow.errors import ConfigError, DomainError
from emaflow.flow import flow_radius
from emaflow.lagrange import advance_ensemble
from emaflow.profiles import ProfilePreset
from emaflow.spectral import (
    SYSTEM_DIMS,
    IntegratorConfig,
    SwirlState,
    Termination,
    Trajectory,
    integrate,
    integrate_batch,
    monitor_ellipse,
    rhs_ep_qnu,
    rhs_pmu,
    rhs_qnu,
    rhs_swirl,
    rhs_swirl_q,
    rhs_wv,
)
from emaflow.spectral.systems import rhs_wv_inf
from emaflow.spectral.systems import SingularInput
from emaflow.threshold import (
    blowup_time_closed_form,
    classify_point,
    sharpness_bisect,
    sigma_membership,
    sigma_membership_batch,
    threshold_margin,
)
from emaflow.validation import _ep_excursion_bound

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
kappas = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)


# ---------------------------------------------------------------- right-hand sides


def test_rhs_qnu_rest_state():
    assert rhs_qnu(np.zeros(2), 1.0) == (0.0, 0.0)


def test_rhs_qnu_pure_gradient():
    # q' = -q^2, nu' = q at (1, 0)
    dq, dnu = rhs_qnu(np.array([1.0, 0.0]), 1.0)
    assert dq == -1.0
    assert dnu == 1.0


def test_rhs_qnu_mixed_state():
    dq, dnu = rhs_qnu(np.array([0.5, 0.2]), 2.0)
    assert dq == pytest.approx(-0.65, abs=1e-15)
    assert dnu == pytest.approx(0.4, abs=1e-15)


def test_rhs_pmu_example():
    dp, dmu = rhs_pmu(np.array([-1.0, 0.5]), 1.0)
    assert dp == pytest.approx(-1.5, abs=1e-15)
    assert dmu == pytest.approx(-0.5, abs=1e-15)


@given(x1=finite_floats, x2=finite_floats, kappa=kappas)
def test_rhs_pmu_matches_qnu(x1, x2, kappa):
    # the two linearized branches obey the same equations
    state = np.array([x1, x2])
    assert rhs_pmu(state, kappa) == rhs_qnu(state, kappa)


def test_rhs_swirl_rest_state():
    assert rhs_swirl(np.zeros(6), 1.0) == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_rhs_swirl_pure_rotation():
    # tangential shear feeds q and drains p with opposite signs
    dp, dq, dmu, dnu, dtr, dtor = rhs_swirl(np.array([0, 0, 0, 0, 0, 1.0]), 1.0)
    assert dp == -1.0
    assert dq == 1.0
    assert dmu == dnu == dtr == dtor == 0.0


@given(
    p=finite_floats, q=finite_floats, mu=finite_floats, nu=finite_floats, kappa=kappas
)
def test_rhs_swirl_zero_swirl_reduction(p, q, mu, nu, kappa):
    full = rhs_swirl(np.array([p, q, mu, nu, 0.0, 0.0]), kappa)
    dp, dmu = rhs_pmu(np.array([p, mu]), kappa)
    dq, dnu = rhs_qnu(np.array([q, nu]), kappa)
    assert full == (dp, dq, dmu, dnu, 0.0, 0.0)


def test_rhs_swirl_q_closed_subsystem():
    dq, dnu, dtor = rhs_swirl_q(np.array([-1.2, 0.0, 0.5]), 1.0)
    assert dq == pytest.approx(-1.19, abs=1e-15)
    assert dnu == pytest.approx(-1.2, abs=1e-15)
    assert dtor == pytest.approx(1.2, abs=1e-15)


def test_rhs_ep_reduces_to_qnu_at_n1():
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = rng.uniform(-4, 4, size=2)
        assert rhs_ep_qnu(state, 1.7, 1) == rhs_qnu(state, 1.7)


def test_rhs_ep_equilibrium_density_line():
    # nu = 1/n kills the nu equation regardless of q
    dq, dnu = rhs_ep_qnu(np.array([1.0, 0.5]), 1.0, 2)
    assert dq == pytest.approx(-1.5, abs=1e-15)
    assert dnu == 0.0


def test_rhs_ep_example_n3():
    dq, dnu = rhs_ep_qnu(np.array([0.3, 0.1]), 1.0, 3)
    assert dq == pytest.approx(-0.19, abs=1e-15)
    assert dnu == pytest.approx(0.21, abs=1e-15)


def test_rhs_wv_fixed_point():
    assert rhs_wv(np.array([0.0, 1.0]), 1.0) == (0.0, 0.0)


def test_rhs_wv_examples():
    assert rhs_wv(np.array([1.0, 0.0]), 1.0) == (1.0, 1.0)
    # centrifugal term contributes c0^2 v^-3
    assert rhs_wv(np.array([0.0, 1.0]), 1.0, c0=1.0) == (1.0, 0.0)


def test_rhs_wv_centrifugal_scaling():
    base = rhs_wv(np.array([0.2, 0.8]), 1.0)[0]
    one = rhs_wv(np.array([0.2, 0.8]), 1.0, c0=0.3)[0] - base
    two = rhs_wv(np.array([0.2, 0.8]), 1.0, c0=0.6)[0] - base
    assert two == pytest.approx(4.0 * one, rel=1e-12)


def test_rhs_wv_singular_at_vanishing_v():
    with pytest.raises(SingularInput, match="v = 0"):
        rhs_wv(np.array([1.0, 0.0]), 1.0, c0=1.0)


def test_rhs_wv_singular_where_the_cube_underflows():
    # v is nonzero but v^3 is 0.0, so the centrifugal term is undefined.
    with pytest.raises(SingularInput, match="v = 0"):
        rhs_wv((1.0, 1e-120), 1.0, c0=1.0)


def test_rhs_wv_inf_is_total_on_floats_and_rows():
    # v^3 = 0 (v = +-0, or v so small its cube underflows) reads as inf.
    for v in (0.0, -0.0, 1e-120):
        assert rhs_wv_inf((1.0, v), 1.0, 0.3) == (math.inf, 1.0)
    dw = 1.5 * (1.0 - 0.8) + 0.3 * 0.3 / (0.8 * 0.8 * 0.8)
    assert rhs_wv_inf((0.2, 0.8), 1.5, 0.3) == (dw, 0.2)
    assert rhs_wv_inf((0.2, 0.0), 2.0, 0.0) == rhs_wv((0.2, 0.0), 2.0) == (2.0, 0.2)
    with np.errstate(divide="ignore"):  # as in the batch stepper
        rows = rhs_wv_inf((np.array([1.0, 0.2, 0.5]), np.array([0.0, 0.8, -0.0])), 1.5, 0.3)
    np.testing.assert_array_equal(rows[0], [math.inf, dw, math.inf])
    np.testing.assert_array_equal(rows[1], [1.0, 0.2, 0.5])


@given(kappa=kappas)
def test_rest_states_are_fixed_points(kappa):
    for system, zero in [
        ("qnu", np.zeros(2)),
        ("pmu", np.zeros(2)),
        ("swirl", np.zeros(6)),
        ("swirl_q", np.zeros(3)),
        ("wv", np.array([0.0, 1.0])),
    ]:
        dim = SYSTEM_DIMS[system][1]
        rhs = {
            "qnu": rhs_qnu,
            "pmu": rhs_pmu,
            "swirl": rhs_swirl,
            "swirl_q": rhs_swirl_q,
            "wv": rhs_wv,
        }[system]
        assert rhs(zero, kappa) == (0.0,) * dim
    assert rhs_ep_qnu(np.zeros(2), kappa, 2) == (0.0, 0.0)


def test_swirl_state_tuple_order():
    s = SwirlState(p=1.0, q=2.0, mu=3.0, nu=4.0, theta_r=5.0, theta_over_r=6.0)
    assert s.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


# ---------------------------------------------------------------- integrator


def test_integrate_rest_state_stays_put():
    traj = integrate("qnu", (0.0, 0.0), 1.0)
    assert traj.termination.kind == "horizon_reached"
    assert np.all(traj.states == 0.0)
    assert traj.final_time == 100.0


def test_integrate_detects_blowup_with_signs():
    traj = integrate("qnu", (0.0, 1.5), 1.0)
    assert traj.termination.kind == "blowup_detected"
    q_end, nu_end = traj.final_state
    assert q_end < -1e8
    assert nu_end > 1e7
    # over-concentrated rest state has a closed-form breakdown time
    assert traj.termination.t_est == pytest.approx(math.acos(1.0 / 3.0), abs=5e-8)


def test_integrate_blowup_time_estimate():
    traj = integrate("qnu", (-1.2, 0.0), 1.0)
    assert traj.termination.kind == "blowup_detected"
    assert traj.termination.t_est == pytest.approx(0.9851107833377457, abs=5e-8)


def test_integrate_record_false_keeps_endpoints():
    traj = integrate("qnu", (0.2, 0.1), 1.0, record=False)
    assert len(traj.times) == 2
    assert traj.times[0] == 0.0
    assert traj.final_time == 100.0


def test_integrate_unknown_system():
    with pytest.raises(DomainError, match="unknown system"):
        integrate("nope", (0.0, 0.0), 1.0)


def test_integrate_wrong_state_length():
    with pytest.raises(DomainError, match="dimension"):
        integrate("qnu", (0.0, 0.0, 0.0), 1.0)


def test_integrate_nonfinite_state():
    with pytest.raises(DomainError, match="finite"):
        integrate("qnu", (np.nan, 0.0), 1.0)


@pytest.mark.parametrize("n", [float("inf"), float("nan"), 2.5, 0, True, "2"])
def test_bad_dimension_is_a_domain_error(n):
    with pytest.raises(DomainError, match="dimension n"):
        integrate("ep", (0.1, 0.1), 1.0, n=n)
    with pytest.raises(DomainError, match="dimension n"):
        integrate_batch("ep", [(0.1, 0.1)], 1.0, n=n)


SIGMA_STATE = SwirlState(0.0, 0.1, 0.0, 0.0, 0.0, 0.2)


@pytest.mark.parametrize("kappa", [True, False, float("inf"), float("nan"), 0.0, -1.0, "1"])
def test_bad_kappa_is_a_domain_error(kappa):
    calls = [
        lambda: integrate("ep", (0.1, 0.1), kappa),
        lambda: integrate_batch("ep", [(0.1, 0.1)], kappa),
        lambda: threshold_margin(0.5, 0.0, kappa),
        lambda: classify_point(0.5, 0.0, kappa),
        lambda: blowup_time_closed_form(0.5, 0.0, kappa),
        lambda: sharpness_bisect(0.0, kappa),
        lambda: sigma_membership(SIGMA_STATE, kappa),
        lambda: sigma_membership_batch([SIGMA_STATE], kappa),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="kappa"):
            call()


QUADRATIC = ProfilePreset("quadratic")


@pytest.mark.parametrize(
    "call,error,match",
    [
        (lambda: QUADRATIC.build(dimension=float("nan")), DomainError, "dimension"),
        (lambda: QUADRATIC.build(dimension=float("inf")), DomainError, "dimension"),
        (lambda: QUADRATIC.build(dimension="2"), DomainError, "dimension"),
        (lambda: QUADRATIC.build(kappa=True), DomainError, "kappa"),
        (lambda: advance_ensemble(QUADRATIC.build(), t_end=True), ConfigError, "t_end"),
        (lambda: classify_point("x", 0.0, 1.0), DomainError, "point"),
        (lambda: sharpness_bisect(0.0, 1.0, tol="x"), DomainError, "tol"),
        (lambda: sigma_membership(SIGMA_STATE, 1.0, horizon="x"), DomainError, "horizon"),
        (lambda: flow_radius(QUADRATIC.build(), 1.0, "x"), DomainError, "time"),
    ],
    ids=[
        "dimension-nan", "dimension-inf", "dimension-str", "kappa-bool", "t_end-bool",
        "lambda0-str", "tol-str", "horizon-str", "time-str",
    ],
)
def test_entry_points_raise_typed_errors(call, error, match):
    # The kappa and dimension rules in emaflow.errors guard every entry
    # point, and to them a bool or a string is never a number.
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("c0", [float("inf"), float("nan"), True, "x"])
def test_bad_c0_is_a_domain_error(c0):
    with pytest.raises(DomainError, match="c0"):
        integrate("wv", (1.0, 1.0), 1.0, c0=c0)
    with pytest.raises(DomainError, match="c0"):
        integrate_batch("wv", [(1.0, 1.0)], 1.0, c0=c0)


def test_integral_dimension_types_are_accepted():
    want = integrate("ep", (0.1, 0.1), 1.0, n=2, record=False).final_state
    for n in (2.0, np.int64(2), np.float64(2.0)):
        got = integrate("ep", (0.1, 0.1), 1.0, n=n, record=False).final_state
        np.testing.assert_array_equal(got, want)


def test_numpy_integer_kappa_is_accepted():
    # A NumPy integer kappa gives the same bits as the Python int; a bool
    # is still not a number here (test_bad_kappa_is_a_domain_error).
    for kappa in (1, 4):
        want = integrate("qnu", (0.5, 0.0), kappa, record=True)
        got = integrate("qnu", (0.5, 0.0), np.int64(kappa), record=True)
        np.testing.assert_array_equal(got.times, want.times)
        np.testing.assert_array_equal(got.states, want.states)
        assert got.termination == want.termination
        batch = integrate_batch("qnu", [(0.5, 0.0), (3.0, 0.0)], np.int64(kappa))
        ref = integrate_batch("qnu", [(0.5, 0.0), (3.0, 0.0)], kappa)
        assert batch.kinds == ref.kinds
        np.testing.assert_array_equal(batch.t_est, ref.t_est)
        np.testing.assert_array_equal(batch.final_state, ref.final_state)
        for lam0 in (0.5, 3.0):
            got_v = classify_point(lam0, 0.0, np.int64(kappa))
            want_v = classify_point(lam0, 0.0, kappa)
            assert got_v == want_v and got_v.margins == want_v.margins
            assert threshold_margin(lam0, 0.0, np.int64(kappa)).hex() == (
                threshold_margin(lam0, 0.0, kappa).hex()
            )


@pytest.mark.parametrize("magnitude", [1e9, 1e200])
def test_start_with_overflowing_derivative_norm_ends_like_the_batch(magnitude):
    # The derivative scaled by the tolerance overflows the RMS norm, so
    # the initial step size is 0: a pole at the start when the state is
    # past the threshold, step underflow at t = 0 otherwise.
    cfg = IntegratorConfig(blowup_magnitude=magnitude)
    traj = integrate("qnu", (1e150, 0.0), 1.0, config=cfg, record=False)
    batch = integrate_batch("qnu", [(1e150, 0.0)], 1.0, config=cfg)
    assert traj.termination.kind == batch.kinds[0]
    assert traj.termination.kind == ("blowup_detected" if magnitude < 1e150 else "step_underflow")
    assert traj.final_time == batch.final_time[0] == 0.0


def _qnu_ends(route, states, kappa, cfg):
    """(termination kinds, t_est) of each state, by integrate or integrate_batch."""
    if route == "integrate_batch":
        result = integrate_batch("qnu", states, kappa, config=cfg)
        return list(result.kinds), result.t_est.tolist()
    ends = [integrate("qnu", s, kappa, config=cfg, record=False).termination for s in states]
    return [e.kind for e in ends], [e.t_est for e in ends]


@pytest.mark.parametrize("route", ["integrate", "integrate_batch"])
def test_qnu_is_homogeneous_under_scaling(route):
    # (q, nu, kappa, t) -> (s q, nu, s^2 kappa, t / s) maps solutions of
    # the (q, nu) system to solutions.  Powers of two scale exactly, but
    # the step controller is not scale-free (abs_tol, the initial step,
    # blowup_magnitude), so the pole estimates agree to the tolerance
    # of the integration, not bit for bit.
    rng = np.random.default_rng(3)
    points = []
    while len(points) < 29:
        lam, h0 = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 0.9)
        if abs(threshold_margin(lam, h0, 1.0)) >= 0.05:
            points.append((lam, h0))
    # Past 2 pi every supercritical point at kappa = 1 has blown up.
    base = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, horizon=10.0)
    kinds, t_est = _qnu_ends(route, points, 1.0, base)
    assert kinds == [
        "horizon_reached" if threshold_margin(lam, h0, 1.0) > 0 else "blowup_detected"
        for lam, h0 in points
    ]
    for k in range(-4, 5):
        s = 2.0**k
        cfg = base.replace(
            horizon=base.horizon / s, max_step=base.max_step / s, min_step=base.min_step / s
        )
        scaled = [(s * lam, h0) for lam, h0 in points]
        kinds_s, t_est_s = _qnu_ends(route, scaled, s * s, cfg)
        assert kinds_s == kinds, s
        for kind, t, t_s in zip(kinds, t_est, t_est_s):
            if kind == "blowup_detected":
                assert s * t_s == pytest.approx(t, rel=1e-9, abs=0.0), s


STALLING = [
    ("qnu", (-1.2, 0.0), IntegratorConfig(blowup_magnitude=1e300, min_step=1e-300)),
    ("swirl_q", (-1e140, 0.0, 1.0), IntegratorConfig(blowup_magnitude=1e300, min_step=1e-170)),
]


@pytest.mark.parametrize("system, state0, cfg", STALLING)
def test_step_that_does_not_advance_t_is_step_underflow(system, state0, cfg):
    # min_step is below the resolution of t, so an accepted step can
    # leave t unchanged; the run ends there in every entry point.
    full = integrate(system, state0, 1.0, config=cfg)
    ends = integrate(system, state0, 1.0, config=cfg, record=False)
    batch = integrate_batch(system, [state0], 1.0, config=cfg)
    assert full.termination == ends.termination == Termination(kind="step_underflow")
    assert batch.kinds == ("step_underflow",)
    assert full.final_time == ends.final_time == batch.final_time[0] > 0.0
    np.testing.assert_array_equal(full.final_state, ends.final_state)
    np.testing.assert_array_equal(ends.final_state, batch.final_state[0])


def test_integrate_options_are_keyword_only():
    with pytest.raises(TypeError, match="positional"):
        integrate("qnu", (0.0, 0.0), 1.0, IntegratorConfig())


def test_trajectory_rejects_inconsistent_records():
    termination = Termination(kind="horizon_reached")
    with pytest.raises(DomainError, match="length"):
        Trajectory(times=[0.0, 1.0], states=[[0.0, 0.0]], termination=termination)
    with pytest.raises(DomainError, match="increasing"):
        Trajectory(
            times=[0.0, 0.0], states=[[0.0, 0.0], [0.0, 0.0]], termination=termination
        )


def test_integrate_rejects_foreign_config():
    with pytest.raises(ConfigError, match="IntegratorConfig"):
        integrate("qnu", (0.0, 0.0), 1.0, config="fast")


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ConfigError, match="min_step"):
        IntegratorConfig(max_step=1e-14)
    with pytest.raises(ConfigError):
        IntegratorConfig(blowup_magnitude=-1.0)


def test_config_replace():
    cfg = IntegratorConfig().replace(horizon=50.0)
    assert cfg.horizon == 50.0
    assert cfg.rel_tol == IntegratorConfig().rel_tol


# ---------------------------------------------------------------- convergence


def _oscillation_drift(config):
    traj = integrate("qnu", (0.5, 0.0), 1.0, config=config)
    return monitor_ellipse(traj, 1.0)


def test_step_halving_reduces_drift_by_order():
    # in the step-limited regime the error follows the fifth-order stepper
    drifts = []
    for max_step in (0.2, 0.1, 0.05):
        cfg = IntegratorConfig(
            rel_tol=1e-3, abs_tol=1e-6, max_step=max_step, horizon=50.0
        )
        drifts.append(_oscillation_drift(cfg))
    assert drifts[0] / drifts[1] >= 4.0
    assert drifts[1] / drifts[2] >= 4.0


def test_tolerance_tightening_reduces_drift():
    loose = _oscillation_drift(
        IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9, horizon=50.0)
    )
    tight = _oscillation_drift(
        IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, horizon=50.0)
    )
    assert loose / tight >= 4.0


# ---------------------------------------------------------------- gravitational variant

# Bounded orbits can still swing out to e^(2 q0^2 / kappa) before returning,
# so candidate states are screened against that excursion bound; anything the
# detector could mistake for a singularity is discarded rather than asserted on.


@pytest.mark.parametrize("n", [2, 3])
def test_ep_supercritical_region_is_empty(n, rng):
    config = IntegratorConfig(horizon=100.0)
    samples = []
    while len(samples) < 100:
        q0 = rng.uniform(-5.0, 5.0)
        nu0 = rng.uniform(-3.0, 1.0 / n)
        if nu0 >= 1.0 / n:
            continue
        if _ep_excursion_bound(q0, nu0, n) > 0.01 * config.blowup_magnitude:
            continue
        samples.append((q0, nu0))
    result = integrate_batch("ep", samples, 1.0, n=n, config=config)
    for sample, kind in zip(samples, result.kinds):
        assert kind == "horizon_reached", sample


@pytest.mark.parametrize(
    "q0,nu0",
    [
        (4.852314870171352, 0.4684260148457837),  # b_min ** -2 overflows
        (4.165775318157454, 0.495743162867611),  # b_min underflows to 0
    ],
)
def test_ep_excursion_bound_is_inf_beyond_floating_point(q0, nu0):
    assert _ep_excursion_bound(q0, nu0, 2) == math.inf
