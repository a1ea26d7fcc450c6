"""Right-hand sides and the adaptive integrator for the spectral ODE systems."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emaflow.errors import ConfigError, DomainError
from emaflow.flow import flow_radius
from emaflow.lagrange import advance_ensemble
from emaflow.profiles import ProfilePreset
from emaflow.spectral import (
    SYSTEMS,
    IntegratorConfig,
    SwirlState,
    Termination,
    Trajectory,
    batch,
    integrate,
    integrate_batch,
    integrator,
    monitor_ellipse,
    rhs_ep_qnu,
    rhs_qnu,
    rhs_swirl,
    rhs_swirl_q,
)
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
    dp, dmu = rhs_qnu(np.array([p, mu]), kappa)
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


@given(kappa=kappas)
def test_rest_states_are_fixed_points(kappa):
    for system in ("qnu", "swirl", "swirl_q"):
        dim = len(integrator._read(SYSTEMS[system])[1])
        assert SYSTEMS[system](np.zeros(dim), kappa) == (0.0,) * dim
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


def test_pole_time_is_exact_on_a_simple_pole():
    # y_j = c/(T - t) has the derivative c/(T - t)^2, so the tangent to
    # 1/|y_j| meets zero at T: up to the rounding of the quotients, one
    # ulp of T where T - t is small against T.
    rng = np.random.default_rng(0)
    for _ in range(1000):
        T = rng.uniform(0.5, 20.0)
        t = T - T * rng.uniform(1e-9, 1.0 / 16.0)
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
        pole = c / (T - t)
        y = [0.5 * rng.uniform(-1.0, 1.0) * pole, pole, 0.25 * pole]
        dy = [rng.uniform(-1.0, 1.0), c / (T - t) ** 2, rng.uniform(-1.0, 1.0)]
        assert abs(integrator._pole_time(t, y, dy, math.nan) - T) <= math.ulp(T)


def test_pole_time_reads_the_first_largest_component():
    # On |y_0| = |y_1| the tangent of y_0 is taken: t + 2/1, not t + 2/4.
    assert integrator._pole_time(1.0, (2.0, -2.0), (1.0, -4.0), math.nan) == 3.0
    assert integrator._pole_time(1.0, (-2.0, 2.0), (-1.0, 4.0), math.nan) == 3.0


@pytest.mark.parametrize(
    "y, dy",
    [
        ((0.0, 0.0), (1.0, 1.0)),  # no magnitude
        ((-3.0, 1.0), (2.0, 5.0)),  # the largest component shrinks
        ((3.0, 1.0), (0.0, 5.0)),  # ... or stands still
        ((3.0, 1.0), (math.nan, 5.0)),  # ... or its slope is not a number
    ],
)
def test_pole_time_falls_back_where_the_magnitude_does_not_grow(y, dy):
    assert integrator._pole_time(1.0, y, dy, 1.5) == 1.5


def _box_point(rng):
    # blowup_time_agreement's box of (lambda0, h0)
    return rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0)


def _qnu_poles(rng):
    states, poles = [], []
    while len(states) < 50:
        state = _box_point(rng)
        pole = blowup_time_closed_form(*state, 1.0)
        if pole is not None:
            states.append(state)
            poles.append(pole)
    return states, poles


def _zero_swirl_poles(rng):
    # With both swirl components 0, swirl is the (p, mu) and (q, nu)
    # branches side by side: it blows up with the first branch that does.
    states, poles = [], []
    while len(states) < 50:
        (p0, mu0), (q0, nu0) = _box_point(rng), _box_point(rng)
        branches = [blowup_time_closed_form(p0, mu0, 1.0), blowup_time_closed_form(q0, nu0, 1.0)]
        branches = [pole for pole in branches if pole is not None]
        if branches:
            states.append((p0, q0, mu0, nu0, 0.0, 0.0))
            poles.append(min(branches))
    return states, poles


@pytest.mark.parametrize("system, draw", [("qnu", _qnu_poles), ("swirl", _zero_swirl_poles)])
def test_pole_times_match_the_closed_form(monkeypatch, system, draw):
    # The bound is 10 rel_tol, the error a pole time may carry from an
    # integration at rel_tol.  At seed 0 the worst relative error is
    # 1.4e-9 on qnu and 1.6e-9 on swirl; over these draws at seeds 0-39
    # (2000 per system) it was 4.8e-9 and 8.3e-9.
    states, poles = draw(np.random.default_rng(0))
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, horizon=8.0)
    ends = [integrate(system, s, 1.0, config=cfg, record=False).termination for s in states]
    with monkeypatch.context() as patch:
        patch.setattr(batch, "_HANDOFF", 1)
        result = integrate_batch(system, states, 1.0, config=cfg)
    assert [end.kind for end in ends] == list(result.kinds) == ["blowup_detected"] * 50
    assert [end.t_est for end in ends] == result.t_est.tolist()
    np.testing.assert_allclose(result.t_est, poles, rtol=1e-8, atol=0.0)


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


def _branching(state, kappa):
    q, nu = state
    if q > 0.0:
        return (-q * q - kappa * nu, q * (1.0 - nu))
    return (0.0, 0.0)


def _miscounted(state, kappa):
    q, nu = state
    return (-q * q - kappa * nu,)


def test_the_scalar_stepper_inlines_every_rhs():
    # The generated stages evaluate each system's expressions in place,
    # read from systems.py, so no stepper calls a derivative function.
    for system, rhs in SYSTEMS.items():
        assert "f" not in integrator._stepper(rhs).__code__.co_names, system
    # An rhs that does more than unpack and return has no stepper, and
    # neither has one that returns fewer components than it unpacks.
    with pytest.raises(TypeError, match="_branching"):
        integrator._stepper(_branching)
    with pytest.raises(TypeError, match="_miscounted unpacks 2 components and returns 1"):
        integrator._stepper(_miscounted)


def test_the_inlined_rhs_is_read_from_the_function_alone(monkeypatch):
    # inspect finds a function's source without its module in sys.modules.
    monkeypatch.delitem(sys.modules, "emaflow.spectral.systems")
    assert integrator._read.__wrapped__(rhs_qnu) == (
        ("kappa",), ("-z0 * z0 - kappa * z1", "z0 * (1.0 - z1)")
    )
    assert integrator._read.__wrapped__(rhs_ep_qnu)[0] == ("kappa", "n")


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


def test_config_stores_numpy_reals_as_floats():
    # integrate accepts any finite real, so its config does too, and
    # stores it as a float.  Every value is exact in float32, so the
    # NumPy config must equal the float one bit for bit.
    floats = dict(rel_tol=2.0**-30, abs_tol=2.0**-36, max_step=0.5, min_step=2.0**-40,
                  blowup_magnitude=2.0**30, horizon=5.0)
    reals = {name: np.float32(value) for name, value in floats.items()}
    reals.update(blowup_magnitude=np.int64(2**30), horizon=np.int64(5))
    cfg = IntegratorConfig(**reals)
    for name, value in floats.items():
        stored = getattr(cfg, name)
        assert type(stored) is float and stored.hex() == value.hex()
    assert cfg == IntegratorConfig(**floats)
    with pytest.raises(ConfigError, match="horizon"):
        IntegratorConfig(horizon=True)


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


# ---------------------------------------------------------------- swirl oracle

# The radial structure checks rhs_swirl's p-branch and theta_r equation
# without reading rhs_swirl.  Radial velocity U, potential gradient phi'
# and tangential velocity V give the ratio fields q = U/r, nu = phi'/r and
# theta/r = V/r, whose radial derivatives are (p - q)/r, (mu - nu)/r and
# (theta_r - theta/r)/r: each gradient field is G = g + r dg/dr for its
# ratio field g.  A characteristic from label s is at
# r(t) = s(1 - nu0)/(1 - nu(t)), since r' = q r and nu' = q(1 - nu), and
# (q, nu, theta/r) obey the closed swirl_q system along it.  So two
# swirl_q runs from the labels r0 -+ delta give (p, mu, theta_r) on the
# characteristic from r0 by central differences in the label.


def _swirl_label(coef, r):
    # (p, q, mu, nu, theta_r, theta/r) at radius r of the profiles
    # U = a r + b r^3, phi' = c r + d r^3 and V = e r + f r^3.
    a, b, c, d, e, f = coef
    r2 = r * r
    return (
        a + 3.0 * b * r2, a + b * r2, c + 3.0 * d * r2, c + d * r2, e + 3.0 * f * r2, e + f * r2
    )


def _swirl_oracle(coef, r0, delta, kappa, cfg):
    """(p, mu, theta_r) at config.horizon on the characteristic from r0."""
    ends = []
    for label in (r0 - delta, r0 + delta):
        _, q0, _, nu0, _, tor0 = _swirl_label(coef, label)
        run = integrate("swirl_q", (q0, nu0, tor0), kappa, config=cfg, record=False)
        assert run.termination.kind == "horizon_reached"
        ends.append((label * (1.0 - nu0) / (1.0 - run.final_state[1]), run.final_state))
    (r_lo, g_lo), (r_hi, g_hi) = ends
    return 0.5 * (g_lo + g_hi) + 0.5 * (r_lo + r_hi) * (g_hi - g_lo) / (r_hi - r_lo)


@pytest.mark.parametrize("delta", [1e-3, 1e-4])
@pytest.mark.parametrize("rel_tol", [1e-9, 1e-11])
def test_swirl_p_branch_and_theta_r_match_the_label_oracle(monkeypatch, delta, rel_tol):
    # The oracle's error is O(delta^2) truncation plus the integration
    # error of its two runs over their label distance, about
    # rel_tol / delta.  The truncation is read off the oracle at delta and
    # 2 delta: it is c delta^2 and 4 c delta^2, so c delta^2 is a third of
    # their difference, taken twice for the higher orders.  The swirl runs
    # go through integrate and, as the swirl_sigma sweep steps them,
    # through the batch.
    monkeypatch.setattr(batch, "_HANDOFF", 1)
    rng = np.random.default_rng(17)
    kappa = 1.3
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol, horizon=4.0)
    # Coefficients of U and phi' in [-0.25, 0.25] and of V in [-0.5, 0.5],
    # labels in [0.5, 1]: every characteristic stays smooth to t = 4.
    draws = []
    for _ in range(10):
        coef = (*rng.uniform(-0.25, 0.25, size=4), *rng.uniform(-0.5, 0.5, size=2))
        draws.append((coef, rng.uniform(0.5, 1.0)))
    states0 = [_swirl_label(coef, r0) for coef, r0 in draws]
    batched = integrate_batch("swirl", states0, kappa, config=cfg)
    assert batched.kinds == ("horizon_reached",) * len(draws)
    for (coef, r0), state0, final in zip(draws, states0, batched.final_state):
        oracle = _swirl_oracle(coef, r0, delta, kappa, cfg)
        truncation = 2.0 * np.abs(oracle - _swirl_oracle(coef, r0, 2.0 * delta, kappa, cfg)) / 3.0
        tol = truncation + rel_tol / delta * np.maximum(1.0, np.abs(oracle))
        single = integrate("swirl", state0, kappa, config=cfg, record=False)
        assert single.termination.kind == "horizon_reached"
        for y in (single.final_state, final):
            error = np.abs(y[[0, 2, 4]] - oracle)
            assert np.all(error <= tol), (coef, r0, error, tol)


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
