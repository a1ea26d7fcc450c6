"""Critical-threshold classification: pointwise, profile-level, and with rotation."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emaflow import threshold
from emaflow.errors import BisectionError, DomainError, EmaflowError
from emaflow.profiles import ProfilePreset, RadialProfile
from emaflow.spectral import IntegratorConfig, SwirlState, integrate
from emaflow.threshold import (
    SIGMA_HORIZON_FACTOR,
    Verdict,
    blowup_time_closed_form,
    classify_point,
    classify_profile,
    default_classification_grid,
    sharpness_bisect,
    sigma_membership,
    sigma_membership_batch,
    threshold_margin,
)

lambdas = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
heights = st.floats(min_value=-2.0, max_value=1.0, allow_nan=False)
kappas = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)


# ---------------------------------------------------------------- pointwise


def test_classify_point_examples():
    assert classify_point(0.0, 0.0, 1.0).regime == "subcritical"
    v = classify_point(2.0, 0.0, 1.0)
    assert v.regime == "supercritical"
    assert v.t_blowup == pytest.approx(7.0 * math.pi / 6.0, abs=1e-12)
    assert classify_point(0.0, 0.5, 1.0).regime == "boundary"
    # within relative rounding slop of the parabola counts as boundary
    assert classify_point(0.9999999999999, 0.0, 1.0).regime == "boundary"


def test_threshold_margin_sign():
    assert threshold_margin(0.0, 0.0, 1.0) == 1.0
    assert threshold_margin(1.0, 0.0, 1.0) == 0.0
    assert threshold_margin(0.0, 0.75, 2.0) < 0.0


def test_closed_form_times():
    assert blowup_time_closed_form(0.0, 0.0, 1.0) is None
    assert blowup_time_closed_form(0.0, 1.0, 1.0) == pytest.approx(
        math.pi / 2.0, abs=1e-12
    )
    assert blowup_time_closed_form(-2.0, 0.0, 1.0) == pytest.approx(
        math.pi / 6.0, abs=1e-12
    )
    assert blowup_time_closed_form(0.0, 0.6, 1.0) == pytest.approx(
        math.acos(-2.0 / 3.0), abs=1e-12
    )
    assert blowup_time_closed_form(-1.2, 0.0, 1.0) == pytest.approx(
        0.9851107833377457, abs=1e-14
    )


def _ulps(got, want):
    return abs(got - want) / math.ulp(want)


@pytest.mark.parametrize(
    "lambda0,h0,kappa,want",
    [
        # the first zero of 1 - 1e13 sin t, not the one near pi
        (-1e13, 0.0, 1.0, 1e-13),
        # (1 - 1e200) + 1e200 cos t: 1 - cos t = 1e-200
        (0.0, 1e200, 1.0, 1.414213562373095e-100),
        # b^2 - (1 - 2 h0) overflows unless the quadratic is scaled
        (1e308, -1e308, 1.0, 3.0 * math.pi / 2.0),
        (1e200, -1e300, 1e10, 6.283185307179586e-05),
    ],
)
def test_closed_form_pins_at_extreme_scales(lambda0, h0, kappa, want):
    assert blowup_time_closed_form(lambda0, h0, kappa) == want


@given(
    ratio=st.floats(min_value=1.0 + 1e-6, max_value=1e15),
    kappa=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_closed_form_matches_the_arcsine_at_zero_height(ratio, kappa, sign):
    # h0 = 0: lam = 1 + (lambda0/sqrt(kappa)) sin(sqrt(kappa) t).
    sk = math.sqrt(kappa)
    lambda0 = sign * ratio * sk
    x = sk / abs(lambda0)
    s = math.asin(x) if lambda0 < 0.0 else math.pi + math.asin(x)
    want = s / sk
    # Near the parabola the root itself is ill-conditioned: a relative
    # change e in lambda0 moves s by e x / sqrt(1 - x^2), which rounding
    # the oracle's own x already does.  Away from it cond is at most 1.
    cond = x / (s * math.sqrt((1.0 - x) * (1.0 + x)))
    assert _ulps(blowup_time_closed_form(lambda0, 0.0, kappa), want) <= 4.0 * max(1.0, cond)


@given(
    h0=st.floats(min_value=1.0, max_value=1e12),
    kappa=st.floats(min_value=1e-3, max_value=1e3),
)
def test_closed_form_matches_the_arcsine_at_zero_gradient(h0, kappa):
    # lambda0 = 0: lam = 0 where 1 - cos s = 1/h0, i.e. sin(s/2) = 1/sqrt(2 h0).
    want = 2.0 * math.asin(1.0 / math.sqrt(2.0 * h0)) / math.sqrt(kappa)
    assert _ulps(blowup_time_closed_form(0.0, h0, kappa), want) <= 4.0


def _exact_blowup_time(lambda0, h0, kappa):
    # The closed form's own root in 60-digit arithmetic, from the exact
    # inputs: the quadratic's root taken where it does not cancel.
    with mpmath.workdps(60):
        sk = mpmath.sqrt(kappa)
        a, b, c = mpmath.mpf(0.5) - h0, lambda0 / sk, mpmath.mpf(0.5)
        root = mpmath.sqrt(b * b - 4 * a * c)
        q = -(b + (root if b >= 0 else -root)) / 2
        phases = [2 * mpmath.atan2(abs(y), x if y >= 0 else -x) for y, x in ((q, a), (c, q))]
        return min(s for s in phases if s > 0) / sk


def test_closed_form_is_exact_to_a_few_ulps_near_the_threshold():
    # lambda0 lies 10^U(-12, 0.5) relative from the parabola, on either
    # side, so b^2 - 4ac runs from full cancellation to none.  The float
    # difference alone was off by up to 9e5 ulps at 1e-12.
    rng = random.Random(0)
    checked = 0
    for _ in range(1000):
        kappa = 2.0 ** rng.uniform(-10.0, 10.0)
        h0 = rng.uniform(-2.0, 0.45)
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 0.5)
        lambda0 = rng.choice((-1.0, 1.0)) * math.sqrt(kappa * (1.0 - 2.0 * h0)) * (1.0 + offset)
        verdict = classify_point(lambda0, h0, kappa)
        if verdict.regime == "boundary":
            continue
        margin = Fraction(kappa) * (1 - 2 * Fraction(h0)) - Fraction(lambda0) ** 2
        assert verdict.regime == ("subcritical" if margin > 0 else "supercritical")
        if verdict.regime == "supercritical":
            exact = _exact_blowup_time(lambda0, h0, kappa)
            assert abs(verdict.t_blowup - exact) <= 8 * math.ulp(float(exact))
            checked += 1
    assert checked > 400


def test_boundary_band_is_relative_to_the_margin_terms():
    # kappa(1 - 2 h0) and lambda0^2 are both about 2e6 here, so their
    # difference is round-off at the parabola, on either side of it.
    lambda0 = 1414.2139159264414
    assert classify_point(lambda0, -1e6, 1.0).regime == "boundary"
    assert classify_point(math.nextafter(lambda0, math.inf), -1e6, 1.0).regime == "boundary"
    # Where those terms overflow there is no band: the sign decides.
    assert classify_point(1e200, 0.0, 1.0).regime == "supercritical"
    assert classify_point(0.0, -1e300, 1e300).regime == "subcritical"


@pytest.mark.parametrize(
    "lambda0,h0,regime",
    [
        # kappa(1 - 2 h0) = 2e600 and lambda0^2 = 1e400 both overflow.
        (1e200, -1e300, "subcritical"),
        (-1e200, -1e300, "subcritical"),
        # lambda0^2 = 1e600 against kappa(1 - 2 h0) = 2e500.
        (1e300, -1e200, "supercritical"),
    ],
)
def test_verdict_where_both_margin_terms_overflow(lambda0, h0, regime):
    kappa = 1e300
    assert math.isnan(threshold_margin(lambda0, h0, kappa))
    verdict = classify_point(lambda0, h0, kappa)
    assert verdict.regime == regime
    closed_form = blowup_time_closed_form(lambda0, h0, kappa)
    assert verdict.t_blowup == closed_form
    assert (closed_form is None) == (regime == "subcritical")
    profile = ProfilePreset("quadratic", {"a": h0, "c": lambda0}).build(kappa=kappa)
    # The gradient branch at the origin is (u0'(0), phi0'') = (lambda0, h0).
    verdict = classify_profile(profile, [1e-300])
    assert verdict.regime == regime
    assert verdict.margins["gradient_branch"] == (math.inf if regime == "subcritical" else -math.inf)


def test_verdicts_are_invariant_under_the_paper_scaling(rng):
    # (lambda0, kappa, t) -> (s lambda0, s^2 kappa, t/s) maps solutions of
    # the spectral dynamics to solutions; with s a power of two every
    # float in the verdict scales exactly.  Points lie at a relative
    # distance 1e-14 .. 1e-6 from the parabola, across the boundary band.
    regimes = set()
    for _ in range(2000):
        kappa = 10.0 ** rng.uniform(-2.0, 2.0)
        h0 = rng.uniform(-2.0, 0.4)
        eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -6.0)
        lambda0 = rng.choice((-1.0, 1.0)) * math.sqrt(kappa * (1.0 - 2.0 * h0)) * (1.0 + eps)
        verdict = classify_point(lambda0, h0, kappa)
        regimes.add(verdict.regime)
        for k in range(-8, 9):
            s = 2.0**k
            scaled = classify_point(s * lambda0, h0, s * s * kappa)
            assert scaled.regime == verdict.regime
            if verdict.t_blowup is not None:
                assert scaled.t_blowup == verdict.t_blowup / s
    assert regimes == {"subcritical", "supercritical", "boundary"}


@given(lambda0=lambdas, h0=heights, kappa=kappas)
def test_regime_is_even_in_lambda(lambda0, h0, kappa):
    assert classify_point(lambda0, h0, kappa).regime == (
        classify_point(-lambda0, h0, kappa).regime
    )


@given(lambda0=lambdas, h0=heights, kappa=kappas)
def test_blowup_time_lands_in_first_period(lambda0, h0, kappa):
    if threshold_margin(lambda0, h0, kappa) >= -1e-9:
        return
    t = blowup_time_closed_form(lambda0, h0, kappa)
    assert 0.0 < t <= 2.0 * math.pi / math.sqrt(kappa) * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "lambda0,h0,kappa",
    [(-1.2, 0.0, 1.0), (0.0, 0.75, 1.0), (1.5, 0.2, 2.0)],
)
def test_supercritical_times_match_integration(lambda0, h0, kappa):
    t = blowup_time_closed_form(lambda0, h0, kappa)
    traj = integrate("qnu", (lambda0, h0), kappa)
    assert traj.termination.kind == "blowup_detected"
    assert abs(traj.termination.t_est - t) <= max(1e-3, 1e-3 * t)


@pytest.mark.parametrize("h0,kappa", [(0.0, 1.0), (0.2, 1.0), (-1.0, 2.0)])
def test_subcritical_interior_stays_bounded(h0, kappa):
    lambda0 = 0.9 * math.sqrt(kappa * (1.0 - 2.0 * h0))
    assert classify_point(lambda0, h0, kappa).regime == "subcritical"
    cfg = IntegratorConfig(horizon=200.0)
    traj = integrate("qnu", (lambda0, h0), kappa, config=cfg, record=False)
    assert traj.termination.kind == "horizon_reached"


# ---------------------------------------------------------------- verdict contract


def test_verdict_rejects_unknown_regime():
    with pytest.raises(DomainError):
        Verdict(regime="weird")


def test_verdict_time_only_for_supercritical():
    with pytest.raises(DomainError):
        Verdict(regime="subcritical", t_blowup=1.0)
    with pytest.raises(DomainError):
        Verdict(regime="supercritical")
    Verdict(regime="supercritical", t_blowup=1.0)


# ---------------------------------------------------------------- sharpness


def test_bisected_threshold_matches_parabola():
    tol = 1e-3
    assert abs(sharpness_bisect(0.0, 1.0, tol=tol) - 1.0) <= tol + 2.5e-4
    assert abs(sharpness_bisect(0.375, 1.0, tol=tol) - 0.5) <= tol + 2.5e-4
    assert abs(sharpness_bisect(0.0, 4.0, tol=tol) - 2.0) <= tol + 2.5e-4


def test_bisect_ends_where_the_bracket_ends_are_adjacent_doubles(monkeypatch):
    # A tol below the spacing of doubles near the threshold cannot be
    # met: bisection stops where the midpoint is an end of the bracket.
    # A probe budget makes a regression fail instead of hang.
    probes = []

    def counted(*args, **kwargs):
        probes.append(args)
        if len(probes) > 100:
            raise AssertionError("sharpness_bisect did not stop")
        return integrate(*args, **kwargs)

    monkeypatch.setattr(threshold, "integrate", counted)
    lam = sharpness_bisect(0.0, 1.0, horizon=5.0, tol=1e-300)
    assert len(probes) <= 64
    # The answer is an end of a bracket of adjacent doubles, both probed.
    probed = {probe[1][0] for probe in probes}
    assert {lam, math.nextafter(lam, 0.0)} <= probed or {lam, math.nextafter(lam, 2.0)} <= probed


def test_bisect_rejects_overconcentrated_start():
    with pytest.raises(DomainError, match="h0"):
        sharpness_bisect(0.5, 1.0)


def test_bisect_reports_missing_upper_bracket():
    # far below the axis every trial stays bounded inside the horizon probed
    with pytest.raises(BisectionError, match="does not blow up"):
        sharpness_bisect(-2.0, 1.0)


def test_bisect_reports_unbounded_lower_bracket():
    # |nu| = 0.5 at t = 0 is past a blowup magnitude of 0.1, so even
    # lambda0 = 0 is not bounded.
    config = IntegratorConfig(blowup_magnitude=0.1)
    with pytest.raises(BisectionError, match="lower bracket lambda0 = 0.0 is not bounded"):
        sharpness_bisect(-0.5, 1.0, config=config)


# ---------------------------------------------------------------- profiles


def test_equilibrium_profile_is_subcritical(equilibrium):
    v = classify_profile(equilibrium)
    assert v.regime == "subcritical"
    assert v.t_blowup is None and v.witness_r is None


def test_expanding_core_is_supercritical():
    profile = ProfilePreset("quadratic", {"a": 0.0, "c": 1.2, "d": 1.0}).build()
    v = classify_profile(profile)
    assert v.regime == "supercritical"
    assert v.witness_r == 0.0
    assert v.t_blowup == blowup_time_closed_form(1.2, 0.0, 1.0)


def test_mild_quadratic_is_subcritical():
    profile = ProfilePreset("quadratic", {"a": 0.1, "c": 0.6, "d": 1.0}).build()
    assert classify_profile(profile).regime == "subcritical"


def test_tuned_profile_sits_on_boundary():
    # c^2 = kappa(1 - 2a) up to rounding puts the origin on the parabola
    c = math.sqrt(0.4)
    profile = ProfilePreset("quadratic", {"a": 0.3, "c": c, "d": 1.0}).build()
    v = classify_profile(profile)
    assert v.regime == "boundary"
    assert v.t_blowup is None


def _pointwise_profile_verdict(profile, grid):
    # classify_point at every point, in order: the origin once, then the
    # gradient and the ratio branch radius by radius.
    kappa = profile.kappa
    points = [(0.0, float(profile.du0(0.0)), float(profile.d2phi0(0.0)))]
    for r in grid:
        points.append((float(r), float(profile.du0(r)), float(profile.d2phi0(r))))
        points.append((float(r), float(profile.q0(r)), float(profile.nu0(r))))
    verdicts = [(r, classify_point(lam, h, kappa)) for r, lam, h in points]
    failing = [(r, v) for r, v in verdicts if v.regime != "subcritical"]
    times = [v.t_blowup for _, v in failing if v.regime == "supercritical"]
    if not failing:
        return Verdict(regime="subcritical")
    if not times:
        return Verdict(regime="boundary", witness_r=failing[0][0])
    return Verdict(regime="supercritical", t_blowup=min(times), witness_r=failing[0][0])


def test_classify_profile_equals_the_pointwise_verdicts(rng):
    grid_sizes = (1, 7, 64)
    regimes = set()
    for trial in range(60):
        if trial % 2:
            params = {"a": rng.uniform(-0.5, 0.4), "c": rng.uniform(-2, 2), "d": rng.uniform(0.3, 2)}
            profile = ProfilePreset("quadratic", params).build(kappa=rng.uniform(0.2, 3.0))
        else:
            params = {"b": rng.uniform(-1, 1), "c": rng.uniform(-1, 1)}
            profile = ProfilePreset("bump", params).build(dimension=int(rng.integers(1, 4)))
        grid = default_classification_grid(profile, grid_sizes[trial % 3])
        verdict = classify_profile(profile, grid)
        assert verdict == _pointwise_profile_verdict(profile, grid)
        regimes.add(verdict.regime)
        for name, lam_f, h_f in (
            ("gradient_branch", profile.du0, profile.d2phi0),
            ("ratio_branch", profile.q0, profile.nu0),
        ):
            radii = [0.0, *grid]
            margins = [threshold_margin(float(lam_f(r)), float(h_f(r)), profile.kappa) for r in radii]
            assert verdict.margins[name] == min(margins)
    assert regimes == {"subcritical", "supercritical"}
    c = math.sqrt(0.4)
    tuned = ProfilePreset("quadratic", {"a": 0.3, "c": c, "d": 1.0}).build()
    grid = default_classification_grid(tuned, 16)
    assert classify_profile(tuned, grid) == _pointwise_profile_verdict(tuned, grid)


def test_classify_profile_raises_at_the_first_non_finite_point():
    profile = ProfilePreset("quadratic", {"c": 1e308}).build()
    with np.errstate(over="ignore"), pytest.raises(
        DomainError, match=r"point \(-inf, 0.0\) must be finite"
    ):
        classify_profile(profile)


def test_classify_profile_grid_validation(equilibrium):
    with pytest.raises(DomainError, match="empty"):
        classify_profile(equilibrium, r_grid=np.array([]))
    with pytest.raises(DomainError, match="radii"):
        classify_profile(equilibrium, r_grid=np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="radii"):
        classify_profile(equilibrium, r_grid=np.array([0.5, 99.0]))
    with pytest.raises(DomainError, match="radii"):
        classify_profile(equilibrium, r_grid=np.array([0.5, np.nan]))
    for size in (2.5, 8.0):
        with pytest.raises(DomainError, match="grid size must be an integer"):
            default_classification_grid(equilibrium, size)


def test_classify_profile_takes_one_scalar_radius(canonical_supercritical):
    one, listed = (classify_profile(canonical_supercritical, r) for r in (0.5, [0.5]))
    assert (one, one.margins) == (listed, listed.margins)


def test_default_grid_rejects_a_size_below_one(equilibrium):
    for size in (0, -1):
        with pytest.raises(DomainError, match="grid size must be >= 1"):
            default_classification_grid(equilibrium, size)


def _zeros(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def test_classify_profile_raises_at_a_non_finite_ratio_branch_origin():
    # q0(0) = u0'(0) + 0.5 u0''(0) * 0 = 0.5 * inf * 0 = nan, while the
    # gradient branch origin (0, 0) is finite.
    profile = RadialProfile(
        dimension=2, kappa=1.0, u0=_zeros, du0=_zeros, dphi0=_zeros, d2phi0=_zeros,
        r_max=2.0, d2u0=lambda r: np.full_like(np.asarray(r, dtype=float), np.inf),
    )
    with np.errstate(invalid="ignore"), pytest.raises(
        DomainError, match=r"point \(nan, 0.0\) must be finite"
    ):
        classify_profile(profile, [1.0, 2.0])


def test_classify_profile_does_not_judge_points_again(monkeypatch):
    profiles = [
        ProfilePreset("quadratic", params).build()
        for params in (
            {"a": 0.1, "c": 0.6, "d": 1.0},
            {"a": 0.0, "c": 1.2, "d": 1.0},
            {"a": 0.3, "c": math.sqrt(0.4), "d": 1.0},
        )
    ]
    expected = [classify_profile(p) for p in profiles]
    assert [v.regime for v in expected] == ["subcritical", "supercritical", "boundary"]

    def judged_again(*args):
        raise AssertionError("classify_profile called classify_point")

    monkeypatch.setattr(threshold, "classify_point", judged_again)
    for profile, verdict in zip(profiles, expected):
        again = classify_profile(profile)
        assert again == verdict and again.margins == verdict.margins


def test_classify_profile_broadcasts_scalar_callables():
    profile = RadialProfile(
        dimension=2, kappa=1.0, u0=_zeros, du0=lambda r: -3.0,
        dphi0=_zeros, d2phi0=lambda r: 0.1, r_max=2.0,
    )
    verdict = classify_profile(profile)
    assert verdict.regime == "supercritical"
    assert verdict.t_blowup == 0.3378390860053283 == blowup_time_closed_form(-3.0, 0.1, 1.0)
    assert verdict.witness_r == 0.0


def test_default_grid_spans_domain(equilibrium):
    g = default_classification_grid(equilibrium)
    assert len(g) == 512
    assert g[0] == pytest.approx(1e-3 * equilibrium.r_max)
    assert g[-1] == equilibrium.r_max
    assert np.all(np.diff(g) > 0)


@pytest.mark.parametrize(
    "name,params",
    [
        ("equilibrium", {}),
        ("bump", {}),
        ("quadratic", {"a": 0.0, "c": 1.2, "d": 1.0}),
        ("quadratic", {"a": 0.1, "c": 0.6, "d": 1.0}),
    ],
)
def test_verdict_ignores_dimension(name, params):
    regimes = set()
    for n in (2, 3):
        profile = ProfilePreset(name, params).build(dimension=n)
        regimes.add(classify_profile(profile).regime)
    assert len(regimes) == 1


# ---------------------------------------------------------------- rotation


def test_sigma_rest_state_subcritical():
    v = sigma_membership(SwirlState(0, 0, 0, 0, 0, 0), 1.0)
    assert v.regime == "subcritical"
    assert v.horizon == 500.0


def test_sigma_default_horizon_scales_with_kappa():
    assert SIGMA_HORIZON_FACTOR == 500.0
    v = sigma_membership(SwirlState(0, 0, 0, 0, 0, 0), 4.0)
    assert v.horizon == 250.0


def test_sigma_zero_swirl_matches_closed_form():
    v = sigma_membership(SwirlState(0, -1.5, 0, 0, 0, 0), 1.0)
    assert v.regime == "supercritical"
    assert abs(v.t_blowup - blowup_time_closed_form(-1.5, 0.0, 1.0)) <= 1e-4


def test_sigma_rotation_does_not_rescue_gradient_branch():
    # the (q, nu, theta/r) subsystem alone stays on a bounded orbit ...
    traj = integrate("swirl_q", (-1.2, 0.0, 0.5), 1.0)
    assert traj.termination.kind == "horizon_reached"
    assert np.max(np.abs(traj.states)) < 10.0
    # ... yet full membership fails through the entrained branch
    v = sigma_membership(SwirlState(0, -1.2, 0, 0, 0, 0.5), 1.0)
    assert v.regime == "supercritical"
    assert 0.85 < v.t_blowup < 0.95


def test_sigma_rejects_bad_horizon():
    with pytest.raises(DomainError, match="horizon"):
        sigma_membership(SwirlState(0, 0, 0, 0, 0, 0), 1.0, horizon=-1.0)


def test_sigma_batch_matches_single_verdicts():
    states = [
        SwirlState(0, 0, 0, 0, 0, 0),
        SwirlState(0, -1.2, 0, 0, 0, 0.5),
        SwirlState(0.0, 0.3, 0.0, 0.2, 0.1, 0.5),
    ]
    verdicts = sigma_membership_batch(states, 1.0, horizon=20.0)
    assert [v.regime for v in verdicts] == ["subcritical", "supercritical", "supercritical"]
    for state, verdict in zip(states, verdicts):
        single = sigma_membership(state, 1.0, horizon=20.0)
        assert (verdict.regime, verdict.horizon) == (single.regime, single.horizon)
        assert verdict.t_blowup == single.t_blowup


def test_sigma_batch_stall_raises_like_single():
    # Out of reach of the magnitude threshold, the step shrinks below
    # min_step first: membership is undecided.
    config = IntegratorConfig(blowup_magnitude=1e200, min_step=1e-6)
    state = SwirlState(0.0, 0.3, 0.0, 0.2, 0.1, 0.5)
    message = r"integration stalled \(step_underflow\) at t = .*; membership undecided"
    with pytest.raises(EmaflowError, match=message):
        sigma_membership(state, 1.0, horizon=20.0, config=config)
    with pytest.raises(EmaflowError, match=message):
        sigma_membership_batch(
            [SwirlState(0, 0, 0, 0, 0, 0), state], 1.0, horizon=20.0, config=config
        )


def test_sigma_batch_rejects_bad_horizon():
    with pytest.raises(DomainError, match="horizon"):
        sigma_membership_batch([SwirlState(0, 0, 0, 0, 0, 0)], 1.0, horizon=0.0)
