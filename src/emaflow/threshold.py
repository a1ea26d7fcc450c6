"""Critical-threshold classification.

A spectral pair with initial data (lambda0, h0) stays bounded exactly
when lambda0^2 < kappa(1 - 2 h0), strictly.  Equivalently the flow
gradient factor

    lam(t) = (1 - h0) + h0 cos(sqrt(kappa) t) + lambda0 sin(sqrt(kappa) t)/sqrt(kappa)

has no positive root.  Both views are implemented: the predicate
directly, and the first root in closed form.  In tau = tan(sqrt(kappa) t/2),
lam = 0 is (1/2 - h0) tau^2 + (lambda0/sqrt(kappa)) tau + 1/2 = 0, whose
discriminant is -threshold_margin/kappa.  Floating-point equality at the
threshold is surfaced as a distinct 'boundary' verdict rather than
silently rounded to either side.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .errors import BisectionError, DomainError, EmaflowError, check_positive, finite_real
from .profiles import RadialProfile
from .spectral import IntegratorConfig, SwirlState, integrate

__all__ = [
    "TOL_BOUNDARY",
    "Verdict",
    "threshold_margin",
    "classify_point",
    "blowup_time_closed_form",
    "classify_profile",
    "default_classification_grid",
    "sigma_membership",
    "sigma_membership_batch",
    "sharpness_bisect",
]

# Relative resolution of the strict inequality at the critical set.
TOL_BOUNDARY = 1e-12

# Horizon-relative Sigma membership defaults to 500 / sqrt(kappa),
# many rotation periods of the linearized dynamics.
SIGMA_HORIZON_FACTOR = 500.0

_REGIMES = ("subcritical", "supercritical", "boundary")

# The eigenvalue branches of a profile-level verdict: (u0', phi0'') and
# (u0/r, phi0'/r), rows (p, mu) and (q, nu) of RadialProfile.spectral.
_BRANCHES = ("gradient_branch", "ratio_branch")


@dataclass(frozen=True)
class Verdict:
    """Classification of a point or profile.

    t_blowup is present exactly for supercritical verdicts; witness_r
    marks the first failing radius of a profile-level verdict; margins
    maps each branch of a profile-level verdict to its smallest
    threshold margin; horizon records the time horizon of
    horizon-relative (numerical) verdicts such as Sigma membership.
    """

    regime: str
    t_blowup: float | None = None
    witness_r: float | None = None
    horizon: float | None = None
    margins: dict[str, float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise DomainError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if (self.regime == "supercritical") != (self.t_blowup is not None):
            raise DomainError("t_blowup must be present iff the verdict is supercritical")


def _check_point(lambda0: float, h0: float, kappa: float):
    check_positive("kappa", kappa)
    if not (finite_real(lambda0) and finite_real(h0)):
        raise DomainError(f"point ({lambda0!r}, {h0!r}) must be finite")


def threshold_margin(lambda0: float, h0: float, kappa: float) -> float:
    """kappa(1 - 2 h0) - lambda0^2; positive iff strictly subcritical.

    Where both terms overflow it is inf - inf = nan, which has no sign;
    classify_point still gives that point a verdict, from the closed
    form's scaled discriminant, and classify_profile's margins take +-inf.
    """
    _check_point(lambda0, h0, kappa)
    return kappa * (1.0 - 2.0 * h0) - lambda0 * lambda0


def classify_point(lambda0: float, h0: float, kappa: float) -> Verdict:
    """Strict-threshold verdict for one spectral pair.

    boundary is reported when |margin| <= TOL_BOUNDARY * scale, where the
    scale kappa |1 - 2 h0| + lambda0^2 of the margin's terms is finite;
    supercritical verdicts carry the closed-form blowup time.  Where
    both terms overflow, the sign of the closed form's scaled
    discriminant decides.
    """
    _check_point(lambda0, h0, kappa)
    _, regime = _judge(lambda0, h0, kappa)
    if regime == "supercritical":
        return Verdict(regime, t_blowup=blowup_time_closed_form(lambda0, h0, kappa))
    return Verdict(regime)


def _judge(lambda0: float, h0: float, kappa: float):
    """(threshold_margin, regime) of a checked point, as classify_point
    judges it.  The margin is +-inf where both of its terms overflow."""
    margin = kappa * (1.0 - 2.0 * h0) - lambda0 * lambda0
    if math.isnan(margin):
        margin = _overflowed_margin(lambda0, h0, kappa)
    scale = kappa * abs(1.0 - 2.0 * h0) + lambda0 * lambda0
    if math.isfinite(scale) and abs(margin) <= TOL_BOUNDARY * scale:
        return margin, "boundary"
    return margin, "subcritical" if margin > 0.0 else "supercritical"


def blowup_time_closed_form(lambda0: float, h0: float, kappa: float) -> float | None:
    """Smallest t > 0 with lam(t) = 0, or None when no root exists.

    With s = sqrt(kappa) t, tan(s/2) is a root of a tau^2 + b tau + c,
    a = 1/2 - h0, b = lambda0/sqrt(kappa), c = 1/2: q/a or c/q, where
    q = -(b + sign(b) sqrt(b^2 - 4ac))/2 does not cancel.  Each root
    gives one s in (0, 2 pi); the smallest, over sqrt(kappa), is returned.
    """
    _check_point(lambda0, h0, kappa)
    a, b, c, disc = _scaled_quadratic(lambda0, h0, kappa)
    if disc < 0.0:
        return None
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    # A root y/x is tan(s/2) for the s/2 in (0, pi) of the point
    # (|y|, sign(y) x).  Only q/a = 0/0, at (0, 1/2), gives no s > 0.
    phases = [2.0 * math.atan2(abs(y), x if y >= 0.0 else -x) for y, x in ((q, a), (c, q))]
    return min(s for s in phases if s > 0.0) / math.sqrt(kappa)


def _scaled_quadratic(lambda0: float, h0: float, kappa: float):
    """(a, b, c, b^2 - 4ac) of the quadratic in tan(sqrt(kappa) t/2),
    each coefficient divided by 2^e, e = max(exponent of a, of b, 0).

    Dividing by a power of two is exact and keeps the discriminant
    finite; it is -threshold_margin/kappa 2^-2e.  Near the threshold
    b^2 - 4ac cancels, so where |b^2 - 4ac| < b^2/16 that value is
    computed exactly from the inputs' integer ratios and rounded once.
    With it blowup_time_closed_form lies within 5 ulps of the exact
    root on draws up to 1e-12 from the threshold, where the float
    difference alone was off by up to 9e5 ulps.
    """
    a, b = 0.5 - h0, lambda0 / math.sqrt(kappa)
    e = max(math.frexp(a)[1], math.frexp(b)[1], 0)
    a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(0.5, -e)
    disc = b * b - 4.0 * a * c
    if abs(disc) < 0.0625 * (b * b):
        # lambda0^2/kappa - (1 - 2 h0) over 4^e, as one ratio of integers.
        (lp, lq), (kp, kq), (hp, hq) = (float(x).as_integer_ratio() for x in (lambda0, kappa, h0))
        disc = (lp * lp * kq * hq - kp * (hq - 2 * hp) * lq * lq) / (lq * lq * kp * hq << 2 * e)
    return a, b, c, disc


def _overflowed_margin(lambda0: float, h0: float, kappa: float) -> float:
    """The margin where both of its terms overflow to inf (inf - inf =
    nan): +-inf, of the opposite sign to the scaled discriminant, so a
    supercritical verdict is given exactly where the closed form has a
    root."""
    return -math.copysign(math.inf, _scaled_quadratic(lambda0, h0, kappa)[3])


def default_classification_grid(profile: RadialProfile, size: int = 512) -> list[float]:
    """size log-spaced radii in [1e-3 r_max, r_max], as a list of floats.

    Between the exact endpoints the radii are 10 ** y for y in
    _linspace(log10(1e-3 r_max), log10(r_max), size), np.geomspace's
    formula; but Python's pow is not NumPy's, so a radius may differ in
    the last bit from np.geomspace's and from lagrange.default_seeds'
    (at r_max 5, 885 of 16384 radii do).  The origin limit point is
    added by classify_profile itself.
    """
    if not isinstance(size, numbers.Integral):
        raise DomainError(f"grid size must be an integer, got {size!r}")
    if size < 1:
        raise DomainError(f"grid size must be >= 1, got {size!r}")
    start, stop = 1e-3 * profile.r_max, profile.r_max
    grid = [10.0**y for y in _linspace(math.log10(start), math.log10(stop), size)]
    grid[0] = start
    if size > 1:
        grid[-1] = stop
    return grid


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """np.linspace(lo, hi, count) as a list of floats, bit for bit: the
    i-th value is i * step + lo, step = (hi - lo)/(count - 1), or
    i/(count - 1) * (hi - lo) + lo where step underflows to 0, and the
    last is hi.  The list is allocated whole first, so a count that no
    memory holds raises MemoryError at once."""
    div = max(count - 1, 1)
    delta = hi - lo
    step = delta / div
    values = [0.0] * count
    for i in range(count):
        values[i] = i * step + lo if step else i / div * delta + lo
    if count > 1:
        values[-1] = hi
    return values


def classify_profile(profile: RadialProfile, r_grid=None) -> Verdict:
    """Profile-level verdict over both eigenvalue branches.

    Subcritical requires strict subcriticality of (u0'(r), phi0''(r))
    and (u0(r)/r, phi0'(r)/r), the rows of profile.spectral, at the
    analytic origin limit and at every grid radius
    (default_classification_grid when r_grid is None).
    Otherwise the verdict is supercritical (witness_r = first failing
    radius, t_blowup = min closed-form time over the supercritical
    points) or boundary when nothing worse than a tolerance-level
    equality is found.  Every point is judged as classify_point judges
    it, on plain floats, radius by radius from the origin, the gradient
    branch first; the origin is judged on both branches, where they
    share one limit.  The first non-finite point raises classify_point's
    DomainError, "point (lambda0, h0) must be finite".  margins holds the
    smallest threshold_margin of each branch, "gradient_branch" and
    "ratio_branch", over the origin and the grid, taken as +-inf where
    both of its terms overflow.
    """
    if r_grid is None:
        r_grid = default_classification_grid(profile)
    if isinstance(r_grid, numbers.Real):
        r_grid = [r_grid]
    radii = [float(r) for r in r_grid]
    if not radii:
        raise DomainError("classification grid is empty")
    if not all(0.0 < r <= profile.r_max for r in radii):
        raise DomainError(f"classification radii must lie in (0, {profile.r_max!r}]")
    radii.sort()
    kappa = profile.kappa

    margins = dict.fromkeys(_BRANCHES, math.inf)
    witness = t_blowup = None
    for r in (0.0, *radii):
        p, q, mu, nu = profile._spectral_at(r)
        for branch, lam, h in zip(_BRANCHES, (p, q), (mu, nu)):
            if not (math.isfinite(lam) and math.isfinite(h)):
                _check_point(lam, h, kappa)
            margin, regime = _judge(lam, h, kappa)
            margins[branch] = min(margins[branch], margin)
            if regime == "subcritical":
                continue
            if witness is None:
                witness = r
            if regime == "supercritical":
                t = blowup_time_closed_form(lam, h, kappa)
                t_blowup = t if t_blowup is None else min(t_blowup, t)
    if witness is None:
        return Verdict(regime="subcritical", margins=margins)
    if t_blowup is None:
        return Verdict(regime="boundary", witness_r=witness, margins=margins)
    return Verdict(
        regime="supercritical", t_blowup=t_blowup, witness_r=witness, margins=margins
    )


def sigma_membership(
    state0: SwirlState,
    kappa: float,
    horizon: float | None = None,
    config: IntegratorConfig | None = None,
) -> Verdict:
    """Numerical membership in the bounded set of the rotational dynamics.

    Integrates the six-variable system to the horizon (default
    500/sqrt(kappa)).  Reaching it bounded gives a subcritical verdict,
    a detected pole gives supercritical with t_blowup = t_est; either
    way the verdict records the horizon, because boundedness beyond it
    is not decided.  A stall (step underflow) raises EmaflowError.
    This is sigma_membership_batch of the one state.
    """
    return sigma_membership_batch([state0], kappa, horizon, config)[0]


def sigma_membership_batch(
    states0,
    kappa: float,
    horizon: float | None = None,
    config: IntegratorConfig | None = None,
) -> list[Verdict]:
    """sigma_membership of every state in states0, in one integrate_batch.

    Returns one verdict per state, in order: the verdict
    sigma_membership gives for that state alone, since a lane ends bit
    for bit where it would alone.  A stalled lane raises the same
    EmaflowError.
    """
    check_positive("kappa", kappa)
    if horizon is None:
        horizon = SIGMA_HORIZON_FACTOR / math.sqrt(kappa)
    config = (config or IntegratorConfig()).replace(horizon=check_positive("horizon", horizon))
    # The batch engine, and NumPy with it, is imported at the first call.
    from .spectral import integrate_batch

    result = integrate_batch("swirl", states0, kappa, config=config)
    verdicts = []
    for kind, t_est, t_end in zip(result.kinds, result.t_est.tolist(), result.final_time.tolist()):
        if kind == "horizon_reached":
            verdicts.append(Verdict("subcritical", horizon=config.horizon))
        elif kind == "blowup_detected":
            verdicts.append(Verdict("supercritical", t_blowup=t_est, horizon=config.horizon))
        else:
            raise EmaflowError(
                f"integration stalled ({kind}) at t = {t_end!r}; membership undecided"
            )
    return verdicts


def sharpness_bisect(
    h0: float,
    kappa: float,
    horizon: float = 200.0,
    *,
    tol: float = 1e-3,
    config: IntegratorConfig | None = None,
) -> float:
    """Empirical threshold amplitude by bisection on bounded-vs-blowup.

    Bisects lambda0 in [0, 2 sqrt(kappa)] on the predicate "the (q, nu)
    trajectory from (lambda0, h0) reaches the horizon".  Requires
    h0 < 1/2 (otherwise no bounded direction exists) and raises
    BisectionError when the endpoints do not straddle the transition,
    which happens when the true threshold exceeds the bracket
    (h0 <= -3/2).  The result is within tol of sqrt(kappa(1 - 2 h0))
    for horizons of a few hundred.  Bisection stops early where the
    midpoint rounds to an end, so a tol below the spacing of doubles
    there ends it instead of looping.
    """
    check_positive("kappa", kappa)
    if not (finite_real(h0) and h0 < 0.5):
        raise DomainError(f"h0 must be < 1/2, got {h0!r}")
    horizon = check_positive("horizon", horizon)
    check_positive("tol", tol)
    if config is None:
        config = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
    config = config.replace(horizon=horizon)

    def bounded(lam: float) -> bool:
        trajectory = integrate("qnu", (lam, h0), kappa, config=config, record=False)
        return trajectory.termination.kind == "horizon_reached"

    lo = 0.0
    hi = 2.0 * math.sqrt(kappa)
    if not bounded(lo):
        raise BisectionError(f"lower bracket lambda0 = {lo!r} is not bounded")
    if bounded(hi):
        raise BisectionError(f"upper bracket lambda0 = {hi!r} does not blow up")
    while hi - lo > 0.5 * tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if bounded(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
