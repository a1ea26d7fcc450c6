"""Critical-threshold classification.

A spectral pair with initial data (lambda0, h0) stays bounded exactly
when lambda0^2 < kappa(1 - 2 h0), strictly.  Equivalently the flow
gradient factor

    lam(t) = (1 - h0) + h0 cos(sqrt(kappa) t) + lambda0 sin(sqrt(kappa) t)/sqrt(kappa)

has no positive root.  Both views are implemented: the predicate
directly, and the first root in closed form via the phase-shift
reduction A cos(s - delta) = -(1 - h0).  Floating-point equality at the
threshold is surfaced as a distinct 'boundary' verdict rather than
silently rounded to either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BisectionError, DomainError, EmaflowError, check_positive, finite_real
from .profiles import RadialProfile
from .spectral import IntegratorConfig, SwirlState, integrate, integrate_batch

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
    """kappa(1 - 2 h0) - lambda0^2; positive iff strictly subcritical."""
    _check_point(lambda0, h0, kappa)
    return kappa * (1.0 - 2.0 * h0) - lambda0 * lambda0


def classify_point(lambda0: float, h0: float, kappa: float) -> Verdict:
    """Strict-threshold verdict for one spectral pair.

    boundary is reported when |margin| <= TOL_BOUNDARY * max(1, kappa);
    supercritical verdicts carry the closed-form blowup time.
    """
    margin = threshold_margin(lambda0, h0, kappa)
    if abs(margin) <= TOL_BOUNDARY * max(1.0, kappa):
        return Verdict(regime="boundary")
    if margin > 0.0:
        return Verdict(regime="subcritical")
    return Verdict(
        regime="supercritical",
        t_blowup=blowup_time_closed_form(lambda0, h0, kappa),
    )


def blowup_time_closed_form(lambda0: float, h0: float, kappa: float) -> float | None:
    """Smallest t > 0 with lam(t) = 0, or None when no root exists.

    Writing s = sqrt(kappa) t, the root condition is
    A cos(s - delta) = -(1 - h0) with A = sqrt(h0^2 + lambda0^2/kappa)
    and delta = atan2(lambda0/sqrt(kappa), h0).  Candidates are
    delta +- arccos(-(1-h0)/A) + 2 pi k; the smallest positive one is
    returned.  Any root lies within one period, so t <= 2 pi/sqrt(kappa).
    """
    _check_point(lambda0, h0, kappa)
    sk = math.sqrt(kappa)
    amp = math.hypot(h0, lambda0 / sk)
    if amp == 0.0:
        return None  # lam is identically 1
    target = -(1.0 - h0) / amp
    if target < -1.0:
        # Strictly subcritical unless the excess is round-off at a tangency.
        if target < -1.0 - 1e-12:
            return None
        target = -1.0
    elif target > 1.0:
        target = 1.0
    delta = math.atan2(lambda0 / sk, h0)
    alpha = math.acos(target)
    best = None
    for base in (delta - alpha, delta + alpha):
        for k in (-1, 0, 1, 2):
            s = base + 2.0 * math.pi * k
            if s > 1e-12 and (best is None or s < best):
                best = s
    # lam(0) = 1, so a sign change within one period guarantees best exists.
    return best / sk


def default_classification_grid(profile: RadialProfile, size: int = 512) -> np.ndarray:
    """Log-spaced radii in [1e-3 r_max, r_max]; the origin limit point
    is added by classify_profile itself."""
    if size < 1:
        raise DomainError(f"grid size must be >= 1, got {size!r}")
    return np.geomspace(1e-3 * profile.r_max, profile.r_max, size)


def classify_profile(profile: RadialProfile, r_grid=None) -> Verdict:
    """Profile-level verdict over both eigenvalue branches.

    Subcritical requires strict subcriticality of (u0'(r), phi0''(r))
    and (u0(r)/r, phi0'(r)/r) at the analytic origin limit and at every
    grid radius (default_classification_grid when r_grid is None).
    Otherwise the verdict is supercritical (witness_r = first failing
    radius, t_blowup = min closed-form time over the supercritical
    points) or boundary when nothing worse than a tolerance-level
    equality is found.  Every point is judged as classify_point judges
    it, and the first non-finite one raises the same DomainError.
    margins holds the smallest threshold_margin of each branch,
    "gradient_branch" and "ratio_branch", over the origin and the grid;
    a branch that is not finite there raises DomainError.
    """
    if r_grid is None:
        r_grid = default_classification_grid(profile)
    r_arr = np.atleast_1d(np.asarray(r_grid, dtype=float))
    if r_arr.size == 0:
        raise DomainError("classification grid is empty")
    if np.any(r_arr <= 0.0) or np.any(r_arr > profile.r_max):
        raise DomainError(f"classification radii must lie in (0, {profile.r_max!r}]")
    r_arr = np.sort(r_arr)
    kappa = profile.kappa

    # Rows: the gradient branch (u0', phi0'') and the ratio branch
    # (u0/r, phi0'/r).  Columns: the origin limit point, then the grid.
    branches = (
        ("gradient_branch", profile.du0, profile.d2phi0),
        ("ratio_branch", profile.q0, profile.nu0),
    )
    lam = np.empty((2, r_arr.size + 1))
    h = np.empty_like(lam)
    for row, (_, lam_f, h_f) in enumerate(branches):
        lam[row, 0], lam[row, 1:] = lam_f(0.0), lam_f(r_arr)
        h[row, 0], h[row, 1:] = h_f(0.0), h_f(r_arr)

    def judged(values):
        # Points in judging order: the origin once, on the gradient
        # branch (both branches coincide there), then radius by radius.
        return np.concatenate((values[0, :1], values[:, 1:].T.ravel()))

    lam_pts, h_pts = judged(lam), judged(h)
    # Checks kappa, then raises for the first non-finite point, if any.
    first_bad = int(np.argmin(np.isfinite(lam_pts) & np.isfinite(h_pts)))
    _check_point(float(lam_pts[first_bad]), float(h_pts[first_bad]), kappa)
    with np.errstate(over="ignore", invalid="ignore"):
        margin = kappa * (1.0 - 2.0 * h) - lam * lam
    m_pts = judged(margin)
    boundary = np.abs(m_pts) <= TOL_BOUNDARY * max(1.0, kappa)
    above = m_pts > 0.0
    failing = np.flatnonzero(boundary | ~above)
    # The scalar closed form, point by point: np.arccos may differ from
    # math.acos by an ulp.
    times = [
        classify_point(float(lam_pts[k]), float(h_pts[k]), kappa).t_blowup
        for k in np.flatnonzero(~boundary & ~above)
    ]

    margins = {}
    for row, (name, _, _) in enumerate(branches):
        if not (np.isfinite(lam[row]).all() and np.isfinite(h[row]).all()):
            raise DomainError(f"{name} of the profile is not finite on the grid")
        margins[name] = float(margin[row].min())
    if failing.size == 0:
        return Verdict(regime="subcritical", margins=margins)
    witness = 0.0 if failing[0] == 0 else float(r_arr[(failing[0] - 1) // 2])
    if not times:
        return Verdict(regime="boundary", witness_r=witness, margins=margins)
    return Verdict(
        regime="supercritical", t_blowup=min(times), witness_r=witness, margins=margins
    )


def _sigma_config(kappa, horizon, config) -> IntegratorConfig:
    check_positive("kappa", kappa)
    if horizon is None:
        horizon = SIGMA_HORIZON_FACTOR / math.sqrt(kappa)
    return (config or IntegratorConfig()).replace(horizon=check_positive("horizon", horizon))


def _sigma_verdict(kind: str, t_est, final_time: float, horizon: float) -> Verdict:
    if kind == "horizon_reached":
        return Verdict(regime="subcritical", horizon=horizon)
    if kind == "blowup_detected":
        return Verdict(regime="supercritical", t_blowup=float(t_est), horizon=horizon)
    raise EmaflowError(
        f"integration stalled ({kind}) at t = {final_time!r}; membership undecided"
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
    is not decided.
    """
    config = _sigma_config(kappa, horizon, config)
    trajectory = integrate("swirl", state0, kappa, config=config, record=False)
    termination = trajectory.termination
    return _sigma_verdict(
        termination.kind, termination.t_est, trajectory.final_time, config.horizon
    )


def sigma_membership_batch(
    states0,
    kappa: float,
    horizon: float | None = None,
    config: IntegratorConfig | None = None,
) -> list[Verdict]:
    """sigma_membership of every state in states0, integrated as one batch.

    Returns one verdict per state, in order: the verdict
    sigma_membership gives for that state alone.  A stalled lane raises
    the same EmaflowError.
    """
    config = _sigma_config(kappa, horizon, config)
    result = integrate_batch("swirl", states0, kappa, config=config)
    return [
        _sigma_verdict(kind, t_est, final_time, config.horizon)
        for kind, t_est, final_time in zip(
            result.kinds, result.t_est.tolist(), result.final_time.tolist()
        )
    ]


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
    for horizons of a few hundred.
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
    while hi - lo > 0.5 * tol:
        mid = 0.5 * (lo + hi)
        if bounded(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
