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
from dataclasses import dataclass

import numpy as np

from .errors import BisectionError, DomainError, EmaflowError
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
    marks the first failing radius of a profile-level verdict; horizon
    records the time horizon of horizon-relative (numerical) verdicts
    such as Sigma membership.
    """

    regime: str
    t_blowup: float | None = None
    witness_r: float | None = None
    horizon: float | None = None

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise DomainError(f"regime must be one of {_REGIMES}, got {self.regime!r}")
        if (self.regime == "supercritical") != (self.t_blowup is not None):
            raise DomainError("t_blowup must be present iff the verdict is supercritical")


def _check_point(lambda0: float, h0: float, kappa: float):
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 0):
        raise DomainError(f"kappa must be positive, got {kappa!r}")
    if not (math.isfinite(lambda0) and math.isfinite(h0)):
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
    equality is found.
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

    # Origin limit: both branches coincide there.
    points: list[tuple[float, tuple[tuple[float, float], ...]]] = [
        (0.0, ((float(profile.du0(0.0)), float(profile.d2phi0(0.0))),))
    ]
    p_branch = np.asarray(profile.du0(r_arr), dtype=float)
    mu_branch = np.asarray(profile.d2phi0(r_arr), dtype=float)
    q_branch = np.asarray(profile.q0(r_arr), dtype=float)
    nu_branch = np.asarray(profile.nu0(r_arr), dtype=float)
    for i, r in enumerate(r_arr):
        points.append(
            (
                float(r),
                (
                    (float(p_branch[i]), float(mu_branch[i])),
                    (float(q_branch[i]), float(nu_branch[i])),
                ),
            )
        )

    witness = None
    boundary_only = True
    t_min = None
    for r, branches in points:
        for lam0, h0 in branches:
            verdict = classify_point(lam0, h0, kappa)
            if verdict.regime == "subcritical":
                continue
            if witness is None:
                witness = r
            if verdict.regime == "supercritical":
                boundary_only = False
                if t_min is None or verdict.t_blowup < t_min:
                    t_min = verdict.t_blowup
    if witness is None:
        return Verdict(regime="subcritical")
    if boundary_only:
        return Verdict(regime="boundary", witness_r=witness)
    return Verdict(regime="supercritical", t_blowup=t_min, witness_r=witness)


def _sigma_config(kappa, horizon, config) -> IntegratorConfig:
    if horizon is None:
        horizon = SIGMA_HORIZON_FACTOR / math.sqrt(kappa)
    if not (horizon > 0 and math.isfinite(horizon)):
        raise DomainError(f"horizon must be positive, got {horizon!r}")
    return (config or IntegratorConfig()).replace(horizon=horizon)


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
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 0):
        raise DomainError(f"kappa must be positive, got {kappa!r}")
    if not (math.isfinite(h0) and h0 < 0.5):
        raise DomainError(f"h0 must be < 1/2, got {h0!r}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise DomainError(f"horizon must be positive, got {horizon!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive, got {tol!r}")
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
