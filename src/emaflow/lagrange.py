"""Characteristic-ensemble solver for the radial system.

Each characteristic carries (r, u, p, q, mu, nu) plus the accumulated
divergence integral g = int (p + (n-1) q) dt, so the density can be
reconstructed two independent ways: from the spectral constraint
(1-mu)(1-nu)^(n-1) and from the continuity route rho0 exp(-g).  The
velocity coupling du/dt = -kappa nu r closes the system without any
global solve; that is the structural point of the eigenvalue dynamics.

All characteristics advance together under one adaptive Dormand-Prince
step whose error norm spans the whole ensemble; steps land exactly on
the requested output times, where Eulerian fields are interpolated onto
a fixed grid with a monotone cubic (no overshoot near steep gradients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ConfigError, CrossingDetected
from .profiles import RadialProfile, derive_density
from .spectral import IntegratorConfig, Termination
from .spectral._kernels_py import (
    _A,
    _E,
    _BETA,
    _EXPO1,
    _FAC_MAX,
    _FAC_MIN,
    _SAFETY,
    _fit_pole_time,
)

__all__ = [
    "CharacteristicState",
    "EulerianSnapshot",
    "EnsembleResult",
    "advance_ensemble",
    "bkm_monitor",
    "ensemble_drift",
    "gradient_bound_check",
    "default_seeds",
]

# Column layout of the ensemble state matrix.
_COLS = ("r", "u", "p", "q", "mu", "nu", "g")
_SPECTRAL = slice(2, 6)  # p, q, mu, nu

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class CharacteristicState:
    """One characteristic at one time: position, velocity, spectral data."""

    r: float
    u: float
    p: float
    q: float
    mu: float
    nu: float


@dataclass(frozen=True)
class EulerianSnapshot:
    """Fields interpolated onto the fixed radial grid at one time.

    bkm_integrand is the sup over the grid of max(|p|,|q|,|mu|,|nu|),
    the integrand of the regularity monitor.
    """

    t: float
    grid: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    p: np.ndarray
    q: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    bkm_integrand: float


@dataclass
class EnsembleResult:
    """Everything advance_ensemble produces.

    snapshots hold the gridded fields; char_times/char_states the raw
    per-characteristic record at the same times (columns r, u, p, q,
    mu, nu, g), which the invariant tests consume directly.
    """

    snapshots: list[EulerianSnapshot]
    termination: Termination
    seeds: np.ndarray
    rho0: np.ndarray
    char_times: list[float] = field(default_factory=list)
    char_states: list[np.ndarray] = field(default_factory=list)

    def characteristic(self, index: int, time_index: int = -1) -> CharacteristicState:
        """Single-characteristic view of one recorded time."""
        row = self.char_states[time_index][index]
        return CharacteristicState(
            r=float(row[0]), u=float(row[1]), p=float(row[2]),
            q=float(row[3]), mu=float(row[4]), nu=float(row[5]),
        )


def default_seeds(profile: RadialProfile, n_chars: int) -> np.ndarray:
    """Origin characteristic plus n_chars log-spaced radii up to r_max."""
    if n_chars < 2:
        raise ConfigError(f"need at least 2 characteristics, got {n_chars!r}")
    tail = np.geomspace(1e-3 * profile.r_max, profile.r_max, n_chars)
    return np.concatenate([[0.0], tail])


def _initial_matrix(profile: RadialProfile, seeds: np.ndarray) -> np.ndarray:
    m = seeds.size
    state = np.zeros((m, 7))
    state[:, 0] = seeds
    state[:, 1] = np.asarray(profile.u0(seeds), dtype=float)
    state[:, 2] = np.asarray(profile.du0(seeds), dtype=float)
    state[:, 3] = np.asarray(profile.q0(seeds), dtype=float)
    state[:, 4] = np.asarray(profile.d2phi0(seeds), dtype=float)
    state[:, 5] = np.asarray(profile.nu0(seeds), dtype=float)
    return state


def _rhs(state: np.ndarray, kappa: float, n: int, out: np.ndarray):
    r = state[:, 0]
    u = state[:, 1]
    p = state[:, 2]
    q = state[:, 3]
    mu = state[:, 4]
    nu = state[:, 5]
    out[:, 0] = u
    out[:, 1] = -kappa * nu * r
    out[:, 2] = -p * p - kappa * mu
    out[:, 3] = -q * q - kappa * nu
    out[:, 4] = p * (1.0 - mu)
    out[:, 5] = q * (1.0 - nu)
    out[:, 6] = p + (n - 1) * q


def _snapshot(profile: RadialProfile, t: float, state: np.ndarray, grid: np.ndarray) -> EulerianSnapshot:
    r = state[:, 0]
    n = profile.dimension
    # Evaluate on the grid clamped to the characteristic hull: outside
    # it the fields take boundary values.
    x = np.clip(grid, r[0], r[-1])

    def onto(values: np.ndarray) -> np.ndarray:
        return PchipInterpolator(r, values, extrapolate=False)(x)

    rho_chars = (1.0 - state[:, 4]) * (1.0 - state[:, 5]) ** (n - 1)
    fields = {
        "rho": onto(rho_chars),
        "u": onto(state[:, 1]),
        "p": onto(state[:, 2]),
        "q": onto(state[:, 3]),
        "mu": onto(state[:, 4]),
        "nu": onto(state[:, 5]),
    }
    bkm = float(
        max(np.max(np.abs(fields[name])) for name in ("p", "q", "mu", "nu"))
    )
    return EulerianSnapshot(t=float(t), grid=grid.copy(), bkm_integrand=bkm, **fields)


def advance_ensemble(
    profile: RadialProfile,
    n_chars: int = 1024,
    t_end: float = 1.0,
    config: IntegratorConfig | None = None,
    *,
    output_times=None,
    grid=None,
    grid_size: int = 256,
    seeds=None,
    raise_on_crossing: bool = False,
) -> EnsembleResult:
    """Advance the characteristic ensemble to t_end.

    Snapshots are emitted at output_times (default: 9 uniform times
    including 0 and t_end).  Integration ends early with termination
    kind 'blowup_detected' when any spectral component exceeds the
    blowup magnitude (t_est extrapolated as in the spectral kernels)
    or 'crossing_detected' when the radial ordering of adjacent
    characteristics breaks; with raise_on_crossing=True the latter
    raises CrossingDetected instead.  config.horizon is ignored here,
    t_end plays its role.
    """
    if config is None:
        config = IntegratorConfig()
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"t_end must be positive, got {t_end!r}")
    t_end = float(t_end)

    if seeds is None:
        seeds = default_seeds(profile, n_chars)
    else:
        seeds = np.asarray(seeds, dtype=float)
        if seeds.ndim != 1 or seeds.size < 2:
            raise ConfigError("seeds must be a 1-d array of at least 2 radii")
        if np.any(np.diff(seeds) <= 0):
            raise ConfigError("seeds must be strictly increasing")
        if seeds[0] < 0 or seeds[-1] > profile.r_max:
            raise ConfigError(f"seeds must lie in [0, {profile.r_max!r}]")

    if output_times is None:
        output_times = np.linspace(0.0, t_end, 9)
    output_times = np.unique(np.asarray(output_times, dtype=float))
    if output_times.size == 0:
        raise ConfigError("output_times is empty")
    if output_times[0] < 0 or output_times[-1] > t_end:
        raise ConfigError(f"output_times must lie in [0, {t_end!r}]")

    if grid is None:
        if grid_size < 2:
            raise ConfigError(f"grid_size must be >= 2, got {grid_size!r}")
        grid = np.linspace(0.0, profile.r_max, grid_size)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
            raise ConfigError("grid must be a nonempty strictly increasing 1-d array")

    kappa = profile.kappa
    n = profile.dimension
    state = _initial_matrix(profile, seeds)
    rho0 = np.asarray(derive_density(profile, seeds), dtype=float)

    result = EnsembleResult(
        snapshots=[],
        termination=Termination(kind="horizon_reached"),
        seeds=seeds.copy(),
        rho0=rho0,
    )

    def emit(t: float, current: np.ndarray):
        result.snapshots.append(_snapshot(profile, t, current, grid))
        result.char_times.append(float(t))
        result.char_states.append(current.copy())

    t = 0.0
    stops = [float(x) for x in output_times if x > 0.0]
    if not stops or stops[-1] < t_end:
        stops.append(t_end)
    emit_set = set(float(x) for x in output_times)
    if 0.0 in emit_set:
        emit(0.0, state)

    k = [np.empty_like(state) for _ in range(7)]
    _rhs(state, kappa, n, k[0])

    # Initial step: same heuristic as the scalar kernels, over the
    # flattened ensemble.
    sc = config.abs_tol + config.rel_tol * np.abs(state)
    d0 = math.sqrt(float(np.mean((state / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((k[0] / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, config.max_step, t_end)
    probe = state + h0 * k[0]
    k1_probe = np.empty_like(state)
    _rhs(probe, kappa, n, k1_probe)
    d2 = math.sqrt(float(np.mean(((k1_probe - k[0]) / sc) ** 2))) / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
    h = min(100.0 * h0, h1, config.max_step, t_end)

    facold = 1e-4
    last_rejected = False
    ring_t: list[float] = []
    ring_u: list[float] = []
    m0 = float(np.max(np.abs(state[:, _SPECTRAL])))
    if m0 > 0.0:
        ring_t.append(0.0)
        ring_u.append(1.0 / m0)

    def pole_estimate(fallback: float) -> float:
        est = _fit_pole_time(ring_t, ring_u)
        if est is None:
            est = fallback
        return max(est, t)

    while t < t_end:
        next_stop = stops[0]
        clipped = h >= next_stop - t
        if clipped:
            h = next_stop - t
        if h < config.min_step and not clipped:
            result.termination = Termination(kind="step_underflow")
            return result

        bad = False
        y5 = None
        for i in range(1, 7):
            ai = _A[i]
            incr = ai[0] * k[0]
            for j in range(1, i):
                incr = incr + ai[j] * k[j]
            stage_state = state + h * incr
            _rhs(stage_state, kappa, n, k[i])
            if not np.all(np.isfinite(k[i])):
                bad = True
                break
            if i == 6:
                y5 = stage_state
        if not bad and not np.all(np.isfinite(y5)):
            bad = True

        if bad:
            if 0.1 * h < config.min_step:
                result.termination = Termination(
                    kind="blowup_detected", t_est=pole_estimate(t + h)
                )
                return result
            h *= 0.1
            last_rejected = True
            continue

        err_arr = _E[0] * k[0]
        for i in range(1, 7):
            err_arr = err_arr + _E[i] * k[i]
        err_arr = h * err_arr
        sc = config.abs_tol + config.rel_tol * np.maximum(np.abs(state), np.abs(y5))
        err = math.sqrt(float(np.mean((err_arr / sc) ** 2)))

        if err <= 1.0:
            t = next_stop if clipped else t + h
            state = y5
            k[0] = k[6].copy()
            mmag = float(np.max(np.abs(state[:, _SPECTRAL])))
            if mmag > 0.0:
                ring_t.append(t)
                ring_u.append(1.0 / mmag)
                if len(ring_t) > 3:
                    ring_t.pop(0)
                    ring_u.pop(0)
            if mmag > config.blowup_magnitude:
                result.termination = Termination(
                    kind="blowup_detected", t_est=pole_estimate(t)
                )
                return result
            radii = state[:, 0]
            if np.any(np.diff(radii) <= 0.0):
                if raise_on_crossing:
                    raise CrossingDetected(f"characteristics crossed at t = {t!r}")
                result.termination = Termination(kind="crossing_detected", t_est=t)
                return result
            if clipped:
                stops.pop(0)
                if t in emit_set:
                    emit(t, state)
                if not stops:
                    result.termination = Termination(kind="horizon_reached")
                    return result

            fac11 = err**_EXPO1
            fac = fac11 / facold**_BETA
            fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
            hnew = h / fac
            facold = max(err, 1e-4)
            if last_rejected:
                hnew = min(hnew, h)
            last_rejected = False
            h = min(hnew, config.max_step)
        else:
            fac11 = err**_EXPO1
            hnew = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)
            last_rejected = True
            if hnew < config.min_step:
                result.termination = Termination(
                    kind="blowup_detected", t_est=pole_estimate(t + h)
                )
                return result
            h = hnew

    result.termination = Termination(kind="horizon_reached")
    return result


def bkm_monitor(snapshots) -> float:
    """Trapezoidal integral of the regularity integrand over snapshots."""
    if not snapshots:
        raise ConfigError("no snapshots to integrate over")
    times = np.array([s.t for s in snapshots])
    if np.any(np.diff(times) <= 0):
        raise ConfigError("snapshot times must be strictly increasing")
    values = np.array([s.bkm_integrand for s in snapshots])
    return float(_trapezoid(values, times))


def ensemble_drift(profile: RadialProfile, result: EnsembleResult) -> tuple[float, float]:
    """Worst drift of the two conserved ensemble quantities.

    Returns (path, density) over every recorded time and
    characteristic: path is the drift of the path invariant r(1 - nu)
    from its initial value, relative to max(1, |initial value|);
    density is the absolute difference of the spectral density
    (1 - mu)(1 - nu)^(n-1) from the continuity density rho0 exp(-g).
    """
    n = profile.dimension
    seeds = result.seeds
    ref = seeds * (1.0 - np.asarray(profile.nu0(seeds), dtype=float))
    denom = np.maximum(1.0, np.abs(ref))
    path = 0.0
    density = 0.0
    for state in result.char_states:
        r = state[:, 0]
        mu = state[:, 4]
        nu = state[:, 5]
        g = state[:, 6]
        path = max(path, float(np.max(np.abs(r * (1.0 - nu) - ref) / denom)))
        rho_ma = (1.0 - mu) * (1.0 - nu) ** (n - 1)
        rho_cont = result.rho0 * np.exp(-g)
        density = max(density, float(np.max(np.abs(rho_ma - rho_cont))))
    return path, density


def gradient_bound_check(snapshot: EulerianSnapshot, tol_interp: float = 1e-8):
    """Check the radial gradient bound max|q| <= max|p| on one snapshot.

    Returns (ok, margin) with margin = max|p| - max|q|; ok allows an
    interpolation slack of tol_interp.  The bound holds for any radial
    field vanishing at the origin, so a violation beyond slack means an
    inconsistent snapshot.
    """
    max_p = float(np.max(np.abs(snapshot.p)))
    max_q = float(np.max(np.abs(snapshot.q)))
    margin = max_p - max_q
    return margin >= -tol_interp, margin
