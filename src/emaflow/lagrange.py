"""Characteristic-ensemble solver for the radial system.

Each characteristic carries (r, u, p, q, mu, nu) plus the accumulated
divergence integral g = int (p + (n-1) q) dt, so the density can be
reconstructed two independent ways: from the spectral constraint
(1-mu)(1-nu)^(n-1) and from the continuity route rho0 exp(-g).  The
velocity coupling du/dt = -kappa nu r closes the system without any
global solve; that is the structural point of the eigenvalue dynamics.
The dynamics is systems.rhs_characteristics.

The ensemble is one lane of the batched Dormand-Prince engine in
spectral/batch.py: its state is the seven field rows, each contiguous,
flattened into one column, so a single step size and error norm span
every characteristic.  It steps straight to t_end; the output times do
not steer the steps.  The state at an output time inside a step comes
from the method's fourth-order continuous extension (Hairer, Norsett &
Wanner, Solving ODEs I, II.6), formed from the stages the step already
holds, and an output time on a step's end takes that step's state.
There the Eulerian fields are interpolated onto a fixed grid with a
monotone cubic (no overshoot near steep gradients): PCHIP, written here
in NumPy with the arithmetic of scipy.interpolate.PchipInterpolator, so
the package needs NumPy alone at run time.  EnsembleRun hands out each
output time as it is reached and keeps none of them; advance_ensemble
collects them all.  All of it runs in the caller's process: `emaflow
simulate` consumes an EnsembleRun there and hands only the gridded
fields to its writer process.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, check_positive
from .profiles import RadialProfile, derive_density
from .spectral import IntegratorConfig, Termination
from .spectral.batch import _Stepper
from .spectral.systems import rhs_characteristics

__all__ = [
    "EulerianSnapshot",
    "EnsembleResult",
    "EnsembleRun",
    "advance_ensemble",
    "bkm_integral",
    "ensemble_drift",
    "ensemble_energies",
    "gradient_bound_check",
    "default_seeds",
    "state_drift",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


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


def default_seeds(profile: RadialProfile, n_chars: int) -> np.ndarray:
    """Origin characteristic plus n_chars log-spaced radii up to r_max."""
    if not isinstance(n_chars, numbers.Integral):
        raise ConfigError(f"n_chars must be an integer, got {n_chars!r}")
    if n_chars < 2:
        raise ConfigError(f"need at least 2 characteristics, got {n_chars!r}")
    tail = np.geomspace(1e-3 * profile.r_max, profile.r_max, n_chars)
    return np.concatenate([[0.0], tail])


def _initial_fields(profile: RadialProfile, seeds: np.ndarray) -> np.ndarray:
    # Rows r, u, p, q, mu, nu, g: the state order of rhs_characteristics.
    fields = np.zeros((7, seeds.size))
    fields[0] = seeds
    fields[1] = profile.u0(seeds)
    fields[2:6] = profile.spectral(seeds)
    return fields


def _edge_slope(h0, h1, m0, m1):
    # One-sided three-point end slope, kept shape-preserving (Moler,
    # Numerical Computing with MATLAB, pchiptx).
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(steep, 3.0 * m0, d))


def _pchip(x: np.ndarray, y: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Monotone piecewise cubic through each row of y, evaluated at xi.

    x is strictly increasing with at least 2 nodes, y has shape (k, x.size)
    and xi lies in [x[0], x[-1]].  Interior slopes are the weighted
    harmonic mean of the adjacent secants, or 0 at a flat secant or a
    sign change (Fritsch & Carlson 1980, SIAM J. Numer. Anal. 17:238).
    Every operation is the one scipy.interpolate.PchipInterpolator
    performs, in its order, so the values equal scipy's bit for bit.
    Non-finite values or slopes raise DomainError, where scipy raises
    ValueError.
    """
    if not np.isfinite(y).all():
        raise DomainError("snapshot fields are not finite; cannot interpolate them")
    h = x[1:] - x[:-1]
    mk = (y[:, 1:] - y[:, :-1]) / h
    if x.size == 2:
        d = np.concatenate([mk, mk], axis=1)
    else:
        smk = np.sign(mk)
        flat = (smk[:, 1:] != smk[:, :-1]) | (mk[:, 1:] == 0) | (mk[:, :-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        d = np.empty_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / mk[:, :-1] + w2 / mk[:, 1:]) / (w1 + w2)
            d[:, 1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        d[:, 0] = _edge_slope(h[0], h[1], mk[:, 0], mk[:, 1])
        d[:, -1] = _edge_slope(h[-1], h[-2], mk[:, -1], mk[:, -2])
    if not np.isfinite(d).all():
        raise DomainError("snapshot field slopes are not finite; cannot interpolate them")

    # Cubic Hermite coefficients of each query's interval, summed in
    # powers of s = xi - x[i] as scipy's PPoly does (not Horner).
    i = np.clip(np.searchsorted(x, xi, "right") - 1, 0, x.size - 2)
    hi = h[i]
    slope = mk[:, i]
    d0 = d[:, i]
    t = (d0 + d[:, i + 1] - 2 * slope) / hi
    s = xi - x[i]
    res = 0.0 + y[:, i]
    z = s
    res += d0 * z
    z = z * s
    res += ((slope - d0) / hi - t) * z
    z = z * s
    res += t / hi * z
    return res


def _snapshot(profile: RadialProfile, t: float, state: np.ndarray, grid: np.ndarray) -> EulerianSnapshot:
    r = state[0]
    n = profile.dimension
    # Evaluate on the grid clamped to the characteristic hull: outside
    # it the fields take boundary values.
    x = np.clip(grid, r[0], r[-1])
    rho_chars = (1.0 - state[4]) * (1.0 - state[5]) ** (n - 1)
    rho, u, p, q, mu, nu = _pchip(r, np.vstack([rho_chars, state[1:6]]), x)
    bkm = float(max(np.max(np.abs(values)) for values in (p, q, mu, nu)))
    return EulerianSnapshot(
        t=float(t), grid=grid.copy(), rho=rho, u=u, p=p, q=q, mu=mu, nu=nu, bkm_integrand=bkm
    )


def _sorted_distinct(values) -> np.ndarray:
    """The distinct values of a float array, flattened, in ascending order.

    The algorithm np.unique uses for floats (sort, then keep each value
    unequal to the one before), so finite input gives the same bits;
    np.unique and np.union1d would import numpy.ma to ask whether the
    array is masked.
    """
    x = np.sort(np.asarray(values, dtype=float), axis=None)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class EnsembleRun:
    """The characteristic ensemble, checked and set up, stepped as it is iterated.

    Takes the arguments of advance_ensemble and raises its errors for
    the arguments and the initial data at construction, before any
    stepping.  Iterating steps the ensemble from t = 0, yielding
    (snapshot, state) at each output time in order, state being the
    (m, 7) array of characteristic rows (columns r, u, p, q, mu, nu, g).
    The steps go to t_end whatever the output times are; a state inside
    a step is its dense output, which must pass the checks of a step's
    end (the crossing check and the blowup magnitude) to be yielded.
    Nothing is kept between output times, so a consumer that drops each
    pair needs memory for one output time only.  termination is None
    until an iteration ends, then says how it ended.  seeds are the
    initial radii and rho0 the initial density on them.
    """

    def __init__(
        self,
        profile: RadialProfile,
        n_chars: int = 1024,
        t_end: float = 1.0,
        config: IntegratorConfig | None = None,
        *,
        output_times=None,
        grid_size: int = 256,
        seeds=None,
    ):
        if config is None:
            config = IntegratorConfig()
        t_end = check_positive("t_end", t_end, ConfigError)

        if seeds is None:
            seeds = default_seeds(profile, n_chars)
        else:
            seeds = np.asarray(seeds, dtype=float)
            if seeds.ndim != 1 or seeds.size < 2:
                raise ConfigError("seeds must be a 1-d array of at least 2 radii")
            if not np.isfinite(seeds).all():
                raise ConfigError("seeds must be finite")
            if np.any(np.diff(seeds) <= 0):
                raise ConfigError("seeds must be strictly increasing")
            if seeds[0] < 0 or seeds[-1] > profile.r_max:
                raise ConfigError(f"seeds must lie in [0, {profile.r_max!r}]")

        if output_times is None:
            output_times = np.linspace(0.0, t_end, 9)
        output_times = _sorted_distinct(output_times)
        if output_times.size == 0:
            raise ConfigError("output_times is empty")
        if not np.isfinite(output_times).all():
            raise ConfigError("output_times must be finite")
        if output_times[0] < 0 or output_times[-1] > t_end:
            raise ConfigError(f"output_times must lie in [0, {t_end!r}]")

        if not isinstance(grid_size, numbers.Integral):
            raise ConfigError(f"grid_size must be an integer, got {grid_size!r}")
        if grid_size < 2:
            raise ConfigError(f"grid_size must be >= 2, got {grid_size!r}")
        grid = np.linspace(0.0, profile.r_max, grid_size)

        fields = _initial_fields(profile, seeds)
        rho0 = np.asarray(derive_density(profile, seeds), dtype=float)
        if not (np.isfinite(fields).all() and np.isfinite(rho0).all()):
            raise DomainError("initial characteristic data of the profile are not finite")

        self._profile = profile
        self.seeds = seeds
        self.rho0 = rho0
        self.termination: Termination | None = None
        self._config = config.replace(horizon=t_end)
        self._output_times = output_times
        self._grid = grid
        self._fields = fields

    def __iter__(self):
        self.termination = yield from self._outputs()

    def _outputs(self):
        # The one stepping loop: yields each output, returns the Termination.
        profile, grid, fields = self._profile, self._grid, self._fields
        kappa = profile.kappa
        n = profile.dimension
        m = self.seeds.size
        blowup_magnitude = self._config.blowup_magnitude
        pending = deque(float(x) for x in self._output_times)

        def crossing(t: float, state: np.ndarray):
            if np.any(np.diff(state[0]) <= 0.0):
                return Termination(kind="crossing_detected", t_est=t)
            return None

        def output(t: float, state: np.ndarray):
            return _snapshot(profile, t, state, grid), state.T

        if pending[0] == 0.0:
            yield output(pending.popleft(), fields.copy())

        def f(y, out):
            rows = rhs_characteristics(y.reshape(7, m, -1), kappa, n)
            for row, value in zip(out.reshape(7, m, -1), rows):
                row[...] = value

        # One lane, stepped to t_end; the blowup test watches the p, q,
        # mu, nu rows only.
        stepper = _Stepper(f, fields.reshape(-1, 1), self._config, watch=slice(2 * m, 6 * m))
        if stepper.at_pole[0]:
            return Termination(kind="blowup_detected", t_est=0.0)
        while True:
            t_old = float(stepper.t[0])
            step = stepper.attempt()
            if step.underflow[0]:
                return Termination(kind="step_underflow")
            t, h = float(stepper.t[0]), float(step.h[0])
            # Output times inside an accepted step come from its dense
            # output and are checked as a step's end is.  No state is held
            # past its yield, which would keep it alive through the next
            # attempt.
            while step.accepted[0] and pending and pending[0] < t:
                tau = pending.popleft()
                state = stepper.dense((tau - t_old) / h, h).reshape(7, m)
                if np.abs(state[2:6]).max() > blowup_magnitude:
                    t_est = float(step.t_est[0]) if step.pole[0] else tau
                    return Termination(kind="blowup_detected", t_est=t_est)
                end = crossing(tau, state)
                if end is not None:
                    return end
                yield output(tau, state)
                del state
            if step.pole[0]:
                return Termination(kind="blowup_detected", t_est=float(step.t_est[0]))
            if not step.accepted[0]:
                continue
            # The step's own end.
            end = crossing(t, stepper.y.reshape(7, m))
            if end is not None:
                return end
            if pending and pending[0] == t:
                yield output(pending.popleft(), stepper.y.reshape(7, m).copy())
            if step.landed[0]:
                return Termination(kind="horizon_reached")


def advance_ensemble(
    profile: RadialProfile,
    n_chars: int = 1024,
    t_end: float = 1.0,
    config: IntegratorConfig | None = None,
    *,
    output_times=None,
    grid_size: int = 256,
    seeds=None,
) -> EnsembleResult:
    """Advance the characteristic ensemble to t_end.

    Snapshots are emitted at output_times (default: 9 uniform times
    including 0 and t_end), which do not change the steps taken: a time
    inside a step is read off the step's dense output, a time on its end
    is the step's own state.  Integration ends early with termination
    kind 'blowup_detected' when any spectral component exceeds the
    blowup magnitude (t_est extrapolated as in the spectral kernels, or
    the output time where only the dense output exceeds it) or
    'crossing_detected' when the radial ordering of adjacent
    characteristics breaks, at a step's end or at an output time.
    A start that is already a pole, with a spectral component beyond
    the blowup magnitude or a non-finite derivative, ends as
    'blowup_detected' with t_est = 0 after the t = 0 snapshot and
    without a step.  Initial data or a density that is not finite
    raises DomainError.  config.horizon is ignored here, t_end plays
    its role.  This collects every output of one EnsembleRun.
    """
    run = EnsembleRun(
        profile,
        n_chars,
        t_end,
        config,
        output_times=output_times,
        grid_size=grid_size,
        seeds=seeds,
    )
    outputs = list(run)
    return EnsembleResult(
        snapshots=[snapshot for snapshot, _ in outputs],
        termination=run.termination,
        seeds=run.seeds.copy(),
        rho0=run.rho0,
        char_times=[snapshot.t for snapshot, _ in outputs],
        char_states=[state for _, state in outputs],
    )


def bkm_integral(times, integrands) -> float:
    """Trapezoidal integral of the regularity integrand over its times."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ConfigError("no snapshots to integrate over")
    if not np.all(np.diff(times) > 0):
        raise ConfigError("snapshot times must be strictly increasing")
    return float(_trapezoid(np.asarray(integrands, dtype=float), times))


def state_drift(profile: RadialProfile, seeds, rho0, state) -> tuple[float, float]:
    """Drift of the two conserved ensemble quantities at one recorded state.

    seeds and rho0 are the initial radii and density and state the
    (m, 7) characteristic rows, as an EnsembleRun yields them.  Returns
    (path, density) over the characteristics: path is the drift of the
    path invariant r(1 - nu) from its initial value, relative to
    max(1, |initial value|); density is the absolute difference of the
    spectral density (1 - mu)(1 - nu)^(n-1) from the continuity density
    rho0 exp(-g).
    """
    n = profile.dimension
    ref = seeds * (1.0 - np.asarray(profile.nu0(seeds), dtype=float))
    denom = np.maximum(1.0, np.abs(ref))
    r = state[:, 0]
    mu = state[:, 4]
    nu = state[:, 5]
    g = state[:, 6]
    path = float(np.max(np.abs(r * (1.0 - nu) - ref) / denom))
    rho_ma = (1.0 - mu) * (1.0 - nu) ** (n - 1)
    rho_cont = rho0 * np.exp(-g)
    return path, float(np.max(np.abs(rho_ma - rho_cont)))


def ensemble_drift(profile: RadialProfile, result: EnsembleResult) -> tuple[float, float]:
    """Worst state_drift over every recorded time of result."""
    path = 0.0
    density = 0.0
    for state in result.char_states:
        state_path, state_density = state_drift(profile, result.seeds, result.rho0, state)
        path = max(path, state_path)
        density = max(density, state_density)
    return path, density


def ensemble_energies(profile: RadialProfile, result: EnsembleResult, weights) -> list[float]:
    """Discrete Lagrangian energy of the ensemble at each recorded time.

    The seeds of result are quadrature nodes r0_i with weights w_i, and

        E = 1/2 sum_i w_i [u_i^2 + kappa (r_i - Gamma_i)^2] rho0(r0_i) r0_i^(n-1),

    Gamma_i = r0_i - phi0'(r0_i) being the rest point each particle
    oscillates about: flow.conserved_energy from the ensemble's states
    instead of the closed form.
    """
    nodes = result.seeds
    gam = nodes - np.asarray(profile.dphi0(nodes), dtype=float)
    factor = result.rho0 * nodes ** (profile.dimension - 1) * weights
    kappa = profile.kappa
    return [
        0.5 * float(np.sum((state[:, 1] ** 2 + kappa * (state[:, 0] - gam) ** 2) * factor))
        for state in result.char_states
    ]


# The interpolation slack of gradient_bound_check.
_GRADIENT_SLACK = 1e-8


def gradient_bound_check(snapshot: EulerianSnapshot):
    """Check the radial gradient bound max|q| <= max|p| on one snapshot.

    Returns (ok, margin) with margin = max|p| - max|q|; ok allows an
    interpolation slack of _GRADIENT_SLACK.  The bound holds for any radial
    field vanishing at the origin, so a violation beyond slack means an
    inconsistent snapshot.
    """
    max_p = float(np.max(np.abs(snapshot.p)))
    max_q = float(np.max(np.abs(snapshot.q)))
    margin = max_p - max_q
    return margin >= -_GRADIENT_SLACK, margin
