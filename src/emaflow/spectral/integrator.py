"""Adaptive integration of the characteristic ODE systems.

integrate validates its inputs, with the checks it shares with
integrate_batch, and runs the system's stepper, which returns the
Trajectory.

The stepper is a Dormand-Prince 5(4) embedded pair with the PI
controller constants from the classical dopri5 code, plus two event
mechanisms the plain method lacks:

* magnitude threshold: terminate once any accepted component exceeds
  blowup_magnitude (Riccati trajectories reach it within a few steps of
  the pole);
* refinement underflow: if the error controller rejects down to
  min_step, the dynamics is steeper than the tolerance can resolve,
  which for these systems means a pole as well.

In both cases the reported t_est comes from fitting a line to
1/max|y| over the last three accepted steps: near a simple pole the
reciprocal magnitude is locally linear in t, so its extrapolated zero
estimates the blowup time.

A run also ends, as step underflow, when a step falls below min_step
without a rejection, or when an accepted step would not advance t
(min_step below the resolution of t).

Each system has its own stepper: an integrate function whose stages are
written out on scalar locals, one per state component, as Hairer's
dopri5.f writes them.  Its source is generated from the _A and _E
tableau literals and compiled with exec on the system's first call, as
dataclasses builds __init__.  Each stage calls the system's function in
``systems`` directly.  Every stage and error sum starts from 0.0 and
runs over its whole tableau row in index order, zero weights included,
so the floating-point operations and their order are fixed; the tests
pin the results bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DomainError, check_dimension, check_positive, finite_real
from .systems import SYSTEM_DIMS, SYSTEM_RHS, SpectralState, SwirlState

__all__ = [
    "IntegratorConfig",
    "Termination",
    "Trajectory",
    "integrate",
    "BACKEND",
]

# The one kernel there is; run records (diagnostics.json, report.json)
# name it.
BACKEND = "python"

# Dormand-Prince 5(4) tableau; the systems are autonomous, so the nodes
# c_i are not needed.
_A = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# Difference between 5th- and 4th-order weights.
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# PI controller (Hairer's dopri5 constants).
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2   # strongest shrink per step
_FAC_MAX = 10.0  # strongest growth per step
_INV_FAC_MIN = 1.0 / _FAC_MIN
_INV_FAC_MAX = 1.0 / _FAC_MAX

_RING = 3  # accepted points in the pole fit


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and event parameters for one integration.

    blowup_magnitude is the accepted-state threshold for declaring a
    pole; horizon the final time.  Instances are immutable; derive
    variants with replace().
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1.0
    min_step: float = 1e-13
    blowup_magnitude: float = 1e9
    horizon: float = 100.0

    def __post_init__(self):
        for name in (
            "rel_tol",
            "abs_tol",
            "max_step",
            "min_step",
            "blowup_magnitude",
            "horizon",
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if self.min_step >= self.max_step:
            raise ConfigError(
                f"min_step {self.min_step!r} must be smaller than max_step {self.max_step!r}"
            )

    def replace(self, **changes) -> "IntegratorConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class Termination:
    """Why an integration stopped; t_est only accompanies a blowup."""

    kind: str
    t_est: float | None = None


@dataclass
class Trajectory:
    """Accepted-step record of one integration.

    states has one row per entry of times.  invariant_drift is filled
    by callers running monitors; the integrator leaves it empty.
    """

    times: np.ndarray
    states: np.ndarray
    termination: Termination
    invariant_drift: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.times.shape[0]:
            raise DomainError("times and states length mismatch")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise DomainError("times must be strictly increasing")

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _as_state_vector(state0, dim: int) -> list[float]:
    if isinstance(state0, (SpectralState, SwirlState)):
        values = state0.as_tuple()
    else:
        values = tuple(state0)
    if len(values) != dim:
        raise DomainError(f"state of length {len(values)} does not match system dimension {dim}")
    out = [float(v) for v in values]
    if not all(math.isfinite(v) for v in out):
        raise DomainError(f"initial state must be finite, got {out!r}")
    return out


def _check_call(system: str, kappa, n, c0, config) -> tuple[int, int, IntegratorConfig]:
    """Validate the arguments shared by integrate and integrate_batch.

    Returns (system id, dimension, config), with the default config
    filled in.
    """
    if system not in SYSTEM_DIMS:
        raise DomainError(f"unknown system {system!r}; available: {sorted(SYSTEM_DIMS)}")
    sys_id, dim = SYSTEM_DIMS[system]
    check_positive("kappa", kappa)
    check_dimension(n)
    if not finite_real(c0):
        raise DomainError(f"c0 must be a finite number, got {c0!r}")
    if config is None:
        config = IntegratorConfig()
    elif not isinstance(config, IntegratorConfig):
        raise ConfigError(f"config must be an IntegratorConfig, got {type(config).__name__}")
    return sys_id, dim, config


def _fit_pole_time(ring):
    """Zero crossing of the least-squares line through the (t, 1/max|y|)
    points of ring.

    Returns None when fewer than two usable points exist or the
    magnitude is not growing (nonnegative slope).
    """
    pts = [(t, u) for t, u in ring if u > 0.0]
    if len(pts) < 2:
        return None
    tb = sum(t for t, _ in pts) / len(pts)
    ub = sum(u for _, u in pts) / len(pts)
    sxx = sum((t - tb) ** 2 for t, _ in pts)
    sxy = sum((t - tb) * (u - ub) for t, u in pts)
    if sxx <= 0.0:
        return None
    slope = sxy / sxx
    if slope >= 0.0:
        return None
    return tb - ub / slope


def _pole_estimate(ring, fallback, t):
    """Pole time fitted to the ring, never before t; fallback without a fit."""
    est = _fit_pole_time(ring)
    if est is None:
        est = fallback
    return max(est, t)


def _rms(values):
    # Squares as products: float ** 2 goes through libm pow, which is
    # off by an ulp now and then and raises OverflowError where a
    # product gives inf.
    return math.sqrt(sum(v * v for v in values) / len(values))


def _initial_step(f, args, y, f0, rel_tol, abs_tol, max_step, horizon):
    d = len(y)
    sc = [abs_tol + rel_tol * abs(y[i]) for i in range(d)]
    d0 = _rms([y[i] / sc[i] for i in range(d)])
    d1 = _rms([f0[i] / sc[i] for i in range(d)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, max_step, horizon)
    if h0 == 0.0:
        # d1 overflowed to inf: no step is small enough, so the run ends
        # in step underflow at t = 0, as the batch's nan arithmetic does.
        return 0.0
    f1 = f([y[i] + h0 * f0[i] for i in range(d)], *args)
    if all(math.isfinite(v) for v in f1):
        d2 = _rms([(f1[i] - f0[i]) / sc[i] for i in range(d)]) / h0
    else:
        d2 = 1.0 / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
    return min(100.0 * h0, h1, max_step, horizon)


def _finish(times, states, record, kind, t_est=None):
    if not record:
        # keep only endpoints
        del times[1:-1]
        del states[1:-1]
    return Trajectory(np.array(times), np.array(states), Termination(kind, t_est))


# One integrate function, for state components y0, y1, ...  The fields
# in braces are the per-dimension pieces _stepper fills in.
_SOURCE = """\
def integrate(y, kappa, n, c0, config, record):
    rel_tol = config.rel_tol
    abs_tol = config.abs_tol
    max_step = config.max_step
    min_step = config.min_step
    blowup_magnitude = config.blowup_magnitude
    horizon = config.horizon
    {y}, = map(float, y)
    t = 0.0
    times = [0.0]
    states = [({y},)]
    {k0}, = f(({y},), {args})
    if not ({k0_finite}):
        # Initial state already on the singular set.
        return _finish(times, states, record, "blowup_detected", 0.0)
    m = max({abs_y})
    if m > blowup_magnitude:
        return _finish(times, states, record, "blowup_detected", 0.0)
    h = _initial_step(f, ({args},), ({y},), ({k0},), rel_tol, abs_tol, max_step, horizon)
    facold = 1e-4
    last_rejected = False
    # the last accepted (t, 1/max|y|) points, for the pole fit
    ring = deque([(0.0, 1.0 / m)] if m > 0.0 else (), maxlen=_RING)

    while True:
        clipped = h >= horizon - t
        if clipped:
            h = horizon - t
        if h < min_step and not clipped:
            # Time granularity exhausted without the controller asking
            # for refinement; distinct from pole-driven underflow below.
            return _finish(times, states, record, "step_underflow")

{stages}
        # The last stage's argument z is the 5th-order solution (FSAL).
        if not ({stages_finite}):
            if 0.1 * h < min_step:
                return _finish(times, states, record, "blowup_detected", _pole_estimate(ring, t + h, t))
            h *= 0.1
            last_rejected = True
            continue

{errors}
        err = sqrt(({err_sum}) / {d})

        if err <= 1.0:
            t_new = horizon if clipped else t + h
            if t_new == t:
                # h is below the resolution of t: the step would not
                # move the run, so it ends here.
                return _finish(times, states, record, "step_underflow")
            t = t_new
            {y}, = {z},
            {k0}, = {k6},
            times.append(t)
            states.append(({y},))
            if not record and len(times) > 2:
                del times[1]
                del states[1]
            m = max({abs_y})
            if m > 0.0:
                ring.append((t, 1.0 / m))
            if m > blowup_magnitude:
                return _finish(times, states, record, "blowup_detected", _pole_estimate(ring, t, t))
            if clipped:
                return _finish(times, states, record, "horizon_reached")

            fac11 = err ** _EXPO1
            fac = fac11 / facold ** _BETA
            fac = max(_INV_FAC_MAX, min(_INV_FAC_MIN, fac / _SAFETY))
            hnew = h / fac
            facold = max(err, 1e-4)
            if last_rejected:
                hnew = min(hnew, h)
            last_rejected = False
            h = min(hnew, max_step)
        else:
            fac11 = err ** _EXPO1
            hnew = h / min(_INV_FAC_MIN, fac11 / _SAFETY)
            last_rejected = True
            if hnew < min_step:
                return _finish(times, states, record, "blowup_detected", _pole_estimate(ring, t + h, t))
            h = hnew
"""


@functools.cache
def _stepper(sys_id, d):
    """The integrate function of system sys_id in dimension d.

    It takes (y, kappa, n, c0, config, record) and returns the
    Trajectory, keeping just the first and last points when record is
    false.  Generated and compiled on first use, so importing the
    package costs nothing for systems that are never integrated.
    """
    rhs = SYSTEM_RHS[sys_id]
    comps = range(d)

    def names(prefix):
        return ", ".join(f"{prefix}{j}" for j in comps)

    def weighted(weights, j):
        # sum_i weights[i] * k_i[j], accumulated from 0.0 in index order
        return "(0.0" + "".join(f" + {w!r} * k{i}_{j}" for i, w in enumerate(weights)) + ")"

    args = ", ".join(list(inspect.signature(rhs).parameters)[1:])
    stages = []
    for i in range(1, 7):
        stages += [f"        z{j} = y{j} + h * {weighted(_A[i], j)}" for j in comps]
        stages.append(f"        {names(f'k{i}_')}, = f(({names('z')},), {args})")
    errors = [
        f"        r{j} = {weighted(_E, j)} * h"
        f" / (abs_tol + rel_tol * max(abs(y{j}), abs(z{j})))"
        for j in comps
    ]
    finite = [f"isfinite(k{i}_{j})" for i in range(1, 7) for j in comps]
    source = _SOURCE.format(
        y=names("y"),
        z=names("z"),
        k0=names("k0_"),
        k6=names("k6_"),
        args=args,
        d=d,
        abs_y=", ".join(f"abs(y{j})" for j in comps),
        k0_finite=" and ".join(f"isfinite(k0_{j})" for j in comps),
        stages="\n".join(stages),
        stages_finite=" and ".join(finite + [f"isfinite(z{j})" for j in comps]),
        errors="\n".join(errors),
        err_sum="0.0" + "".join(f" + r{j} * r{j}" for j in comps),
    )
    namespace = dict(globals(), f=rhs, isfinite=math.isfinite, sqrt=math.sqrt)
    exec(source, namespace)
    return namespace["integrate"]


def integrate(
    system: str,
    state0,
    kappa: float,
    *,
    n: int = 1,
    config: IntegratorConfig | None = None,
    c0: float = 0.0,
    record: bool = True,
) -> Trajectory:
    """Integrate one of the named systems from t = 0 to config.horizon.

    system is one of 'qnu', 'pmu', 'swirl', 'ep', 'wv', 'swirl_q'; n is
    only read by the Euler-Poisson variant and c0 only by 'wv'.  With
    record=False the trajectory keeps just the first and last accepted
    states, which is what sweeps and bisection want.
    """
    sys_id, dim, config = _check_call(system, kappa, n, c0, config)
    y0 = _as_state_vector(state0, dim)
    return _stepper(sys_id, dim)(y0, float(kappa), float(n), float(c0), config, record)
