"""Adaptive integration of the characteristic ODE systems.

integrate is a one-lane run of batch._run, the driver of every spectral
run, which sets the lane up in batch._Stepper and hands it at once to
the system's stepper below; it resumes the lane and returns the
Trajectory.

The stepper is a Dormand-Prince 5(4) embedded pair with the PI
controller constants from the classical dopri5 code, plus two event
mechanisms the plain method lacks:

* magnitude threshold: terminate once any accepted component exceeds
  blowup_magnitude (Riccati trajectories reach it within a few steps of
  the pole);
* refinement underflow: if the error controller rejects down to
  min_step, the dynamics is steeper than the tolerance can resolve,
  which for these systems means a pole as well at the default min_step
  (1e-13).  A larger min_step can end a bounded trajectory this way;
  ROADMAP item 4 reports the two mechanisms apart.

In both cases the reported t_est is the zero of the tangent to
1/max|y| at the last accepted step (_pole_time): near a simple pole the
reciprocal magnitude is locally linear in t, and the derivative there
is the first-same-as-last stage k0, which the step has already formed.

A run also ends, as step underflow, when a step falls below min_step
without a rejection, or when an accepted step would not advance t
(min_step below the resolution of t).

Each system has its own stepper: a resume function whose stages are
written out on scalar locals, one per state component, as Hairer's
dopri5.f writes them.  Its source is generated from the _A and _E
tableau literals and compiled with exec on the system's first call, as
dataclasses builds __init__.  Each stage evaluates the system's
derivative in place: the system's function in ``systems`` only unpacks
its state and returns a tuple of expressions, and those expressions are
read from its source with ast and written into the stage on the stage
arguments, so the operations are the function's own, in its order.
Every stage and error sum starts from 0.0 and runs over its
whole tableau row in index order, zero weights included, so the
floating-point operations and their order are fixed; the tests pin the
results bit for bit.  The stages are tested for finiteness only when
the error norm or the fifth-order solution is not finite, as
batch._Stepper.attempt tests them.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigError, DomainError, check_positive

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntegratorConfig",
    "Termination",
    "Trajectory",
    "integrate",
    "BACKEND",
]

# The one kernel there is; run records (diagnostics.json, report.json)
# name it.  perfbench/launch.py records it with every benchmark run, so
# it can go only in a change that edits the benchmark alone.
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
# Continuous extension (Shampine's, as in scipy.integrate.RK45): stage i
# has the weight b_i(theta) = sum_j _DENSE[i][j] theta^(j+1) at fraction
# theta of a step, and b_i(1) is the fifth-order weight _A[6][i] (0 for
# the seventh stage).
_DENSE = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
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
            # Frozen: the checked float is stored through object.__setattr__.
            object.__setattr__(self, name, check_positive(name, getattr(self, name), ConfigError))
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

    states has one row per entry of times.  Both are stored as float
    arrays.
    """

    times: np.ndarray
    states: np.ndarray
    termination: Termination

    def __post_init__(self):
        import numpy as np

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


def _pole_time(t, y, dy, fallback):
    """Pole time from the state y at time t and its derivative dy: the
    zero of the tangent to 1/|y_j| at t, t + |y_j| / (d|y_j|/dt), where
    y_j is the first component of largest magnitude.

    Returns fallback unless |y_j| > 0 and grows.  Where y_j is
    c/(T - t)^p the zero is t + (T - t)/p: exact at the simple poles of
    the Riccati systems, short of T where ep's nu (n >= 2) blows up
    faster (by half the last T - t in the golden cases).
    """
    j = max(range(len(y)), key=lambda i: abs(y[i]))
    m = abs(y[j])
    slope = dy[j] if y[j] > 0.0 else -dy[j]
    if m > 0.0 and slope > 0.0:
        return t + m / slope
    return fallback


def _finish(times, states, kind, t_est=None):
    # Trajectory makes the lists arrays.
    return Trajectory(times, states, Termination(kind, t_est))


# One resume function, for state components y0, y1, ...  The fields
# in braces are the per-dimension pieces _stepper fills in.
_SOURCE = """\
def resume(times, states, t, y, k0, h, facold, last_rejected, kappa, n, config, record):
    rel_tol = config.rel_tol
    abs_tol = config.abs_tol
    max_step = config.max_step
    min_step = config.min_step
    blowup_magnitude = config.blowup_magnitude
    horizon = config.horizon
    {y}, = y
    {k0}, = k0

    while True:
        clipped = h >= horizon - t
        if clipped:
            h = horizon - t
        if h < min_step and not clipped:
            # Time granularity exhausted without the controller asking
            # for refinement; distinct from pole-driven underflow below.
            return _finish(times, states, "step_underflow")

{stages}
        # The last stage's argument z is the 5th-order solution (FSAL).
{errors}
        err = sqrt(({err_sum}) / {d})

        # Every stage enters err (E[1] = 0 turns an inf into 0 * inf =
        # nan), so where z and err are finite so is every stage: the
        # stages are read only when one of them is not.
        if not (isfinite(err) and {z_finite}) and not ({stages_finite}):
            if 0.1 * h < min_step:
                return _finish(times, states, "blowup_detected", _pole_time(t, ({y},), ({k0},), t + h))
            h *= 0.1
            last_rejected = True
            continue

        if err <= 1.0:
            t_new = horizon if clipped else t + h
            if t_new == t:
                # h is below the resolution of t: the step would not
                # move the run, so it ends here.
                return _finish(times, states, "step_underflow")
            t = t_new
            {y}, = {z},
            {k0}, = {k6},
            times.append(t)
            states.append(({y},))
            if not record and len(times) > 2:
                del times[1]
                del states[1]
            if max({abs_y}) > blowup_magnitude:
                return _finish(times, states, "blowup_detected", _pole_time(t, ({y},), ({k0},), t))
            if clipped:
                return _finish(times, states, "horizon_reached")

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
                return _finish(times, states, "blowup_detected", _pole_time(t, ({y},), ({k0},), t + h))
            h = hnew
"""


@functools.cache
def _read(rhs):
    """(params, expressions) of the system rhs: the names of its
    parameters after the state, and the source of each component it
    returns on the stage arguments z0, z1, ..., one per dimension.

    rhs must be inlinable: its body, read from its own source, only
    unpacks its state into names and returns a tuple of as many
    expressions, naming nothing but those names and params.  Any other
    rhs is a TypeError.
    """
    (node,) = ast.parse(inspect.getsource(rhs)).body
    first, *params = [arg.arg for arg in node.args.args]
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    match body:
        case [
            ast.Assign(targets=[ast.Tuple(elts=unpacked)], value=ast.Name(id=state)),
            ast.Return(value=ast.Tuple(elts=values)),
        ] if state == first and all(isinstance(x, ast.Name) for x in unpacked):
            pass
        case _:
            raise TypeError(f"{rhs.__name__} does not only unpack its state and return a tuple")
    if len(values) != len(unpacked):
        raise TypeError(f"{rhs.__name__} unpacks {len(unpacked)} components and returns {len(values)}")
    rename = {name.id: f"z{j}" for j, name in enumerate(unpacked)}
    for value in values:
        for name in ast.walk(value):
            if isinstance(name, ast.Name):
                if name.id in rename:
                    name.id = rename[name.id]
                elif name.id not in params:
                    raise TypeError(f"{rhs.__name__} names {name.id!r}, not in its state or params")
    return tuple(params), tuple(ast.unparse(value) for value in values)


@functools.cache
def _stepper(rhs):
    """The resume function of the system rhs.

    It takes the lane's record so far (times and states lists, which it
    extends), the lane as _Stepper.lane_state gives it (t, y, k0, h,
    facold, last_rejected), then (kappa, n, config, record).  It steps
    the lane to config.horizon and returns the Trajectory, keeping just
    the first and last points when record is false.  Every stage is the
    system's derivative inlined (_read; a TypeError where it cannot
    be).  Generated and compiled on first use, so importing the package
    costs nothing for systems that are never integrated.
    """
    inlined = _read(rhs)[1]
    comps = range(len(inlined))

    def names(prefix):
        return ", ".join(f"{prefix}{j}" for j in comps)

    def weighted(weights, j):
        # sum_i weights[i] * k_i[j], accumulated from 0.0 in index order
        return "(0.0" + "".join(f" + {w!r} * k{i}_{j}" for i, w in enumerate(weights)) + ")"

    stages = []
    for i in range(1, 7):
        stages += [f"        z{j} = y{j} + h * {weighted(_A[i], j)}" for j in comps]
        stages += [f"        k{i}_{j} = {value}" for j, value in enumerate(inlined)]
    errors = [
        f"        r{j} = {weighted(_E, j)} * h"
        f" / (abs_tol + rel_tol * max(abs(y{j}), abs(z{j})))"
        for j in comps
    ]
    z_finite = [f"isfinite(z{j})" for j in comps]
    source = _SOURCE.format(
        y=names("y"),
        z=names("z"),
        k0=names("k0_"),
        k6=names("k6_"),
        d=len(inlined),
        abs_y=", ".join(f"abs(y{j})" for j in comps),
        stages="\n".join(stages),
        z_finite=" and ".join(z_finite),
        stages_finite=" and ".join(
            [f"isfinite(k{i}_{j})" for i in range(1, 7) for j in comps] + z_finite
        ),
        errors="\n".join(errors),
        err_sum="0.0" + "".join(f" + r{j} * r{j}" for j in comps),
    )
    namespace = dict(globals(), isfinite=math.isfinite, sqrt=math.sqrt)
    exec(source, namespace)
    return namespace["resume"]


def integrate(
    system: str,
    state0,
    kappa: float,
    *,
    n: int = 1,
    config: IntegratorConfig | None = None,
    record: bool = True,
) -> Trajectory:
    """Integrate one of the named systems from t = 0 to config.horizon.

    system is a name in systems.SYSTEMS ('qnu', 'swirl', 'ep',
    'swirl_q'); n is only read by the Euler-Poisson variant.  With
    record=False the trajectory keeps just the first and last accepted
    states, which is what sweeps and bisection want.
    """
    # batch imports this module, so its driver is imported at the call.
    from .batch import _run

    return _run(system, [state0], kappa, n, config, record)[0]
