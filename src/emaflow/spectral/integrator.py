"""Adaptive integration of the characteristic ODE systems.

integrate validates its inputs, runs the system's straight-line
Dormand-Prince stepper from ``_kernels_py`` (generated on the system's
first call) and wraps the stepper's output in a Trajectory.  The input
checks are shared with integrate_batch.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DomainError
from . import _kernels_py as kernels
from .systems import SYSTEM_DIMS, SpectralState, SwirlState

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

_TERM_KINDS = {
    kernels.TERM_HORIZON: "horizon_reached",
    kernels.TERM_BLOWUP: "blowup_detected",
    kernels.TERM_UNDERFLOW: "step_underflow",
}


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

    Returns (kernel id, dimension, config), with the default config
    filled in.
    """
    if system not in SYSTEM_DIMS:
        raise DomainError(f"unknown system {system!r}; available: {sorted(SYSTEM_DIMS)}")
    sys_id, dim = SYSTEM_DIMS[system]
    if isinstance(kappa, bool) or not (
        isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 0
    ):
        raise DomainError(f"kappa must be positive, got {kappa!r}")
    if isinstance(n, bool) or not (
        isinstance(n, numbers.Real) and math.isfinite(n) and n >= 1 and n == int(n)
    ):
        raise DomainError(f"dimension n must be a positive integer, got {n!r}")
    if not math.isfinite(c0):
        raise DomainError(f"c0 must be finite, got {c0!r}")
    if config is None:
        config = IntegratorConfig()
    elif not isinstance(config, IntegratorConfig):
        raise ConfigError(f"config must be an IntegratorConfig, got {type(config).__name__}")
    return sys_id, dim, config


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
    times, states, term_code, t_est = kernels.integrate_kernel(
        sys_id,
        y0,
        float(kappa),
        float(n),
        float(c0),
        config.rel_tol,
        config.abs_tol,
        config.max_step,
        config.min_step,
        config.blowup_magnitude,
        config.horizon,
        record,
    )
    kind = _TERM_KINDS[term_code]
    termination = Termination(
        kind=kind,
        t_est=float(t_est) if kind == "blowup_detected" else None,
    )
    return Trajectory(times=times, states=states, termination=termination)
