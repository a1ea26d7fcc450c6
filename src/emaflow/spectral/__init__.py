"""Spectral ODE systems, adaptive integrator, and invariant monitors."""

from .batch import BatchResult, integrate_batch
from .integrator import BACKEND, IntegratorConfig, Termination, Trajectory, integrate
from .monitors import monitor_ellipse, monitor_swirl_invariants
from .systems import (
    SYSTEM_DIMS,
    SpectralState,
    SwirlState,
    rhs_ep_qnu,
    rhs_pmu,
    rhs_qnu,
    rhs_swirl,
    rhs_swirl_q,
    rhs_wv,
)

__all__ = [
    "BACKEND",
    "BatchResult",
    "IntegratorConfig",
    "Termination",
    "Trajectory",
    "integrate",
    "integrate_batch",
    "monitor_ellipse",
    "monitor_swirl_invariants",
    "SYSTEM_DIMS",
    "SpectralState",
    "SwirlState",
    "rhs_ep_qnu",
    "rhs_pmu",
    "rhs_qnu",
    "rhs_swirl",
    "rhs_swirl_q",
    "rhs_wv",
]
