"""Conserved-quantity monitors.

The no-swirl dynamics conserves the ellipse invariant
I = w^2 + kappa(1-v)^2 in the linearized variables w = q/(1-nu),
v = 1/(1-nu); the rotational system conserves the angular moment
(theta_over_r) v^2 and the extended energy with the centrifugal term.
Monitors report the max relative drift of these along a trajectory,
which bounds the integrator's global error far more sharply than any
per-step estimate.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularInput
from .integrator import Trajectory

__all__ = ["monitor_ellipse", "monitor_swirl_invariants"]


def _drift(values: np.ndarray) -> float:
    ref = float(values[0])
    return float(np.max(np.abs(values - ref)) / max(abs(ref), 1.0))


def _linearized(q: np.ndarray, nu: np.ndarray):
    if np.any(nu >= 1.0):
        raise SingularInput("trajectory reached nu >= 1; linearized variables undefined")
    v = 1.0 / (1.0 - nu)
    return q * v, v


def monitor_ellipse(trajectory: Trajectory, kappa: float) -> float:
    """Max relative drift of w^2 + kappa(1-v)^2 over a (q, nu) trajectory."""
    q = trajectory.states[:, 0]
    nu = trajectory.states[:, 1]
    w, v = _linearized(q, nu)
    invariant = w**2 + kappa * (1.0 - v) ** 2
    return _drift(invariant)


def monitor_swirl_invariants(trajectory: Trajectory, kappa: float) -> dict[str, float]:
    """Drifts of the two rotational invariants over a swirl trajectory.

    Returns {'angular_moment': ..., 'swirl_energy': ...} for
    J_a = (theta_over_r) v^2 and J_e = w^2 + kappa(1-v)^2 + C^2 v^-2
    with C = theta_over_r(0) v(0)^2.  The state width picks the columns:
    six follow SwirlState field order (p, q, mu, nu, theta_r,
    theta_over_r), three the swirl_q system (q, nu, theta_over_r).
    """
    columns = (0, 1, 2) if trajectory.states.shape[1] == 3 else (1, 3, 5)
    q, nu, tor = (trajectory.states[:, j] for j in columns)
    w, v = _linearized(q, nu)
    c0 = float(tor[0] * v[0] ** 2)
    angular = tor * v**2
    energy = w**2 + kappa * (1.0 - v) ** 2 + c0**2 / v**2
    return {"angular_moment": _drift(angular), "swirl_energy": _drift(energy)}
