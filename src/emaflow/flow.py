"""Closed-form characteristic flow and fields derived from it.

Each particle runs a harmonic oscillation about the rearranged radius
G(r0) = r0 - phi0'(r0):

    R_t(r0) = G(r0) + phi0'(r0) cos(sqrt(kappa) t) + u0(r0) sin(sqrt(kappa) t)/sqrt(kappa)

and the flow-gradient eigenvalues follow the same trig combination of
the profile data, branchwise.  Everything here is algebraic in the
profile's closed-form derivatives, so these functions serve as the
exact oracle against which the ODE representations are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FlowSingular, finite_real
from .profiles import (
    RadialProfile,
    derive_density,
    gamma_inverse,
    gamma_inverse_identity,
)
from .quadrature import gauss_legendre_nodes
from .threshold import blowup_time_closed_form

__all__ = [
    "FlowSample",
    "flow_radius",
    "flow_radius_dt",
    "flow_gradient_eigs",
    "pushforward_density",
    "potential_gradient_on_path",
    "conserved_energy",
    "energy_nodes",
    "positive_definite_horizon",
    "sample_flow",
]


@dataclass(frozen=True)
class FlowSample:
    """One characteristic evaluated at one time."""

    r0: float
    t: float
    r_t: float
    lam1: float
    lam2: float
    density: float
    velocity: float


def _check_time(t: float) -> float:
    if not (finite_real(t) and t >= 0.0):
        raise DomainError(f"time must be nonnegative, got {t!r}")
    return float(t)


def _trig(kappa: float, t: float) -> tuple[float, float]:
    """cos(sqrt(kappa) t) and sin(sqrt(kappa) t)/sqrt(kappa)."""
    sk = math.sqrt(kappa)
    return math.cos(sk * t), math.sin(sk * t) / sk


def flow_radius(profile: RadialProfile, r0, t: float):
    """R_t(r0); accepts scalar or array r0."""
    r_arr = profile.check_radius(r0)
    t = _check_time(t)
    ct, st = _trig(profile.kappa, t)
    dphi = np.asarray(profile.dphi0(r_arr), dtype=float)
    u = np.asarray(profile.u0(r_arr), dtype=float)
    out = (r_arr - dphi) + dphi * ct + u * st
    return float(out[0]) if np.asarray(r0).ndim == 0 else out


def flow_radius_dt(profile: RadialProfile, r0, t: float):
    """Particle velocity along the flow, d/dt R_t(r0)."""
    r_arr = profile.check_radius(r0)
    t = _check_time(t)
    sk = math.sqrt(profile.kappa)
    dphi = np.asarray(profile.dphi0(r_arr), dtype=float)
    u = np.asarray(profile.u0(r_arr), dtype=float)
    out = -sk * dphi * math.sin(sk * t) + u * math.cos(sk * t)
    return float(out[0]) if np.asarray(r0).ndim == 0 else out


def _eig(h0, lam0, ct: float, st: float):
    return (1.0 - h0) + h0 * ct + lam0 * st


def flow_gradient_eigs(profile: RadialProfile, r0, t: float):
    """Eigenvalues (lam1, lam2) of the flow gradient.

    lam1 uses (u0'(r0), phi0''(r0)), lam2 the ratio pair
    (u0(r0)/r0, phi0'(r0)/r0); the two coincide in the origin limit.
    """
    r_arr = profile.check_radius(r0)
    t = _check_time(t)
    ct, st = _trig(profile.kappa, t)
    lam1 = _eig(
        np.asarray(profile.d2phi0(r_arr), dtype=float),
        np.asarray(profile.du0(r_arr), dtype=float),
        ct,
        st,
    )
    lam2 = _eig(
        np.asarray(profile.nu0(r_arr), dtype=float),
        np.asarray(profile.q0(r_arr), dtype=float),
        ct,
        st,
    )
    if np.asarray(r0).ndim == 0:
        return float(lam1[0]), float(lam2[0])
    return lam1, lam2


def pushforward_density(profile: RadialProfile, r0, t: float):
    """Density rho0(r0) / (lam1 lam2^(n-1)) at the flowed position.

    Raises FlowSingular when the Jacobian factor is nonpositive at any
    requested point (the flow stopped being a local diffeomorphism).
    """
    lam1, lam2 = flow_gradient_eigs(profile, r0, t)
    n = profile.dimension
    jac = np.asarray(lam1, dtype=float) * np.asarray(lam2, dtype=float) ** (n - 1)
    if np.any(np.asarray(jac) <= 0.0):
        raise FlowSingular(f"flow gradient degenerate at t = {t!r}")
    out = np.asarray(derive_density(profile, r0), dtype=float) / jac
    return float(out) if np.asarray(r0).ndim == 0 else out


def potential_gradient_on_path(
    profile: RadialProfile, r0, t: float, *, method: str = "identity"
):
    """phi_r evaluated on the moving particle: R_t(r0) - Gamma^{-1}(r0).

    method selects the rearrangement-map route: 'identity' for the
    closed form r0 - phi0'(r0) (default), 'quadrature' for the mass
    integral (propagates QuadratureError).  The two agree to quadrature
    tolerance on consistent profiles; tests assert that, callers pick one.
    """
    r_t = flow_radius(profile, r0, t)
    if method == "identity":
        gamma = gamma_inverse_identity(profile, r0)
    elif method == "quadrature":
        scalar = np.asarray(r0).ndim == 0
        if scalar:
            gamma = gamma_inverse(profile, r0)
        else:
            gamma = np.array([gamma_inverse(profile, float(r)) for r in np.asarray(r0)])
    else:
        raise DomainError(f"unknown gamma route {method!r}")
    return r_t - gamma


def energy_nodes(profile: RadialProfile, m: int = 256):
    """Gauss-Legendre nodes and weights on [0, r_max] for the energy sum."""
    return gauss_legendre_nodes(m, 0.0, profile.r_max)


def conserved_energy(
    profile: RadialProfile, r0_grid, weights, t: float, *, omega_n: float = 1.0
) -> float:
    """Discrete Lagrangian energy at time t.

    E = omega_n/2 * sum_i w_i [Rdot_i^2 + kappa (R_i - Gamma_i)^2]
        rho0(r0_i) r0_i^(n-1)

    with everything evaluated from the closed form.  Exactly conserved
    in exact arithmetic for any fixed nodes and weights since each
    particle is a harmonic oscillator about Gamma_i.  Raises
    FlowSingular if the flow gradient degenerates at any node.
    """
    nodes = profile.check_radius(r0_grid)
    w = np.asarray(weights, dtype=float)
    if w.shape != nodes.shape:
        raise DomainError("weights must match the node array")
    t = _check_time(t)
    lam1, lam2 = flow_gradient_eigs(profile, nodes, t)
    n = profile.dimension
    if np.any(lam1 * lam2 ** (n - 1) <= 0.0):
        raise FlowSingular(f"flow gradient degenerate at t = {t!r}")
    r_t = flow_radius(profile, nodes, t)
    rdot = flow_radius_dt(profile, nodes, t)
    gamma = gamma_inverse_identity(profile, nodes)
    rho0 = derive_density(profile, nodes)
    kinetic_plus_potential = rdot**2 + profile.kappa * (r_t - gamma) ** 2
    return 0.5 * omega_n * float(np.sum(w * kinetic_plus_potential * rho0 * nodes ** (n - 1)))


def positive_definite_horizon(profile: RadialProfile, r0: float) -> float | None:
    """First time min(lam1, lam2) reaches zero at r0, None if never.

    Reduces to the minimum over both branches of the closed-form root.
    """
    r_val = float(profile.check_radius(r0)[0])
    kappa = profile.kappa
    t1 = blowup_time_closed_form(
        float(profile.du0(r_val)), float(profile.d2phi0(r_val)), kappa
    )
    t2 = blowup_time_closed_form(
        float(profile.q0(r_val)), float(profile.nu0(r_val)), kappa
    )
    candidates = [t for t in (t1, t2) if t is not None]
    return min(candidates) if candidates else None


def sample_flow(profile: RadialProfile, r0: float, t: float) -> FlowSample:
    """All flow quantities for one characteristic at one time."""
    r_val = float(profile.check_radius(r0)[0])
    lam1, lam2 = flow_gradient_eigs(profile, r_val, t)
    return FlowSample(
        r0=r_val,
        t=float(t),
        r_t=flow_radius(profile, r_val, t),
        lam1=lam1,
        lam2=lam2,
        density=pushforward_density(profile, r_val, t),
        velocity=flow_radius_dt(profile, r_val, t),
    )
