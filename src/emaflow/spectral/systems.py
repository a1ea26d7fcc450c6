"""Right-hand sides of the characteristic ODE systems.

Along a characteristic the eigenvalues (p, q) of the velocity gradient
and (mu, nu) of the potential Hessian obey closed Riccati-type systems;
with swirl they couple into a six-variable system; the substitution
w = q/(1-nu), v = 1/(1-nu) linearizes the no-swirl dynamics; carried
together with position, velocity and the divergence integral they are
the characteristic ensemble.  These functions are the single source of
truth for the dynamics: the batched integrator and the ensemble call
them on NumPy rows, and the scalar stepper in ``integrator`` writes the
returned expressions of each function that only unpacks its state into
its stages, read from this file's source, and calls the others on plain
floats.

All functions are pure and total on finite inputs except rhs_wv, whose
centrifugal term is singular where v^3 = 0; both integrators step the wv
system through rhs_wv_inf, which is total.
"""

from __future__ import annotations

import math

from ..errors import SingularInput

__all__ = [
    "SpectralState",
    "SwirlState",
    "rhs_qnu",
    "rhs_pmu",
    "rhs_swirl",
    "rhs_ep_qnu",
    "rhs_wv",
    "rhs_wv_inf",
    "rhs_swirl_q",
    "rhs_characteristics",
    "SYSTEM_DIMS",
    "SYSTEM_RHS",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class SpectralState:
    """Eigenvalue quadruple along one characteristic.

    p = du/dr and q = u/r (units 1/time); mu = phi'' and nu = phi'/r
    (dimensionless).  The (p, mu) and (q, nu) pairs evolve autonomously.
    """

    p: float
    q: float
    mu: float
    nu: float

    def as_tuple(self):
        return (self.p, self.q, self.mu, self.nu)


@dataclass(frozen=True)
class SwirlState:
    """Spectral state extended by the swirl components.

    theta_r is the radial derivative of the tangential velocity,
    theta_over_r its ratio form; both vanish for swirl-free data, in
    which case the dynamics splits into two copies of the planar system.
    """

    p: float
    q: float
    mu: float
    nu: float
    theta_r: float
    theta_over_r: float

    def as_tuple(self):
        return (self.p, self.q, self.mu, self.nu, self.theta_r, self.theta_over_r)


def rhs_qnu(state, kappa):
    """(q, nu) dynamics: q' = -q^2 - kappa*nu, nu' = q(1 - nu)."""
    q, nu = state
    return (-q * q - kappa * nu, q * (1.0 - nu))


def rhs_pmu(state, kappa):
    """(p, mu) dynamics; formally identical to the (q, nu) system."""
    p, mu = state
    return (-p * p - kappa * mu, p * (1.0 - mu))


def rhs_swirl(state, kappa):
    """Six-variable rotational dynamics.

    State order (p, q, mu, nu, theta_r, theta_over_r).  The rotation
    feeds the q-branch with +(theta_over_r)^2 and the p-branch with
    2*theta_r*theta_over_r - (theta_over_r)^2; with both swirl
    components zero this reduces componentwise to rhs_pmu and rhs_qnu.
    """
    p, q, mu, nu, tr, tor = state
    return (
        -p * p - kappa * mu + 2.0 * tr * tor - tor * tor,
        -q * q - kappa * nu + tor * tor,
        p * (1.0 - mu),
        q * (1.0 - nu),
        -(p + q) * tr - (p - q) * tor,
        -2.0 * q * tor,
    )


def rhs_swirl_q(state, kappa):
    """Closed (q, nu, theta_over_r) subsystem of the rotational dynamics.

    Useful on its own because its boundedness is decided by nu0 < 1
    alone when the swirl is nonzero, independently of the p-branch.
    """
    q, nu, tor = state
    return (-q * q - kappa * nu + tor * tor, q * (1.0 - nu), -2.0 * q * tor)


def rhs_ep_qnu(state, kappa, n):
    """Euler-Poisson comparison dynamics: nu' carries the factor (1 - n*nu).

    Coincides with rhs_qnu at n = 1.
    """
    q, nu = state
    return (-q * q - kappa * nu, q * (1.0 - n * nu))


def rhs_wv(state, kappa, c0=0.0):
    """Linearized variables w = q/(1-nu), v = 1/(1-nu).

    Without swirl (c0 = 0) this is the harmonic system w' = kappa(1-v),
    v' = w.  A nonzero angular constant c0 adds the centrifugal term
    c0^2 / v^3, singular on v = 0: SingularInput wherever v^3 is 0.0,
    which includes nonzero v so small that its cube underflows.  v^3 is
    the product v*v*v, as in rhs_wv_inf.
    """
    w, v = state
    if c0 == 0.0:
        return (kappa * (1.0 - v), w)
    v3 = v * v * v
    if v3 == 0.0:
        raise SingularInput("centrifugal term undefined at v = 0 with nonzero swirl")
    return (kappa * (1.0 - v) + c0 * c0 / v3, w)


def rhs_wv_inf(state, kappa, c0):
    """rhs_wv as the integrators evaluate it: inf where v^3 = 0.

    A stage that lands on the singular set then reads as non-finite and
    the step controller backs off, instead of an exception mid-step.
    state holds plain floats (the scalar stepper) or NumPy rows (the
    batch); v^3 is the product v*v*v in both.
    """
    w, v = state
    if c0 == 0.0:
        return rhs_wv(state, kappa)
    v3 = v * v * v
    if isinstance(v3, float):
        return (kappa * (1.0 - v) + c0 * c0 / v3 if v3 != 0.0 else math.inf, w)
    import numpy as np

    return (np.where(v3 != 0.0, kappa * (1.0 - v) + c0 * c0 / v3, np.inf), w)


def rhs_characteristics(state, kappa, n):
    """Dynamics of one radial characteristic in dimension n.

    State order (r, u, p, q, mu, nu, g): r' = u, u' = -kappa nu r, the
    (p, mu) and (q, nu) pairs as in rhs_pmu and rhs_qnu, and
    g' = p + (n-1) q, the divergence whose integral gives the continuity
    density rho0 exp(-g).
    """
    r, u, p, q, mu, nu, _ = state
    dp, dmu = rhs_pmu((p, mu), kappa)
    dq, dnu = rhs_qnu((q, nu), kappa)
    return (u, -kappa * nu * r, dp, dq, dmu, dnu, p + (n - 1) * q)


# Integrator-facing registry: system name -> (kernel id, dimension).
SYSTEM_DIMS = {
    "qnu": (0, 2),
    "pmu": (1, 2),
    "swirl": (2, 6),
    "ep": (3, 2),
    "wv": (4, 2),
    "swirl_q": (5, 3),
}

# Kernel id -> derivative function.  The parameters after the state are
# named as integrate's (kappa, n, c0), and the integrators pass them so.
SYSTEM_RHS = (rhs_qnu, rhs_pmu, rhs_swirl, rhs_ep_qnu, rhs_wv_inf, rhs_swirl_q)
