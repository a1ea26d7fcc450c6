"""Right-hand sides of the characteristic ODE systems.

Along a characteristic the eigenvalues (p, q) of the velocity gradient
and (mu, nu) of the potential Hessian obey closed Riccati-type systems,
two copies of one system: the (p, mu) pair evolves as the (q, nu) pair
does, so rhs_qnu serves both.  With swirl they couple into a
six-variable system; carried together with position, velocity and the
divergence integral they are the characteristic ensemble.  These
functions are the single source of truth for the dynamics: the batched
integrator and the ensemble call them on NumPy rows, and the scalar
stepper in ``integrator`` writes the returned expressions of each
function, read from this file's source, into its stages.

All functions are pure and total on finite inputs.
"""

from __future__ import annotations

__all__ = [
    "SwirlState",
    "rhs_qnu",
    "rhs_swirl",
    "rhs_ep_qnu",
    "rhs_swirl_q",
    "rhs_characteristics",
    "SYSTEMS",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class SwirlState:
    """Spectral state along one characteristic, with the swirl components.

    p = du/dr and q = u/r (units 1/time); mu = phi'' and nu = phi'/r
    (dimensionless).  theta_r is the radial derivative of the tangential velocity,
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


def rhs_swirl(state, kappa):
    """Six-variable rotational dynamics.

    State order (p, q, mu, nu, theta_r, theta_over_r).  The rotation
    feeds the q-branch with +(theta_over_r)^2 and the p-branch with
    2*theta_r*theta_over_r - (theta_over_r)^2; with both swirl
    components zero both the (p, mu) and the (q, nu) pair reduce to
    rhs_qnu.
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


def rhs_characteristics(state, kappa, n):
    """Dynamics of one radial characteristic in dimension n.

    State order (r, u, p, q, mu, nu, g): r' = u, u' = -kappa nu r, the
    (p, mu) and (q, nu) pairs each as in rhs_qnu, and
    g' = p + (n-1) q, the divergence whose integral gives the continuity
    density rho0 exp(-g).
    """
    r, u, p, q, mu, nu, _ = state
    dp, dmu = rhs_qnu((p, mu), kappa)
    dq, dnu = rhs_qnu((q, nu), kappa)
    return (u, -kappa * nu * r, dp, dq, dmu, dnu, p + (n - 1) * q)


# The systems the integrators run, by name.  The parameters after the
# state are named as integrate's (kappa, n), and the integrators pass
# them so; a system's dimension is the number of components it returns.
SYSTEMS = {"qnu": rhs_qnu, "swirl": rhs_swirl, "ep": rhs_ep_qnu, "swirl_q": rhs_swirl_q}
