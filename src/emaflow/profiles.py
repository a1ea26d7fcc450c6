"""Radial initial data and quantities derived from it.

A profile carries the radial velocity u0 and the force potential
derivative dphi0 together with their closed-form derivatives.  The
initial density is never specified independently: the constraint
det(I - D^2 phi0) = rho0 fixes it, which in radial coordinates reads

    rho0(r) = (1 - phi0''(r)) * (1 - phi0'(r)/r)^(n-1).

Everything downstream (threshold classification, the closed-form flow,
the characteristic ensemble) consumes the same profile object, so the
derivative callables must be exact: the preset family below is chosen
precisely so that u0', phi0'' and the third derivative needed for the
origin series are available in closed form.

All callables are expected to be numpy-vectorized (they receive either
a scalar or a 1-d array of radii).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, check_dimension, check_positive
from .quadrature import integrate_adaptive

__all__ = [
    "RadialProfile",
    "ProfilePreset",
    "PRESETS",
    "derive_density",
    "transported_primitive",
    "gamma_inverse",
    "gamma_inverse_identity",
]

# Ratio forms phi0'(r)/r and u0(r)/r switch to a series below this
# fraction of r_max; keeps 0/0 out of the origin limit.
R_EPS_FACTOR = 1e-8

# Quadrature targets for the mass integral; gamma_inverse inherits them.
MASS_ABS_TOL = 1e-12
MASS_REL_TOL = 1e-10


@dataclass(frozen=True)
class RadialProfile:
    """Smooth radial initial data (u0, phi0) with closed-form derivatives.

    dimension   spatial dimension n >= 1
    kappa       repulsion constant, > 0
    u0, du0     radial velocity and its r-derivative
    dphi0       phi0'(r); phi0 itself is never needed
    d2phi0      phi0''(r)
    r_max       domain truncation radius
    d2u0        optional u0''(r), used for the origin series of u0/r
    d3phi0      optional phi0'''(r), used for the origin series of phi0'/r

    Immutable and safe to share across threads.
    """

    dimension: int
    kappa: float
    u0: Callable
    du0: Callable
    dphi0: Callable
    d2phi0: Callable
    r_max: float
    d2u0: Callable | None = None
    d3phi0: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        check_dimension(self.dimension)
        check_positive("kappa", self.kappa)
        check_positive("r_max", self.r_max)
        if not self.r_eps > 0:
            raise DomainError(f"r_max {self.r_max!r} is too small: r_eps underflows to 0")
        # Regularity at the origin: a radial field with u0(0) != 0 or
        # phi0'(0) != 0 is not the restriction of a smooth vector field.
        if abs(float(self.u0(0.0))) > 1e-12 or abs(float(self.dphi0(0.0))) > 1e-12:
            raise DomainError("u0(0) and dphi0(0) must vanish")

    @property
    def r_eps(self) -> float:
        return R_EPS_FACTOR * self.r_max

    def _ratio(self, r, direct, deriv0, deriv1, at_small):
        """Evaluate direct(r)/r, switching to a series below r_eps.

        Series: f(r)/r -> f'(0) + f''(0) r / 2.  Without the second
        derivative, falls back to evaluating f' at r itself.
        """
        r_arr = np.asarray(r, dtype=float)
        scalar = r_arr.ndim == 0
        r_arr = np.atleast_1d(r_arr)
        out = np.empty_like(r_arr)
        small = r_arr < self.r_eps
        big = ~small
        if big.any():
            rb = r_arr[big]
            out[big] = np.asarray(direct(rb), dtype=float) / rb
        if small.any():
            rs = r_arr[small]
            if at_small is not None:
                out[small] = float(deriv0(0.0)) + 0.5 * float(at_small(0.0)) * rs
            else:
                out[small] = np.asarray(deriv1(rs), dtype=float)
        return float(out[0]) if scalar else out

    def nu0(self, r):
        """phi0'(r)/r with the origin limit phi0''(0)."""
        return self._ratio(r, self.dphi0, self.d2phi0, self.d2phi0, self.d3phi0)

    def q0(self, r):
        """u0(r)/r with the origin limit u0'(0)."""
        return self._ratio(r, self.u0, self.du0, self.du0, self.d2u0)

    def check_radius(self, r) -> np.ndarray:
        """Validate r in [0, r_max]; returns the values as float array."""
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all(np.isfinite(r_arr)):
            raise DomainError("radius must be finite")
        if np.any(r_arr < 0.0) or np.any(r_arr > self.r_max):
            bad = r_arr[(r_arr < 0.0) | (r_arr > self.r_max)][0]
            raise DomainError(f"radius {bad!r} outside [0, {self.r_max!r}]")
        return r_arr


def derive_density(profile: RadialProfile, r):
    """Initial density (1 - phi0'')(1 - phi0'/r)^(n-1) at radius r.

    Below r_eps both Hessian eigenvalues coincide, giving
    (1 - phi0''(0))^n.  Accepts scalars or arrays; raises DomainError
    outside [0, r_max].
    """
    r_arr = profile.check_radius(r)
    scalar = np.asarray(r, dtype=float).ndim == 0
    n = profile.dimension
    out = np.empty_like(r_arr)
    small = r_arr < profile.r_eps
    big = ~small
    if big.any():
        rb = r_arr[big]
        mu = np.asarray(profile.d2phi0(rb), dtype=float)
        nu = np.asarray(profile.dphi0(rb), dtype=float) / rb
        out[big] = (1.0 - mu) * (1.0 - nu) ** (n - 1)
    if small.any():
        # A NumPy scalar, so an overflow gives inf rather than OverflowError.
        out[small] = np.float64(1.0 - float(profile.d2phi0(0.0))) ** n
    return float(out[0]) if scalar else out


def transported_primitive(profile: RadialProfile, r) -> float:
    """Mass primitive e0(r) = integral of s^(n-1) rho0(s) over [0, r].

    Adaptive quadrature at abs 1e-12 / rel 1e-10; monotone
    nondecreasing in r since rho0 >= 0 on valid profiles.
    """
    r_val = float(profile.check_radius(r)[0])
    if r_val == 0.0:
        return 0.0
    n = profile.dimension

    def integrand(s):
        return s ** (n - 1) * derive_density(profile, s)

    value, _ = integrate_adaptive(
        integrand, 0.0, r_val, abs_tol=MASS_ABS_TOL, rel_tol=MASS_REL_TOL
    )
    return value


def gamma_inverse(profile: RadialProfile, r) -> float:
    """Rearrangement map [n * e0(r)]^(1/n), by quadrature of rho0.

    The identity route r - phi0'(r) is exposed separately as
    gamma_inverse_identity; agreement of the two is a correctness check
    of the derived density and is asserted in the test suite, never
    assumed here.
    """
    n = profile.dimension
    mass = transported_primitive(profile, r)
    # rho0 >= 0 makes mass >= 0; guard round-off producing -1e-30.
    return (max(n * mass, 0.0)) ** (1.0 / n)


def gamma_inverse_identity(profile: RadialProfile, r):
    """Rearrangement map via the closed-form identity r - phi0'(r)."""
    r_arr = profile.check_radius(r)
    scalar = np.asarray(r, dtype=float).ndim == 0
    out = r_arr - np.asarray(profile.dphi0(r_arr), dtype=float)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Preset family
# ---------------------------------------------------------------------------

def _param_square(name: str, value: float) -> float:
    """value ** 2 for a preset parameter; DomainError where it overflows."""
    try:
        return value**2
    except OverflowError:
        raise DomainError(f"preset parameter {name} = {value!r} is too large to square") from None


def _bump_parts(rc: float, s: float):
    """The mollifier eta(x) = exp(-1/(1-x^2)) on |x|<1 and its
    derivatives, precomposed with x = (r - rc)/s.

    Returns vectorized (eta, eta', eta'') as functions of r, each
    identically 0 outside the support (rc - s, rc + s).
    """
    s_sq = _param_square("s", s)

    def parts(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        x = (r_arr - rc) / s
        inside = np.abs(x) < 1.0
        e = np.zeros_like(r_arr)
        e1 = np.zeros_like(r_arr)
        e2 = np.zeros_like(r_arr)
        xi = x[inside]
        om = 1.0 - xi * xi
        g = -1.0 / om
        dg = -2.0 * xi / om**2
        d2g = -2.0 / om**2 - 8.0 * xi * xi / om**3
        eta = np.exp(g)
        e[inside] = eta
        e1[inside] = eta * dg / s
        e2[inside] = eta * (dg * dg + d2g) / s_sq
        return e, e1, e2

    return parts


@dataclass(frozen=True)
class ProfilePreset:
    """Named closed-form profile with a parameter map.

    Available presets (parameters beyond dimension/kappa/r_max):

    equilibrium
        u0 = 0, phi0 = 0.  No parameters.
    quadratic
        phi0'(r) = a*r (so mu0 = nu0 = a), u0(r) = c*r*exp(-d*r^2).
        Parameters a, c, d; default d = 1.
    bump
        quadratic core plus a compactly supported correction
        phi0'(r) = a*r + b*r*eta((r - rc)/s) with the standard
        mollifier eta; support (rc - s, rc + s) must stay inside
        (0, r_max).  Parameters a, b, c, d, rc, s.

    For every preset nu0(r) - mu0(0) vanishes linearly at the origin
    with slope bounded by 1 in the parameter ranges used here, which is
    what the origin-consistency check in the test suite relies on.
    """

    name: str
    params: dict = field(default_factory=dict)

    def build(self, dimension: int = 2, kappa: float = 1.0) -> RadialProfile:
        params = dict(self.params)
        r_max = float(params.pop("r_max", 5.0))
        builder = _BUILDERS.get(self.name)
        if builder is None:
            raise DomainError(
                f"unknown preset {self.name!r}; available: {sorted(_BUILDERS)}"
            )
        profile = builder(dimension, kappa, r_max, params)
        if params:
            raise DomainError(f"unused parameters for preset {self.name!r}: {sorted(params)}")
        return profile


def _build_equilibrium(dimension, kappa, r_max, params):
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return RadialProfile(
        dimension=dimension, kappa=kappa,
        u0=zero, du0=zero, dphi0=zero, d2phi0=zero,
        d2u0=zero, d3phi0=zero, r_max=r_max, name="equilibrium",
    )


def _gaussian_velocity(c, d):
    d_sq = _param_square("d", d)
    u0 = lambda r: c * r * np.exp(-d * np.asarray(r, dtype=float) ** 2)
    du0 = lambda r: c * (1.0 - 2.0 * d * np.asarray(r, dtype=float) ** 2) * np.exp(
        -d * np.asarray(r, dtype=float) ** 2
    )

    def d2u0(r):
        r_arr = np.asarray(r, dtype=float)
        return c * np.exp(-d * r_arr**2) * (-6.0 * d * r_arr + 4.0 * d_sq * r_arr**3)

    return u0, du0, d2u0


def _build_quadratic(dimension, kappa, r_max, params):
    a = float(params.pop("a", 0.0))
    c = float(params.pop("c", 0.0))
    d = float(params.pop("d", 1.0))
    if d < 0:
        raise DomainError(f"velocity width parameter d must be >= 0, got {d!r}")
    u0, du0, d2u0 = _gaussian_velocity(c, d)
    return RadialProfile(
        dimension=dimension, kappa=kappa,
        u0=u0, du0=du0,
        dphi0=lambda r: a * np.asarray(r, dtype=float),
        d2phi0=lambda r: np.full_like(np.asarray(r, dtype=float), a),
        d2u0=d2u0,
        d3phi0=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        r_max=r_max, name="quadratic",
    )


def _build_bump(dimension, kappa, r_max, params):
    a = float(params.pop("a", 0.0))
    b = float(params.pop("b", 0.1))
    c = float(params.pop("c", 0.0))
    d = float(params.pop("d", 1.0))
    rc = float(params.pop("rc", 2.0))
    s = float(params.pop("s", 1.0))
    if s <= 0:
        raise DomainError(f"bump width must be positive, got {s!r}")
    if rc - s <= 0 or rc + s >= r_max:
        raise DomainError(
            f"bump support ({rc - s!r}, {rc + s!r}) must lie inside (0, {r_max!r})"
        )
    parts = _bump_parts(rc, s)
    u0, du0, d2u0 = _gaussian_velocity(c, d)

    def dphi0(r):
        r_arr = np.asarray(r, dtype=float)
        e, _, _ = parts(r_arr)
        out = a * np.atleast_1d(r_arr) + b * np.atleast_1d(r_arr) * e
        return out if np.asarray(r).ndim else float(out[0])

    def d2phi0(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        e, e1, _ = parts(r_arr)
        out = a + b * (e + r_arr * e1)
        return out if np.asarray(r).ndim else float(out[0])

    def d3phi0(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        _, e1, e2 = parts(r_arr)
        out = b * (2.0 * e1 + r_arr * e2)
        return out if np.asarray(r).ndim else float(out[0])

    return RadialProfile(
        dimension=dimension, kappa=kappa,
        u0=u0, du0=du0, dphi0=dphi0, d2phi0=d2phi0,
        d2u0=d2u0, d3phi0=d3phi0, r_max=r_max, name="bump",
    )


_BUILDERS = {
    "equilibrium": _build_equilibrium,
    "quadratic": _build_quadratic,
    "bump": _build_bump,
}

PRESETS = tuple(sorted(_BUILDERS))
