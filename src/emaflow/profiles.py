"""Radial initial data and quantities derived from it.

A profile carries the radial velocity u0 and the force potential
derivative dphi0 together with their closed-form derivatives.  The
initial density is never specified independently: the constraint
det(I - D^2 phi0) = rho0 fixes it, which in radial coordinates reads

    rho0(r) = (1 - phi0''(r)) * (1 - phi0'(r)/r)^(n-1).

Everything downstream (threshold classification, the closed-form flow,
the characteristic ensemble) consumes the same profile object, and
reads its initial spectral data (u0', u0/r, phi0'', phi0'/r) through
RadialProfile.spectral, or one float radius at a time through
RadialProfile._spectral_at, so the origin rule of the ratio forms lives
in one place.  The derivative callables must be exact: the preset family
below is chosen precisely so that u0', phi0'' and the third derivative
needed for the origin series are available in closed form.

Every callable takes one radius or an array of radii.  The presets'
callables and RadialProfile.q0 and nu0 give a float, computed with
math, for a float radius (a Python float, not a NumPy scalar), and
NumPy's result for anything else; each formula is written once, for
both.  This module imports NumPy only where it builds an array, so a
profile judged radius by radius (the classify command) needs no NumPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, check_dimension, check_positive

if TYPE_CHECKING:
    import numpy as np

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
        u_origin, dphi_origin = float(self.u0(0.0)), float(self.dphi0(0.0))
        if not (abs(u_origin) <= 1e-12 and abs(dphi_origin) <= 1e-12):
            raise DomainError(
                f"u0(0) and dphi0(0) must vanish, got {u_origin!r} and {dphi_origin!r}"
            )

    @property
    def r_eps(self) -> float:
        return R_EPS_FACTOR * self.r_max

    def _ratio(self, r, direct, deriv, at_small):
        """Evaluate direct(r)/r, switching to a series below r_eps.

        Series: f(r)/r -> f'(0) + f''(0) r / 2.  Without the second
        derivative, falls back to evaluating f' at r itself.  A float r
        gives a float.
        """
        if type(r) is float:
            if not r < self.r_eps:
                return float(direct(r)) / r
            if at_small is not None:
                return float(deriv(0.0)) + 0.5 * float(at_small(0.0)) * r
            return float(deriv(r))
        import numpy as np

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
                out[small] = float(deriv(0.0)) + 0.5 * float(at_small(0.0)) * rs
            else:
                out[small] = np.asarray(deriv(rs), dtype=float)
        return float(out[0]) if scalar else out

    def nu0(self, r):
        """phi0'(r)/r with the origin limit phi0''(0)."""
        return self._ratio(r, self.dphi0, self.d2phi0, self.d3phi0)

    def q0(self, r):
        """u0(r)/r with the origin limit u0'(0)."""
        return self._ratio(r, self.u0, self.du0, self.d2u0)

    def spectral(self, r) -> np.ndarray:
        """Initial spectral data (p, q, mu, nu) = (u0', u0/r, phi0'', phi0'/r).

        Rows in that order, the first four fields of SwirlState, shape
        (4,) + np.atleast_1d(r).shape: the gradient branch is rows (0, 2),
        the ratio branch rows (1, 3).
        A callable that returns a scalar is broadcast.  r is not checked.
        """
        import numpy as np

        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty((4,) + r_arr.shape)
        for row, f in enumerate((self.du0, self.q0, self.d2phi0, self.nu0)):
            out[row] = f(r_arr)
        return out

    def _spectral_at(self, r: float) -> tuple[float, float, float, float]:
        """The column of spectral at one float radius r, as four floats
        from the callables' float path: computed with math, not NumPy."""
        return (float(self.du0(r)), float(self.q0(r)), float(self.d2phi0(r)), float(self.nu0(r)))

    def check_radius(self, r) -> np.ndarray:
        """Validate r in [0, r_max]; returns the values as float array."""
        import numpy as np

        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if not np.all(np.isfinite(r_arr)):
            raise DomainError("radius must be finite")
        if np.any(r_arr < 0.0) or np.any(r_arr > self.r_max):
            bad = r_arr[(r_arr < 0.0) | (r_arr > self.r_max)][0]
            raise DomainError(f"radius {bad!r} outside [0, {self.r_max!r}]")
        return r_arr

    def _scalar_radius(self, r) -> float:
        """check_radius of one radius, as a float; DomainError for an array."""
        import numpy as np

        if np.ndim(r) != 0:
            raise DomainError(f"expected one radius, got an array of shape {np.shape(r)}")
        return float(self.check_radius(r)[0])


def derive_density(profile: RadialProfile, r):
    """Initial density (1 - phi0'')(1 - phi0'/r)^(n-1) at radius r, of
    the rows mu, nu of profile.spectral.

    Accepts scalars or arrays; raises DomainError outside [0, r_max].
    """
    import numpy as np

    r_arr = profile.check_radius(r)
    _, _, mu, nu = profile.spectral(r_arr)
    out = (1.0 - mu) * (1.0 - nu) ** (profile.dimension - 1)
    return float(out[0]) if np.ndim(r) == 0 else out


def transported_primitive(profile: RadialProfile, r):
    """Mass primitive e0(r) = integral of s^(n-1) rho0(s) over [0, r].

    Accepts scalars or arrays; raises DomainError outside [0, r_max] and
    QuadratureError where rho0 is not finite.  The composite rule of
    quadrature.cumulative_integral on [0, r_max] gives the value at r
    independently of the other radii asked for; its stated accuracy
    holds for a smooth density, as every preset's is.  Monotone
    nondecreasing in r up to rounding, since rho0 >= 0 on valid
    profiles.
    """
    import numpy as np

    from .quadrature import cumulative_integral

    r_arr = profile.check_radius(r)
    n = profile.dimension

    def integrand(s):
        return s ** (n - 1) * derive_density(profile, s)

    out = cumulative_integral(integrand, profile.r_max, r_arr)
    return float(out[0]) if np.ndim(r) == 0 else out


def gamma_inverse(profile: RadialProfile, r):
    """Rearrangement map [n * e0(r)]^(1/n), by quadrature of rho0.

    Accepts scalars or arrays, as transported_primitive does.  The
    identity route r - phi0'(r) is exposed separately as
    gamma_inverse_identity; agreement of the two is a correctness check
    of the derived density, asserted in the test suite and reported by
    the energy_conservation criterion, never assumed here.
    """
    import numpy as np

    n = profile.dimension
    mass = transported_primitive(profile, profile.check_radius(r))
    # rho0 >= 0 makes mass >= 0; guard round-off producing -1e-30.
    out = np.maximum(n * mass, 0.0) ** (1.0 / n)
    return float(out[0]) if np.ndim(r) == 0 else out


def gamma_inverse_identity(profile: RadialProfile, r):
    """Rearrangement map via the closed-form identity r - phi0'(r)."""
    import numpy as np

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


def _as_radius(r):
    """r itself if it is a float, else r as a float array."""
    if type(r) is float:
        return r
    import numpy as np

    return np.asarray(r, dtype=float)


def _exp(x):
    """math.exp of a float, NumPy's exp of anything else."""
    if type(x) is float:
        return math.exp(x)
    import numpy as np

    return np.exp(x)


def _cube(x):
    """x**3: C's pow of a float, +-inf where it overflows instead of an
    OverflowError, and NumPy's power of anything else."""
    if type(x) is not float:
        return x**3
    try:
        return x**3
    except OverflowError:
        return math.copysign(math.inf, x)


def _constant(value: float):
    """The callable r -> value: value itself for a float r, else an
    array of value in the shape of r."""

    def constant(r):
        if type(r) is float:
            return value
        import numpy as np

        return np.full_like(np.asarray(r, dtype=float), value)

    return constant


def _mollifier(x):
    """(eta, eta * g', eta * (g'^2 + g'')) at x for the mollifier
    eta = exp(g), g(x) = -1/(1 - x^2), on |x| < 1: eta and its first two
    derivatives, the last two before the chain rule's 1/s and 1/s^2."""
    om = 1.0 - x * x
    om_sq = om * om
    dg = -2.0 * x / om_sq
    d2g = -2.0 / om_sq - 8.0 * x * x / _cube(om)
    eta = _exp(-1.0 / om)
    return eta, eta * dg, eta * (dg * dg + d2g)


def _bump_parts(rc: float, s: float):
    """The mollifier eta(x) = exp(-1/(1-x^2)) on |x|<1 and its
    derivatives, precomposed with x = (r - rc)/s.

    Returns (eta, eta', eta'') as a function of r, each identically 0
    outside the support (rc - s, rc + s): floats for a float r, else
    arrays in the shape of r.
    """
    s_sq = _param_square("s", s)

    def parts(r):
        if type(r) is float:
            x = (r - rc) / s
            if not abs(x) < 1.0:
                return 0.0, 0.0, 0.0
            eta, d1, d2 = _mollifier(x)
            # d2 / 0.0 as IEEE division (and NumPy) takes it, where s^2
            # underflows.
            return eta, d1 / s, d2 / s_sq if s_sq else d2 * math.inf
        import numpy as np

        r_arr = np.asarray(r, dtype=float)
        x = (r_arr - rc) / s
        inside = np.abs(x) < 1.0
        e = np.zeros_like(r_arr)
        e1 = np.zeros_like(r_arr)
        e2 = np.zeros_like(r_arr)
        eta, d1, d2 = _mollifier(x[inside])
        e[inside] = eta
        e1[inside] = d1 / s
        e2[inside] = d2 / s_sq
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
    zero = _constant(0.0)
    return RadialProfile(
        dimension=dimension, kappa=kappa,
        u0=zero, du0=zero, dphi0=zero, d2phi0=zero,
        d2u0=zero, d3phi0=zero, r_max=r_max, name="equilibrium",
    )


def _gaussian_velocity(c, d):
    if not d >= 0:
        raise DomainError(f"velocity width parameter d must be >= 0, got {d!r}")
    d_sq = _param_square("d", d)

    def u0(r):
        r = _as_radius(r)
        return c * r * _exp(-d * (r * r))

    def du0(r):
        r = _as_radius(r)
        r_sq = r * r
        return c * (1.0 - 2.0 * d * r_sq) * _exp(-d * r_sq)

    def d2u0(r):
        r = _as_radius(r)
        return c * _exp(-d * (r * r)) * (-6.0 * d * r + 4.0 * d_sq * _cube(r))

    return u0, du0, d2u0


def _build_quadratic(dimension, kappa, r_max, params):
    a = float(params.pop("a", 0.0))
    c = float(params.pop("c", 0.0))
    d = float(params.pop("d", 1.0))
    u0, du0, d2u0 = _gaussian_velocity(c, d)
    return RadialProfile(
        dimension=dimension, kappa=kappa,
        u0=u0, du0=du0,
        dphi0=lambda r: a * _as_radius(r),
        d2phi0=_constant(a),
        d2u0=d2u0,
        d3phi0=_constant(0.0),
        r_max=r_max, name="quadratic",
    )


def _build_bump(dimension, kappa, r_max, params):
    a = float(params.pop("a", 0.0))
    b = float(params.pop("b", 0.1))
    c = float(params.pop("c", 0.0))
    d = float(params.pop("d", 1.0))
    rc = float(params.pop("rc", 2.0))
    s = float(params.pop("s", 1.0))
    if not s > 0:
        raise DomainError(f"bump width must be positive, got {s!r}")
    if not (rc - s > 0 and rc + s < r_max):
        raise DomainError(
            f"bump support ({rc - s!r}, {rc + s!r}) must lie inside (0, {r_max!r})"
        )
    parts = _bump_parts(rc, s)
    u0, du0, d2u0 = _gaussian_velocity(c, d)

    def dphi0(r):
        r = _as_radius(r)
        e, _, _ = parts(r)
        return a * r + b * r * e

    def d2phi0(r):
        r = _as_radius(r)
        e, e1, _ = parts(r)
        return a + b * (e + r * e1)

    def d3phi0(r):
        r = _as_radius(r)
        _, e1, e2 = parts(r)
        return b * (2.0 * e1 + r * e2)

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
