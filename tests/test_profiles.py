"""Profile construction, derived density, and the rearrangement map.

The density is never free data: it is fixed by the determinant
constraint, so most assertions here are closed-form arithmetic plus the
agreement of the two independent routes to Gamma^{-1}.
"""

import math

import numpy as np
import pytest

from emaflow import DomainError, ProfilePreset, derive_density, gamma_inverse, quadrature
from emaflow.errors import QuadratureError
from emaflow.profiles import (
    RadialProfile,
    gamma_inverse_identity,
    transported_primitive,
)
from emaflow.threshold import classify_profile
from emaflow.validation import _DIMENSION_PRESETS

PRESET_GRID = [
    ("equilibrium", {}),
    ("quadratic", {"a": 0.2, "c": 0.3, "d": 1.0}),
    ("quadratic", {"a": -0.3, "c": 0.4, "d": 0.5}),
    ("bump", {"a": 0.1, "b": 0.2, "c": 0.2, "d": 1.0, "rc": 2.0, "s": 1.0}),
    ("bump", {"a": -0.2, "b": -0.3, "c": -0.8, "d": 0.5, "rc": 2.5, "s": 1.5}),
]


def _zeros(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def step_density_profile():
    """n=3 profile whose density is 1 on [0,1] and 0 beyond.

    dphi0 = max(r-1, 0) makes mu0 jump to 1 at r=1, which kills the
    density there; e0(2) = integral of s^2 over [0,1] = 1/3.
    """

    def dphi0(r):
        r_arr = np.asarray(r, dtype=float)
        return np.maximum(r_arr - 1.0, 0.0)

    def d2phi0(r):
        r_arr = np.asarray(r, dtype=float)
        return np.where(r_arr > 1.0, 1.0, 0.0)

    return RadialProfile(
        dimension=3, kappa=1.0,
        u0=_zeros, du0=_zeros, dphi0=dphi0, d2phi0=d2phi0,
        r_max=4.0, name="step-density",
    )


# --- derive_density -------------------------------------------------------

def test_density_equilibrium_is_one(equilibrium):
    for r in (0.0, 1e-9, 0.5, 2.0, 5.0):
        assert derive_density(equilibrium, r) == 1.0


def test_density_one_dimensional_is_one_minus_mu():
    # In one dimension the ratio eigenvalue carries exponent zero.
    c = 0.25
    prof = RadialProfile(
        dimension=1, kappa=1.0,
        u0=_zeros, du0=_zeros,
        dphi0=lambda r: c * np.asarray(r, dtype=float),
        d2phi0=lambda r: np.full_like(np.asarray(r, dtype=float), c),
        r_max=5.0,
    )
    for r in (0.0, 0.3, 1.0, 4.9):
        assert derive_density(prof, r) == pytest.approx(1.0 - c, abs=1e-15)


def test_density_quadratic_core_value():
    prof = ProfilePreset("quadratic", {"a": 0.3}).build()
    assert derive_density(prof, 1.0) == pytest.approx(0.49, abs=1e-15)
    # origin limit: both eigenvalues coincide, so the power is n
    assert derive_density(prof, 0.0) == pytest.approx(0.49, abs=1e-15)


def test_density_rejects_out_of_domain(subcritical_profile):
    with pytest.raises(DomainError):
        derive_density(subcritical_profile, -0.1)
    with pytest.raises(DomainError):
        derive_density(subcritical_profile, subcritical_profile.r_max + 1.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, [0.5, -math.inf]])
def test_check_radius_rejects_a_non_finite_radius(subcritical_profile, r):
    with pytest.raises(DomainError, match="radius must be finite"):
        subcritical_profile.check_radius(r)


def _cubic_potential_profile():
    """n=3 profile with phi0' = 0.2 r + 0.3 r^2, so phi0'' = 0.2 + 0.6 r
    and phi0'/r = 0.2 + 0.3 r: the ratio form's origin series is exact."""
    return RadialProfile(
        dimension=3, kappa=1.0,
        u0=_zeros, du0=_zeros,
        dphi0=lambda r: 0.2 * np.asarray(r, dtype=float) + 0.3 * np.asarray(r, dtype=float) ** 2,
        d2phi0=lambda r: 0.2 + 0.6 * np.asarray(r, dtype=float),
        d3phi0=lambda r: np.full_like(np.asarray(r, dtype=float), 0.6),
        r_max=5.0,
    )


def test_density_is_the_determinant_of_the_spectral_data():
    # Below r_eps the density follows nu0's origin series, as every
    # other route does.
    prof = _cubic_potential_profile()
    for r in (0.0, 0.5 * prof.r_eps, prof.r_eps, 1.0):
        _, _, mu, nu = prof.spectral(r)
        expected = (1.0 - mu) * (1.0 - nu) ** 2
        assert np.float64(derive_density(prof, r)).tobytes() == expected.tobytes(), r


def test_density_vectorized(subcritical_profile):
    r = np.array([0.0, 0.5, 1.0, 2.0])
    values = derive_density(subcritical_profile, r)
    assert values.shape == r.shape
    for i, ri in enumerate(r):
        assert values[i] == derive_density(subcritical_profile, float(ri))


# --- transported_primitive ------------------------------------------------

def test_mass_primitive_equilibrium_disk(equilibrium):
    # rho0 = 1, n = 2: integral of s over [0,1]
    assert transported_primitive(equilibrium, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_mass_primitive_at_zero(equilibrium):
    assert transported_primitive(equilibrium, 0.0) == 0.0


def test_mass_primitive_step_density():
    # Exact only because the jump at r = 1 falls on an edge of the
    # composite rule's 256 panels of [0, 4]; a jump inside a panel
    # would be smeared over it.
    prof = step_density_profile()
    assert transported_primitive(prof, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-9)
    # nothing accumulates beyond the support
    assert transported_primitive(prof, 4.0) == pytest.approx(1.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("name,params", PRESET_GRID)
def test_mass_primitive_monotone(name, params):
    prof = ProfilePreset(name, params).build()
    grid = np.geomspace(1e-3 * prof.r_max, prof.r_max, 24)
    values = [transported_primitive(prof, float(r)) for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("name,params", PRESET_GRID)
def test_mass_route_array_equals_its_scalar_calls(name, params):
    prof = ProfilePreset(name, params).build(dimension=3)
    # Edges of the composite rule's panels, and radii inside panels
    # down to below r_eps.
    r = np.concatenate((np.linspace(0.0, prof.r_max, 17), np.geomspace(1e-9, prof.r_max, 16)))
    for route in (transported_primitive, gamma_inverse):
        values = route(prof, r)
        scalars = np.array([route(prof, float(ri)) for ri in r])
        assert values.tobytes() == scalars.tobytes(), route.__name__


@pytest.mark.parametrize("name,params", PRESET_GRID)
def test_mass_rule_agrees_with_twice_the_nodes(name, params, monkeypatch):
    # The accuracy cumulative_integral's docstring states: 1e-14.
    for n in (2, 3):
        prof = ProfilePreset(name, params).build(dimension=n)
        r = np.linspace(0.0, prof.r_max, 257)
        e16 = transported_primitive(prof, r)
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_PANEL_NODES", 32)
            e32 = transported_primitive(prof, r)
        assert np.max(np.abs(e16 - e32)) <= 1e-14


def test_mass_primitive_nonfinite_density_rejected():
    # The density is nan beyond r = 2; the rule samples all of [0, r_max].
    def d2phi0(r):
        return np.where(np.asarray(r, dtype=float) > 2.0, np.nan, 0.0)

    prof = RadialProfile(
        dimension=2, kappa=1.0,
        u0=_zeros, du0=_zeros, dphi0=_zeros, d2phi0=d2phi0,
        r_max=4.0, name="nan-density",
    )
    with pytest.raises(QuadratureError, match="finite"):
        transported_primitive(prof, 3.0)


# --- gamma_inverse --------------------------------------------------------

# Ten times the rule's 1e-14, for the rounding of the two routes.
ROUTE_BOUND = 1e-13


def test_gamma_equilibrium_is_identity(equilibrium):
    for r in (0.0, 0.25, 1.0, 3.7):
        assert gamma_inverse(equilibrium, r) == pytest.approx(r, abs=1e-12)
        assert gamma_inverse_identity(equilibrium, r) == r


def test_gamma_constant_density_scaling():
    # rho0 = (1-a)^2 constant, so Gamma^{-1}(r) = (1-a) r.
    prof = ProfilePreset("quadratic", {"a": 0.3}).build()
    assert gamma_inverse(prof, 1.0) == pytest.approx(0.7, abs=1e-10)
    for r in (0.5, 2.0):
        assert gamma_inverse(prof, r) == pytest.approx(0.7 * r, abs=1e-9)


@pytest.mark.parametrize("name,params", PRESET_GRID)
def test_gamma_routes_agree(name, params):
    for n in (2, 3):
        prof = ProfilePreset(name, params).build(dimension=n)
        for r in (0.3, 1.0, 2.4, prof.r_max, np.linspace(0.0, prof.r_max, 257)):
            quad = gamma_inverse(prof, r)
            ident = gamma_inverse_identity(prof, r)
            assert np.max(np.abs(quad - ident)) <= ROUTE_BOUND, (n, r)


@pytest.mark.parametrize("name,params", PRESET_GRID)
def test_gamma_power_identity(name, params):
    # Gamma^{-1}(r)^n = n e0(r) by definition of the map.
    n = 2
    prof = ProfilePreset(name, params).build(dimension=n)
    for r in (0.7, 3.1):
        lhs = gamma_inverse(prof, r) ** n
        rhs = n * transported_primitive(prof, r)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# --- profile invariants ---------------------------------------------------

@pytest.mark.parametrize("name,params", PRESET_GRID)
def test_density_nonnegative_on_grid(name, params):
    prof = ProfilePreset(name, params).build()
    grid = np.geomspace(1e-4 * prof.r_max, prof.r_max, 64)
    assert np.all(derive_density(prof, grid) >= 0.0)


@pytest.mark.parametrize("name,params", PRESET_GRID)
def test_origin_consistency(name, params):
    # nu0(r) - mu0(0) vanishes linearly with slope at most 1 for the
    # preset family (quadratic: exactly zero; bump: support is away
    # from the origin).
    prof = ProfilePreset(name, params).build()
    mu_origin = float(prof.d2phi0(0.0))
    for r in (prof.r_eps, 1e-4, 1e-2):
        assert abs(float(prof.nu0(r)) - mu_origin) <= 1.0 * r


def test_ratio_forms_have_origin_limits(subcritical_profile):
    prof = subcritical_profile
    assert float(prof.q0(0.0)) == pytest.approx(float(prof.du0(0.0)), abs=1e-15)
    assert float(prof.nu0(0.0)) == pytest.approx(float(prof.d2phi0(0.0)), abs=1e-15)
    # ratio and direct evaluation cross over smoothly at r_eps
    r = 2.0 * prof.r_eps
    assert float(prof.q0(r)) == pytest.approx(float(prof.u0(r)) / r, rel=1e-9)


def _spectral_radii(prof):
    return np.concatenate(
        ([0.0, 0.5 * prof.r_eps, prof.r_eps], np.geomspace(1e-6 * prof.r_max, prof.r_max, 97))
    )


@pytest.mark.parametrize(
    "prof",
    [ProfilePreset(name, params).build(dimension=3) for name, params in PRESET_GRID]
    + [step_density_profile()],
    ids=[name for name, _ in PRESET_GRID] + ["step-density"],
)
def test_spectral_rows_are_the_derivative_callables(prof):
    r = _spectral_radii(prof)
    block = prof.spectral(r)
    assert block.shape == (4, r.size)
    for row, f in zip(block, (prof.du0, prof.q0, prof.d2phi0, prof.nu0)):
        assert row.tobytes() == np.asarray(f(r), dtype=float).tobytes()
    assert prof.spectral(0.5).shape == (4, 1)


def test_spectral_broadcasts_a_scalar_callable():
    prof = RadialProfile(
        dimension=2, kappa=1.0, u0=_zeros, du0=_zeros,
        dphi0=lambda r: 0.25 * np.asarray(r, dtype=float), d2phi0=lambda r: 0.25,
        r_max=5.0,
    )
    assert prof.spectral([0.5, 1.0, 2.0])[2].tolist() == [0.25, 0.25, 0.25]


# The largest difference between a preset callable's float path
# (math.exp, C's pow) and its array path (NumPy's exp and power), in
# units in the last place of the largest value the callable takes on
# the radii of _float_path_radii: the most measured over 40 seeds on an
# AVX-512 x86-64 machine, where NumPy's SIMD exp differs from math.exp
# in about 5% of inputs.  The unit is the largest value's because d2u0,
# d2phi0 and d3phi0 subtract nearby terms: near their roots one ulp of a
# term is thousands of ulps of the result.
_FLOAT_PATH_ULPS = {
    "u0": 2, "du0": 1, "d2u0": 2, "dphi0": 1, "d2phi0": 6, "d3phi0": 3, "q0": 2, "nu0": 2,
}
# The callables that neither exp nor pow enters: both paths are equal.
_EXACT_CALLABLES = {
    "equilibrium": set(_FLOAT_PATH_ULPS),
    "quadratic": {"dphi0", "d2phi0", "d3phi0", "nu0"},
    "bump": set(),
}


def _float_path_radii(prof, params, rng):
    rc, s = params.get("rc", 2.0), params.get("s", 1.0)
    fixed = [0.0, 0.5 * prof.r_eps, prof.r_eps, rc - s, rc + s]
    return fixed + rng.uniform(0.0, prof.r_max, 200).tolist()


@pytest.mark.parametrize("name,params", _DIMENSION_PRESETS)
def test_float_and_array_paths_agree(name, params, rng):
    prof = ProfilePreset(name, params).build(dimension=3)
    radii = _float_path_radii(prof, params, rng)
    for f, bound in _FLOAT_PATH_ULPS.items():
        fn = getattr(prof, f)
        floats = [fn(r) for r in radii]
        assert {type(v) for v in floats} == {float}, f
        arrays = np.asarray(fn(np.array(radii)), dtype=float)
        unit = math.ulp(float(np.max(np.abs(arrays))))
        worst = max(abs(a - b) for a, b in zip(floats, arrays.tolist())) / unit
        assert worst <= (0 if f in _EXACT_CALLABLES[name] else bound), (f, worst)


def test_float_path_divides_by_an_underflowed_square_as_numpy_does():
    # s^2 underflows to 0, and the grid's first radius 1e-3 r_max is rc:
    # the float path gives eta'' = -inf there, as NumPy's division does,
    # instead of raising ZeroDivisionError.
    prof = ProfilePreset("bump", {"rc": 2.0, "s": 1e-170, "r_max": 2000.0}).build()
    for f in ("dphi0", "d2phi0", "d3phi0", "nu0"):
        with np.errstate(divide="ignore"):
            want = np.asarray(getattr(prof, f)(np.array([2.0])), dtype=float)[0]
        assert np.float64(getattr(prof, f)(2.0)).tobytes() == want.tobytes(), f
    assert prof.d3phi0(2.0) == -math.inf
    assert classify_profile(prof).regime == "subcritical"


# --- construction errors --------------------------------------------------

def test_unknown_preset_rejected():
    with pytest.raises(DomainError, match="unknown preset"):
        ProfilePreset("sawtooth").build()


def test_unused_parameters_rejected():
    with pytest.raises(DomainError, match="unused parameters"):
        ProfilePreset("quadratic", {"a": 0.1, "zz": 3.0}).build()


def test_bump_support_must_fit():
    with pytest.raises(DomainError, match="support"):
        ProfilePreset("bump", {"rc": 0.5, "s": 1.0}).build()
    with pytest.raises(DomainError, match="support"):
        ProfilePreset("bump", {"rc": 4.8, "s": 1.0}).build()
    # A nan compares false both ways, so each check is the negation of
    # what must hold.
    with pytest.raises(DomainError, match="bump width must be positive"):
        ProfilePreset("bump", {"s": math.nan}).build()
    with pytest.raises(DomainError, match="support"):
        ProfilePreset("bump", {"rc": math.nan}).build()


def test_nonvanishing_origin_data_rejected():
    with pytest.raises(DomainError, match="vanish"):
        RadialProfile(
            dimension=2, kappa=1.0,
            u0=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            du0=_zeros, dphi0=_zeros, d2phi0=_zeros, r_max=5.0,
        )
    with pytest.raises(DomainError, match="vanish"):
        RadialProfile(
            dimension=2, kappa=1.0,
            u0=_zeros, du0=_zeros, d2phi0=_zeros, r_max=5.0,
            dphi0=lambda r: np.full_like(np.asarray(r, dtype=float), math.nan),
        )


def test_bad_dimension_and_kappa_rejected():
    with pytest.raises(DomainError):
        RadialProfile(dimension=0, kappa=1.0, u0=_zeros, du0=_zeros,
                      dphi0=_zeros, d2phi0=_zeros, r_max=5.0)
    with pytest.raises(DomainError):
        RadialProfile(dimension=2, kappa=0.0, u0=_zeros, du0=_zeros,
                      dphi0=_zeros, d2phi0=_zeros, r_max=5.0)


def test_negative_velocity_width_rejected():
    with pytest.raises(DomainError):
        ProfilePreset("quadratic", {"d": -1.0}).build()
    # Both presets share the Gaussian velocity and its check.
    for name, d in (("quadratic", math.nan), ("bump", -1.0), ("bump", math.nan)):
        with pytest.raises(DomainError, match="velocity width parameter d must be >= 0"):
            ProfilePreset(name, {"d": d}).build()
