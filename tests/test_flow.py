"""Closed-form flow map: eigenvalues, densities, energy, and agreement with the ODEs."""

import math

import numpy as np
import pytest

from emaflow.errors import DomainError
from emaflow.flow import (
    FlowSingular,
    conserved_energy,
    energy_nodes,
    flow_gradient_eigs,
    flow_radius,
    flow_radius_dt,
    positive_definite_horizon,
    pushforward_density,
)
from emaflow.profiles import ProfilePreset, derive_density
from emaflow.quadrature import gauss_legendre_nodes
from emaflow.spectral import IntegratorConfig, integrate
from emaflow.threshold import blowup_time_closed_form

R0 = np.array([0.0, 0.3, 0.7, 1.5, 3.0])


def test_initial_time_is_identity(subcritical_profile):
    assert np.allclose(flow_radius(subcritical_profile, R0, 0.0), R0, atol=1e-15)
    lam1, lam2 = flow_gradient_eigs(subcritical_profile, R0, 0.0)
    assert np.allclose(lam1, 1.0, atol=1e-15)
    assert np.allclose(lam2, 1.0, atol=1e-15)


def test_equilibrium_flow_is_static(equilibrium):
    for t in (0.3, 1.7, 11.0):
        assert np.array_equal(flow_radius(equilibrium, R0, t), R0)
        assert np.all(flow_radius_dt(equilibrium, R0, t) == 0.0)
        assert np.all(pushforward_density(equilibrium, R0, t) == 1.0)


def test_flow_is_periodic(subcritical_profile):
    period = 2.0 * math.pi / math.sqrt(subcritical_profile.kappa)
    for t in (0.4, 1.9):
        a = flow_radius(subcritical_profile, R0, t)
        b = flow_radius(subcritical_profile, R0, t + period)
        assert np.max(np.abs(a - b)) <= 1e-12
        for x, y in zip(
            flow_gradient_eigs(subcritical_profile, R0, t),
            flow_gradient_eigs(subcritical_profile, R0, t + period),
        ):
            assert np.max(np.abs(x - y)) <= 1e-12


def test_gradient_eig_vanishes_at_breakdown(canonical_supercritical):
    lam1, _ = flow_gradient_eigs(canonical_supercritical, 0.0, math.pi / 6.0)
    assert abs(lam1) <= 1e-15


def test_pushforward_matches_initial_density(subcritical_profile):
    rho0 = derive_density(subcritical_profile, R0)
    assert np.allclose(pushforward_density(subcritical_profile, R0, 0.0), rho0,
                       atol=1e-14)


def test_pushforward_singular_past_breakdown(canonical_supercritical):
    with pytest.raises(FlowSingular, match="degenerate"):
        pushforward_density(canonical_supercritical, 0.5, 0.75)


def test_second_eig_reduces_to_scalar_formula(subcritical_profile):
    p = subcritical_profile
    sqrt_k = math.sqrt(p.kappa)
    for t in (0.25, 1.3):
        _, lam2 = flow_gradient_eigs(p, R0[1:], t)
        b = p.dphi0(R0[1:]) / R0[1:]
        a = p.u0(R0[1:]) / R0[1:]
        expected = (1.0 - b) + b * np.cos(sqrt_k * t) + a * np.sin(sqrt_k * t) / sqrt_k
        assert np.max(np.abs(lam2 - expected)) <= 1e-15


def test_first_eig_matches_finite_difference(subcritical_profile):
    h = 1e-6 * subcritical_profile.r_max
    r = np.array([0.3, 0.7, 1.5, 3.0])
    for t in (0.5, 2.0):
        lam1, _ = flow_gradient_eigs(subcritical_profile, r, t)
        fd = (
            flow_radius(subcritical_profile, r + h, t)
            - flow_radius(subcritical_profile, r - h, t)
        ) / (2.0 * h)
        assert np.max(np.abs(lam1 - fd)) <= 1e-6


def test_flow_agrees_with_spectral_odes(subcritical_profile, tight_config):
    # the map and the linearized ODEs are independent routes to the same state
    p = subcritical_profile
    sqrt_k = math.sqrt(p.kappa)
    r = 0.7
    lam0_1, h0_1 = float(p.du0(r)), float(p.d2phi0(r))
    lam0_2, h0_2 = float(p.q0(r)), float(p.nu0(r))
    for t in (0.5, 1.0, 2.0):
        lam1, lam2 = flow_gradient_eigs(p, r, t)
        lam1_dot = -sqrt_k * h0_1 * math.sin(sqrt_k * t) + lam0_1 * math.cos(sqrt_k * t)
        p_flow = lam1_dot / lam1
        q_flow = flow_radius_dt(p, r, t) / flow_radius(p, r, t)
        mu_flow = 1.0 - (1.0 - h0_1) / lam1
        nu_flow = 1.0 - (1.0 - h0_2) / lam2

        cfg = tight_config.replace(horizon=t)
        pm = integrate("qnu", (lam0_1, h0_1), p.kappa, config=cfg).final_state
        qn = integrate("qnu", (lam0_2, h0_2), p.kappa, config=cfg).final_state
        assert abs(p_flow - pm[0]) <= 1e-6
        assert abs(mu_flow - pm[1]) <= 1e-6
        assert abs(q_flow - qn[0]) <= 1e-6
        assert abs(nu_flow - qn[1]) <= 1e-6
        # density through the map vs density from the linearized state
        rho_flow = pushforward_density(p, r, t)
        rho_spec = (1.0 - pm[1]) * (1.0 - qn[1]) ** (p.dimension - 1)
        assert abs(rho_flow - rho_spec) <= 1e-6


def test_mass_is_transported_exactly(subcritical_profile):
    p = subcritical_profile
    n = p.dimension
    for rtop in (1.0, 3.0):
        sigma, w = gauss_legendre_nodes(200, 0.0, rtop)
        mass0 = np.sum(w * derive_density(p, sigma) * sigma ** (n - 1))
        for t in (0.7, 2.0):
            R = flow_radius(p, sigma, t)
            lam1, _ = flow_gradient_eigs(p, sigma, t)
            rho = pushforward_density(p, sigma, t)
            mass_t = np.sum(w * rho * R ** (n - 1) * lam1)
            assert abs(mass_t - mass0) <= 1e-9


def test_energy_conserved_along_flow(equilibrium):
    nodes, weights = energy_nodes(equilibrium, 200)
    assert conserved_energy(equilibrium, nodes, weights, 0.0) == 0.0

    p = ProfilePreset("quadratic", {"a": 0.0, "c": 0.3, "d": 1.0}).build()
    nodes, weights = energy_nodes(p, 200)
    e0 = conserved_energy(p, nodes, weights, 0.0)
    assert e0 > 0.0
    for t in (0.1, 1.0, 5.0, 2.0 * math.pi):
        assert abs(conserved_energy(p, nodes, weights, t) - e0) <= 1e-10

    # kinetic term is quadratic in the velocity amplitude
    p2 = ProfilePreset("quadratic", {"a": 0.0, "c": 0.6, "d": 1.0}).build()
    e2 = conserved_energy(p2, *energy_nodes(p2, 200), 0.0)
    assert e2 == pytest.approx(4.0 * e0, rel=1e-12)


def test_energy_rejects_mismatched_weights(equilibrium):
    nodes, weights = energy_nodes(equilibrium, 64)
    with pytest.raises(DomainError, match="weights"):
        conserved_energy(equilibrium, nodes, weights[:-1], 0.0)


def test_energy_raises_past_breakdown(canonical_supercritical):
    # The origin characteristic degenerates at t = pi/6.
    nodes, weights = energy_nodes(canonical_supercritical, 256)
    with pytest.raises(FlowSingular, match="degenerate"):
        conserved_energy(canonical_supercritical, nodes, weights, 1.05 * math.pi / 6.0)


def test_definiteness_horizon(equilibrium, subcritical_profile, canonical_supercritical):
    assert positive_definite_horizon(equilibrium, 0.5) is None
    assert positive_definite_horizon(subcritical_profile, 0.5) is None

    t = positive_definite_horizon(canonical_supercritical, 0.5)
    assert t == pytest.approx(0.6971205677077554, abs=1e-12)
    # grid scan of both eigenvalues brackets the closed-form root
    ts = np.linspace(0.0, 4.0, 10_001)
    vals = []
    for s in ts:
        l1, l2 = flow_gradient_eigs(canonical_supercritical, 0.5, float(s))
        vals.append(min(l1, l2))
    first = ts[np.argmax(np.array(vals) <= 0.0)]
    assert abs(first - t) <= 4.0 / 10_000 + 1e-12


def test_definiteness_horizon_single_branch():
    # outward shear supercritical in the gradient branch only
    p = ProfilePreset("quadratic", {"a": 0.0, "c": -2.3, "d": 1.0}).build()
    r0 = math.sqrt(1.5)
    assert float(p.q0(r0)) > -1.0  # ratio branch alone would stay positive
    t = positive_definite_horizon(p, r0)
    assert t == blowup_time_closed_form(float(p.du0(r0)), 0.0, 1.0)


def test_scalar_radial_functions_reject_an_array(canonical_supercritical):
    # An array is refused, not answered for its first radius.
    p = canonical_supercritical
    for r in ([0.5, 3.0], [0.5], np.array([1.0, 2.0])):
        with pytest.raises(DomainError, match="expected one radius"):
            positive_definite_horizon(p, r)
    positive_definite_horizon(p, np.float64(0.5))
    positive_definite_horizon(p, np.array(0.5))


def test_negative_time_rejected(equilibrium):
    with pytest.raises(DomainError, match="nonnegative"):
        flow_radius(equilibrium, 0.5, -0.1)
