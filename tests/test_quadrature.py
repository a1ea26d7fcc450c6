"""The fixed Gauss-Legendre rule and the composite rule built on it."""

import math

import numpy as np
import pytest

from emaflow.errors import DomainError, QuadratureError
from emaflow import quadrature
from emaflow.flow import energy_nodes
from emaflow.quadrature import cumulative_integral, gauss_legendre_nodes


def test_polynomial_exact():
    # 16 nodes per panel integrate degree <= 31 exactly, partial panels too
    value = cumulative_integral(lambda s: 5.0 * s**4, 2.0, np.array([0.5, 1.3, 2.0]))
    assert value == pytest.approx([0.5**5, 1.3**5, 32.0], abs=1e-13)


def test_gaussian_against_erf():
    x = np.array([0.37, 1.0])
    value = cumulative_integral(lambda s: np.exp(-(s**2)), 1.0, x)
    exact = [0.5 * math.sqrt(math.pi) * math.erf(xi) for xi in x]
    assert value == pytest.approx(exact, abs=1e-15)


def test_empty_interval():
    assert cumulative_integral(lambda s: s, 1.0, 0.0) == 0.0


def test_nonfinite_integrand_rejected():
    # nan right of 0.5, beyond the one point asked for
    with pytest.raises(QuadratureError, match="finite"):
        cumulative_integral(lambda s: np.where(s > 0.5, np.nan, 1.0), 1.0, 0.25)


def test_legendre_degree_exactness():
    nodes, weights = gauss_legendre_nodes(5, 0.0, 1.0)
    assert nodes.shape == weights.shape == (5,)
    # 5 points are exact through degree 9
    assert np.sum(weights * nodes**8) == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert np.sum(weights * nodes**9) == pytest.approx(1.0 / 10.0, abs=1e-14)
    assert np.all(weights > 0)
    assert np.all(np.diff(nodes) > 0)


def test_legendre_invalid_requests(equilibrium):
    with pytest.raises(DomainError):
        gauss_legendre_nodes(0, 0.0, 1.0)
    with pytest.raises(DomainError):
        gauss_legendre_nodes(4, 1.0, 1.0)
    with pytest.raises(DomainError):
        gauss_legendre_nodes(4, 0.0, math.inf)
    for m in (2.5, 8.0):
        with pytest.raises(DomainError, match="node count must be an integer"):
            gauss_legendre_nodes(m, 0.0, 1.0)
    with pytest.raises(DomainError, match="node count must be an integer"):
        energy_nodes(equilibrium, 8.0)


RULE_SIZES = [1, 2, 3, 5, 37, 256]


@pytest.mark.parametrize("m", RULE_SIZES)
def test_legendre_rule_matches_an_eigenvalue_solver(m):
    # leggauss (Golub-Welsch, an eigenvalue problem) is only the reference.
    x, w = quadrature._legendre_rule(m)
    x_ref, w_ref = np.polynomial.legendre.leggauss(m)
    assert np.all(np.abs(x - x_ref) <= 4 * np.spacing(np.abs(x_ref)))
    assert np.all(np.abs(w - w_ref) <= 1e-10 * w_ref)
    for k in range(min(m, 40)):
        assert abs(np.sum(w * x ** (2 * k)) - 2.0 / (2 * k + 1)) <= 1e-14


@pytest.mark.parametrize("m", RULE_SIZES)
def test_legendre_rule_is_exactly_symmetric(m):
    x, w = quadrature._legendre_rule(m)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if m % 2:
        middle = x[m // 2]
        assert middle == 0.0 and not np.signbit(middle)
        assert gauss_legendre_nodes(m, -1.0, 1.0)[0][m // 2] == 0.0


def test_legendre_nodes_are_the_affine_image_of_the_rule():
    x, w = quadrature._legendre_rule(37)
    for a, b in ((-1.0, 1.0), (0.0, 2.5), (-3.0, 7.25)):
        nodes, weights = gauss_legendre_nodes(37, a, b)
        half = 0.5 * (b - a)
        assert nodes.tobytes() == (a + half * (x + 1.0)).tobytes()
        assert weights.tobytes() == (half * w).tobytes()
