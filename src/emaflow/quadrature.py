"""Fixed Gauss-Legendre rules: one rule on an interval, and a composite
rule for integrals from 0.

The energy sum takes its nodes from gauss_legendre_nodes.  The mass
integrals that define the transport map take the composite rule of
cumulative_integral: equal panels with a fixed Legendre rule on each,
which the smooth integrands of the preset family need no adaptivity for.

The Gauss-Legendre rule comes from Newton's method on the Legendre
recurrence, not from an eigenvalue solver, so the package makes no
LAPACK call.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["gauss_legendre_nodes", "cumulative_integral"]

# cumulative_integral's composite rule: this many equal panels, with a
# Legendre rule of this many nodes on each.
_PANELS = 256
_PANEL_NODES = 16


def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule on [-1, 1], ascending."""
    # The nonnegative nodes, descending, start from cos(pi (k + 3/4) / (m + 1/2))
    # written as a sine, so that the middle estimate of an odd m is exactly 0.
    x = np.sin(np.pi * (m - 1 - 2 * np.arange((m + 1) // 2)) / (2 * m + 1))
    # Newton takes 4 or 5 steps (measured for m up to 8000); after them
    # a step rounds to below eps/2, well inside the 4 eps that stops it.
    # The pass that sees the last step that small also gives the weights.
    step = np.inf
    while True:
        p0, p1 = np.ones_like(x), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = m * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps):
            w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
            # Mirror the nonnegative half; an odd m keeps its middle node once.
            return np.concatenate((-x[: m // 2], x[::-1])), np.concatenate((w[: m // 2], w[::-1]))
        step = p1 / dp
        x = x - step


def gauss_legendre_nodes(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [a, b].

    The rule on [-1, 1] comes from Newton's method on P_m, the classical
    scheme (Numerical Recipes' gauleg; Hale & Townsend 2013 for its
    accuracy).  P_m and P_(m-1) are taken at every node at once from the
    three-term recurrence, 1 - x^2 is written (1 - x)(1 + x), and the
    iteration stops when every Newton step is at most 4 eps; the weights
    2 / ((1 - x^2) P_m'(x)^2) come from one last recurrence pass.  For
    m <= 256, against a 40-digit reference, the nodes lie within 5 ulp
    and the weights within 1.2e-12 relative (NumPy's rule, which comes
    from an eigenvalue solver, within 3 ulp and 1.7e-10), and
    sum(w x^(2k)) is 2/(2k + 1) to 1.4e-15 for every k < 40.  The rule
    is exactly symmetric, with the middle node exactly 0 for odd m.  No
    LAPACK call is made, and 256 nodes take about 4.5 ms.
    """
    if not isinstance(m, numbers.Integral):
        raise DomainError(f"quadrature node count must be an integer, got {m!r}")
    if m < 1:
        raise DomainError("need at least one quadrature node")
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise DomainError(f"invalid interval [{a!r}, {b!r}]")
    x, w = _legendre_rule(m)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def cumulative_integral(f, b: float, x) -> np.ndarray:
    """Integral of f over [0, x] for each point of the array x in [0, b].

    f maps an array of points to an array of values of the same shape.
    [0, b] is cut into _PANELS equal panels, each integrated by the
    _PANEL_NODES-point Gauss-Legendre rule, and the panels are summed
    cumulatively; a point x adds its own partial panel, from the panel
    edge below x up to x, under the same rule.  Every weighted sum runs
    in node order, so the value at x does not depend on the other
    points of the call: an array gives, bit for bit, what its points
    give one at a time.  For a smooth f the rule is as accurate as the
    difference from 2 * _PANEL_NODES nodes per panel shows: below 1e-14
    on 257 radii for s^(n-1) rho0(s) of the equilibrium, quadratic and
    bump profiles the tests check at n = 2 and 3, whose r_max is 5 and
    whose mass reaches 92.  A jump of f is resolved only where it falls
    on a panel edge.

    x is not checked; raises QuadratureError where f is not finite at a
    node.
    """
    x = np.asarray(x, dtype=float)
    t, w = gauss_legendre_nodes(_PANEL_NODES, 0.0, 1.0)
    h = b / _PANELS
    edges = h * np.arange(_PANELS + 1)
    below = np.searchsorted(edges, x, side="right") - 1  # edges[below] <= x
    width = x - edges[below]
    # Nodes on axis 0: the full panels as (nodes, panels), the partial
    # ones as (nodes,) + x.shape.
    full = f(edges[:-1] + h * t[:, None])
    part = f(edges[below] + width * t.reshape((-1,) + (1,) * x.ndim))
    if not (np.all(np.isfinite(full)) and np.all(np.isfinite(part))):
        raise QuadratureError(f"integrand not finite on [0, {b!r}]")
    prefix = np.concatenate(([0.0], np.cumsum(h * _node_sum(w, full))))
    return prefix[below] + width * _node_sum(w, part)


def _node_sum(w, values):
    """sum_i w[i] * values[i], added in node order for every shape of
    values[i]; np.einsum reassociates the sum where values[i] holds one
    element."""
    total = w[0] * values[0]
    for wi, v in zip(w[1:], values[1:]):
        total = total + wi * v
    return total
