"""Adaptive Gauss-Kronrod quadrature and fixed Gauss-Legendre rules.

The mass integrals that define the transport map are smooth on the
profile support but their integrands vary over several orders of
magnitude near the origin (the s^(n-1) weight), so a globally fixed
rule is wasteful.  A 7/15 Gauss-Kronrod pair with bisection of the
worst panel reaches abs 1e-12 / rel 1e-10 in a handful of panels for
every profile in the preset family.
"""

from __future__ import annotations

import functools
import heapq
import math
import numbers
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError

__all__ = ["integrate_adaptive", "gauss_legendre_nodes"]

# 15-point Kronrod abscissae on [-1, 1], positive half, descending.
# The even-index entries (0, 2, 4, 6) form the embedded 7-point Gauss rule.
_XK = np.array(
    [
        0.99145537112081263921,
        0.94910791234275852453,
        0.86486442335976907279,
        0.74153118559939443986,
        0.58608723546769113029,
        0.40584515137739716691,
        0.20778495500789846760,
        0.0,
    ]
)

_WK = np.array(
    [
        0.02293532201052922496,
        0.06309209262997855329,
        0.10479001032225018384,
        0.14065325971552591875,
        0.16900472663926790283,
        0.19035057806478540991,
        0.20443294007529889241,
        0.20948214108472782801,
    ]
)

# 7-point Gauss weights, matching _XK[1], _XK[3], _XK[5], _XK[7].
_WG = np.array(
    [
        0.12948496616886969327,
        0.27970539148927666790,
        0.38183005050511894495,
        0.41795918367346938776,
    ]
)

# Full symmetric node set so the integrand is evaluated in one vector call.
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])  # 15 ascending points
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |K15 - G7| error estimate on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    if y.shape != _NODES.shape:
        raise TypeError("integrand must map an array of points to an array of values")
    if not np.all(np.isfinite(y)):
        raise QuadratureError(f"integrand not finite on [{a!r}, {b!r}]")
    k = half * float(_WEIGHTS_K @ y)
    g = half * float(_WEIGHTS_G @ y)
    return k, abs(k - g)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
    max_panels: int = 4096,
) -> tuple[float, float]:
    """Integrate a vectorized callable over [a, b].

    Splits the interval by repeatedly bisecting the panel with the
    largest Kronrod-Gauss discrepancy until the summed estimate meets
    max(abs_tol, rel_tol * |integral|).  Returns (value, error_estimate).

    Raises QuadratureError when max_panels panels cannot reach the
    tolerance, and DomainError for a reversed interval.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if b < a:
        raise DomainError(f"reversed interval [{a!r}, {b!r}]")
    if a == b:
        return 0.0, 0.0

    value, err = _panel(f, a, b)
    # Max-heap on the error estimate; the counter breaks ties so panel
    # tuples are never compared.
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    n_panels = 1
    while True:
        total_err = -sum(item[0] for item in heap)
        total_val = sum(item[4] for item in heap)
        if total_err <= max(abs_tol, rel_tol * abs(total_val)):
            return total_val, total_err
        if n_panels >= max_panels:
            raise QuadratureError(
                f"quadrature stalled at {n_panels} panels, "
                f"error estimate {total_err:.3e}"
            )
        _, _, pa, pb, _, _ = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        for lo, hi in ((pa, pm), (pm, pb)):
            v, e = _panel(f, lo, hi)
            counter += 1
            heapq.heappush(heap, (-e, counter, lo, hi, v, e))
        n_panels += 1


@functools.lru_cache(maxsize=16)
def _reference_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    # leggauss solves an eigenvalue problem in LAPACK; read-only arrays
    # keep the cached rule from being changed through a caller.
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [a, b].

    The rule on [-1, 1] is computed once per m and kept, so a call with
    an m seen before makes no LAPACK call; the returned arrays are new.
    """
    if not isinstance(m, numbers.Integral):
        raise DomainError(f"quadrature node count must be an integer, got {m!r}")
    if m < 1:
        raise DomainError("need at least one quadrature node")
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise DomainError(f"invalid interval [{a!r}, {b!r}]")
    x, w = _reference_rule(m)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w
