"""Lane-batched adaptive integration of many independent trajectories.

integrate_batch advances every lane of a (d, lanes) NumPy state with the
Dormand-Prince 5(4) pair of the scalar kernel: the same tableau, PI
controller constants and event rules (``_kernels_py``), applied
elementwise.  Each lane owns its time, step size, controller memory and
pole-fit ring, and stops on its own at the horizon, the magnitude
threshold, controller underflow or a non-finite stage; no value ever
crosses from one lane to another, so a lane's result does not depend on
which other lanes share its batch.  Finished lanes are dropped from the
working arrays, so the cost of a step follows the lanes still running.

This is the record=False contract of integrate: per lane, the
termination kind, the pole estimate, and the final time and state.
A step costs about the same from one lane to a few hundred, so one lane
is about ten times slower than the scalar kernel, and a batch
of a hundred lanes several times faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import _kernels_py as _k
from .integrator import _TERM_KINDS, IntegratorConfig, _as_state_vector, _check_call
from .systems import rhs_ep_qnu, rhs_pmu, rhs_qnu, rhs_swirl, rhs_swirl_q, rhs_wv

__all__ = ["BatchResult", "integrate_batch"]

_RING = 3  # accepted points in the pole fit, as in the scalar kernel


@dataclass(frozen=True)
class BatchResult:
    """Per-lane outcome of integrate_batch, in input lane order.

    kinds holds Termination kinds; t_est is nan except for
    blowup_detected lanes; final_state has one row per lane.
    """

    kinds: tuple[str, ...]
    t_est: np.ndarray
    final_time: np.ndarray
    final_state: np.ndarray


def _rhs_wv(y, kappa, c0):
    # rhs_wv, with the kernel's answer on v^3 = 0: inf, not an exception.
    if c0 == 0.0:
        return rhs_wv(y, kappa)
    w, v = y
    v3 = v * v * v
    return (np.where(v3 != 0.0, kappa * (1.0 - v) + c0 * c0 / v3, np.inf), w)


_RHS = {"qnu": rhs_qnu, "pmu": rhs_pmu, "swirl": rhs_swirl, "swirl_q": rhs_swirl_q}


def _rhs(system, kappa, n, c0):
    """f(y) -> tuple of d rows for a (d, lanes) state y."""
    if system == "ep":
        return lambda y: rhs_ep_qnu(y, kappa, n)
    if system == "wv":
        return lambda y: _rhs_wv(y, kappa, c0)
    rhs = _RHS[system]
    return lambda y: rhs(y, kappa)


def _pow(x, e):
    # libm pow lane by lane, as in the scalar kernel: numpy's SIMD
    # power differs from it in the last bit on some CPUs (on AVX-512,
    # for about 5% of inputs), which would move step sizes by an ulp.
    return np.fromiter(map(math.pow, x.tolist(), repeat(e)), dtype=float, count=x.size)


# Python's min(a, b) and max(a, b) keep a unless b is strictly
# smaller or larger, so a nan in b never propagates; np.minimum would.
def _pymin(a, b):
    return np.where(b < a, b, a)


def _pymax(a, b):
    return np.where(b > a, b, a)


def _rms(x):
    d = x.shape[0]
    return np.sqrt((x * x).sum(axis=0) / d)


def _initial_step(f, y, f0, cfg):
    # _kernels_py._initial_step, lane by lane.
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(y)
    d0 = _rms(y / sc)
    d1 = _rms(f0 / sc)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = _pymin(_pymin(h0, cfg.max_step), cfg.horizon)
    f1 = np.array(f(y + h0 * f0))
    d2 = np.where(np.isfinite(f1).all(axis=0), _rms((f1 - f0) / sc) / h0, 1.0 / h0)
    dm = _pymax(d1, d2)
    h1 = np.where(dm <= 1e-15, _pymax(1e-6, h0 * 1e-3), _pow(0.01 / dm, 0.2))
    return _pymin(_pymin(_pymin(100.0 * h0, h1), cfg.max_step), cfg.horizon)


def _pole_estimate(ring_t, ring_u, count, fallback, t):
    # pole_estimate of the scalar kernel, on one lane's ring.
    est = _k._fit_pole_time(
        [float(v) for v in ring_t[_RING - count:]],
        [float(v) for v in ring_u[_RING - count:]],
    )
    if est is None:
        est = fallback
    return max(est, t)


def integrate_batch(
    system: str,
    states0,
    kappa: float,
    *,
    n: int = 1,
    c0: float = 0.0,
    config: IntegratorConfig | None = None,
) -> BatchResult:
    """Integrate every initial state in states0 from t = 0 to config.horizon.

    states0 is a sequence of states (tuples, arrays, SpectralState or
    SwirlState), one per lane; system, kappa, n, c0 and config are
    shared by all lanes and mean what they mean for integrate.  Each
    lane does the operations of the scalar kernel in its order, so it
    ends where integrate(..., record=False) ends.
    """
    _, dim, cfg = _check_call(system, kappa, n, c0, config)
    rows = [_as_state_vector(s, dim) for s in states0]
    lanes = len(rows)
    kinds = np.zeros(lanes, dtype=np.int64)
    t_est = np.full(lanes, math.nan)
    t_end = np.zeros(lanes)
    y_end = np.zeros((lanes, dim))
    if lanes == 0:
        return BatchResult((), t_est, t_end, y_end)

    f = _rhs(system, float(kappa), float(n), float(c0))
    a, e_w = _k._A, _k._E
    horizon, min_step, max_step = cfg.horizon, cfg.min_step, cfg.max_step
    inv_fac_min, inv_fac_max = 1.0 / _k._FAC_MIN, 1.0 / _k._FAC_MAX

    with np.errstate(all="ignore"):
        y = np.array(rows).T.copy()
        k = np.empty((7, dim, lanes))
        k[0] = f(y)
        m0 = np.abs(y).max(axis=0)
        # An initial state on the singular set or beyond the threshold
        # is a pole at t = 0.
        at_pole = ~np.isfinite(k[0]).all(axis=0) | (m0 > cfg.blowup_magnitude)
        kinds[at_pole] = _k.TERM_BLOWUP
        t_est[at_pole] = 0.0
        y_end[at_pole] = y.T[at_pole]

        live = ~at_pole
        idx = np.flatnonzero(live)
        y, k, m0 = y[:, live], k[:, :, live], m0[live]
        h = _initial_step(f, y, k[0], cfg)
        t = np.zeros(idx.size)
        facold = np.full(idx.size, 1e-4)
        last_rejected = np.zeros(idx.size, dtype=bool)
        # Right-aligned ring of the last accepted (t, 1/max|y|); the
        # final `count` columns are valid.
        ring_t = np.zeros((_RING, idx.size))
        ring_u = np.zeros((_RING, idx.size))
        count = (m0 > 0.0).astype(np.int64)
        ring_u[-1] = np.where(m0 > 0.0, 1.0 / m0, 0.0)

        while idx.size:
            room = horizon - t
            clipped = h >= room
            h = np.where(clipped, room, h)
            underflow = (h < min_step) & ~clipped

            for i in range(1, 7):
                ai = a[i]
                acc = ai[0] * k[0]
                for j in range(1, i):
                    acc += ai[j] * k[j]
                y5 = y + h * acc
                k[i] = f(y5)
            # y5 is the last stage argument: the 5th-order solution (FSAL).
            bad = ~(np.isfinite(k[1:]).all(axis=(0, 1)) & np.isfinite(y5).all(axis=0))

            err_vec = e_w[0] * k[0]
            for i in range(1, 7):
                err_vec += e_w[i] * k[i]
            err_vec *= h
            sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
            err = _rms(err_vec / sc)

            # A lane that stops on underflow takes no step.
            bad &= ~underflow
            accept = ~underflow & ~bad & (err <= 1.0)
            reject = ~underflow & ~bad & ~accept
            fac11 = _pow(err, _k._EXPO1)

            # Accepted lanes move to the new point.
            t_tried = t + h
            t = np.where(accept, np.where(clipped, horizon, t_tried), t)
            y = np.where(accept, y5, y)
            k[0] = np.where(accept, k[6], k[0])
            m = np.abs(y).max(axis=0)
            grow = accept & (m > 0.0)
            ring_t = np.where(grow, np.concatenate((ring_t[1:], t[None])), ring_t)
            ring_u = np.where(grow, np.concatenate((ring_u[1:], 1.0 / m[None])), ring_u)
            count = np.where(grow, np.minimum(count + 1, _RING), count)

            fac = fac11 / _pow(facold, _k._BETA)
            fac = _pymax(inv_fac_max, _pymin(inv_fac_min, fac / _k._SAFETY))
            h_accept = h / fac
            h_accept = np.where(last_rejected, _pymin(h_accept, h), h_accept)
            h_accept = _pymin(h_accept, max_step)
            h_reject = h / _pymin(inv_fac_min, fac11 / _k._SAFETY)
            h_bad = h * 0.1

            pole = (
                (bad & (h_bad < min_step))
                | (reject & (h_reject < min_step))
                | (accept & (m > cfg.blowup_magnitude))
            )
            done = underflow | pole | (accept & clipped)
            facold = np.where(accept, _pymax(err, 1e-4), facold)
            h = np.where(accept, h_accept, np.where(bad, h_bad, h_reject))
            last_rejected = ~accept
            if not done.any():
                continue

            for j in np.flatnonzero(done):
                lane = idx[j]
                t_end[lane] = t[j]
                y_end[lane] = y[:, j]
                if underflow[j]:
                    kinds[lane] = _k.TERM_UNDERFLOW
                elif pole[j]:
                    # Without a usable fit the pole is put at the end
                    # of the step that found it.
                    fallback = t[j] if accept[j] else t_tried[j]
                    kinds[lane] = _k.TERM_BLOWUP
                    t_est[lane] = _pole_estimate(
                        ring_t[:, j], ring_u[:, j], count[j], float(fallback), float(t[j])
                    )
                else:
                    kinds[lane] = _k.TERM_HORIZON
            keep = ~done
            idx, t, h, y, k = idx[keep], t[keep], h[keep], y[:, keep], k[:, :, keep]
            facold, last_rejected = facold[keep], last_rejected[keep]
            ring_t, ring_u, count = ring_t[:, keep], ring_u[:, keep], count[keep]

    return BatchResult(
        kinds=tuple(_TERM_KINDS[code] for code in kinds.tolist()),
        t_est=t_est,
        final_time=t_end,
        final_state=y_end,
    )
