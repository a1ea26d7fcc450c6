"""Lane-batched Dormand-Prince 5(4) integration: one engine, two drivers.

_Stepper holds a (d, lanes) NumPy state and makes one attempt per call
for every live lane, toward that lane's own stop time, with the tableau,
PI controller constants and event rules of the scalar stepper
(``integrator``) applied elementwise.  Each lane owns its time, step
size, controller memory and pole-fit ring; no value ever crosses from
one lane to another, so a lane's result does not depend on which other
lanes share its batch.  A lane ends on step underflow (a step below
min_step, or an accepted step too small to move t) or a pole: a watched
magnitude beyond the threshold, a non-finite stage or a rejection below
min_step.

Two drivers run it:

* integrate_batch steps every lane, one trajectory each, to
  config.horizon and drops finished lanes from the working arrays, so
  the cost of a step follows the lanes still running.  This is the
  record=False contract of integrate: per lane, the termination kind,
  the pole estimate, and the final time and state.  An attempt costs
  about the same from one lane to a few dozen, and at one lane some 30
  attempts of the scalar stepper, so the batch breaks even with a loop
  of scalar calls at about 40 lanes (``benchmarks/step_cost.py``, qnu
  at rel_tol 1e-9).  Its absolute figures move by up to 40% from run to
  run on a shared 2-core VM: over ten runs, 3.9-7.9 us per scalar
  attempt and 122-278 us per one-lane attempt.  The break-even, a ratio
  of two figures from one run, stayed between 40 and 44 lanes in the
  four runs that reported it.
* lagrange.EnsembleRun runs the whole characteristic ensemble as
  one lane, so step size and error norm are shared by every
  characteristic, and moves the stop from one output time to the next.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from inspect import signature
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .integrator import (
    _A, _BETA, _E, _EXPO1, _INV_FAC_MAX, _INV_FAC_MIN, _RING, _SAFETY,
    IntegratorConfig, _as_state_vector, _check_call, _pole_estimate,
)
from .systems import SYSTEM_RHS

__all__ = ["BatchResult", "integrate_batch"]


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


def _rhs(sys_id, **values):
    """f(y) -> tuple of d rows for a (d, lanes) state y."""
    rhs = SYSTEM_RHS[sys_id]
    return functools.partial(rhs, **{p: values[p] for p in list(signature(rhs).parameters)[1:]})


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
    # integrator._initial_step, lane by lane.
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


class _Attempt(NamedTuple):
    """Outcome of one _Stepper.attempt, over the lanes live before it.

    landed lanes accepted a step that ends exactly on their stop;
    underflow and pole lanes have ended, and t_est holds the pole time
    of each pole lane (nan elsewhere).
    """

    accepted: np.ndarray
    landed: np.ndarray
    underflow: np.ndarray
    pole: np.ndarray
    t_est: np.ndarray


class _Stepper:
    """Resumable DP5(4) state of a (d, lanes) batch, stepped by attempt().

    f maps a (d, lanes) state to its d derivative rows.  watch selects
    the rows whose magnitude is tested against config.blowup_magnitude
    and fed to the pole fit.  A lane whose start has a non-finite
    derivative or a watched magnitude beyond the threshold is a pole at
    t = 0: it is flagged in at_pole and never stepped.  lane holds the
    input index of each live lane, stop its stop time (config.horizon
    until a driver moves it); keep() drops lanes a driver is done with.
    """

    @np.errstate(all="ignore")
    def __init__(self, f, y0, cfg, watch=slice(None)):
        self.f, self.cfg, self.watch = f, cfg, watch
        k = np.empty((7,) + y0.shape)
        k[0] = f(y0)
        m0 = np.abs(y0[watch]).max(axis=0)
        self.at_pole = ~np.isfinite(k[0]).all(axis=0) | (m0 > cfg.blowup_magnitude)
        live = ~self.at_pole
        self.lane = np.flatnonzero(live)
        self.y, self.k, m0 = y0[:, live], k[:, :, live], m0[live]
        self.h = _initial_step(f, self.y, self.k[0], cfg)
        self.t = np.zeros(self.lane.size)
        self.stop = np.full(self.lane.size, cfg.horizon)
        self.facold = np.full(self.lane.size, 1e-4)
        self.last_rejected = np.zeros(self.lane.size, dtype=bool)
        # Right-aligned ring of the last accepted (t, 1/max|y|); the
        # final `count` columns are valid.
        self.ring_t = np.zeros((_RING, self.lane.size))
        self.ring_u = np.zeros((_RING, self.lane.size))
        self.count = (m0 > 0.0).astype(np.int64)
        self.ring_u[-1] = np.where(m0 > 0.0, 1.0 / m0, 0.0)

    def keep(self, live):
        """Drop every lane where the mask live is false."""
        for name in ("lane", "t", "h", "stop", "facold", "last_rejected", "count"):
            setattr(self, name, getattr(self, name)[live])
        self.y, self.k = self.y[:, live], self.k[:, :, live]
        self.ring_t, self.ring_u = self.ring_t[:, live], self.ring_u[:, live]

    @np.errstate(all="ignore")
    def attempt(self) -> _Attempt:
        """One DP5(4) attempt on every live lane; see _Attempt."""
        f, cfg, k, y, t = self.f, self.cfg, self.k, self.y, self.t
        min_step = cfg.min_step

        room = self.stop - t
        clipped = self.h >= room
        h = np.where(clipped, room, self.h)
        underflow = (h < min_step) & ~clipped

        for i in range(1, 7):
            ai = _A[i]
            acc = ai[0] * k[0]
            for j in range(1, i):
                acc += ai[j] * k[j]
            y5 = y + h * acc
            k[i] = f(y5)
        # y5 is the last stage argument: the 5th-order solution (FSAL).
        bad = ~(np.isfinite(k[1:]).all(axis=(0, 1)) & np.isfinite(y5).all(axis=0))

        err_vec = _E[0] * k[0]
        for i in range(1, 7):
            err_vec += _E[i] * k[i]
        err_vec *= h
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = _rms(err_vec / sc)

        # A lane that stops on underflow takes no step, and neither does
        # one whose step passes but would not move t (h below its
        # resolution): that ends the lane as underflow too.
        t_tried = t + h
        t_new = np.where(clipped, self.stop, t_tried)
        passed = ~bad & (err <= 1.0)
        underflow |= passed & (t_new == t)
        accept = passed & ~underflow
        bad &= ~underflow
        reject = ~(underflow | bad | accept)
        fac11 = _pow(err, _EXPO1)

        # Accepted lanes move to the new point.
        t = np.where(accept, t_new, t)
        y = np.where(accept, y5, y)
        k[0] = np.where(accept, k[6], k[0])
        m = np.abs(y[self.watch]).max(axis=0)
        grow = accept & (m > 0.0)
        ring_t = np.where(grow, np.concatenate((self.ring_t[1:], t[None])), self.ring_t)
        ring_u = np.where(grow, np.concatenate((self.ring_u[1:], 1.0 / m[None])), self.ring_u)
        count = np.where(grow, np.minimum(self.count + 1, _RING), self.count)

        fac = fac11 / _pow(self.facold, _BETA)
        fac = _pymax(_INV_FAC_MAX, _pymin(_INV_FAC_MIN, fac / _SAFETY))
        h_accept = h / fac
        h_accept = np.where(self.last_rejected, _pymin(h_accept, h), h_accept)
        h_accept = _pymin(h_accept, cfg.max_step)
        h_reject = h / _pymin(_INV_FAC_MIN, fac11 / _SAFETY)
        h_bad = h * 0.1

        pole = (
            (bad & (h_bad < min_step))
            | (reject & (h_reject < min_step))
            | (accept & (m > cfg.blowup_magnitude))
        )
        t_est = np.full(t.size, math.nan)
        for j in np.flatnonzero(pole):
            # Without a usable fit the pole is put at the end of the
            # step that found it.
            fallback = t[j] if accept[j] else t_tried[j]
            valid = slice(_RING - count[j], None)
            ring = zip(ring_t[valid, j].tolist(), ring_u[valid, j].tolist())
            t_est[j] = _pole_estimate(ring, float(fallback), float(t[j]))

        self.t, self.y = t, y
        self.ring_t, self.ring_u, self.count = ring_t, ring_u, count
        self.facold = np.where(accept, _pymax(err, 1e-4), self.facold)
        self.h = np.where(accept, h_accept, np.where(bad, h_bad, h_reject))
        self.last_rejected = ~accept
        return _Attempt(accept, accept & clipped, underflow, pole, t_est)


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
    sys_id, dim, cfg = _check_call(system, kappa, n, c0, config)
    rows = [_as_state_vector(s, dim) for s in states0]
    lanes = len(rows)
    kinds = np.full(lanes, "horizon_reached", dtype=object)
    t_est = np.full(lanes, math.nan)
    t_end = np.zeros(lanes)
    y_end = np.zeros((lanes, dim))
    if lanes == 0:
        return BatchResult((), t_est, t_end, y_end)

    y0 = np.array(rows).T.copy()
    stepper = _Stepper(_rhs(sys_id, kappa=float(kappa), n=float(n), c0=float(c0)), y0, cfg)
    at_pole = stepper.at_pole
    kinds[at_pole] = "blowup_detected"
    t_est[at_pole] = 0.0
    y_end[at_pole] = y0.T[at_pole]

    while stepper.lane.size:
        step = stepper.attempt()
        done = step.landed | step.underflow | step.pole
        if done.any():
            ended = stepper.lane[done]
            t_end[ended], t_est[ended] = stepper.t[done], step.t_est[done]
            y_end[ended] = stepper.y[:, done].T
            kinds[stepper.lane[step.underflow]] = "step_underflow"
            kinds[stepper.lane[step.pole]] = "blowup_detected"
            stepper.keep(~done)

    return BatchResult(
        kinds=tuple(kinds.tolist()),
        t_est=t_est,
        final_time=t_end,
        final_state=y_end,
    )
