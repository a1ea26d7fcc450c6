"""Lane-batched Dormand-Prince 5(4) integration, and the one driver of
every spectral run.

_Stepper holds a (d, lanes) NumPy state and makes one attempt per call
for every live lane, toward config.horizon, with the tableau,
PI controller constants and event rules of the scalar stepper
(``integrator``) applied elementwise.  Each lane owns its time, step
size and controller memory; no value ever crosses from one lane to
another, so a lane's result does not depend on which other lanes share
its batch.  A lane ends on step underflow (a step below
min_step, or an accepted step too small to move t) or a pole: a watched
magnitude beyond the threshold, a non-finite stage or a rejection below
min_step.

_Stepper.__init__ is the one start of a run: the first derivative, the
pole at t = 0 and the initial step are set there and nowhere else.  A
lane carries nothing for its pole time: that is read off its last
accepted state and derivative (integrator._pole_time).  Two drivers
step it:

* _run drives every spectral run: integrate is _run of one lane and
  integrate_batch of many.  It steps the lanes to config.horizon as a
  batch while at least _HANDOFF are live, dropping finished lanes from
  the working arrays, then hands each lane left (lane_state) to the
  generated scalar stepper.  An attempt costs about the same from one
  lane to a few dozen, and at one lane some 30 scalar attempts, so the
  two break even at 36-39 lanes (the hand-off point is 40): nearby
  bounded qnu lanes at rel_tol 1e-9, measured in October 2026 on a shared
  2-core VM over four runs; two more, whose scalar attempt read 6.2 us
  against 3.4-3.7 us, gave 21 and 26.  A lone lane, and a run that
  records every step (the batch keeps none), is scalar from t = 0.
  Both steppers do the same operations in the same order, so where a
  lane is handed over changes no bit of its result.
* lagrange.EnsembleRun runs the whole characteristic ensemble as
  one lane, so step size and error norm are shared by every
  characteristic, steps it to config.horizon and reads its output
  times off dense() after each accepted step.  Its state has some 10^5
  rows, so an attempt costs its passes over them: the derivative rows
  are written straight into the stage block, every sum is one
  contraction over it, an attempt that every live lane accepts takes the
  new state without a masked copy and reverses the block for the next
  k0, and the block is tested for finiteness only where the error norm
  is not finite.

Both drivers step in the caller's process; the batch starts no thread
or process.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, DomainError, check_dimension, check_positive
from .integrator import (
    _A, _BETA, _DENSE, _E, _EXPO1, _INV_FAC_MAX, _INV_FAC_MIN, _SAFETY,
    IntegratorConfig, Trajectory, _finish, _pole_time, _read, _stepper,
)
from .systems import SYSTEMS, SwirlState

__all__ = ["BatchResult", "integrate_batch"]

# _run steps a batch while at least this many lanes are live: the break-even above.
_HANDOFF = 40


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


def _rhs(rhs, **values):
    """f(y, out): the d derivative rows of a (d, lanes) state y, into out."""
    rhs = functools.partial(rhs, **{p: values[p] for p in _read(rhs)[0]})

    def f(y, out):
        out[...] = rhs(y)

    return f


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
    # Hairer's starting-step heuristic, lane by lane.  Where d1
    # overflows to inf, h0 is 0.0 and so is the result (d2 is 0/0 =
    # nan, which _pymax drops): no step is small enough, so the lane
    # ends in step underflow at t = 0.
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(y)
    d0 = _rms(y / sc)
    d1 = _rms(f0 / sc)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = _pymin(_pymin(h0, cfg.max_step), cfg.horizon)
    f1 = np.empty_like(y)
    f(y + h0 * f0, f1)
    d2 = np.where(np.isfinite(f1).all(axis=0), _rms((f1 - f0) / sc) / h0, 1.0 / h0)
    dm = _pymax(d1, d2)
    h1 = np.where(dm <= 1e-15, _pymax(1e-6, h0 * 1e-3), _pow(0.01 / dm, 0.2))
    return _pymin(_pymin(_pymin(100.0 * h0, h1), cfg.max_step), cfg.horizon)


class _Attempt(NamedTuple):
    """Outcome of one _Stepper.attempt, over the lanes live before it.

    h is the step each lane tried; landed lanes accepted a step that
    ends exactly on config.horizon; underflow and pole lanes have ended,
    and t_est holds the pole time of each pole lane (nan elsewhere).
    """

    h: np.ndarray
    accepted: np.ndarray
    landed: np.ndarray
    underflow: np.ndarray
    pole: np.ndarray
    t_est: np.ndarray


def _stages_finite(stages):
    """Lanes where a (stages, d, lanes) block is finite throughout."""
    return np.isfinite(stages).all(axis=(0, 1))


_A_ROWS, _E_ROW = [np.array(row) for row in _A], np.array(_E)  # for _sum


def _sum(weights, stages):
    # sum_i weights[i] * stages[i] over a (n, d, lanes) block, accumulated
    # from 0.0 in index order as the scalar stepper accumulates it.
    return np.einsum("i,i...->...", weights, stages)


class _Stepper:
    """Resumable DP5(4) state of a (d, lanes) batch, stepped by attempt().

    f(y, out) writes the derivative of a (d, lanes) state y into out, a
    stage of the (7, d, lanes) block k.  watch selects the rows whose
    magnitude is tested against config.blowup_magnitude and whose
    tangent gives the pole time.  A lane whose start has a non-finite
    derivative or a watched magnitude beyond the threshold is a pole at
    t = 0: it is flagged in at_pole and never stepped.  Every lane steps
    toward config.horizon.  lane holds the input index of each live
    lane; keep() drops lanes a driver is done with.  lane_state(j) gives
    live lane j to the generated scalar stepper, which resumes it toward
    config.horizon.  dense() gives the state inside the step an attempt
    took, when every lane accepted it.
    """

    @np.errstate(all="ignore")
    def __init__(self, f, y0, cfg, watch=slice(None)):
        self.f, self.cfg, self.watch = f, cfg, watch
        k = np.empty((7,) + y0.shape)
        f(y0, k[0])
        m0 = np.abs(y0[watch]).max(axis=0)
        self.at_pole = ~np.isfinite(k[0]).all(axis=0) | (m0 > cfg.blowup_magnitude)
        live = ~self.at_pole
        self.lane = np.flatnonzero(live)
        self.y = y0[:, live]
        # One block for the seven stages.  Freeing the start block k also
        # lifts glibc's dynamic mmap threshold above a state array, so the
        # attempts' temporaries reuse heap pages: with seven separate
        # arrays the ensemble took ten times the page faults.
        self.k = k[:, :, live]
        self.h = _initial_step(f, self.y, self.k[0], cfg)
        self.t = np.zeros(self.lane.size)
        self.facold = np.full(self.lane.size, 1e-4)
        self.last_rejected = np.zeros(self.lane.size, dtype=bool)

    def lane_state(self, j):
        """Live lane j as plain floats, in the order the generated scalar
        stepper takes it: t, y, k0, h, facold, last_rejected."""
        return (
            self.t[j].item(), self.y[:, j].tolist(), self.k[0, :, j].tolist(), self.h[j].item(),
            self.facold[j].item(), bool(self.last_rejected[j]),
        )

    def keep(self, live):
        """Drop every lane where the mask live is false."""
        for name in ("lane", "t", "h", "facold", "last_rejected"):
            setattr(self, name, getattr(self, name)[live])
        self.y, self.k = self.y[:, live], self.k[:, :, live]

    def dense(self, theta, h):
        """The state at fraction theta of the step h that the last attempt
        took, when every lane accepted it.

        Formed from the new state and the step's stages as
        y_new - h sum_i (w_i - b_i(theta)) k_i, w being the fifth-order
        weights and b_i the continuous-extension weights (_DENSE), so no
        start state is kept.  The attempt reversed the block, so k[::-1]
        holds the step's stages in stage order.
        """
        weights = [
            w - theta * (b[0] + theta * (b[1] + theta * (b[2] + theta * b[3])))
            for w, b in zip(_A[6] + (0.0,), _DENSE)
        ]
        total = _sum(weights, self.k[::-1])
        total *= h
        return np.subtract(self.y, total, out=total)

    @np.errstate(all="ignore")
    def attempt(self) -> _Attempt:
        """One DP5(4) attempt on every live lane; see _Attempt."""
        f, cfg, k, y, t = self.f, self.cfg, self.k, self.y, self.t
        min_step = cfg.min_step

        room = cfg.horizon - t
        clipped = self.h >= room
        h = np.where(clipped, room, self.h)
        underflow = (h < min_step) & ~clipped

        # Each sum is one contraction over the block, operation for
        # operation as the scalar stepper forms it: the stage argument y +
        # h * (a_i0 k0 + ...) and the scaled error h * (e0 k0 + ...) /
        # (abs_tol + rel_tol * max(|y|, |y5|)).
        for i in range(1, 7):
            yi = _sum(_A_ROWS[i], k[:i])
            yi *= h
            yi += y
            f(yi, k[i])
        # The last stage argument is the 5th-order solution (FSAL).
        y5 = yi

        err_vec = _sum(_E_ROW, k)
        err_vec *= h
        sc = np.abs(y)
        np.maximum(sc, np.abs(y5), out=sc)
        sc *= cfg.rel_tol
        sc += cfg.abs_tol
        err_vec /= sc
        err = _rms(err_vec)

        # A lane is bad where y5 or a stage is not finite.  Every stage
        # enters err_vec (E[1] = 0 turns an inf into 0 * inf = nan), and a
        # non-finite element of err_vec makes err non-finite, so a finite
        # err proves every stage finite: the stages are tested only when
        # some lane's err is not.
        bad = ~np.isfinite(y5).all(axis=0)
        if not np.isfinite(err).all():
            bad |= ~_stages_finite(k[1:])

        # A lane that stops on underflow takes no step, and neither does
        # one whose step passes but would not move t (h below its
        # resolution): that ends the lane as underflow too.
        t_tried = t + h
        t_new = np.where(clipped, cfg.horizon, t_tried)
        passed = ~bad & (err <= 1.0)
        underflow |= passed & (t_new == t)
        accept = passed & ~underflow
        bad &= ~underflow
        reject = ~(underflow | bad | accept)
        fac11 = _pow(err, _EXPO1)

        # Accepted lanes move to the new point, and the block is reversed:
        # k[6] becomes the next first stage without a copy, and dense()
        # reads the step's stages in stage order.  A lane that does not
        # accept keeps its first stage, copied into k[6] before.
        t = np.where(accept, t_new, t)
        if accept.all():
            y = y5
        else:
            y = np.where(accept, y5, y)
            np.copyto(k[6], k[0], where=~accept)
        self.k = k = k[::-1]
        m = np.abs(y[self.watch]).max(axis=0)

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
        self.t, self.y = t, y
        t_est = np.full(t.size, math.nan)
        for j in np.flatnonzero(pole):
            # Where the magnitude does not grow, the pole is put at the
            # end of the step that found it.
            fallback = t[j] if accept[j] else t_tried[j]
            t_est[j] = _pole_time(
                t[j].item(), y[self.watch, j].tolist(), k[0, self.watch, j].tolist(), fallback.item()
            )

        self.facold = np.where(accept, _pymax(err, 1e-4), self.facold)
        self.h = np.where(accept, h_accept, np.where(bad, h_bad, h_reject))
        self.last_rejected = ~accept
        return _Attempt(h, accept, accept & clipped, underflow, pole, t_est)


def _as_state_vector(state0, dim: int) -> list[float]:
    if isinstance(state0, SwirlState):
        values = state0.as_tuple()
    else:
        values = tuple(state0)
    if len(values) != dim:
        raise DomainError(f"state of length {len(values)} does not match system dimension {dim}")
    out = [float(v) for v in values]
    if not all(math.isfinite(v) for v in out):
        raise DomainError(f"initial state must be finite, got {out!r}")
    return out


def _head(y0, t, y):
    # What the scalar stepper keeps of a lane at (t, y) with record=False:
    # its start and, once it has moved, where it is now.
    return ([0.0], [y0]) if t == 0.0 else ([0.0, t], [y0, y])


def _run(system, states0, kappa, n, config, record) -> list[Trajectory]:
    """Integrate every state of states0 from t = 0 to config.horizon.

    The arguments mean what they mean for integrate.  Returns one
    Trajectory per state, in order: the one integrate gives for that
    state alone.
    """
    if system not in SYSTEMS:
        raise DomainError(f"unknown system {system!r}; available: {sorted(SYSTEMS)}")
    rhs = SYSTEMS[system]
    dim = len(_read(rhs)[1])
    check_positive("kappa", kappa)
    check_dimension(n)
    cfg = IntegratorConfig() if config is None else config
    if not isinstance(cfg, IntegratorConfig):
        raise ConfigError(f"config must be an IntegratorConfig, got {type(cfg).__name__}")
    rows = [_as_state_vector(s, dim) for s in states0]
    runs = [None] * len(rows)
    if not rows:
        return runs
    kappa, n = float(kappa), float(n)
    stepper = _Stepper(_rhs(rhs, kappa=kappa, n=n), np.array(rows).T.copy(), cfg)
    for i in np.flatnonzero(stepper.at_pole).tolist():
        runs[i] = _finish([0.0], [rows[i]], "blowup_detected", 0.0)

    while not record and stepper.lane.size >= _HANDOFF:
        step = stepper.attempt()
        done = step.landed | step.underflow | step.pole
        if done.any():
            for j in np.flatnonzero(done).tolist():
                i = stepper.lane[j]
                head = _head(rows[i], stepper.t[j].item(), stepper.y[:, j].tolist())
                if step.pole[j]:
                    runs[i] = _finish(*head, "blowup_detected", step.t_est[j].item())
                else:
                    kind = "step_underflow" if step.underflow[j] else "horizon_reached"
                    runs[i] = _finish(*head, kind)
            stepper.keep(~done)

    for j, i in enumerate(stepper.lane.tolist()):
        lane = stepper.lane_state(j)
        resume = _stepper(rhs)
        runs[i] = resume(*_head(rows[i], *lane[:2]), *lane, kappa, n, cfg, record)
    return runs


def integrate_batch(
    system: str,
    states0,
    kappa: float,
    *,
    n: int = 1,
    config: IntegratorConfig | None = None,
) -> BatchResult:
    """Integrate every initial state in states0 from t = 0 to config.horizon.

    states0 is a sequence of states (tuples, arrays or SwirlState), one
    per lane; system, kappa, n and config are shared by all lanes and
    mean what they mean for integrate.  Each lane ends where
    integrate(..., record=False) ends it, bit for bit.
    """
    runs = _run(system, states0, kappa, n, config, record=False)
    ends = [run.termination for run in runs]
    return BatchResult(
        kinds=tuple(end.kind for end in ends),
        t_est=np.array([math.nan if end.t_est is None else end.t_est for end in ends]),
        final_time=np.array([run.final_time for run in runs]),
        final_state=np.array([run.final_state for run in runs]).reshape(
            len(runs), len(_read(SYSTEMS[system])[1])
        ),
    )
