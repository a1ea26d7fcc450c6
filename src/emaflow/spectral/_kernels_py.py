"""Pure-Python integrator kernel behind ``integrate``.

The stepping loop is a Dormand-Prince 5(4) embedded pair with the PI
controller constants from the classical dopri5 code, plus two event
mechanisms the plain method lacks:

* magnitude threshold: terminate once any accepted component exceeds
  blowup_magnitude (Riccati trajectories reach it within a few steps of
  the pole);
* refinement underflow: if the error controller rejects down to
  min_step, the dynamics is steeper than the tolerance can resolve,
  which for these systems means a pole as well.

In both cases the reported t_est comes from fitting a line to
1/max|y| over the last three accepted steps: near a simple pole the
reciprocal magnitude is locally linear in t, so its extrapolated zero
estimates the blowup time.
"""

from __future__ import annotations

import math

import numpy as np

TERM_HORIZON = 0
TERM_BLOWUP = 1
TERM_UNDERFLOW = 2

# Dormand-Prince 5(4) tableau.
_C = (0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# Difference between 5th- and 4th-order weights.
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# PI controller (Hairer's dopri5 constants).
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2   # strongest shrink per step
_FAC_MAX = 10.0  # strongest growth per step


def _eval_rhs(sys_id, y, kappa, n, c0, out):
    """Derivative of system sys_id at y, written into out.

    Mirrors the public functions in ``systems``; the wv centrifugal
    singularity is mapped to inf so the step controller backs off
    instead of raising mid-stage.
    """
    if sys_id == 0 or sys_id == 1:
        a, b = y[0], y[1]
        out[0] = -a * a - kappa * b
        out[1] = a * (1.0 - b)
    elif sys_id == 2:
        p, q, mu, nu, tr, tor = y
        out[0] = -p * p - kappa * mu + 2.0 * tr * tor - tor * tor
        out[1] = -q * q - kappa * nu + tor * tor
        out[2] = p * (1.0 - mu)
        out[3] = q * (1.0 - nu)
        out[4] = -(p + q) * tr - (p - q) * tor
        out[5] = -2.0 * q * tor
    elif sys_id == 3:
        q, nu = y[0], y[1]
        out[0] = -q * q - kappa * nu
        out[1] = q * (1.0 - n * nu)
    elif sys_id == 4:
        w, v = y[0], y[1]
        if c0 == 0.0:
            out[0] = kappa * (1.0 - v)
        else:
            v3 = v * v * v
            out[0] = kappa * (1.0 - v) + c0 * c0 / v3 if v3 != 0.0 else math.inf
        out[1] = w
    elif sys_id == 5:
        q, nu, tor = y[0], y[1], y[2]
        out[0] = -q * q - kappa * nu + tor * tor
        out[1] = q * (1.0 - nu)
        out[2] = -2.0 * q * tor
    else:
        raise ValueError(f"unknown system id {sys_id}")


def _fit_pole_time(ring_t, ring_u):
    """Zero crossing of the least-squares line through (t, 1/max|y|).

    Returns None when fewer than two usable points exist or the
    magnitude is not growing (nonnegative slope).
    """
    pts = [(t, u) for t, u in zip(ring_t, ring_u) if u > 0.0]
    if len(pts) < 2:
        return None
    tb = sum(t for t, _ in pts) / len(pts)
    ub = sum(u for _, u in pts) / len(pts)
    sxx = sum((t - tb) ** 2 for t, _ in pts)
    sxy = sum((t - tb) * (u - ub) for t, u in pts)
    if sxx <= 0.0:
        return None
    slope = sxy / sxx
    if slope >= 0.0:
        return None
    return tb - ub / slope


def _rms(values):
    # Squares as products: float ** 2 goes through libm pow, which is
    # off by an ulp now and then and raises OverflowError where a
    # product gives inf.
    return math.sqrt(sum(v * v for v in values) / len(values))


def _initial_step(sys_id, y, f0, kappa, n, c0, rel_tol, abs_tol, max_step, horizon):
    d = len(y)
    sc = [abs_tol + rel_tol * abs(y[i]) for i in range(d)]
    d0 = _rms([y[i] / sc[i] for i in range(d)])
    d1 = _rms([f0[i] / sc[i] for i in range(d)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, max_step, horizon)
    y1 = [y[i] + h0 * f0[i] for i in range(d)]
    f1 = [0.0] * d
    _eval_rhs(sys_id, y1, kappa, n, c0, f1)
    if all(math.isfinite(v) for v in f1):
        d2 = _rms([(f1[i] - f0[i]) / sc[i] for i in range(d)]) / h0
    else:
        d2 = 1.0 / h0
    dm = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if dm <= 1e-15 else (0.01 / dm) ** 0.2
    return min(100.0 * h0, h1, max_step, horizon)


def integrate_kernel(
    sys_id,
    y0,
    kappa,
    n,
    c0,
    rel_tol,
    abs_tol,
    max_step,
    min_step,
    blowup_magnitude,
    horizon,
    record,
):
    """Adaptive integration of system sys_id from t=0 to the horizon.

    Returns (times, states, term_code, t_est): arrays of the accepted
    steps (just first and last when record is false), a TERM_* code,
    and the pole estimate (nan unless TERM_BLOWUP).
    """
    d = len(y0)
    y = [float(v) for v in y0]
    t = 0.0
    times = [0.0]
    states = [tuple(y)]

    k = [[0.0] * d for _ in range(7)]
    ytmp = [0.0] * d
    _eval_rhs(sys_id, y, kappa, n, c0, k[0])
    if not all(math.isfinite(v) for v in k[0]):
        # Initial state already on the singular set.
        return (
            np.array(times),
            np.array(states),
            TERM_BLOWUP,
            0.0,
        )

    h = _initial_step(sys_id, y, k[0], kappa, n, c0, rel_tol, abs_tol, max_step, horizon)
    facold = 1e-4
    last_rejected = False

    m0 = max(abs(v) for v in y)
    if m0 > blowup_magnitude:
        return np.array(times), np.array(states), TERM_BLOWUP, 0.0
    ring_t = [0.0] if m0 > 0.0 else []
    ring_u = [1.0 / m0] if m0 > 0.0 else []

    def finish(term, t_est=math.nan):
        if not record:
            # keep only endpoints
            del times[1:-1]
            del states[1:-1]
        return np.array(times), np.array(states), term, t_est

    def pole_estimate(fallback):
        est = _fit_pole_time(ring_t, ring_u)
        if est is None:
            est = fallback
        return max(est, t)

    while True:
        clipped = h >= horizon - t
        if clipped:
            h = horizon - t
        if h < min_step and not clipped:
            # Time granularity exhausted without the controller asking
            # for refinement; distinct from pole-driven underflow below.
            return finish(TERM_UNDERFLOW)

        bad_stage = False
        for i in range(1, 7):
            ai = _A[i]
            for j in range(d):
                acc = 0.0
                for m in range(i):
                    acc += ai[m] * k[m][j]
                ytmp[j] = y[j] + h * acc
            _eval_rhs(sys_id, ytmp, kappa, n, c0, k[i])
            if not all(math.isfinite(v) for v in k[i]):
                bad_stage = True
                break
        # Stage 7 argument is the 5th-order solution (FSAL).
        if not bad_stage:
            y5 = ytmp
            if not all(math.isfinite(v) for v in y5):
                bad_stage = True

        if bad_stage:
            if 0.1 * h < min_step:
                return finish(TERM_BLOWUP, pole_estimate(t + h))
            h *= 0.1
            last_rejected = True
            continue

        err_acc = 0.0
        for j in range(d):
            e = 0.0
            for i in range(7):
                e += _E[i] * k[i][j]
            e *= h
            sc = abs_tol + rel_tol * max(abs(y[j]), abs(y5[j]))
            r = e / sc
            err_acc += r * r
        err = math.sqrt(err_acc / d)

        if err <= 1.0:
            t = horizon if clipped else t + h
            y = list(y5)
            k[0] = list(k[6])
            times.append(t)
            states.append(tuple(y))
            if not record and len(times) > 2:
                del times[1]
                del states[1]
            m = max(abs(v) for v in y)
            if m > 0.0:
                ring_t.append(t)
                ring_u.append(1.0 / m)
                if len(ring_t) > 3:
                    ring_t.pop(0)
                    ring_u.pop(0)
            if m > blowup_magnitude:
                return finish(TERM_BLOWUP, pole_estimate(t))
            if clipped:
                return finish(TERM_HORIZON)

            fac11 = err**_EXPO1
            fac = fac11 / facold**_BETA
            fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac / _SAFETY))
            hnew = h / fac
            facold = max(err, 1e-4)
            if last_rejected:
                hnew = min(hnew, h)
            last_rejected = False
            h = min(hnew, max_step)
        else:
            fac11 = err**_EXPO1
            hnew = h / min(1.0 / _FAC_MIN, fac11 / _SAFETY)
            last_rejected = True
            if hnew < min_step:
                return finish(TERM_BLOWUP, pole_estimate(t + h))
            h = hnew
