"""Lane-batched integration against the scalar kernel it batches.

The batch must end every lane where the scalar stepper behind
``integrate`` ends it, bit for bit: same termination kind, pole
estimate, final time and state.  The batch hands its last lanes to that
stepper, so each test that means to step the batch sets the hand-off
(batch._HANDOFF) to one lane, and one checks every hand-off point.
"""

import math

import numpy as np
import pytest

from emaflow.errors import ConfigError, DomainError
from emaflow.spectral import IntegratorConfig, batch, integrate, integrate_batch
from emaflow.spectral.integrator import _A, _DENSE
from emaflow.spectral.systems import SYSTEMS

SWIRL_BLOWUP = (0.0, 0.3, 0.0, 0.2, 0.1, 0.5)  # pole at t = 14.158
SWIRL_BOUNDED = (0.1, 0.01, 0.005, -0.01, 0.0, 0.3)

# (system, config overrides, n, initial states).  Each group is one
# batch; together they cover all four systems and every way a lane ends.
GROUPS = [
    # horizon, magnitude blowup, a rest state, a start beyond the threshold
    ("qnu", {}, 1, [(0.5, 0.0), (0.0, 0.0), (-1.2, 0.0), (0.0, 1.5), (2e9, 0.0)]),
    ("qnu", {}, 1, [(0.3, 0.2), (-1.3456, -0.0892), (0.0, -2e9)]),
    ("swirl", {"horizon": 25.0}, 1, [SWIRL_BLOWUP, SWIRL_BOUNDED]),
    ("swirl_q", {}, 1, [(1.5668, 0.3407, -0.1148), (-1.2, 0.0, 0.5)]),
    ("ep", {}, 2, [(2.0, -0.5), (1.8586, 0.7072)]),
    ("ep", {}, 3, [(2.0, -0.5), (1.0, 0.5)]),
    # a start whose derivative overflows to inf below the threshold: a pole at t = 0
    ("qnu", {"blowup_magnitude": 1e300}, 1, [(1e200, 0.0), (0.5, 0.0)]),
    # the threshold out of reach: accepted steps shrink below min_step
    ("qnu", {"blowup_magnitude": 1e200, "min_step": 1e-7}, 1, [(-1.2, 0.0), (0.0, 1.5)]),
    # rejected steps reach min_step below the threshold: a pole all the same
    (
        "swirl_q",
        {"blowup_magnitude": 5e220, "min_step": 0.005565743920242077},
        1,
        [(-0.79487173966535, 1.9668549809015374, 0.5155376672414507)],
    ),
]

def _config(overrides):
    return IntegratorConfig(horizon=20.0).replace(**overrides)


def _scalar(system, state, n, cfg):
    traj = integrate(system, state, 1.0, n=n, config=cfg, record=False)
    return traj.termination.kind, traj.termination.t_est, traj.final_time, traj.final_state


def _path(kind, t_est, final_state, cfg):
    if kind != "blowup_detected":
        return kind
    if t_est == 0.0:
        return "blowup_at_start"
    if np.max(np.abs(final_state)) > cfg.blowup_magnitude:
        return "blowup_magnitude"
    return "blowup_controller"


def test_batch_matches_scalar_kernel(monkeypatch):
    paths = set()
    systems = set()
    for system, overrides, n, states in GROUPS:
        cfg = _config(overrides)
        with monkeypatch.context() as patch:
            patch.setattr(batch, "_HANDOFF", 1)
            result = integrate_batch(system, states, 1.0, n=n, config=cfg)
        for lane, state in enumerate(states):
            kind, t_est, t_end, y_end = _scalar(system, state, n, cfg)
            label = (system, state)
            assert result.kinds[lane] == kind, label
            if kind == "blowup_detected":
                assert result.t_est[lane] == t_est, label
            else:
                assert math.isnan(result.t_est[lane]), label
            assert result.final_time[lane] == t_end, label
            assert np.array_equal(result.final_state[lane], y_end), label
            paths.add(_path(kind, t_est, y_end, cfg))
        systems.add(system)
    assert systems == set(SYSTEMS)
    assert paths == {
        "horizon_reached",
        "step_underflow",
        "blowup_at_start",
        "blowup_magnitude",
        "blowup_controller",
    }


def test_stage_finiteness_is_read_lane_by_lane_where_the_error_is_not_finite(monkeypatch):
    # The middle lane's stages overflow near its pole while the bounded
    # lanes step on: the stage block is tested lane by lane in those
    # attempts, and every lane still ends where the scalar stepper ends it.
    monkeypatch.setattr(batch, "_HANDOFF", 1)
    stages_finite = batch._stages_finite
    seen = []

    def recorded(stages):
        finite = stages_finite(stages)
        seen.append(finite.tolist())
        return finite

    monkeypatch.setattr(batch, "_stages_finite", recorded)
    cfg = IntegratorConfig(horizon=100.0, blowup_magnitude=1e300, min_step=1e-170)
    states = [(0.5, 0.0), (-1e140, 0.0), (0.3, 0.1)]
    result = integrate_batch("qnu", states, 1.0, config=cfg)
    assert [True, False, True] in seen
    assert result.kinds == ("horizon_reached", "blowup_detected", "horizon_reached")
    for lane, state in enumerate(states):
        kind, t_est, t_end, y_end = _scalar("qnu", state, 1, cfg)
        assert result.kinds[lane] == kind
        assert np.array_equal(result.t_est[lane], np.nan if t_est is None else t_est, equal_nan=True)
        assert result.final_time[lane] == t_end
        assert np.array_equal(result.final_state[lane], y_end)


def _lanes():
    rng = np.random.default_rng(7)
    states = [SWIRL_BLOWUP, SWIRL_BOUNDED]
    for _ in range(6):
        states.append(
            (rng.uniform(-0.9, 0.9), 0.01, 0.005, -0.01, 0.0, rng.uniform(0.05, 0.65))
        )
    return states


def _assert_same_lanes(got, want, lanes):
    assert tuple(got.kinds[i] for i in lanes) == want.kinds
    np.testing.assert_array_equal(got.t_est[lanes], want.t_est)
    np.testing.assert_array_equal(got.final_time[lanes], want.final_time)
    np.testing.assert_array_equal(got.final_state[lanes], want.final_state)


def test_lanes_are_independent(monkeypatch):
    monkeypatch.setattr(batch, "_HANDOFF", 1)
    states = _lanes()
    cfg = IntegratorConfig(horizon=20.0)
    full = integrate_batch("swirl", states, 1.0, config=cfg)
    assert {"horizon_reached", "blowup_detected"} <= set(full.kinds)
    for i, state in enumerate(states):
        alone = integrate_batch("swirl", [state], 1.0, config=cfg)
        _assert_same_lanes(full, alone, [i])
    order = np.random.default_rng(11).permutation(len(states))
    permuted = integrate_batch("swirl", [states[i] for i in order], 1.0, config=cfg)
    _assert_same_lanes(permuted, full, np.argsort(order))


def _bits(result):
    return (
        result.kinds,
        result.t_est.tobytes(),
        result.final_time.tobytes(),
        result.final_state.tobytes(),
    )


def _records(runs):
    return [(run.times.tobytes(), run.states.tobytes(), run.termination) for run in runs]


def test_handoff_point_changes_no_bit(monkeypatch):
    # Batched to the end (hand-off at 1 lane), scalar from t = 0 (one
    # more lane than the batch has) and every hand-off in between.  The
    # driver's record of each lane (its start and end) is also the one
    # integrate keeps for that state alone.
    runs = [(system, states, n, _config(overrides)) for system, overrides, n, states in GROUPS]
    runs.append(("swirl", _lanes(), 1, IntegratorConfig(horizon=20.0)))
    alone = [
        _records(integrate(system, s, 1.0, n=n, config=cfg, record=False) for s in states)
        for system, states, n, cfg in runs
    ]

    moved, driven = [], []
    lane_state, run = batch._Stepper.lane_state, batch._run

    def handed(self, j):
        state = lane_state(self, j)
        moved.append(state[0] > 0.0)
        return state

    def kept(*args, **kwargs):
        driven[:] = run(*args, **kwargs)
        return driven

    monkeypatch.setattr(batch._Stepper, "lane_state", handed)
    monkeypatch.setattr(batch, "_run", kept)
    for (system, states, n, cfg), want in zip(runs, alone):
        results = []
        for handoff in range(1, len(states) + 2):
            monkeypatch.setattr(batch, "_HANDOFF", handoff)
            results.append(_bits(integrate_batch(system, states, 1.0, n=n, config=cfg)))
            assert _records(driven) == want, (system, states, handoff)
        assert results == [results[0]] * len(results), (system, states)
    # Some lanes were handed over part-way, not only at t = 0.
    assert any(moved) and not all(moved)


def test_empty_batch():
    result = integrate_batch("qnu", [], 1.0)
    assert result.kinds == ()
    assert result.final_state.shape == (0, 2)


def test_batch_validates_like_integrate():
    with pytest.raises(DomainError, match="unknown system"):
        integrate_batch("nope", [(0.0, 0.0)], 1.0)
    with pytest.raises(DomainError, match="dimension"):
        integrate_batch("qnu", [(0.0, 0.0), (0.0, 0.0, 0.0)], 1.0)
    with pytest.raises(DomainError, match="finite"):
        integrate_batch("qnu", [(np.inf, 0.0)], 1.0)
    with pytest.raises(DomainError, match="kappa"):
        integrate_batch("qnu", [(0.0, 0.0)], -1.0)
    with pytest.raises(ConfigError, match="IntegratorConfig"):
        integrate_batch("qnu", [(0.0, 0.0)], 1.0, config="fast")


def _term_by_term(weights, stages):
    # sum_i weights[i] * stages[i] formed one term at a time, in index
    # order from 0.0 as the scalar stepper forms it; each product is the
    # left operand, which decides only which nan's payload survives.
    total = np.zeros(stages.shape[1:])
    for weight, stage in zip(weights, stages):
        total = weight * stage + total
    return total


def _dense_weights(theta):
    return [
        w - theta * (b[0] + theta * (b[1] + theta * (b[2] + theta * b[3])))
        for w, b in zip(_A[6] + (0.0,), _DENSE)
    ]


@pytest.mark.parametrize("shape", [(7, 2, 1), (7, 6, 144), (7, 114688, 1), (7, 3, 4096)])
def test_stage_contraction_keeps_the_sum_order(shape):
    # A reassociated or fused multiply-add sum moves bits here.
    rng = np.random.default_rng(22)
    block = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.2e-310, 1.7e308, -1.7e308]
    mixed = rng.random(shape) < 0.2
    block[mixed] = rng.choice(specials, mixed.sum())
    block[:, 0] = -0.0  # a sum of zeros only: +0.0, since it starts from 0.0
    weights = batch._A_ROWS[1:] + [batch._E_ROW, _dense_weights(0.3)]
    with np.errstate(all="ignore"):
        for stages in (block, block[::-1]):
            for w in weights:
                got = batch._sum(w, stages[: len(w)])
                assert got.tobytes() == _term_by_term(w, stages[: len(w)]).tobytes(), (len(w), stages.strides)


def test_first_same_as_last_reverses_the_block(monkeypatch):
    # Lanes accepting together, then apart, as in the stepper pins.  A
    # lane that does not accept keeps its first stage, one that does
    # takes f at its new state, and dense() reads the stages of an
    # accepted step in stage order.
    monkeypatch.setattr(batch, "_HANDOFF", 1)
    calls, rhs, attempt = [], batch._rhs, batch._Stepper.attempt

    def recording_rhs(*args, **kwargs):
        f = rhs(*args, **kwargs)

        def recorded(y, out):
            f(y, out)
            calls.append(out.copy())

        return recorded

    counts = {"some": 0, "every": 0}

    def checked(self):
        first = self.k[0].copy()
        del calls[:]
        step = attempt(self)
        stages = np.stack([first] + calls)
        for j in np.flatnonzero(~step.accepted):
            assert np.array(self.lane_state(j)[2]).tobytes() == first[:, j].tobytes()
        at_new = np.empty_like(self.y)
        self.f(self.y, at_new)
        assert at_new[:, step.accepted].tobytes() == self.k[0][:, step.accepted].tobytes()
        if step.accepted.all():
            counts["every"] += 1
            for theta in (0.3, 0.5):
                total = _term_by_term(_dense_weights(theta), stages) * step.h
                assert self.dense(theta, step.h).tobytes() == (self.y - total).tobytes()
        elif step.accepted.any():
            counts["some"] += 1
        return step

    monkeypatch.setattr(batch, "_rhs", recording_rhs)
    monkeypatch.setattr(batch._Stepper, "attempt", checked)
    states = [(0.5 + 1e-3 * i, 0.01 * i) for i in range(8)] + [(-1.2, 0.0)]
    res = integrate_batch("qnu", states, 1.0, config=IntegratorConfig(horizon=30.0))
    assert res.kinds == ("horizon_reached",) * 8 + ("blowup_detected",)
    assert counts["every"] >= 50 and counts["some"] >= 10, counts
