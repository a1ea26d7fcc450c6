"""Executable acceptance criteria.

Each criterion exercises one cross-representation claim at desk scale
and reports a scalar against a budget: either a raw worst-case error
against its tolerance, or (where a criterion carries several
tolerances) the worst error normalized by its own tolerance, with
budget 1.  Raw sub-measurements always land in the details dict.

The registry is shared by `emaflow validate` and the test suite, so
passing criteria here and passing acceptance tests are the same event.
"""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .config import RunConfig, SweepAxis
from .errors import ConfigError, WorkerError
from .flow import conserved_energy, energy_nodes, flow_radius, pushforward_density
from .lagrange import advance_ensemble, ensemble_drift, ensemble_energies
from .profiles import ProfilePreset
from .spectral import IntegratorConfig, integrate, integrate_batch
from .spectral.monitors import monitor_ellipse, monitor_swirl_invariants
from .threshold import (
    blowup_time_closed_form,
    classify_point,
    classify_profile,
    default_classification_grid,
    sharpness_bisect,
)

__all__ = ["CriterionResult", "available_criteria", "resolve_suites", "run_criteria"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    description: str
    passed: bool
    measured: float
    budget: float
    elapsed_s: float
    details: dict = field(default_factory=dict)


def _rng(seed: int, index: int) -> np.random.Generator:
    # One independent stream per criterion so reordering suites never
    # changes any sample.
    return np.random.default_rng([seed, index])


def _build(name: str, params: dict, n: int, kappa: float = 1.0):
    return ProfilePreset(name=name, params=dict(params)).build(dimension=n, kappa=kappa)


# Subcritical presets shared by the equivalence and energy criteria.
_EQUIV_CASES = (
    ("quadratic", {"a": 0.2, "c": 0.3, "d": 1.0}, 2),
    ("quadratic", {"a": -0.3, "c": 0.4, "d": 0.5}, 3),
)
_EQUIV_TIMES = (0.5, 1.0, 2.0 * math.pi)


def _crit_sharpness(seed: int):
    worst = 0.0
    details = {}
    for kappa in (1.0, 4.0):
        for h0 in (-0.5, 0.0, 0.25, 0.4):
            boundary = sharpness_bisect(h0, kappa, horizon=200.0, tol=1e-3)
            exact = math.sqrt(kappa * (1.0 - 2.0 * h0))
            err = abs(boundary - exact)
            details[f"kappa={kappa:g}, h0={h0:g}"] = err
            worst = max(worst, err)
    return worst <= 1e-3, worst, 1e-3, details


def _crit_blowup_agreement(seed: int):
    rng = _rng(seed, 2)
    config = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, horizon=8.0)
    samples = []
    draws = 0
    while len(samples) < 50 and draws < 10_000:
        draws += 1
        lam0 = rng.uniform(-3.0, 3.0)
        h0 = rng.uniform(-1.0, 1.0)
        if classify_point(lam0, h0, 1.0).regime == "supercritical":
            samples.append((lam0, h0))
    result = integrate_batch("qnu", samples, 1.0, config=config)
    accepted = len(samples)
    worst = 0.0
    worst_abs = 0.0
    n_missed = 0
    for (lam0, h0), kind, t_est in zip(samples, result.kinds, result.t_est.tolist()):
        if kind != "blowup_detected":
            n_missed += 1
            continue
        t_exact = blowup_time_closed_form(lam0, h0, 1.0)
        err = abs(t_est - t_exact)
        worst_abs = max(worst_abs, err)
        worst = max(worst, err / max(1e-3, 1e-3 * t_exact))
    details = {
        "points": accepted,
        "undetected_blowups": n_missed,
        "worst_abs_error": worst_abs,
    }
    passed = accepted == 50 and n_missed == 0 and worst <= 1.0
    return passed, worst, 1.0, details


def _crit_ellipse(seed: int):
    rng = _rng(seed, 3)
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10, horizon=50.0)
    worst = 0.0
    unbounded = 0
    for _ in range(20):
        nu0 = rng.uniform(-1.0, 0.45)
        frac = rng.uniform(-0.95, 0.95)
        q0 = frac * math.sqrt(1.0 - 2.0 * nu0)
        traj = integrate("qnu", (q0, nu0), 1.0, config=config)
        if traj.termination.kind != "horizon_reached":
            unbounded += 1
            continue
        worst = max(worst, monitor_ellipse(traj, 1.0))
    passed = unbounded == 0 and worst <= 1e-8
    return passed, worst, 1e-8, {"unbounded": unbounded}


def _crit_swirl(seed: int):
    rng = _rng(seed, 4)
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, horizon=50.0)
    worst = 0.0
    unbounded = 0
    worst_j1 = 0.0
    worst_j2 = 0.0
    for _ in range(20):
        q0 = rng.uniform(-2.0, 2.0)
        nu0 = rng.uniform(-1.0, 0.9)
        tor0 = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.1, 0.5)
        traj = integrate("swirl_q", (q0, nu0, tor0), 1.0, config=config)
        if traj.termination.kind != "horizon_reached":
            unbounded += 1
            continue
        drift = monitor_swirl_invariants(traj, 1.0)
        d1, d2 = drift["angular_moment"], drift["swirl_energy"]
        worst_j1 = max(worst_j1, d1)
        worst_j2 = max(worst_j2, d2)
        worst = max(worst, d1, d2)
    passed = unbounded == 0 and worst <= 1e-8
    details = {
        "unbounded": unbounded,
        "worst_angular_moment_drift": worst_j1,
        "worst_energy_drift": worst_j2,
    }
    return passed, worst, 1e-8, details


def _ep_excursion_bound(q0: float, nu0: float, n: int, kappa: float = 1.0) -> float:
    """A priori sup-norm bound for a Poisson-coupled (q, nu) trajectory.

    b = (1 - n nu)^(-1/n) turns the system into the conservative
    oscillator b'' = -(kappa/n)(b - b^(1-n)) with energy
    E = b'^2/2 + V(b), whose barrier at b -> 0 bounds every excursion:
    sigma_max = exp(4E/kappa) for n = 2 and (n(n-2)E/kappa)^(n/(n-2))
    for n >= 3.  The same barrier is what makes the trajectory bounded
    at all, so the bound is sharp in shape if not in constants.
    """
    sigma0 = 1.0 - n * nu0
    if sigma0 <= 0.0:
        return math.inf
    b0 = sigma0 ** (-1.0 / n)
    if n == 2:
        potential = 0.5 * kappa * (0.5 * b0 * b0 - math.log(b0))
    else:
        potential = (kappa / n) * (0.5 * b0 * b0 + b0 ** (2 - n) / (n - 2))
    energy = 0.5 * (q0 * b0) ** 2 + potential
    if n == 2:
        b_min = math.exp(-2.0 * energy / kappa)
    else:
        b_min = (kappa / (n * (n - 2) * energy)) ** (1.0 / (n - 2))
    # A barrier too deep for floating point certifies nothing.
    if b_min == 0.0:
        return math.inf
    try:
        sigma_max = b_min ** (-n)
    except OverflowError:
        return math.inf
    q_max = math.sqrt(2.0 * energy) / b_min
    return max(sigma_max / n + 1.0 / n, q_max)


def _crit_euler_poisson(seed: int):
    rng = _rng(seed, 5)
    config = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10, horizon=100.0)
    # Bounded is not the same as small: the oscillator analysis above
    # shows sup|q, nu| can reach exp(2 q0^2 / kappa) inside the sampled
    # box, beyond any fixed finite detector.  Sample the box but keep
    # only points whose excursion certificate clears the blowup
    # magnitude with two orders to spare, so a detector hit can only
    # mean a genuine pole.
    cap = 0.01 * config.blowup_magnitude
    blowups = 0
    accepted = 0
    rejected = 0
    for n in (2, 3):
        samples = []
        while len(samples) < 50 and rejected < 100_000:
            nu0 = rng.uniform(-3.0, 1.0 / n)
            q0 = rng.uniform(-5.0, 5.0)
            if _ep_excursion_bound(q0, nu0, n) > cap:
                rejected += 1
            else:
                samples.append((q0, nu0))
        accepted += len(samples)
        result = integrate_batch("ep", samples, 1.0, n=n, config=config)
        blowups += sum(kind != "horizon_reached" for kind in result.kinds)
    details = {"points": accepted, "rejected_certificates": rejected}
    return blowups == 0 and accepted == 100, float(blowups), 0.0, details


@lru_cache(maxsize=1)
def _equivalence_runs():
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    runs = []
    for name, params, n in _EQUIV_CASES:
        profile = _build(name, params, n)
        result = advance_ensemble(
            profile,
            n_chars=2048,
            t_end=_EQUIV_TIMES[-1],
            config=config,
            output_times=(0.0,) + _EQUIV_TIMES,
            grid_size=256,
        )
        runs.append((profile, result))
    return tuple(runs)


def _crit_flow_lagrange(seed: int):
    worst = 0.0
    details = {}
    for profile, result in _equivalence_runs():
        if result.termination.kind != "horizon_reached":
            return False, math.inf, 1e-4, {"termination": result.termination.kind}
        case_worst = 0.0
        for snap in result.snapshots:
            if snap.t == 0.0:
                continue
            r = snap.grid
            # Invert the monotone flow map by bisection on every grid
            # point at once; 80 halvings of [0, r_max] reach the float
            # spacing.  Points at or beyond the hull take its boundary.
            lo, hi = np.zeros_like(r), np.full_like(r, profile.r_max)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = flow_radius(profile, mid, snap.t) < r
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            top = flow_radius(profile, profile.r_max, snap.t)
            r0 = np.where(r >= top, profile.r_max, 0.5 * (lo + hi))
            rho_flow = pushforward_density(profile, np.where(r <= 0.0, 0.0, r0), snap.t)
            case_worst = max(case_worst, float(np.max(np.abs(snap.rho - rho_flow))))
        details[f"n={profile.dimension}"] = case_worst
        worst = max(worst, case_worst)
    return worst <= 1e-4, worst, 1e-4, details


def _crit_energy(seed: int):
    worst_closed = 0.0
    worst_ensemble = 0.0
    times = (0.5, 1.0, math.pi, 2.0 * math.pi)
    config = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    for name, params, n in _EQUIV_CASES:
        profile = _build(name, params, n)
        nodes, weights = energy_nodes(profile, 256)
        e_ref = conserved_energy(profile, nodes, weights, 0.0)
        scale = max(abs(e_ref), 1e-300)
        for t in times:
            e_t = conserved_energy(profile, nodes, weights, t)
            worst_closed = max(worst_closed, abs(e_t - e_ref) / scale)

        result = advance_ensemble(
            profile,
            t_end=times[-1],
            config=config,
            output_times=(0.0,) + times,
            seeds=nodes,
            grid=np.array([0.0, profile.r_max]),
        )
        if result.termination.kind != "horizon_reached":
            return False, math.inf, 1.0, {"termination": result.termination.kind}
        energies = ensemble_energies(profile, result, weights)
        e0 = energies[0]
        scale = max(abs(e0), 1e-300)
        for e_t in energies[1:]:
            worst_ensemble = max(worst_ensemble, abs(e_t - e0) / scale)
    worst = max(worst_closed / 1e-10, worst_ensemble / 1e-6)
    details = {
        "closed_form_drift": worst_closed,
        "closed_form_budget": 1e-10,
        "ensemble_drift": worst_ensemble,
        "ensemble_budget": 1e-6,
    }
    return worst <= 1.0, worst, 1.0, details


def _crit_path_invariants(seed: int):
    worst_path = 0.0
    worst_density = 0.0
    for profile, result in _equivalence_runs():
        path, density = ensemble_drift(profile, result)
        worst_path = max(worst_path, path)
        worst_density = max(worst_density, density)
    worst = max(worst_path / 1e-8, worst_density / 1e-6)
    details = {
        "path_invariant_drift": worst_path,
        "path_budget": 1e-8,
        "density_route_difference": worst_density,
        "density_budget": 1e-6,
    }
    return worst <= 1.0, worst, 1.0, details


_DIMENSION_PRESETS = (
    ("equilibrium", {}),
    ("quadratic", {"a": 0.2, "c": 0.3, "d": 1.0}),
    ("quadratic", {"a": -0.3, "c": 0.4, "d": 0.5}),
    ("quadratic", {"a": 0.0, "c": 1.0, "d": 0.0}),
    ("quadratic", {"a": 0.0, "c": -2.0, "d": 1.0}),
    ("quadratic", {"a": 0.45, "c": 0.1, "d": 1.0}),
    ("quadratic", {"a": -1.0, "c": 1.2, "d": 0.3}),
    ("quadratic", {"a": 0.3, "c": -0.9, "d": 0.2}),
    ("bump", {"a": 0.1, "b": 0.2, "c": 0.2, "d": 1.0, "rc": 2.0, "s": 1.0}),
    ("bump", {"a": -0.2, "b": -0.3, "c": -0.8, "d": 0.5, "rc": 2.5, "s": 1.5}),
)


def _crit_dimension_independence(seed: int):
    mismatches = 0
    details = {}
    for name, params in _DIMENSION_PRESETS:
        verdicts = []
        for n in (2, 3):
            profile = _build(name, params, n)
            grid = default_classification_grid(profile, 128)
            verdicts.append(classify_profile(profile, grid))
        v2, v3 = verdicts
        same = (
            v2.regime == v3.regime
            and v2.witness_r == v3.witness_r
            and v2.t_blowup == v3.t_blowup
        )
        label = name + "(" + ",".join(f"{k}={v:g}" for k, v in params.items()) + ")"
        details[label] = v2.regime if same else f"{v2.regime} != {v3.regime}"
        if not same:
            mismatches += 1
    return mismatches == 0, float(mismatches), 0.0, details


def _crit_phase_diagram(seed: int):
    from .cli import cmd_sweep

    with tempfile.TemporaryDirectory() as tmp:
        config = RunConfig(
            out=tmp,
            sweep_mode="pointwise_threshold",
            sweep_axis1=SweepAxis("lambda0", -2.0, 2.0, 41),
            sweep_axis2=SweepAxis("h0", -1.0, 0.45, 41),
        )
        with contextlib.redirect_stdout(io.StringIO()):
            cmd_sweep(config.validate())
        rows = (Path(tmp) / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]

    mismatches = 0
    for row in rows:
        cells = row.split(",")
        lam0 = float(cells[0])
        h0 = float(cells[1])
        analytic = "subcritical" if lam0 * lam0 < 1.0 - 2.0 * h0 else "supercritical"
        if cells[2] != analytic:
            mismatches += 1

    details = {"nodes": len(rows), "node_mismatches": mismatches}
    passed = mismatches == 0 and len(rows) == 41 * 41
    return passed, float(mismatches), 0.0, details


_REGISTRY = (
    (
        "threshold_sharpness",
        "bisected stability boundary matches sqrt(kappa(1-2 h0)) to 1e-3",
        _crit_sharpness,
    ),
    (
        "blowup_time_agreement",
        "integrator pole estimate matches the closed-form blowup time on 50 "
        "supercritical samples",
        _crit_blowup_agreement,
    ),
    (
        "ellipse_invariant",
        "w^2 + kappa(1-v)^2 drifts below 1e-8 on 20 subcritical trajectories "
        "to horizon 50",
        _crit_ellipse,
    ),
    (
        "swirl_invariants",
        "rotational invariants conserved to 1e-8 and the (q, nu, theta/r) "
        "branch stays bounded",
        _crit_swirl,
    ),
    (
        "euler_poisson_boundedness",
        "no blowups for nu0 < 1/n at n = 2, 3 over 100 samples, horizon 100",
        _crit_euler_poisson,
    ),
    (
        "flow_lagrange_equivalence",
        "ensemble density snapshots match the closed-form pushforward to 1e-4",
        _crit_flow_lagrange,
    ),
    (
        "energy_conservation",
        "oscillator energy constant to 1e-10 (closed form) and 1e-6 (ensemble)",
        _crit_energy,
    ),
    (
        "path_invariants",
        "r(1-nu) constant to 1e-8; spectral vs continuity density to 1e-6",
        _crit_path_invariants,
    ),
    (
        "dimension_independence",
        "classification verdicts identical for n = 2 and n = 3 on 10 presets",
        _crit_dimension_independence,
    ),
    (
        "phase_diagram_golden",
        "41x41 pointwise sweep reproduces the analytic region",
        _crit_phase_diagram,
    ),
)


def available_criteria() -> tuple[str, ...]:
    return tuple(name for name, _, _ in _REGISTRY)


def resolve_suites(selection) -> list[str]:
    """Expand a suite selection ('all' or criterion names) into an
    ordered, deduplicated list of criterion names."""
    names = available_criteria()
    if not selection:
        raise ConfigError("empty suite selection: nothing to validate")
    chosen: set[str] = set()
    for item in selection:
        if item == "all":
            chosen.update(names)
        elif item in names:
            chosen.add(item)
        else:
            raise ConfigError(
                f"unknown validation suite {item!r}; "
                f"available: all, {', '.join(names)}"
            )
    return [name for name in names if name in chosen]


# Both read _equivalence_runs(), so they run as one unit and its two
# ensembles are built once.
_SHARED_ENSEMBLES = ("flow_lagrange_equivalence", "path_invariants")


def _units(names) -> list[tuple[str, ...]]:
    """Split names into independent units: one criterion each, except
    that the criteria in _SHARED_ENSEMBLES join the first of them."""
    shared = tuple(name for name in names if name in _SHARED_ENSEMBLES)
    units = []
    for name in names:
        if name not in _SHARED_ENSEMBLES:
            units.append((name,))
        elif name == shared[0]:
            units.append(shared)
    return units


def _run_unit(unit, seed: int) -> list[CriterionResult]:
    """Run and time the criteria of one unit, in this process."""
    lookup = {name: (desc, func) for name, desc, func in _REGISTRY}
    results = []
    for name in unit:
        desc, func = lookup[name]
        start = time.perf_counter()
        passed, measured, budget, details = func(seed)
        results.append(
            CriterionResult(
                name=name,
                description=desc,
                passed=bool(passed),
                measured=float(measured),
                budget=float(budget),
                elapsed_s=time.perf_counter() - start,
                details=details,
            )
        )
    return results


def _run_pool(units, seed: int, workers: int) -> list[list[CriterionResult]]:
    # Forked workers inherit the imported package and its caches, where
    # spawned ones would import everything again (about 0.2 s each).
    # emaflow starts no threads; the only other one, OpenBLAS's pool,
    # handles a fork itself.  The initializer gives the workers the
    # caller's NumPy error state.
    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=partial(np.seterr, **np.geterr()),
    )
    try:
        futures = [pool.submit(_run_unit, unit, seed) for unit in units]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise WorkerError(f"a validation worker process died: {exc}") from None
    finally:
        # Units not yet started are dropped; running ones finish, so no
        # worker outlives the call.
        pool.shutdown(cancel_futures=True)


def run_criteria(names, seed: int = 0, workers: int = 1) -> list[CriterionResult]:
    """Run the named criteria and return their results in names order.

    The criteria are independent (each draws from its own stream), so
    with workers > 1 they run in a pool of forked worker processes, one
    unit of work per task and never more workers than units.  With one
    worker they run one after another in this process and nothing is
    forked.  The results are the same either way apart from elapsed_s,
    each criterion's own wall time in the process that ran it: with a
    pool the values overlap and no longer add up to the caller's time.
    An error raised by a criterion reaches the caller with its own type
    and message; a worker that dies raises WorkerError.
    """
    units = _units(names)
    workers = min(workers, len(units))
    if workers > 1:
        done = _run_pool(units, seed, workers)
    else:
        done = [_run_unit(unit, seed) for unit in units]
    by_name = {res.name: res for results in done for res in results}
    return [by_name[name] for name in names]
