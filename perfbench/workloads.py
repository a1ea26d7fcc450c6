"""The four workloads: inputs made from the seed, operations, oracles.

Each workload is one batch of `emaflow` CLI commands, run back to back
from one client (a closed loop).  The seed only generates inputs: fixed
sweep fields, profile parameters and the `--seed` flag.  Parameter
ranges are narrow on purpose, so that the work per batch barely depends
on the seed and every operation succeeds.

An operation is a sweep cell, a snapshot, a criterion or a command.
For each workload:

- ops(outdirs) maps operation ids to a fingerprint of their output, for
  the determinism check between batches;
- check(outdirs) runs the correctness oracles on one batch and returns
  {operation id: reason} for each failed operation.

The oracles import emaflow from the source tree and run after the timed
region.
"""

import json
import math
import random

HORIZON = 50.0
TWO_PI = 2.0 * math.pi


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


class Command:
    def __init__(self, args, outputs):
        self.args = list(args)
        self.outputs = tuple(outputs)


def _sets(pairs):
    args = []
    for key, value in pairs:
        args += ["--set", f"{key}={value}"]
    return args


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class SigmaSweep:
    """`emaflow sweep` in swirl_sigma mode over the (p0, theta_over_r0)
    plane at horizon 50: independent scalar trajectories, bounded cells
    mixed with blowup cells."""

    name = "sigma_sweep"
    probes = 2
    header = "p0,theta_over_r0,regime,t_blowup"

    def __init__(self, seed, toy=False):
        rng = _rng(self.name, seed)
        self.seed = seed
        self.count = 3 if toy else 12
        self.threads = 2
        # The bounded share, and so the work, moves quickly with the fixed
        # fields; keep them close to zero.
        self.fixed = {k: rng.uniform(-0.02, 0.02) for k in ("q0", "mu0", "nu0", "theta_r0")}
        self.axis1 = ("p0", -0.9 + rng.uniform(-0.01, 0.01), 0.9 + rng.uniform(-0.01, 0.01))
        self.axis2 = ("theta_over_r0", 0.05 + rng.uniform(0.0, 0.01), 0.65 + rng.uniform(-0.01, 0.01))
        self.sample = rng.sample(range(self.count * self.count), 2 if toy else 6)

    def command_args(self, threads):
        axes = [
            (f"sweep.axis{i}", f"{name}, {lo!r}, {hi!r}, {self.count}")
            for i, (name, lo, hi) in ((1, self.axis1), (2, self.axis2))
        ]
        fixed = [(f"sweep.{k}", repr(v)) for k, v in self.fixed.items()]
        return (
            ["sweep"]
            + _sets([("sweep.mode", "swirl_sigma"), ("sweep.horizon", repr(HORIZON))] + axes + fixed)
            + ["--threads", str(threads), "--seed", str(self.seed)]
        )

    @property
    def commands(self):
        return [Command(self.command_args(self.threads), ["sweep.csv"])]

    @property
    def traced_commands(self):
        # One thread, so spans nest; comparing its sweep.csv with the
        # untraced batch checks the CLI's --threads invariance.
        return [Command(self.command_args(1), ["sweep.csv"])]

    def op_ids(self):
        return [f"cell{i}" for i in range(self.count * self.count)]

    def ops(self, outdirs):
        lines = _read(f"{outdirs[0]}/sweep.csv").splitlines()
        return {f"cell{i}": line for i, line in enumerate(lines[1:])}

    def check(self, outdirs):
        import numpy as np
        from emaflow.spectral import IntegratorConfig, SwirlState
        from emaflow.threshold import sigma_membership

        lines = _read(f"{outdirs[0]}/sweep.csv").splitlines()
        ids = self.op_ids()
        if not lines or lines[0] != self.header:
            return {i: "wrong sweep.csv header" for i in ids}
        rows = [line.split(",") for line in lines[1:]]
        failed = {i: "missing row" for i in ids[len(rows):]}
        grid = [
            (float(v1), float(v2))
            for v1 in np.linspace(self.axis1[1], self.axis1[2], self.count)
            for v2 in np.linspace(self.axis2[1], self.axis2[2], self.count)
        ]
        for i, row in enumerate(rows[: len(ids)]):
            if len(row) != 4 or row[:2] != [repr(grid[i][0]), repr(grid[i][1])]:
                failed[ids[i]] = f"malformed row {row!r}"
            elif row[2] == "supercritical":
                if not row[3] or not 0.0 < float(row[3]) <= HORIZON:
                    failed[ids[i]] = f"supercritical without t_blowup in (0, horizon]: {row!r}"
            elif row[2] != "subcritical" or row[3]:
                failed[ids[i]] = f"bad regime or t_blowup for a bounded cell: {row!r}"
        tight = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        for i in self.sample:
            if ids[i] in failed or i >= len(rows):
                continue
            state = dict(self.fixed, p0=grid[i][0], theta_over_r0=grid[i][1])
            ref = sigma_membership(
                SwirlState(
                    p=state["p0"], q=state["q0"], mu=state["mu0"], nu=state["nu0"],
                    theta_r=state["theta_r0"], theta_over_r=state["theta_over_r0"],
                ),
                1.0,
                horizon=HORIZON,
                config=tight,
            )
            regime, t_blowup = rows[i][2], rows[i][3]
            if regime != ref.regime:
                failed[ids[i]] = f"regime {regime} but {ref.regime} at tighter tolerance"
            elif ref.t_blowup is not None and not _close(float(t_blowup), ref.t_blowup, 1e-6):
                failed[ids[i]] = f"t_blowup {t_blowup} but {ref.t_blowup!r} at tighter tolerance"
        return failed


class EnsembleSnapshots:
    """`emaflow simulate` of a subcritical quadratic profile: ~16k
    characteristics to t = 2 pi at rel_tol 1e-10, 65 snapshots on a
    1024-point grid.  The scalar spectral kernel is not called."""

    name = "ensemble_snapshots"
    probes = 2
    header = "t,r,rho,u,p,q,mu,nu"
    density_budget = 1e-4  # flow_lagrange_equivalence
    path_budget = 1e-8  # path_invariants
    density_route_budget = 1e-6  # path_invariants

    def __init__(self, seed, toy=False):
        rng = _rng(self.name, seed)
        self.seed = seed
        self.n_chars = 2048 if toy else 16384
        self.grid_size = 64 if toy else 1024
        self.n_snapshots = 5 if toy else 65
        a = rng.uniform(0.1, 0.3)
        # c^2 / (1 - 2a) is the threshold ratio at r = 0, the worst radius.
        c = math.sqrt(rng.uniform(0.4, 0.6) * (1.0 - 2.0 * a)) * rng.choice((-1.0, 1.0))
        self.params = {"a": a, "c": c, "d": rng.uniform(0.8, 1.2)}

    @property
    def commands(self):
        pairs = [("profile.preset", "quadratic")]
        pairs += [(f"profile.{k}", repr(v)) for k, v in self.params.items()]
        pairs += [
            ("simulate.t_end", repr(TWO_PI)),
            ("simulate.n_chars", self.n_chars),
            ("simulate.grid_size", self.grid_size),
            ("simulate.n_snapshots", self.n_snapshots),
            ("integrator.rel_tol", "1e-10"),
        ]
        args = ["simulate"] + _sets(pairs) + ["--seed", str(self.seed)]
        return [Command(args, ["snapshots.csv", "diagnostics.json"])]

    def op_ids(self):
        return [f"snapshot{k}" for k in range(self.n_snapshots)] + ["diagnostics"]

    def ops(self, outdirs):
        blocks = {}
        for line in _read(f"{outdirs[0]}/snapshots.csv").splitlines()[1:]:
            blocks.setdefault(line.split(",", 1)[0], []).append(line)
        out = {f"snapshot{k}": "\n".join(rows) for k, rows in enumerate(blocks.values())}
        out["diagnostics"] = _read(f"{outdirs[0]}/diagnostics.json")
        return out

    def check(self, outdirs):
        import numpy as np
        from emaflow.flow import flow_radius, pushforward_density
        from emaflow.profiles import ProfilePreset

        failed = {}
        diag = json.loads(_read(f"{outdirs[0]}/diagnostics.json"))
        if diag["termination"] != "horizon_reached":
            failed["diagnostics"] = f"termination {diag['termination']}"
        elif diag["path_invariant_drift"] > self.path_budget:
            failed["diagnostics"] = f"path drift {diag['path_invariant_drift']!r}"
        elif diag["density_consistency_drift"] > self.density_route_budget:
            failed["diagnostics"] = f"density drift {diag['density_consistency_drift']!r}"

        lines = _read(f"{outdirs[0]}/snapshots.csv").splitlines()
        ids = self.op_ids()[:-1]
        if not lines or lines[0] != self.header:
            return dict(failed, **{i: "wrong snapshots.csv header" for i in ids})
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        profile = ProfilePreset("quadratic", dict(self.params)).build(dimension=2, kappa=1.0)
        times = np.linspace(0.0, TWO_PI, self.n_snapshots)
        for k, t in enumerate(times):
            block = data[k * self.grid_size:(k + 1) * self.grid_size]
            if block.shape[0] != self.grid_size or np.any(block[:, 0] != t):
                failed[ids[k]] = "snapshot missing or at the wrong time"
                continue
            r = block[:, 1]
            # Invert the monotone flow map by bisection on all grid points
            # at once; points beyond the image of r_max take its boundary
            # value, as the snapshots do.
            lo, hi = np.zeros_like(r), np.full_like(r, profile.r_max)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = flow_radius(profile, mid, t) < r
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            r0 = np.where(r >= flow_radius(profile, profile.r_max, t), profile.r_max, 0.5 * (lo + hi))
            rho = pushforward_density(profile, np.where(r <= 0.0, 0.0, r0), t)
            err = np.max(np.abs(block[:, 2] - rho))
            if not err <= self.density_budget:
                failed[ids[k]] = f"density differs from the pushforward by {err!r}"
        return failed


class ValidateBattery:
    """`emaflow validate` with eight of the ten criteria: short sequential
    integrate loops (pole times, ellipse and swirl invariants), flow
    root-finding, two ensembles, the classification and phase-diagram
    checks.

    threshold_sharpness (about 20 s) and euler_poisson_boundedness
    (about 10 s) are left out.  With them a batch is one ~35 s command,
    and on a machine whose speed wanders by 15-25% over tens of seconds
    a single sample per run spread by up to 28% between runs; without
    them a run holds several batches and reports their median.
    """

    name = "validate_battery"
    probes = 2
    criteria = (
        "blowup_time_agreement",
        "ellipse_invariant",
        "swirl_invariants",
        "flow_lagrange_equivalence",
        "energy_conservation",
        "path_invariants",
        "dimension_independence",
        "phase_diagram_golden",
    )

    def __init__(self, seed, toy=False):
        self.seed = seed
        if toy:
            self.criteria = ("dimension_independence", "phase_diagram_golden")

    @property
    def commands(self):
        args = ["validate"] + _sets([("validate.suites", ",".join(self.criteria))])
        return [Command(args + ["--seed", str(self.seed)], ["report.json"])]

    def op_ids(self):
        return list(self.criteria)

    def ops(self, outdirs):
        report = json.loads(_read(f"{outdirs[0]}/report.json"))
        out = {}
        for entry in report["criteria"]:
            entry = {k: v for k, v in entry.items() if k != "elapsed_s"}
            out[entry["name"]] = json.dumps(entry, sort_keys=True)
        return out

    def check(self, outdirs):
        report = json.loads(_read(f"{outdirs[0]}/report.json"))
        seen = {entry["name"]: entry for entry in report["criteria"]}
        failed = {}
        for name in self.op_ids():
            entry = seen.get(name)
            if entry is None:
                failed[name] = "criterion missing from report.json"
            elif entry["passed"] is not True:
                failed[name] = f"measured {entry['measured']!r} over budget {entry['budget']!r}"
        return failed

    @staticmethod
    def elapsed(outdir):
        report = json.loads(_read(f"{outdir}/report.json"))
        return {entry["name"]: entry["elapsed_s"] for entry in report["criteria"]}


class ClassifyCold:
    """A sequence of cold `emaflow classify` commands on seeded quadratic
    profiles, alternating subcritical and supercritical by design."""

    name = "classify_cold"
    probes = 0

    def __init__(self, seed, toy=False):
        rng = _rng(self.name, seed)
        self.seed = seed
        self.grid_size = 64 if toy else 512
        self.cases = []
        for i in range(3 if toy else 20):
            kappa = rng.uniform(0.5, 2.0)
            a = rng.uniform(-0.4, 0.3)
            # Subcritical iff c^2 < kappa (1 - 2a); stay well clear of it.
            ratio = rng.uniform(0.3, 0.7) if i % 2 == 0 else rng.uniform(1.3, 2.0)
            c = math.sqrt(ratio * kappa * (1.0 - 2.0 * a)) * rng.choice((-1.0, 1.0))
            params = {"a": a, "c": c, "d": rng.uniform(0.5, 1.5)}
            self.cases.append((rng.choice((2, 3)), kappa, params, ratio < 1.0))

    @property
    def commands(self):
        out = []
        for n, kappa, params, _ in self.cases:
            pairs = [("run.n", n), ("run.kappa", repr(kappa)), ("profile.preset", "quadratic")]
            pairs += [(f"profile.{k}", repr(v)) for k, v in params.items()]
            pairs += [("classify.grid_size", self.grid_size)]
            out.append(Command(["classify"] + _sets(pairs) + ["--seed", str(self.seed)], ["verdict.json"]))
        return out

    def op_ids(self):
        return [f"command{i}" for i in range(len(self.cases))]

    def ops(self, outdirs):
        out = {}
        for op, outdir in zip(self.op_ids(), outdirs):
            try:
                out[op] = _read(f"{outdir}/verdict.json")
            except OSError:
                pass
        return out

    def check(self, outdirs):
        import numpy as np
        from emaflow.profiles import ProfilePreset
        from emaflow.threshold import (
            TOL_BOUNDARY,
            blowup_time_closed_form,
            default_classification_grid,
            threshold_margin,
        )

        failed = {}
        for op, outdir, (n, kappa, params, designed_sub) in zip(self.op_ids(), outdirs, self.cases):
            verdict = json.loads(_read(f"{outdir}/verdict.json"))
            profile = ProfilePreset("quadratic", dict(params)).build(dimension=n, kappa=kappa)
            grid = default_classification_grid(profile, self.grid_size)
            branches = {
                "gradient_branch": (profile.du0, profile.d2phi0),
                "ratio_branch": (profile.q0, profile.nu0),
            }
            margins = {}
            t_min = None
            points = []
            for name, (lam_f, h_f) in branches.items():
                lam = np.concatenate(([float(lam_f(0.0))], np.asarray(lam_f(grid), dtype=float)))
                h = np.concatenate(([float(h_f(0.0))], np.asarray(h_f(grid), dtype=float)))
                m = [threshold_margin(float(x), float(y), kappa) for x, y in zip(lam, h)]
                margins[name] = min(m)
                points += zip(lam, h, m)
            band = TOL_BOUNDARY * max(1.0, kappa)
            for lam0, h0, m in points:
                if m < -band:
                    t = blowup_time_closed_form(float(lam0), float(h0), kappa)
                    t_min = t if t_min is None else min(t_min, t)
            expected = "supercritical" if t_min is not None else "subcritical"
            designed = "subcritical" if designed_sub else "supercritical"
            if verdict["class"] != expected or expected != designed:
                failed[op] = f"class {verdict['class']}, margins say {expected}, designed {designed}"
            elif (verdict["t_blowup"] is None) != (t_min is None) or (
                t_min is not None and not _close(verdict["t_blowup"], t_min, 1e-12)
            ):
                failed[op] = f"t_blowup {verdict['t_blowup']!r}, closed form {t_min!r}"
            elif any(not _close(verdict["margins"][k], v, 1e-12) for k, v in margins.items()):
                failed[op] = f"margins {verdict['margins']!r}, recomputed {margins!r}"
        return failed


WORKLOADS = {w.name: w for w in (SigmaSweep, EnsembleSnapshots, ValidateBattery, ClassifyCold)}
