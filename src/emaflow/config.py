"""Run configuration.

One INI-style file drives every subcommand; --set SECTION.KEY=VALUE
overrides individual entries with the same parsing rules, so a run is
reproducible from the file plus the recorded overrides.  Grammar:

    [run]                      n, kappa, seed, threads, out
    [profile]                  preset + free numeric preset parameters
                               (r_max, a, b, c, d, rc, s, ...)
    [integrator]               rel_tol, abs_tol, max_step, min_step,
                               blowup_magnitude, horizon
    [simulate]                 t_end, n_chars, grid_size, n_snapshots
    [classify]                 grid_size
    [sweep]                    mode, axis1, axis2, horizon,
                               p0, q0, mu0, nu0, theta_r0, theta_over_r0
    [validate]                 suites (comma-separated, or 'all')

Axes use "name, lo, hi, count", e.g.  axis1 = lambda0, -2, 2, 41.
Unknown sections or keys are rejected rather than ignored.

run.threads (or --threads) caps the worker processes that `validate`
runs its criteria in; unset, it is every CPU the process may run on.
It changes no output.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .profiles import ProfilePreset, RadialProfile
from .spectral import IntegratorConfig

__all__ = ["SweepAxis", "RunConfig", "load_run_config"]

SWEEP_MODES = ("pointwise_threshold", "swirl_sigma")
SWIRL_FIELDS = ("p0", "q0", "mu0", "nu0", "theta_r0", "theta_over_r0")
POINTWISE_FIELDS = ("lambda0", "h0")


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    count: int


@dataclass
class RunConfig:
    n: int = 2
    kappa: float = 1.0
    seed: int = 0
    threads: int | None = None
    out: str = "out"
    preset: str = "equilibrium"
    profile_params: dict = field(default_factory=dict)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    t_end: float = 1.0
    n_chars: int = 1024
    grid_size: int = 256
    n_snapshots: int = 9
    classify_grid_size: int = 512
    sweep_mode: str = "pointwise_threshold"
    sweep_axis1: SweepAxis = field(
        default_factory=lambda: SweepAxis("lambda0", -2.0, 2.0, 41)
    )
    sweep_axis2: SweepAxis = field(
        default_factory=lambda: SweepAxis("h0", -1.0, 0.45, 41)
    )
    sweep_fixed: dict = field(default_factory=dict)
    sweep_horizon: float | None = None
    validate_suites: tuple = ("all",)

    def validate(self):
        if self.n < 1 or self.n != int(self.n):
            raise ConfigError(f"run.n must be a positive integer, got {self.n!r}")
        if not self.kappa > 0:
            raise ConfigError(f"run.kappa must be positive, got {self.kappa!r}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"run.threads must be >= 1, got {self.threads!r}")
        if self.t_end <= 0:
            raise ConfigError(f"simulate.t_end must be positive, got {self.t_end!r}")
        if self.n_chars < 2:
            raise ConfigError(f"simulate.n_chars must be >= 2, got {self.n_chars!r}")
        if self.grid_size < 2:
            raise ConfigError(f"simulate.grid_size must be >= 2, got {self.grid_size!r}")
        if self.n_snapshots < 2:
            raise ConfigError(
                f"simulate.n_snapshots must be >= 2, got {self.n_snapshots!r}"
            )
        if self.classify_grid_size < 1:
            raise ConfigError(
                f"classify.grid_size must be >= 1, got {self.classify_grid_size!r}"
            )
        if self.sweep_mode not in SWEEP_MODES:
            raise ConfigError(
                f"sweep.mode must be one of {SWEEP_MODES}, got {self.sweep_mode!r}"
            )
        for axis in (self.sweep_axis1, self.sweep_axis2):
            if axis.count < 1:
                raise ConfigError(f"axis {axis.name!r} count must be >= 1")
            if axis.count > 1 and not axis.hi > axis.lo:
                raise ConfigError(
                    f"axis {axis.name!r} needs hi > lo for count > 1, "
                    f"got [{axis.lo!r}, {axis.hi!r}]"
                )
        if self.sweep_axis1.name == self.sweep_axis2.name:
            raise ConfigError("sweep axes must name two distinct parameters")
        if self.sweep_horizon is not None and not self.sweep_horizon > 0:
            raise ConfigError(
                f"sweep.horizon must be positive, got {self.sweep_horizon!r}"
            )
        allowed = POINTWISE_FIELDS if self.sweep_mode == "pointwise_threshold" else SWIRL_FIELDS
        for axis in (self.sweep_axis1, self.sweep_axis2):
            if axis.name not in allowed:
                raise ConfigError(
                    f"axis {axis.name!r} not valid for mode {self.sweep_mode!r}; "
                    f"allowed: {allowed}"
                )
        return self

    def build_profile(self) -> RadialProfile:
        preset = ProfilePreset(name=self.preset, params=dict(self.profile_params))
        return preset.build(dimension=self.n, kappa=self.kappa)


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from None


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from None


def _parse_axis(section, key, raw) -> SweepAxis:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ConfigError(
            f"{section}.{key}: expected 'name, lo, hi, count', got {raw!r}"
        )
    return SweepAxis(
        name=parts[0],
        lo=_parse_float(section, key, parts[1]),
        hi=_parse_float(section, key, parts[2]),
        count=_parse_int(section, key, parts[3]),
    )


def _apply(config: RunConfig, integrator_kw: dict, section: str, key: str, raw: str):
    raw = raw.strip()
    if section == "run":
        if key == "n":
            config.n = _parse_int(section, key, raw)
        elif key == "kappa":
            config.kappa = _parse_float(section, key, raw)
        elif key == "seed":
            config.seed = _parse_int(section, key, raw)
        elif key == "threads":
            config.threads = _parse_int(section, key, raw)
        elif key == "out":
            config.out = raw
        else:
            raise ConfigError(f"unknown key run.{key}")
    elif section == "profile":
        if key == "preset":
            config.preset = raw
        else:
            config.profile_params[key] = _parse_float(section, key, raw)
    elif section == "integrator":
        if key not in (
            "rel_tol",
            "abs_tol",
            "max_step",
            "min_step",
            "blowup_magnitude",
            "horizon",
        ):
            raise ConfigError(f"unknown key integrator.{key}")
        integrator_kw[key] = _parse_float(section, key, raw)
    elif section == "simulate":
        if key == "t_end":
            config.t_end = _parse_float(section, key, raw)
        elif key == "n_chars":
            config.n_chars = _parse_int(section, key, raw)
        elif key == "grid_size":
            config.grid_size = _parse_int(section, key, raw)
        elif key == "n_snapshots":
            config.n_snapshots = _parse_int(section, key, raw)
        else:
            raise ConfigError(f"unknown key simulate.{key}")
    elif section == "classify":
        if key == "grid_size":
            config.classify_grid_size = _parse_int(section, key, raw)
        else:
            raise ConfigError(f"unknown key classify.{key}")
    elif section == "sweep":
        if key == "mode":
            config.sweep_mode = raw
        elif key == "axis1":
            config.sweep_axis1 = _parse_axis(section, key, raw)
        elif key == "axis2":
            config.sweep_axis2 = _parse_axis(section, key, raw)
        elif key == "horizon":
            config.sweep_horizon = _parse_float(section, key, raw)
        elif key in SWIRL_FIELDS:
            config.sweep_fixed[key] = _parse_float(section, key, raw)
        else:
            raise ConfigError(f"unknown key sweep.{key}")
    elif section == "validate":
        if key == "suites":
            config.validate_suites = tuple(
                s.strip() for s in raw.split(",") if s.strip()
            )
        else:
            raise ConfigError(f"unknown key validate.{key}")
    else:
        raise ConfigError(f"unknown config section {section!r}")


def load_run_config(
    path=None,
    set_args=(),
    *,
    out=None,
    threads=None,
    seed=None,
) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, --set pairs,
    and the direct CLI flags (which win)."""
    config = RunConfig()
    integrator_kw: dict = {}

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                _apply(config, integrator_kw, section, key, raw)

    for item in set_args:
        if "=" not in item:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        section, key = dotted.split(".", 1)
        _apply(config, integrator_kw, section.strip(), key.strip(), raw)

    if integrator_kw:
        config.integrator = replace(config.integrator, **integrator_kw)
    if out is not None:
        config.out = out
    if threads is not None:
        config.threads = threads
    if seed is not None:
        config.seed = seed
    return config.validate()
