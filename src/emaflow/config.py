"""Run configuration.

One INI-style file drives every subcommand; --set SECTION.KEY=VALUE
overrides individual entries with the same parsing rules, so a run is
reproducible from the file plus the recorded overrides.  Grammar:

    [run]                      n, kappa, seed, threads, out
    [profile]                  preset + free numeric preset parameters
                               (r_max, a, b, c, d, rc, s, ...)
    [integrator]               rel_tol, abs_tol, max_step, min_step,
                               blowup_magnitude
    [simulate]                 t_end, n_chars, grid_size, n_snapshots
    [classify]                 grid_size
    [sweep]                    mode, axis1, axis2, horizon,
                               p0, q0, mu0, nu0, theta_r0, theta_over_r0
    [validate]                 suites (comma-separated, or 'all')

Axes use "name, lo, hi, count", e.g.  axis1 = lambda0, -2, 2, 41.
Unknown sections or keys are rejected rather than ignored.  [integrator]
sets no horizon: simulate.t_end is the ensemble's, and sweep.horizon
(default 500/sqrt(kappa)) that of a swirl_sigma sweep.

run.threads (or --threads) caps the worker processes that `validate`
runs its criteria in; unset, it is every CPU the process may run on.
It changes no output.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .profiles import ProfilePreset, RadialProfile
from .spectral import IntegratorConfig, SwirlState

__all__ = ["SweepAxis", "RunConfig", "load_run_config"]

SWEEP_MODES = ("pointwise_threshold", "swirl_sigma")
# Each SwirlState component with a 0 suffix, in SwirlState order.
SWIRL_FIELDS = tuple(f.name + "0" for f in fields(SwirlState))
POINTWISE_FIELDS = ("lambda0", "h0")
# The horizon is set per command (simulate.t_end, sweep.horizon), so it
# is no [integrator] key.
INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorConfig) if f.name != "horizon")


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
        for (section, key), (name, _, bound) in KEYS.items():
            value = getattr(self, name)
            if bound is not None and value is not None and not value > bound:
                raise ConfigError(f"{section}.{key} must be > {bound}, got {value!r}")
        if self.sweep_mode not in SWEEP_MODES:
            raise ConfigError(
                f"sweep.mode must be one of {SWEEP_MODES}, got {self.sweep_mode!r}"
            )
        allowed = POINTWISE_FIELDS if self.sweep_mode == "pointwise_threshold" else SWIRL_FIELDS
        axes = {"sweep.axis1": self.sweep_axis1, "sweep.axis2": self.sweep_axis2}
        for key, axis in axes.items():
            if axis.count < 1:
                raise ConfigError(f"{key}: axis {axis.name!r} count must be >= 1")
            if axis.count > 1 and not axis.hi > axis.lo:
                raise ConfigError(
                    f"{key}: axis {axis.name!r} needs hi > lo for count > 1, "
                    f"got [{axis.lo!r}, {axis.hi!r}]"
                )
        if self.sweep_axis1.name == self.sweep_axis2.name:
            raise ConfigError("sweep.axis1 and sweep.axis2 must name two distinct parameters")
        for key, axis in axes.items():
            if axis.name not in allowed:
                raise ConfigError(
                    f"{key}: axis {axis.name!r} not valid for mode {self.sweep_mode!r}; "
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


def _parse_text(section, key, raw):
    return raw


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


def _parse_suites(section, key, raw):
    return tuple(s.strip() for s in raw.split(",") if s.strip())


# Every fixed key: (section, key) -> (RunConfig field, parser, bound).
# RunConfig.validate requires field > bound unless the bound or the
# value is None.  The open-ended keys ([profile] parameters,
# INTEGRATOR_KEYS and SWIRL_FIELDS) are handled in _apply.
KEYS = {
    ("run", "n"): ("n", _parse_int, 0),
    ("run", "kappa"): ("kappa", _parse_float, 0),
    ("run", "seed"): ("seed", _parse_int, None),
    ("run", "threads"): ("threads", _parse_int, 0),
    ("run", "out"): ("out", _parse_text, None),
    ("profile", "preset"): ("preset", _parse_text, None),
    ("simulate", "t_end"): ("t_end", _parse_float, 0),
    ("simulate", "n_chars"): ("n_chars", _parse_int, 1),
    ("simulate", "grid_size"): ("grid_size", _parse_int, 1),
    ("simulate", "n_snapshots"): ("n_snapshots", _parse_int, 1),
    ("classify", "grid_size"): ("classify_grid_size", _parse_int, 0),
    ("sweep", "mode"): ("sweep_mode", _parse_text, None),
    ("sweep", "axis1"): ("sweep_axis1", _parse_axis, None),
    ("sweep", "axis2"): ("sweep_axis2", _parse_axis, None),
    ("sweep", "horizon"): ("sweep_horizon", _parse_float, 0),
    ("validate", "suites"): ("validate_suites", _parse_suites, None),
}
SECTIONS = {section for section, _ in KEYS} | {"integrator"}


def _apply(config: RunConfig, integrator_kw: dict, section: str, key: str, raw: str):
    raw = raw.strip()
    if (section, key) in KEYS:
        name, parse, _ = KEYS[section, key]
        setattr(config, name, parse(section, key, raw))
    elif section == "profile":
        config.profile_params[key] = _parse_float(section, key, raw)
    elif section == "integrator" and key in INTEGRATOR_KEYS:
        integrator_kw[key] = _parse_float(section, key, raw)
    elif section == "sweep" and key in SWIRL_FIELDS:
        config.sweep_fixed[key] = _parse_float(section, key, raw)
    elif section in SECTIONS:
        raise ConfigError(f"unknown key {section}.{key}")
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
        try:
            config.integrator = replace(config.integrator, **integrator_kw)
        except ConfigError as exc:
            # IntegratorConfig's messages begin with the field name.
            raise ConfigError(f"integrator.{exc}") from None
    if out is not None:
        config.out = out
    if threads is not None:
        config.threads = threads
    if seed is not None:
        config.seed = seed
    return config.validate()
