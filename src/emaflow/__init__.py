"""emaflow: spectral dynamics, critical thresholds, and exact flows
for radially symmetric pressureless Euler alignment with a
Monge-Ampere coupling.

The package keeps three independent representations of the same
dynamics (spectral ODEs along characteristics, a closed-form flow map,
and a Lagrangian particle ensemble) and cross-checks them against each
other; `emaflow validate` runs the full consistency suite.

The error types are imported with the package; every other public name
is imported from its module on first use (PEP 562), so that importing
the package, or running a `classify`, does not import NumPy.
"""

import importlib

from .errors import (
    BisectionError,
    ConfigError,
    DomainError,
    EmaflowError,
    FlowSingular,
    QuadratureError,
    SingularInput,
    WorkerError,
)

__version__ = "0.1.0"

# Public name -> the module, relative to the package, that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "conserved_energy",
            "energy_nodes",
            "flow_gradient_eigs",
            "flow_radius",
            "flow_radius_dt",
            "positive_definite_horizon",
            "pushforward_density",
        ),
        ".flow",
    ),
    **dict.fromkeys(
        (
            "EnsembleResult",
            "EulerianSnapshot",
            "advance_ensemble",
            "default_seeds",
            "gradient_bound_check",
        ),
        ".lagrange",
    ),
    **dict.fromkeys(
        ("PRESETS", "ProfilePreset", "RadialProfile", "derive_density", "gamma_inverse"),
        ".profiles",
    ),
    **dict.fromkeys(
        (
            "BACKEND",
            "IntegratorConfig",
            "SwirlState",
            "Termination",
            "Trajectory",
            "integrate",
        ),
        ".spectral",
    ),
    **dict.fromkeys(
        (
            "Verdict",
            "blowup_time_closed_form",
            "classify_point",
            "classify_profile",
            "sharpness_bisect",
            "sigma_membership",
            "threshold_margin",
        ),
        ".threshold",
    ),
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = sorted(
    [
        "BisectionError",
        "ConfigError",
        "DomainError",
        "EmaflowError",
        "FlowSingular",
        "QuadratureError",
        "SingularInput",
        "WorkerError",
        *_EXPORTS,
        "__version__",
    ]
)
