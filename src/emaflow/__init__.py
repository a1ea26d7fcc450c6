"""emaflow: spectral dynamics, critical thresholds, and exact flows
for radially symmetric pressureless Euler alignment with a
Monge-Ampere coupling.

The package keeps three independent representations of the same
dynamics (spectral ODEs along characteristics, a closed-form flow map,
and a Lagrangian particle ensemble) and cross-checks them against each
other; `emaflow validate` runs the full consistency suite.
"""

from .errors import (
    BisectionError,
    ConfigError,
    CrossingDetected,
    DomainError,
    EmaflowError,
    FlowSingular,
    QuadratureError,
    SingularInput,
    WorkerError,
)
from .flow import (
    FlowSample,
    conserved_energy,
    energy_nodes,
    flow_gradient_eigs,
    flow_radius,
    flow_radius_dt,
    positive_definite_horizon,
    pushforward_density,
    sample_flow,
)
from .lagrange import (
    CharacteristicState,
    EnsembleResult,
    EulerianSnapshot,
    advance_ensemble,
    bkm_monitor,
    default_seeds,
    gradient_bound_check,
)
from .profiles import PRESETS, ProfilePreset, RadialProfile, derive_density, gamma_inverse
from .spectral import (
    BACKEND,
    IntegratorConfig,
    SpectralState,
    SwirlState,
    Termination,
    Trajectory,
    integrate,
)
from .threshold import (
    Verdict,
    blowup_time_closed_form,
    classify_point,
    classify_profile,
    sharpness_bisect,
    sigma_membership,
    threshold_margin,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BisectionError",
    "CharacteristicState",
    "ConfigError",
    "CrossingDetected",
    "DomainError",
    "EmaflowError",
    "EnsembleResult",
    "EulerianSnapshot",
    "FlowSample",
    "FlowSingular",
    "IntegratorConfig",
    "PRESETS",
    "ProfilePreset",
    "QuadratureError",
    "RadialProfile",
    "SingularInput",
    "SpectralState",
    "SwirlState",
    "Termination",
    "Trajectory",
    "Verdict",
    "WorkerError",
    "advance_ensemble",
    "bkm_monitor",
    "blowup_time_closed_form",
    "classify_point",
    "classify_profile",
    "conserved_energy",
    "default_seeds",
    "derive_density",
    "energy_nodes",
    "flow_gradient_eigs",
    "flow_radius",
    "flow_radius_dt",
    "gamma_inverse",
    "gradient_bound_check",
    "integrate",
    "positive_definite_horizon",
    "pushforward_density",
    "sample_flow",
    "sharpness_bisect",
    "sigma_membership",
    "threshold_margin",
    "__version__",
]
