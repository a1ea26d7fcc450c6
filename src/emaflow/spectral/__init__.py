"""Spectral ODE systems, adaptive integrator, and invariant monitors.

Each public name is imported from its module on first use (PEP 562):
the systems and the scalar integrator need no NumPy, the batch engine
and the monitors do.
"""

import importlib

# Public name -> the module, relative to this package, that defines it.
_EXPORTS = {
    **dict.fromkeys(("BatchResult", "integrate_batch"), ".batch"),
    **dict.fromkeys(
        ("BACKEND", "IntegratorConfig", "Termination", "Trajectory", "integrate"), ".integrator"
    ),
    **dict.fromkeys(("monitor_ellipse", "monitor_swirl_invariants"), ".monitors"),
    **dict.fromkeys(
        (
            "SYSTEMS",
            "SwirlState",
            "rhs_ep_qnu",
            "rhs_qnu",
            "rhs_swirl",
            "rhs_swirl_q",
        ),
        ".systems",
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


__all__ = list(_EXPORTS)
