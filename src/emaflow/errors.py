"""Exception types shared across the package, and the argument checks
that raise them at the library entry points."""

import math
import numbers


class EmaflowError(Exception):
    """Base class for all errors raised by emaflow."""


class DomainError(EmaflowError, ValueError):
    """Input outside the mathematical domain of an operation
    (radius beyond the profile support, empty grid, h0 >= 1/2, ...).
    """


class ConfigError(EmaflowError, ValueError):
    """Invalid run or integrator configuration."""


class SingularInput(EmaflowError, ValueError):
    """State on a singular set where the requested quantity is undefined,
    e.g. a trajectory touching nu = 1 in the ellipse monitor, or v = 0
    with nonzero rotation in the linearized system.
    """


class QuadratureError(EmaflowError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BisectionError(EmaflowError, ArithmeticError):
    """Bisection bracket invalid: the two endpoints do not straddle
    the bounded/unbounded transition.
    """


class FlowSingular(EmaflowError, ArithmeticError):
    """Closed-form flow evaluated at or past a gradient degeneracy,
    where the pushforward density is undefined.
    """


class CrossingDetected(EmaflowError, RuntimeError):
    """Two characteristics crossed (radial ordering violated): the
    Lagrangian signature of shock formation, distinct from spectral
    blowup.  Raised only in strict mode; by default the ensemble solver
    reports it as a termination kind.
    """


class WorkerError(EmaflowError, RuntimeError):
    """A worker process died before returning its result (killed by a
    signal, out of memory, or exited from inside a task)."""


def finite_real(value) -> bool:
    """True for a finite real number: a NumPy scalar is one, a bool or a
    string is not."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_positive(name: str, value, error=DomainError) -> float:
    """Return value as a float; raise error unless it is a positive
    finite real number.  kappa, t_end, horizons and tolerances follow it."""
    if not (finite_real(value) and value > 0):
        raise error(f"{name} must be positive, got {value!r}")
    return float(value)


def check_dimension(n) -> None:
    """Raise DomainError unless n is a positive integral real number."""
    if not (finite_real(n) and n >= 1 and n == int(n)):
        raise DomainError(f"dimension n must be a positive integer, got {n!r}")
