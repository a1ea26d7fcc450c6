"""Exception types shared across the package."""


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
