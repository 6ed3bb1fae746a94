"""Exception hierarchy shared across the toolkit."""


class DroopeError(Exception):
    """Base class for all droope errors."""


class ScenarioError(DroopeError):
    """Invalid scenario file or scenario construction input."""


class TopologyError(DroopeError):
    """Network graph problem (disconnected island, dangling branch)."""


class PowerFlowError(DroopeError):
    """Newton-Raphson power flow failed to converge."""

    def __init__(self, message, mismatch=None, iterations=None):
        super().__init__(message)
        self.mismatch = mismatch
        self.iterations = iterations


class AlgebraicSolveError(DroopeError):
    """A Newton solve of the DAE failed (e.g. voltage collapse).

    Raised by the equilibrium polish (``find_equilibrium``) and, as its
    subclass StepError, by the time stepper.
    """

    def __init__(self, message, t=None, residual=None):
        super().__init__(message)
        self.t = t
        self.residual = residual


class StepError(AlgebraicSolveError):
    """Time step failed after all dt reductions."""


class InitializationError(DroopeError):
    """Dynamic release could not construct a consistent equilibrium."""


class NumericError(DroopeError):
    """Numerical routine (eigensolve, root find) failed its contract."""
