"""Exception types shared across the library."""


class BridgekitError(Exception):
    """Base class for all library errors."""


class TimeOutOfRange(BridgekitError):
    """A time argument lies outside the schedule's valid interval."""


class DegenerateCoefficient(BridgekitError):
    """A bridge coefficient underflowed or vanished where a finite value is required."""


class NotBracketed(BridgekitError):
    """A root-finding target lies outside the attainable range."""


class InvalidGridParams(BridgekitError):
    """Timestep-grid parameters are inconsistent."""


class DimensionMismatch(BridgekitError):
    """Vector or matrix dimensions disagree."""


class InitialStepSingularity(BridgekitError):
    """An update was requested across the pinned endpoint, which only the boot step may leave."""


class ZeroRho(BridgekitError):
    """A quantity is undefined at zero per-step variance."""


class SingularSystem(BridgekitError):
    """A linear system arising in Gaussian conditioning is not invertible."""


class SingularCovariance(BridgekitError):
    """A covariance matrix required to be invertible is singular."""


class NonpositiveStep(BridgekitError):
    """An integration step has nonpositive width."""


class ZeroVector(BridgekitError):
    """A vector required to be nonzero is zero."""


class ConfigInvalid(BridgekitError):
    """A run configuration failed validation."""


class NumericalFailure(BridgekitError):
    """A numerical operation failed during an experiment run."""

    def __init__(self, operation: str, message: str):
        super().__init__(f"{operation}: {message}")
        self.operation = operation
