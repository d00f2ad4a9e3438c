"""Exception types shared across the package."""


class GeodesyError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(GeodesyError, ValueError):
    """A callable returned values the package refuses: not finite, not real or misshapen.

    So is a domain_check result that is neither None nor a reason string. A ValueError
    too; integrate annotates it with the step, as any GeodesyError.
    """


class DomainError(GeodesyError):
    """A state left the admissible domain of the problem."""


class SingularJacobianError(GeodesyError):
    """The Newton linear system is numerically singular."""


class NewtonNonConvergence(GeodesyError):
    """Newton iteration exhausted its budget above tolerance."""

    def __init__(self, message, x=None, residual_norm=None, iterations=None):
        super().__init__(message)
        self.x = x
        self.residual_norm = residual_norm
        self.iterations = iterations


class IntegrationError(GeodesyError):
    """A step failed during time integration; carries step index and time."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time
