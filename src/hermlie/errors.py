"""Exception hierarchy shared by all hermlie modules."""


class HermlieError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(HermlieError):
    pass


class UnsupportedDimensionError(HermlieError, ValueError):
    """A construction does not exist in the requested dimension."""


class IndexOutOfRangeError(HermlieError):
    pass


class DuplicateEntryError(HermlieError):
    pass


class NotValidatedError(HermlieError):
    """Operation requires a Lie algebra whose Jacobi identity holds."""


class InvalidMetricError(HermlieError):
    """Matrix is not symmetric positive definite."""


class IncompatibleMetricError(HermlieError):
    """Metric is not compatible with the given complex structure."""


class NotAComplexStructureError(HermlieError):
    """Endomorphism does not square to minus the identity."""


class NotIntegrableError(HermlieError):
    """Nijenhuis tensor of the almost complex structure does not vanish."""


class NotJInvariantError(HermlieError):
    pass


class NotTwoStepSolvableError(HermlieError):
    pass


class NotSKTError(HermlieError):
    pass


class NotPureTypeIIError(HermlieError):
    pass


class PreconditionViolatedError(HermlieError):
    """A named hypothesis of a structure theorem fails for the input."""

    def __init__(self, hypothesis, message=""):
        self.hypothesis = hypothesis
        super().__init__(message or f"hypothesis violated: {hypothesis}")


class InvalidPreShearError(HermlieError):
    pass


class NotComplexShearDataError(HermlieError):
    pass


class JacobiFailedError(HermlieError):
    pass


class ParameterConstraintViolatedError(HermlieError):
    """Normal-form parameters violate a documented constraint."""

    def __init__(self, constraint, message=""):
        self.constraint = constraint
        super().__init__(message or f"constraint violated: {constraint}")


class SalamonSyntaxError(HermlieError):
    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnboundParameterError(HermlieError):
    pass


class UnknownNameError(HermlieError):
    pass


class ConstraintViolatedError(ParameterConstraintViolatedError):
    """Named-family parameters violate the family's defining inequality."""
