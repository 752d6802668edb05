"""Exception hierarchy for the muntz toolkit.

Two families matter for exit-code mapping in the CLI: validation errors
(bad inputs, exit 2) and numerical errors (precision loss, exit 3).
"""


class MuntzError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MuntzError):
    """Invalid input data or configuration."""


class NumericalError(MuntzError):
    """Numerical failure that more precision might fix."""


# -- numeric input -------------------------------------------------------

class NotANumber(ValidationError):
    """An input that should be a real or an integer does not parse as one."""


# -- domain construction -------------------------------------------------

class OverlappingIntervals(ValidationError):
    pass


class DegenerateInterval(ValidationError):
    pass


class NonintegrableWeight(ValidationError):
    pass


# -- exponent sequences ---------------------------------------------------

class NonIncreasing(ValidationError):
    pass


class NonPositive(ValidationError):
    pass


# -- linear algebra -------------------------------------------------------

class PrecisionExhausted(NumericalError):
    pass


class NotPositiveDefinite(NumericalError):
    pass


class IndexOutOfRange(ValidationError):
    pass


# -- distances and certificates -------------------------------------------

class BadEpsilon(ValidationError):
    pass


# -- series ----------------------------------------------------------------

class OutsideRadius(ValidationError):
    pass


class NegativeResidualSquared(NumericalError):
    pass


# -- operators ---------------------------------------------------------------

class DuplicateEigenvalue(ValidationError):
    pass


class ZeroEigenvalue(ValidationError):
    pass


class BoundViolation(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class BadPartition(ValidationError):
    pass


# -- CLI ----------------------------------------------------------------------

class MalformedConfig(ValidationError):
    pass
