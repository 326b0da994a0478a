"""Exception types shared across the package."""


class QpencilError(Exception):
    """Base class for every error raised by this package."""


class NotPositiveDefinite(QpencilError):
    """A matrix required to be positive definite is not, within tolerance."""


class DimensionMismatch(QpencilError):
    """Operands have incompatible sizes or shapes."""


class BandwidthTooLarge(QpencilError):
    """An operation requires a narrower band structure than the input has."""


class RegimeViolation(QpencilError):
    """Parameters fall outside the regime a prediction is stated for."""


class NonPositiveCoefficient(QpencilError):
    """A coefficient is not positive at some point, or overflows once discretized."""


class DegenerateRange(QpencilError):
    """A spectral enclosure is unusable for building a phase map."""


class TooManyQubits(QpencilError):
    """The requested register exceeds the simulator's qubit budget."""


class OutOfRange(QpencilError):
    """An outcome index lies outside the ancilla register's range."""


class ConvergenceFailure(QpencilError):
    """An iterative eigensolver exhausted its sweep cap."""


class ParseError(QpencilError):
    """A problem-specification document could not be parsed."""


class ConfigInvalid(QpencilError):
    """A run configuration failed validation."""
