"""Exception types raised across the package."""


class PetzlabError(Exception):
    """Base class for all petzlab errors."""


class NonFinite(PetzlabError, ValueError):
    """A matrix contains NaN or infinite entries."""


class NotHermitian(PetzlabError, ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPsd(PetzlabError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class DimensionMismatch(PetzlabError, ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class InvalidOrder(PetzlabError, ValueError):
    """A norm or divergence order parameter is out of range."""


class NotState(PetzlabError, ValueError):
    """A matrix is not a valid density operator."""


class NotTracePreserving(PetzlabError, ValueError):
    """Kraus operators do not sum to the identity.

    Carries the residual Frobenius norm as ``residual``.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class TooManyKraus(PetzlabError, ValueError):
    """More Kraus operators than the padded environment can hold."""


class InvalidParameter(PetzlabError, ValueError):
    """A channel or code parameter is outside its admissible range."""


class SupportViolation(PetzlabError, ValueError):
    """A support (absolute continuity) precondition does not hold."""


class DegenerateChannelOutput(PetzlabError, ValueError):
    """The channel output state is numerically zero."""


class ToleranceNotMet(PetzlabError, RuntimeError):
    """An iterative procedure could not reach the requested tolerance."""


class MaxIterations(PetzlabError, RuntimeError):
    """The SDP solver hit its iteration cap before converging."""


class NumericalBreakdown(PetzlabError, RuntimeError):
    """The SDP solver produced a non-finite or non-factorable iterate."""


class BracketViolated(PetzlabError, RuntimeError):
    """The optimality bracket F_opt^2 <= F_petz <= F_opt failed."""


class NegativeEpsilon(PetzlabError, ValueError):
    """A nonnegative epsilon argument was negative."""


class ParseError(PetzlabError, ValueError):
    """Config text is syntactically malformed.

    Carries 1-based ``line`` and ``column`` of the offending location.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(PetzlabError, ValueError):
    """A config field has an invalid or unknown value.

    Carries the offending ``field`` name.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
