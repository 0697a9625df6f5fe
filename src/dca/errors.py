"""Exception types shared across the package."""


class DcaError(Exception):
    """Base class for all errors raised by this package."""


class ElementNotFoundError(DcaError):
    """An element identifier does not occur in the assignment."""


class InvalidRankError(DcaError):
    """A rank lies outside 1..n for the assignment at hand."""


class IncompatibleAssignmentsError(DcaError):
    """Two assignments (or an assignment and a graph) cover different element sets."""


class InvalidConstraintError(DcaError):
    """A ranking constraint is malformed (e.g. a self-loop)."""


class ReplayMissError(DcaError):
    """A replay oracle was asked for an assignment missing from its fixture."""


class OracleIOError(DcaError):
    """An external evaluator failed: child exit, timeout, or malformed response.

    The raw payload (if any was read) is attached for diagnosis.
    """

    def __init__(self, message: str, payload: str | None = None):
        super().__init__(message)
        self.payload = payload


class InvalidTemperatureError(DcaError):
    """Annealing temperature must be strictly positive."""


class ConfigError(DcaError):
    """A run configuration is invalid or inconsistent."""
