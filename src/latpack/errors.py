"""Exception types shared across the package."""


class LatpackError(Exception):
    """Base class for all package errors."""


class ParameterError(LatpackError, ValueError):
    """A precondition on arguments or domain parameters was violated."""


class RankError(ParameterError):
    """Matrix rows were not linearly independent where independence is required."""


class CapacityError(LatpackError, RuntimeError):
    """A computation exceeded a configured size cap (rank, ambient dim, enumeration)."""


class ParseError(ParameterError):
    """Outside input (a file, a flag or an environment variable) could not be
    parsed; for a file, the message names the offending line."""
