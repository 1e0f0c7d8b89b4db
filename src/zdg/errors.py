"""Exception types shared across the package."""


class ZdgError(Exception):
    """Base class for every domain error raised by this package."""


class MalformedTableError(ZdgError):
    """Table is not a well-formed square array of in-range indices."""


class ValidationError(ZdgError):
    """Well-formed table that violates one of the semigroup laws.

    Carries the violated triples/pairs (up to the reporting cap) so a
    caller can render precise diagnostics.
    """

    def __init__(self, message, violations, truncated=False):
        super().__init__(message)
        self.violations = tuple(violations)
        self.truncated = truncated


class SgtFormatError(ZdgError):
    """Text input does not follow the .sgt table format."""


class EmptySetError(ZdgError):
    """An element set argument was empty where a non-empty set is required."""


class EmptyPartListError(ZdgError):
    """Fewer than two parts were given for a 0-orthogonal union."""


class OrderTooLargeError(ZdgError):
    """A requested order or size is outside the range an operation supports."""


class DisconnectedError(ZdgError):
    """Graph operation that needs a connected graph got a disconnected one."""


class UnknownVertexError(ZdgError):
    """A vertex id outside the graph's vertex set was referenced."""


class UnknownExampleError(ZdgError):
    """No built-in example is registered under the requested id."""


class UnknownPredicateError(ZdgError):
    """No search predicate is registered under the requested name."""
