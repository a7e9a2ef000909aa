"""Exception types shared across the package."""


class QKoshyError(Exception):
    """Base class for all library-specific errors."""


class DivisionInexact(QKoshyError):
    """Exact polynomial division left a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class UnsupportedDivisor(QKoshyError):
    """Divisor's leading coefficient is not a unit (+1 or -1)."""


class DomainError(QKoshyError):
    """Arguments outside the mathematical domain of an operation."""


class ScaleLimit(QKoshyError):
    """Requested enumeration exceeds the guard bound; pass force=True to override."""


class MalformedLabel(QKoshyError):
    """A labeled-path label does not point at an element of the required kind."""


class NoRepeatedPart(QKoshyError):
    """Involution input has no repeated part to act on."""


class InvariantViolation(QKoshyError):
    """A structural invariant failed; this is a refutation event, never swallowed."""


class UnknownIdentity(QKoshyError):
    """Identity id not present in the registry."""
