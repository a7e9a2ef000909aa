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
    """A requested enumeration or parameter box exceeds a guard bound.

    force=True lifts the guards of the functions that take it, and
    `verify --force` lifts a registry row's caps.  It does not lift the
    partition-box guard of the mu/nu sides, nor the enumeration guards
    inside registry checkers, which call the enumerators without force.
    """


class MalformedLabel(QKoshyError):
    """A labeled-path label does not point at an element of the required kind."""


class NoRepeatedPart(QKoshyError):
    """Involution input has no repeated part to act on."""


class InvariantViolation(QKoshyError):
    """A structural invariant failed; never swallowed.

    Raised inside a registry checker (say, an elevated path with no colored
    tower) it becomes that cell's counterexample, and `verify` exits 1.
    Raised by a sweep (a cell polynomial that is not reciprocal) it ends
    the run as an error, and the CLI exits 2.
    """


class UnknownIdentity(QKoshyError):
    """Identity id not present in the registry."""
