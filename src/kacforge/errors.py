"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class;
anything else is a plain ValueError/RuntimeError bug.
"""


class KacforgeError(Exception):
    """Base class for all package-specific errors."""


class SizeBound(KacforgeError):
    """An input exceeds a documented size cap (closure, table, search)."""


class SeedDegenerate(KacforgeError):
    """A randomized spectral step stayed degenerate after all retries."""


class ExtractionFailed(KacforgeError):
    """No clean irreducible block could be split off after all retries."""


class NotAnAction(KacforgeError):
    """A supplied map fails the group-action laws."""


class NotMatched(KacforgeError):
    """Subgroup data does not give an exact factorization of the ambient group."""


class NotCrossedHom(KacforgeError):
    """A supplied map fails the twisted multiplicativity law required of it."""


class NotAMorphism(KacforgeError):
    """A supplied linear map is not a unital *-homomorphism respecting the coproduct."""


class NonIntegral(KacforgeError):
    """A quantity that must be a nonnegative integer is not, beyond tolerance."""


class PeterWeylMismatch(KacforgeError):
    """Sum of squared dimensions of the catalog does not exhaust the algebra."""


class ActionNotCompatible(KacforgeError):
    """A ring action does not preserve unit, duals, or structure constants."""


class IdentityViolated(KacforgeError):
    """A cross-checked identity between two computation routes fails."""


class DomainError(KacforgeError, ValueError):
    """A numeric parameter lies outside its admissible domain."""


class ParseError(KacforgeError):
    """Malformed input file; carries its path and, unless the fault is the
    whole file's, line/column context."""

    def __init__(self, message, path=None, line=None, column=None):
        self.path, self.line, self.column = path, line, column
        loc = "".join(f"{v}:" for v in (path, line, column) if v is not None)
        super().__init__(f"{loc} {message}" if loc else message)


class ValidationError(KacforgeError):
    """Well-formed input violating a named structural invariant."""

    def __init__(self, invariant, message):
        self.invariant = invariant
        super().__init__(f"[{invariant}] {message}")
