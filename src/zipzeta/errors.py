"""Exception types shared across the package, and the integer test
that input validation uses everywhere.

Every failure that a caller can provoke with bad input raises a subclass
of ZipzetaError, so `except ZipzetaError` catches exactly the validation
surface.  Internal consistency checks use plain assertions instead.
"""


def _is_int(x):
    """An int that is not a bool (JSON true and false parse as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


class ZipzetaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCartan(ZipzetaError):
    """The matrix is not a generalized Cartan matrix."""


class NotFiniteType(ZipzetaError):
    """The Cartan matrix is not of finite type, so its root system is
    infinite."""


class RootNotInSystem(ZipzetaError):
    """A vector was used as a root but is not one."""


class GroupTooLarge(ZipzetaError):
    """A predicted size exceeds its cap."""


class MixedGroups(ZipzetaError):
    """Two elements from different groups were combined."""


class NotMinimalRep(ZipzetaError):
    """The element is not minimal in its coset, so the requested
    decomposition does not apply."""


class NotInExtMinSet(ZipzetaError):
    """The extended element lies outside the minimal-representative set
    for the given parabolic type."""


class InvalidOmegaTable(ZipzetaError):
    """The component-group data is not a group table with a compatible
    diagram action."""


class InvalidFrobenius(ZipzetaError):
    """The diagram map supplied for the Frobenius is not an automorphism
    of the based datum."""


class ThetaNotSubgroup(ZipzetaError):
    """The selected component labels do not form a subgroup."""


class ThetaDoesNotPreserveI(ZipzetaError):
    """Conjugation by the subgroup moves the parabolic type."""


class FrobeniusDoesNotFixI(ZipzetaError):
    """The Galois generator moves the parabolic type."""


class FrobeniusDoesNotFixTheta(ZipzetaError):
    """The Galois generator moves the component subgroup."""


class BadPrimePower(ZipzetaError):
    """The base field size is not a prime power."""


class ThetaActionLeaks(ZipzetaError):
    """The subgroup action left the minimal-representative set, or broke
    an invariant it should preserve.  Unreachable for validated input;
    kept as a loud guard."""


class PoleEvaluation(ZipzetaError):
    """The zeta function was evaluated at a pole."""


class NotPrime(ZipzetaError):
    """The given characteristic is not a prime number."""


class FieldTooLarge(ZipzetaError):
    """The requested finite field exceeds the configured size bound."""


class SearchSpaceTooLarge(ZipzetaError):
    """The census would build more candidates and row-table entries than
    its bound allows."""


class MismatchDetected(ZipzetaError):
    """The census disagrees with the predicted count.  Carries both
    numbers."""

    def __init__(self, predicted, observed, context=""):
        self.predicted = predicted
        self.observed = observed
        msg = f"predicted {predicted}, observed {observed}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class ParseError(ZipzetaError):
    """A config document is malformed.  The message names the offending
    key path."""
