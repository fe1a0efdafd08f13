"""Exception types shared across the toolkit.

Every failure mode callers are expected to handle has its own class; plain
``ValueError``/``TypeError`` are reserved for programming mistakes.
"""


class CayleyIsoError(Exception):
    """Base class for all toolkit errors."""


class UnknownKind(CayleyIsoError):
    """Group descriptor names a kind that is not built in."""


class InvalidParams(CayleyIsoError):
    """Group parameters out of range (e.g. dimension or rank below 1), or
    generators that repeat, include the identity or are not symmetric."""


class MalformedElement(CayleyIsoError):
    """Payload is not a canonical element of the given group."""


class MemoryBudgetExceeded(CayleyIsoError):
    """Enumeration stopped because the element budget ran out.

    ``last_completed_radius`` is the largest radius whose ball was fully
    enumerated before the budget was hit (-1 if not even radius 0 fit).
    """

    def __init__(self, message: str, last_completed_radius: int):
        super().__init__(message)
        self.last_completed_radius = last_completed_radius


class HorizonExceeded(CayleyIsoError):
    """A query needs radii beyond the computed table.

    Distinct from the infinite sentinel: this signals a too-small table on a
    group that may well be infinite, never a mathematical fact.
    """


class RadiusOutOfRange(CayleyIsoError):
    """Requested radius is negative or beyond the table horizon."""


class EmptySet(CayleyIsoError):
    """Operation requires a non-empty subset."""


class BadParams(CayleyIsoError):
    """Numeric parameters violate an operation's hypotheses."""


class EmptyGeneratingSet(CayleyIsoError):
    """Conversion requires a non-empty generating set."""


class NoFamilyForKind(CayleyIsoError):
    """No closed candidate family is defined for this group kind."""


class PreconditionUnmet(CayleyIsoError):
    """A lemma's hypothesis does not hold on the given instance."""


class ExitNotFound(CayleyIsoError):
    """Internal consistency failure: a geodesic out of a set never met its
    inner boundary.  Cannot happen for correct inputs; signals a bug."""


class NotApplicable(CayleyIsoError):
    """Estimate requested for a group outside the hypothesis (no evidence of
    exponential growth at the given horizon)."""


class InsufficientData(CayleyIsoError):
    """Estimate requested without enough records to form window statistics."""
