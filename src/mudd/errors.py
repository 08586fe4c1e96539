"""Exception types shared across the package."""


class MuddError(Exception):
    """Base class for all package-specific errors."""


class InvalidModel(MuddError):
    """A diagram violates a structural invariant."""


class CycleDetected(InvalidModel):
    """Causality edges contain a cycle, so path enumeration would not terminate."""


class UnknownCounter(MuddError):
    """A counter name is not present in the namespace."""


class PathExplosion(MuddError):
    """Path enumeration exceeded the configured cap."""


class DanglingDecision(MuddError):
    """A decision was reached with its property assigned to a value with no matching edge."""


class OrderingConflict(MuddError):
    """A happens-before edge contradicts the causality order along one path."""


class DimensionMismatch(MuddError):
    """Vector or matrix dimensions do not agree."""


class DegenerateHull(MuddError):
    """The hull got rays that do not span a pointed cone, or a facet failed its
    one-sidedness check; indicates a bug or bad input."""


class NotSymmetric(MuddError):
    """A matrix expected to be symmetric is not."""


class MissingCounter(MuddError):
    """An observation file lacks a counter required by the namespace."""


class NonNumericCell(MuddError):
    """An observation file contains a cell that does not parse as a number."""


class MalformedCsv(MuddError):
    """An observation file names a column twice in its header, or has a row
    whose cell count differs from the header's."""


class NegativeCell(MuddError):
    """An observation file contains a negative counter value."""


class TooFewSamples(MuddError):
    """Fewer than two samples; covariance is undefined."""


class NonFiniteStatistics(MuddError):
    """A run's sample mean or covariance overflowed to a non-finite value."""


class NoFeasibleModel(MuddError):
    """A catalog operation requires at least one feasible entry."""


class CatalogError(MuddError):
    """A model catalog file is malformed or has broken references."""
