"""Exception types shared across the package, and `read_text`, which
reports a file that cannot be read, or is not UTF-8 text, as one of them."""


class MuddError(Exception):
    """Base class for all package-specific errors."""


class InvalidValue(MuddError, ValueError):
    """An argument lies outside its domain: an alpha, a synthesis setting.
    Also a ValueError, which library callers may catch instead."""


class InvalidModel(MuddError):
    """A diagram violates a structural invariant."""


class CycleDetected(InvalidModel):
    """Causality edges contain a cycle, so path enumeration would not terminate."""


class UnknownCounter(MuddError):
    """A counter name is not present in the namespace."""


class PathExplosion(MuddError):
    """A model has more paths than `model.PATH_CAP`, the fixed path limit."""


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
    """An observation file names a column twice in its header, has a row
    whose cell count differs from the header's, or has a line the `csv`
    module cannot read."""


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


def read_text(path, name: str) -> str:
    """The text of the file at `path`, decoded as UTF-8 without a leading
    byte order mark, with each line end made "\\n" as `open` makes it. A
    file that cannot be read raises MuddError naming `path` as given and
    the reason; a byte that is not UTF-8 raises MuddError that names the
    file as `name`, and the line of the byte."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MuddError(f"{path}: {exc.strerror}") from None
    try:
        # in one call: an incremental decoder takes a file holding part of
        # a byte order mark for an empty one
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is every byte after the byte order mark
        line = len((exc.object[:exc.start] + b".").splitlines())
        raise MuddError(
            f"{name} line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 text"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
