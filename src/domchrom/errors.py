"""Exception hierarchy shared across the package, and :func:`_int`, the one
reader of every integer argument (text is parsed with ``int()`` where read)."""

from operator import index


class DomchromError(Exception):
    """Base class for all package-specific errors."""


class NotATreeError(DomchromError, ValueError):
    """Arc set is not an orientation of a tree (wrong count, cycle, or disconnected)."""


class SelfArcError(NotATreeError):
    """An arc joins a vertex to itself."""


class DuplicateOrAntiparallelArcError(NotATreeError):
    """The same vertex pair appears twice, in either direction."""


class BadVertexIdError(NotATreeError):
    """A vertex identifier is outside 0..n-1."""


class NotALeafError(DomchromError, ValueError):
    """Vertex requested for deletion is not an underlying leaf."""


class NotRootedError(DomchromError, ValueError):
    """Tree is not an out-tree / in-tree of the requested kind."""


class SizeMismatchError(DomchromError, ValueError):
    """Coloring length does not match the vertex count."""


class TooLargeError(DomchromError, ValueError):
    """Instance exceeds the documented size cap of the operation."""


class BudgetExhaustedError(DomchromError, RuntimeError):
    """Search node budget was hit before the solve completed."""

    def __init__(self, message: str, nodes: int):
        super().__init__(message)
        self.nodes = nodes


class KTooSmallError(DomchromError, ValueError):
    """Layered generalized-star operations need paths of at least 2 edges."""


class SpineNotDirectedError(DomchromError, ValueError):
    """The spine of the caterpillar is not a directed path."""


class SpecInvalidError(DomchromError, ValueError):
    """A generator spec violates its structural invariants."""


def _int(value, what: str, error: type[ValueError] = SpecInvalidError) -> int:
    """``value`` as a plain int (an ``__index__`` type or a bool reads as its
    int), else ``error`` saying that ``what`` must be an integer."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
