"""Exception hierarchy with stable one-line error codes.

Every error carries a ``code`` string and a one-line message; the CLI
prints ``str(error)``, ``Code: message``, as its one stderr line, so scripts
can match on the code without parsing prose. The code is the class name,
except for ``Error`` (the base), ``SyntaxError`` and ``Empty``.
"""

# an echoed token longer than this is cut in an error message
MAX_ECHO = 32


def cut(token: str, show=str) -> str:
    """show(token), cut to MAX_ECHO characters with its length if longer."""
    if len(token) <= MAX_ECHO:
        return show(token)
    return f"{show(token[:MAX_ECHO])}... ({len(token)} characters)"


def echo(token: str) -> str:
    """repr(token), cut as cut() cuts it."""
    return cut(token, repr)


class VfreeError(Exception):
    """Base class for all library errors."""

    code = "Error"

    def __init_subclass__(cls):
        cls.code = cls.__dict__.get("code", cls.__name__)

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}" if self.message else self.code


# --- graph construction ---------------------------------------------------

class DanglingVertexRef(VfreeError):
    """An edge names an endpoint that is not a vertex."""


# --- graph operations -----------------------------------------------------

class UnknownRoot(VfreeError):
    """A spanning tree or orientation rooted at a vertex the graph lacks."""


# --- graph-of-groups validation / parsing ---------------------------------

class GogSyntaxError(VfreeError):
    code = "SyntaxError"


class InvalidGog(VfreeError):
    """A datum that violates a graph-of-groups condition; the message names
    the vertex, edge or half-edge at fault, where a single one is."""


class EmptyGraph(InvalidGog):
    code = "Empty"


class OrderKeysMismatch(InvalidGog):
    """The keys of an order map differ from the graph's vertices or its
    geometric edges (their ``name`` half-edges)."""


class BadHalfEdgePair(InvalidGog):
    """A half-edge whose name/name~ mate is missing, or whose origin is not
    a vertex."""


class BadVertexOrder(InvalidGog):
    """A vertex order that is not a positive int (a bool is not one)."""


class DivisibilityViolation(InvalidGog):
    """An edge order that does not divide the order at an endpoint."""


class NotConnected(InvalidGog):
    """A vertex that the first vertex cannot reach."""


class NotNormalized(VfreeError):
    """A tree that does not span the datum's graph, or has a trivial edge."""


# --- normalization --------------------------------------------------------

class NotTrivial(VfreeError):
    """A contracted edge whose order is below the order at its terminus."""


class NotTreeEdge(VfreeError):
    """A contracted edge off the tree, or a tree that does not span."""


# --- invariants and counting ----------------------------------------------

class NonIntegralRank(VfreeError):
    """1 - m*chi is not a nonnegative integer: corrupt orders."""


class NonIntegralCount(VfreeError):
    """A count f_l that is not an integer: corrupt orders."""


class NonPositiveCount(VfreeError):
    """A count f_l below 0, or 0 on free rank >= 1: corrupt orders."""


class NonIntegralTheta(VfreeError):
    """A theta_u, or theta_1/m, that is not an integer: corrupt orders."""


class UnknownClass(VfreeError):
    """A rank-2 class label with no recurrence."""


class MissingParam(VfreeError):
    """A rank-2 recurrence without a parameter, or an even m, it needs."""


class WrongRank(VfreeError):
    """A rank-2 check given a datum of another free rank."""


# --- classification --------------------------------------------------------

class UnclassifiableShape(VfreeError):
    """A normalized rank <= 2 datum that matches no class's shape."""


# --- oracles ----------------------------------------------------------------

class DegreeTooLarge(VfreeError):
    """A free-group oracle rank below 1, or degree over its cap."""


class NonExactDivision(VfreeError):
    """An oracle count that does not divide exactly."""


class TooLarge(VfreeError):
    """An input past a size or work cap."""
