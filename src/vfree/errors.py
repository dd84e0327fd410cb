"""Exception hierarchy with stable one-line error codes.

Every error carries a ``code`` string and a one-line message; the CLI
prints ``str(error)``, ``Code: message``, as its one stderr line, so scripts
can match on the code without parsing prose.
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

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}" if self.message else self.code


# --- graph construction ---------------------------------------------------

class DanglingVertexRef(VfreeError):
    code = "DanglingVertexRef"


# --- graph operations -----------------------------------------------------

class UnknownRoot(VfreeError):
    code = "UnknownRoot"


# --- graph-of-groups validation / parsing ---------------------------------

class GogSyntaxError(VfreeError):
    code = "SyntaxError"


class InvalidGog(VfreeError):
    """A datum that violates a graph-of-groups condition; the message names
    the vertex, edge or half-edge at fault, where a single one is."""

    code = "InvalidGog"


class EmptyGraph(InvalidGog):
    code = "Empty"


class OrderKeysMismatch(InvalidGog):
    """The keys of an order map differ from the graph's vertices or its
    geometric edges (their ``name`` half-edges)."""

    code = "OrderKeysMismatch"


class BadHalfEdgePair(InvalidGog):
    """A half-edge whose name/name~ mate is missing, or whose origin is not
    a vertex."""

    code = "BadHalfEdgePair"


class BadVertexOrder(InvalidGog):
    """A vertex order that is not a positive int (a bool is not one)."""

    code = "BadVertexOrder"


class DivisibilityViolation(InvalidGog):
    code = "DivisibilityViolation"


class NotConnected(InvalidGog):
    code = "NotConnected"


class NotNormalized(VfreeError):
    code = "NotNormalized"


# --- normalization --------------------------------------------------------

class NotTrivial(VfreeError):
    code = "NotTrivial"


class NotTreeEdge(VfreeError):
    code = "NotTreeEdge"


# --- invariants and counting ----------------------------------------------

class NonIntegralRank(VfreeError):
    code = "NonIntegralRank"


class NonIntegralCount(VfreeError):
    code = "NonIntegralCount"


class NonPositiveCount(VfreeError):
    code = "NonPositiveCount"


class NonIntegralTheta(VfreeError):
    code = "NonIntegralTheta"


class UnknownClass(VfreeError):
    code = "UnknownClass"


class MissingParam(VfreeError):
    code = "MissingParam"


class WrongRank(VfreeError):
    code = "WrongRank"


# --- classification --------------------------------------------------------

class UnclassifiableShape(VfreeError):
    code = "UnclassifiableShape"


# --- oracles ----------------------------------------------------------------

class DegreeTooLarge(VfreeError):
    code = "DegreeTooLarge"


class NonExactDivision(VfreeError):
    code = "NonExactDivision"


class TooLarge(VfreeError):
    code = "TooLarge"
