"""Exception hierarchy shared across the package.

``InputError`` subclasses carry a short ``code`` used by the CLI to label
diagnostics; all of them map to exit code 2.
"""


class SlcrigidError(Exception):
    """Base class for all package errors."""


class InputError(SlcrigidError):
    """Invalid input data or parameters. CLI maps this to exit code 2."""

    code = "input"


class SchemaError(InputError):
    """Malformed document or missing/unknown fields."""

    code = "schema"


class RangeError(InputError):
    """Index out of range, duplicate id, or malformed incidence."""

    code = "index"


class ActionError(InputError):
    """Group action data that is not a valid action on the graph."""

    code = "action"


class UnsupportedBackendError(InputError):
    """No engine for this input: a backend that does not fit the
    coordinates, or a group with no construction bases."""

    code = "backend"


class InvalidMoveError(InputError):
    """Extension/reduction move whose preconditions fail."""

    code = "move"


class NotTightError(InputError):
    """Operation requires a symmetry-tight graph."""

    code = "not-tight"


class DegenerateInputError(SlcrigidError):
    """No usable symmetric placement exists for this graph."""


class ReductionDeadEnd(SlcrigidError):
    """A tight graph that is neither a base graph nor reducible.

    Carries the stuck graph so callers can inspect or report it.
    """

    def __init__(self, message: str, graph=None):
        super().__init__(message)
        self.graph = graph
