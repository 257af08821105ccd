"""Exception types shared across the package."""

from __future__ import annotations


class GraphParseError(ValueError):
    """Malformed graph6 text or a bad graph expression.

    ``offset`` is the 0-based byte/character position of the defect in the
    text passed in, when known, else None; ``reason`` is the message without
    the offset suffix.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(RuntimeError):
    """The numeric eigensolver failed to converge or returned garbage."""


class InfeasibleSrgParameters(ValueError):
    """Strongly regular parameters that violate a counting identity."""


class InfeasibleIntersectionArray(ValueError):
    """Intersection array whose derived multiplicities are not positive integers."""


class InternalConsistencyError(RuntimeError):
    """A computed bound contradicts a proven ceiling; indicates a solver or logic bug."""


class TableMismatchError(RuntimeError):
    """Reproduced bound table disagrees with the reference values."""

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows
