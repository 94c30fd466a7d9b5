"""Exception hierarchy shared across the toolkit.

Exit-code mapping for the CLI lives in :mod:`criteria.cli`.
"""


class CriteriaError(Exception):
    """Base class for all toolkit errors; ``file``, once a loader sets it,
    names the input file the error was found in, after the message."""

    file = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.file is None else f"{text} (in {self.file})"


class SchemaError(CriteriaError):
    """A document violates its file schema.

    ``path`` is a JSON-path-like string locating the offending field.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DataConsistencyError(CriteriaError):
    """Cross-file references do not resolve (missing/duplicate/dangling ids)."""


class ShapeError(CriteriaError):
    """Arrays that must agree in shape (mode/ground-truth point counts) do not."""


class InvalidMapError(CriteriaError):
    """Map geometry is degenerate or violates load-time invariants."""


class DegenerateHeadingError(CriteriaError):
    """A direction was requested for a vector shorter than the noise floor."""


class TooShortError(CriteriaError):
    """Trajectory has too few samples for the requested derivative."""


class InsufficientModesError(CriteriaError):
    """A pairwise metric needs at least two usable modes."""
