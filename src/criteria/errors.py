"""Exception hierarchy shared across the toolkit.

Exit-code mapping for the CLI lives in :mod:`criteria.cli`.
"""

import math
from dataclasses import fields


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


class SettingError(ValueError):
    """A configuration setting out of its range. ``keys`` names the settings
    that the failed check constrains, in the order to blame them; it is
    empty when the check blames no single setting."""

    def __init__(self, message: str, *keys: str):
        self.keys = keys
        super().__init__(message)

    @classmethod
    def check_finite(cls, config) -> None:
        """Raise one naming the first float setting of the config dataclass
        ``config``, or float in a tuple setting, that is NaN or infinite."""
        for f in fields(config):
            value = getattr(config, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise cls(f"{f.name} must be finite", f.name)


class DataConsistencyError(CriteriaError):
    """Cross-file references do not resolve (missing/duplicate/dangling ids)."""


class ShapeError(CriteriaError):
    """Arrays that must agree in shape (mode/ground-truth point counts) do not."""


class InvalidMapError(CriteriaError):
    """Map geometry is degenerate or violates load-time invariants."""


class DegenerateHeadingError(CriteriaError):
    """A direction was requested for a vector shorter than the noise floor."""


class InsufficientModesError(CriteriaError):
    """A pairwise metric needs at least two usable modes."""
