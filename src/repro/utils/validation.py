"""Small argument-validation helpers used across the library."""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "require",
    "as_int",
    "require_positive",
    "require_in_range",
    "require_power_of_two",
    "require_finite_rows",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` when ``condition`` is false."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_in_range(value: float, low: float, high: float, name: str) -> None:
    """Raise unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")


def require_power_of_two(value: int, name: str) -> None:
    """Raise unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")


def as_int(value: Any, name: str) -> int:
    """Coerce ``value`` to int, rejecting values that lose precision."""
    result = int(value)
    if result != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return result


def require_finite_rows(matrix: np.ndarray, name: str) -> None:
    """Raise, naming the first offending row, unless every entry is finite.

    One vectorized check for a whole ``(rows, d)`` matrix; the row scan
    only runs on the failure path.
    """
    if not np.isfinite(matrix).all():
        row = int(np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0])
        raise ValueError(f"{name} row {row} has a NaN or infinite component")
