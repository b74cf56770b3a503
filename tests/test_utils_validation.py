"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    require,
    require_finite_rows,
    require_in_range,
    require_positive,
    require_power_of_two,
)


def test_require_passes_and_raises():
    require(True, "fine")
    with pytest.raises(ValueError, match="broken"):
        require(False, "broken")


def test_require_positive():
    require_positive(0.5, "x")
    for bad in (0, -1, -0.001):
        with pytest.raises(ValueError):
            require_positive(bad, "x")


def test_require_in_range_inclusive():
    require_in_range(1, 1, 2, "x")
    require_in_range(2, 1, 2, "x")
    with pytest.raises(ValueError):
        require_in_range(2.01, 1, 2, "x")


def test_require_power_of_two():
    for good in (1, 2, 4, 512, 4096):
        require_power_of_two(good, "x")
    for bad in (0, -2, 3, 513):
        with pytest.raises(ValueError):
            require_power_of_two(bad, "x")


def test_require_finite_rows_names_the_first_bad_row():
    matrix = np.zeros((4, 3), dtype=np.float32)
    require_finite_rows(matrix, "queries")
    matrix[2, 1] = np.inf
    matrix[3, 0] = np.nan
    with pytest.raises(ValueError, match="queries row 2 has a NaN or infinite component"):
        require_finite_rows(matrix, "queries")
