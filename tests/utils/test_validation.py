"""Tests of the parameter-validation helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import ValidationError
from repro.utils.validation import (
    check_even,
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_power_of,
    check_probability,
    check_same_length,
    check_sequence_of_positive_ints,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.5) == 0.5
        assert check_positive(3) == 3.0

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValidationError):
            check_positive(bad, "rate")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "3", None, True])
    def test_rejects_non_finite_and_non_numbers(self, bad):
        with pytest.raises(ValidationError):
            check_positive(bad)

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="lambda_g"):
            check_positive(-1, "lambda_g")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_non_negative(-1e-9)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability(value) == value

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 5])
    def test_rejects_outside_unit_interval(self, bad):
        with pytest.raises(ValidationError):
            check_probability(bad)


class TestCheckPositiveInt:
    def test_accepts_int_and_integral_float(self):
        assert check_positive_int(4) == 4
        assert check_positive_int(4.0) == 4

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValidationError):
            check_positive_int(bad)


class TestCheckNonNegativeInt:
    @pytest.mark.parametrize(
        "value", [0, 7, np.int64(3), np.uint8(3)], ids=["0", "7", "int64(3)", "uint8(3)"]
    )
    def test_accepts_python_and_numpy_integers(self, value):
        result = check_non_negative_int(value, "seed")
        assert result == value
        assert type(result) is int

    # Unlike check_positive_int, an integral float is refused too.
    @pytest.mark.parametrize(
        "bad",
        [-1, 2.5, 3.0, "4", True, None, np.int64(-1), np.float64(3.0)],
        ids=["-1", "2.5", "3.0", "'4'", "True", "None", "int64(-1)", "float64(3.0)"],
    )
    def test_rejects_negatives_and_non_integers(self, bad):
        with pytest.raises(ValidationError):
            check_non_negative_int(bad)

    def test_error_message_contains_name(self):
        with pytest.raises(ValidationError, match="warmup_messages"):
            check_non_negative_int(-1, "warmup_messages")


class TestCheckEven:
    def test_accepts_even(self):
        assert check_even(8) == 8
        assert check_even(0) == 0

    def test_rejects_odd(self):
        with pytest.raises(ValidationError):
            check_even(7, "m")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(1.0, 1.0, 2.0) == 1.0
        assert check_in_range(2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValidationError):
            check_in_range(1.0, 1.0, 2.0, inclusive=False)
        assert check_in_range(1.5, 1.0, 2.0, inclusive=False) == 1.5

    def test_outside_raises(self):
        with pytest.raises(ValidationError):
            check_in_range(3.0, 0.0, 2.0, "utilisation")


class TestCheckPowerOf:
    @pytest.mark.parametrize("value", [1, 2, 4, 64])
    def test_accepts_powers_of_two(self, value):
        assert check_power_of(value, 2) == value

    @pytest.mark.parametrize("bad", [3, 6, 12, 0, -4])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(ValidationError):
            check_power_of(bad, 2)

    def test_rejects_bad_base(self):
        with pytest.raises(ValidationError):
            check_power_of(4, 1)

    @given(st.integers(min_value=0, max_value=12))
    def test_all_powers_of_three_accepted(self, exponent):
        assert check_power_of(3**exponent, 3) == 3**exponent


class TestSequences:
    def test_sequence_of_positive_ints(self):
        assert check_sequence_of_positive_ints([1, 2, 3]) == (1, 2, 3)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            check_sequence_of_positive_ints([], "heights")

    def test_sequence_with_bad_member_rejected(self):
        with pytest.raises(ValidationError, match=r"heights\[1\]"):
            check_sequence_of_positive_ints([1, 0, 3], "heights")

    def test_same_length_ok(self):
        check_same_length([1, 2], ["a", "b"])

    def test_same_length_mismatch(self):
        with pytest.raises(ValidationError):
            check_same_length([1], [1, 2], "sizes", "heights")


@given(st.floats(allow_nan=False, allow_infinity=False, min_value=1e-12, max_value=1e12))
def test_check_positive_round_trips_value(value):
    assert check_positive(value) == value


@given(st.floats())
def test_check_positive_never_lets_nan_through(value):
    if math.isnan(value) or math.isinf(value) or value <= 0:
        with pytest.raises(ValidationError):
            check_positive(value)
    else:
        assert check_positive(value) == value
