"""Parameter validation helpers.

The analytical model and the simulator share a large space of numeric
parameters (port counts, tree heights, message lengths, arrival rates).
Invalid combinations fail late and confusingly inside numeric code, so every
public constructor validates its inputs through the helpers in this module
and raises :class:`ValidationError` with a precise message instead.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Iterable, Sequence


class ValidationError(ValueError):
    """Raised when a model or simulator parameter is invalid."""


def _name(name: str | None) -> str:
    return name if name else "value"


def check_positive(value: float, name: str | None = None) -> float:
    """Return ``value`` if it is a finite number strictly greater than zero."""
    value = _check_finite_number(value, name)
    if value <= 0:
        raise ValidationError(f"{_name(name)} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str | None = None) -> float:
    """Return ``value`` if it is a finite number greater than or equal to zero."""
    value = _check_finite_number(value, name)
    if value < 0:
        raise ValidationError(f"{_name(name)} must be >= 0, got {value!r}")
    return value


def check_probability(value: float, name: str | None = None) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1]."""
    value = _check_finite_number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{_name(name)} must be in [0, 1], got {value!r}")
    return value


def check_positive_int(value: Any, name: str | None = None) -> int:
    """Return ``value`` as an ``int`` if it is an integer strictly greater than zero."""
    ivalue = _check_integer(value, name)
    if ivalue <= 0:
        raise ValidationError(f"{_name(name)} must be a positive integer, got {value!r}")
    return ivalue


def check_non_negative_int(value: Any, name: str | None = None) -> int:
    """Return ``value`` as an ``int`` if it is a non-negative integer.

    Python and NumPy integers pass; bools, floats (integral ones too) and
    strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(
            f"{_name(name)} must be a non-negative integer, got {value!r}"
        )
    return int(value)


def check_even(value: Any, name: str | None = None) -> int:
    """Return ``value`` as an ``int`` if it is an even integer."""
    ivalue = _check_integer(value, name)
    if ivalue % 2 != 0:
        raise ValidationError(f"{_name(name)} must be even, got {value!r}")
    return ivalue


def check_in_range(
    value: float,
    low: float,
    high: float,
    name: str | None = None,
    *,
    inclusive: bool = True,
) -> float:
    """Return ``value`` if it lies inside ``[low, high]`` (or ``(low, high)``)."""
    value = _check_finite_number(value, name)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValidationError(f"{_name(name)} must be in {bounds}, got {value!r}")
    return value


def check_power_of(value: Any, base: int, name: str | None = None) -> int:
    """Return ``value`` if it is an exact integer power of ``base`` (>= 1)."""
    ivalue = _check_integer(value, name)
    if base < 2:
        raise ValidationError(f"base must be >= 2, got {base!r}")
    if ivalue < 1:
        raise ValidationError(f"{_name(name)} must be >= 1, got {value!r}")
    current = 1
    while current < ivalue:
        current *= base
    if current != ivalue:
        raise ValidationError(
            f"{_name(name)} must be a power of {base}, got {value!r}"
        )
    return ivalue


def check_sequence_of_positive_ints(
    values: Iterable[Any], name: str | None = None
) -> tuple[int, ...]:
    """Validate a non-empty sequence of positive integers (e.g. tree heights)."""
    out = tuple(values)
    if not out:
        raise ValidationError(f"{_name(name)} must not be empty")
    return tuple(check_positive_int(v, f"{_name(name)}[{idx}]") for idx, v in enumerate(out))


def check_same_length(
    a: Sequence[Any], b: Sequence[Any], name_a: str = "a", name_b: str = "b"
) -> None:
    """Raise unless ``a`` and ``b`` have the same length."""
    if len(a) != len(b):
        raise ValidationError(
            f"{name_a} (len {len(a)}) and {name_b} (len {len(b)}) must have the same length"
        )


def _check_finite_number(value: Any, name: str | None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{_name(name)} must be a number, got {type(value).__name__}")
    fvalue = float(value)
    if math.isnan(fvalue) or math.isinf(fvalue):
        raise ValidationError(f"{_name(name)} must be finite, got {value!r}")
    return fvalue


def _check_integer(value: Any, name: str | None) -> int:
    if isinstance(value, bool):
        raise ValidationError(f"{_name(name)} must be an integer, got bool")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{_name(name)} must be an integer, got {value!r}")
