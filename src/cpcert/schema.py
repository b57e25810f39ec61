"""The kinds of JSON value a config holds, and the one checker of its keys.

Standard library only, so that :mod:`cpcert.harness` checks a config
without importing numpy.
"""

from __future__ import annotations

import math


def is_int(v) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """A JSON number that is a finite float: not a bool, NaN, an infinity
    (Python's json parses Infinity and NaN) or an int too large for a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def is_finite_list(v) -> bool:
    """A JSON list of finite numbers."""
    return isinstance(v, list) and all(map(is_finite_number, v))


def in_unit_range(v) -> bool:
    """A finite number in (0, 1], the range of the paper's theta and of a
    step-size safety factor."""
    return is_finite_number(v) and 0 < v <= 1


# The kinds of JSON value that the tables of :func:`check_fields` take:
# (ok, what), where ``ok(value)`` accepts a value that ``what`` describes.
INTEGER = (is_int, "an integer")
COUNT = (lambda v: is_int(v) and v >= 1, "an integer >= 1")
COUNT2 = (lambda v: is_int(v) and v >= 2, "an integer >= 2")
SEED = (lambda v: is_int(v) and v >= 0, "an integer >= 0")
NUMBER = (is_finite_number, "a finite number")
NONNEGATIVE = (lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0")
POSITIVE = (lambda v: is_finite_number(v) and v > 0, "a finite number > 0")
STRING = (lambda v: isinstance(v, str), "a string")
OBJECT = (lambda v: isinstance(v, dict), "an object")
VECTOR = (is_finite_list, "a list of finite numbers")
UNIT = (in_unit_range, "a finite number in (0, 1]")
UNIT_LIST = (lambda v: isinstance(v, list) and v != [] and all(map(in_unit_range, v)),
             "a non-empty list of finite numbers in (0, 1]")


def check_fields(obj, fields: dict, where: str, name: str, required=(),
                 error=ValueError) -> None:
    """Check the JSON object ``obj`` against ``fields``, the table of the
    keys it may have, each mapped to its kind (see ``INTEGER``).

    Raises ``error`` (a ValueError subclass) if ``obj`` is not an object,
    has keys outside the table (naming them and ``where`` they are), or
    has a value that its kind rejects, a missing key of ``required``
    counting as None; the field is named ``name.format(key)``.
    """
    if not isinstance(obj, dict):
        raise error(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise error(f"unknown keys in {where}: {sorted(unknown)}")
    for key, (ok, what) in fields.items():
        if (key in obj or key in required) and not ok(obj.get(key)):
            raise error(f"{name.format(key)} must be {what}, got {obj.get(key)!r}")
