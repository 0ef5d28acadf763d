"""Scalar function library for the SQL engine.

Functions follow SQL convention: unless documented otherwise, a NULL
argument yields NULL.  The registry is a plain dict so the library is
trivially extensible — the analytics layer registers nothing here; it
operates on result sets instead, so the set below stays small and audited.
"""

from __future__ import annotations

import datetime
import math
from typing import Callable

from repro.errors import ExecutionError
from repro.sqldb.types import SQLValue


def _require_number(value: SQLValue, function: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"{function} requires a numeric argument, got {value!r}")
    return value


def _require_string(value: SQLValue, function: str) -> str:
    if not isinstance(value, str):
        raise ExecutionError(f"{function} requires a string argument, got {value!r}")
    return value


def _require_date(value: SQLValue, function: str) -> datetime.date:
    text = _require_string(value, function)
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise ExecutionError(f"{function} requires an ISO date, got {value!r}") from exc


def _null_passthrough(func: Callable) -> Callable:
    """Wrap a function so that any NULL argument short-circuits to NULL."""

    def wrapper(args: list[SQLValue]) -> SQLValue:
        if any(arg is None for arg in args):
            return None
        return func(args)

    return wrapper


def _check_arity(name: str, args: list[SQLValue], minimum: int, maximum: int) -> None:
    if not (minimum <= len(args) <= maximum):
        if minimum == maximum:
            expected = str(minimum)
        else:
            expected = f"{minimum}..{maximum}"
        raise ExecutionError(
            f"{name} expects {expected} argument(s), got {len(args)}"
        )


# -- implementations ----------------------------------------------------------


def _fn_upper(args: list[SQLValue]) -> SQLValue:
    return _require_string(args[0], "UPPER").upper()


def _fn_lower(args: list[SQLValue]) -> SQLValue:
    return _require_string(args[0], "LOWER").lower()


def _fn_length(args: list[SQLValue]) -> SQLValue:
    return len(_require_string(args[0], "LENGTH"))


def _fn_trim(args: list[SQLValue]) -> SQLValue:
    return _require_string(args[0], "TRIM").strip()


def _fn_substr(args: list[SQLValue]) -> SQLValue:
    text = _require_string(args[0], "SUBSTR")
    start = int(_require_number(args[1], "SUBSTR"))
    if start < 1:
        raise ExecutionError("SUBSTR start position is 1-based and must be >= 1")
    if len(args) == 3:
        count = int(_require_number(args[2], "SUBSTR"))
        if count < 0:
            raise ExecutionError("SUBSTR length must be >= 0")
        return text[start - 1 : start - 1 + count]
    return text[start - 1 :]


def _fn_replace(args: list[SQLValue]) -> SQLValue:
    text = _require_string(args[0], "REPLACE")
    old = _require_string(args[1], "REPLACE")
    new = _require_string(args[2], "REPLACE")
    return text.replace(old, new)


def _fn_concat(args: list[SQLValue]) -> SQLValue:
    return "".join(_require_string(arg, "CONCAT") for arg in args)


def _fn_abs(args: list[SQLValue]) -> SQLValue:
    return abs(_require_number(args[0], "ABS"))


def _fn_round(args: list[SQLValue]) -> SQLValue:
    value = _require_number(args[0], "ROUND")
    digits = 0
    if len(args) == 2:
        digits = int(_require_number(args[1], "ROUND"))
    result = round(float(value), digits)
    if digits <= 0:
        return int(result)
    return result


def _fn_floor(args: list[SQLValue]) -> SQLValue:
    return math.floor(_require_number(args[0], "FLOOR"))


def _fn_ceil(args: list[SQLValue]) -> SQLValue:
    return math.ceil(_require_number(args[0], "CEIL"))


def _fn_sqrt(args: list[SQLValue]) -> SQLValue:
    value = _require_number(args[0], "SQRT")
    if value < 0:
        raise ExecutionError("SQRT of a negative number")
    return math.sqrt(value)


def _fn_power(args: list[SQLValue]) -> SQLValue:
    base = _require_number(args[0], "POWER")
    exponent = _require_number(args[1], "POWER")
    return float(base) ** float(exponent)


def sql_remainder(left: int | float, right: int | float) -> int | float:
    """``left % right`` signed like the dividend (SQL), not the divisor (Python).

    Integers stay exact; any float operand gives :func:`math.fmod`'s
    fractional remainder.  The caller rejects a zero divisor.
    """
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    return math.fmod(left, right)


def _fn_mod(args: list[SQLValue]) -> SQLValue:
    left = _require_number(args[0], "MOD")
    right = _require_number(args[1], "MOD")
    if right == 0:
        raise ExecutionError("MOD by zero")
    return sql_remainder(left, right)


def _fn_year(args: list[SQLValue]) -> SQLValue:
    return _require_date(args[0], "YEAR").year


def _fn_month(args: list[SQLValue]) -> SQLValue:
    return _require_date(args[0], "MONTH").month


def _fn_day(args: list[SQLValue]) -> SQLValue:
    return _require_date(args[0], "DAY").day


def _fn_coalesce(args: list[SQLValue]) -> SQLValue:
    # Deliberately not NULL-passthrough: COALESCE exists to absorb NULLs.
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_nullif(args: list[SQLValue]) -> SQLValue:
    # NULLIF(a, b) is NULL when a = b, else a.  NULL propagates from a.
    left, right = args
    if left is None:
        return None
    if right is not None and left == right:
        return None
    return left


def _fn_ifnull(args: list[SQLValue]) -> SQLValue:
    left, right = args
    return right if left is None else left


#: name -> (implementation, min arity, max arity, null-passthrough?)
_REGISTRY: dict[str, tuple[Callable, int, int, bool]] = {
    "UPPER": (_fn_upper, 1, 1, True),
    "LOWER": (_fn_lower, 1, 1, True),
    "LENGTH": (_fn_length, 1, 1, True),
    "TRIM": (_fn_trim, 1, 1, True),
    "SUBSTR": (_fn_substr, 2, 3, True),
    "SUBSTRING": (_fn_substr, 2, 3, True),
    "REPLACE": (_fn_replace, 3, 3, True),
    "CONCAT": (_fn_concat, 1, 8, True),
    "ABS": (_fn_abs, 1, 1, True),
    "ROUND": (_fn_round, 1, 2, True),
    "FLOOR": (_fn_floor, 1, 1, True),
    "CEIL": (_fn_ceil, 1, 1, True),
    "CEILING": (_fn_ceil, 1, 1, True),
    "SQRT": (_fn_sqrt, 1, 1, True),
    "POWER": (_fn_power, 2, 2, True),
    "MOD": (_fn_mod, 2, 2, True),
    "YEAR": (_fn_year, 1, 1, True),
    "MONTH": (_fn_month, 1, 1, True),
    "DAY": (_fn_day, 1, 1, True),
    "COALESCE": (_fn_coalesce, 1, 16, False),
    "NULLIF": (_fn_nullif, 2, 2, False),
    "IFNULL": (_fn_ifnull, 2, 2, False),
}


def scalar_function_names() -> list[str]:
    """All registered scalar function names, sorted."""
    return sorted(_REGISTRY)


def call_scalar_function(name: str, args: list[SQLValue]) -> SQLValue:
    """Invoke the scalar function ``name`` on already-evaluated ``args``."""
    key = name.upper()
    if key not in _REGISTRY:
        raise ExecutionError(f"unknown function: {name}")
    func, minimum, maximum, null_passthrough = _REGISTRY[key]
    _check_arity(key, args, minimum, maximum)
    if null_passthrough:
        return _null_passthrough(func)(args)
    return func(args)
