"""Shared expression semantics: SQL three-valued logic and row layouts.

:mod:`repro.sqldb.compile` lowers expressions to closures over the
value tuples of a :class:`RowLayout`; the helpers here implement the
semantics every evaluator shares, so a qualified (``t.col``) and an
unqualified (``col``) reference resolve the way they would in a real
engine, including detection of ambiguous names.  The per-row AST
interpreter built on the same helpers lives in
:mod:`repro.sqldb.reference` and serves only as a test oracle.

NULL semantics follow the SQL standard:

* any comparison or arithmetic with NULL yields NULL,
* ``AND`` / ``OR`` use Kleene three-valued logic,
* ``WHERE`` / ``HAVING`` keep only rows whose predicate is exactly TRUE,
* ``%`` takes the sign of the dividend (``-3 % 2 = -1``), as in SQLite
  and Postgres.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.sqldb.functions import sql_remainder
from repro.sqldb.types import SQLValue


@dataclass(frozen=True)
class BoundColumn:
    """One slot of an intermediate row: which binding and column it holds."""

    binding: str  # table alias or name this column is visible under
    name: str  # column name


class RowLayout:
    """The shared column layout of an operator's output rows."""

    def __init__(self, columns: list[BoundColumn]):
        self.columns = columns
        self._index: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        for position, bound in enumerate(columns):
            self._index[(bound.binding.lower(), bound.name.lower())] = position
            self._by_name.setdefault(bound.name.lower(), []).append(position)

    @classmethod
    def for_table(cls, table, binding: str) -> "RowLayout":
        """The layout of a scan of ``table`` visible under ``binding``."""
        return cls(
            [BoundColumn(binding=binding, name=column.name) for column in table.schema]
        )

    def __len__(self) -> int:
        return len(self.columns)

    def resolve(self, name: str, table: str | None = None) -> int:
        """Position of the column ``[table.]name``; raises on miss/ambiguity."""
        if table is not None:
            key = (table.lower(), name.lower())
            if key not in self._index:
                raise ExecutionError(f"no such column: {table}.{name}")
            return self._index[key]
        positions = self._by_name.get(name.lower(), [])
        if not positions:
            raise ExecutionError(f"no such column: {name}")
        if len(positions) > 1:
            raise ExecutionError(f"ambiguous column reference: {name}")
        return positions[0]

    def has(self, name: str, table: str | None = None) -> bool:
        """Whether ``[table.]name`` resolves to exactly one column."""
        try:
            self.resolve(name, table)
        except ExecutionError:
            return False
        return True

    def concat(self, other: "RowLayout") -> "RowLayout":
        """Layout of the concatenation of two rows (used by joins)."""
        return RowLayout(self.columns + other.columns)


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern to an anchored regular expression."""
    pieces = ["^"]
    for char in pattern:
        if char == "%":
            pieces.append(".*")
        elif char == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(char))
    pieces.append("$")
    return re.compile("".join(pieces), re.DOTALL)


def _is_number(value: SQLValue) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(operator: str, left: SQLValue, right: SQLValue) -> bool | None:
    """Three-valued comparison; NULL operands yield NULL (None)."""
    if left is None or right is None:
        return None
    both_numbers = _is_number(left) and _is_number(right)
    if not both_numbers and type(left) is not type(right):
        raise ExecutionError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    if operator == "=":
        return left == right
    if operator == "<>":
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {operator!r}")


def _arithmetic(operator: str, left: SQLValue, right: SQLValue) -> SQLValue:
    """Three-valued arithmetic; ``||`` is string concatenation."""
    if operator == "||":
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            raise ExecutionError("|| requires string operands")
        return left + right
    if left is None or right is None:
        return None
    if not _is_number(left) or not _is_number(right):
        raise ExecutionError(
            f"arithmetic {operator!r} requires numeric operands, "
            f"got {left!r} and {right!r}"
        )
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    if operator == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        result = left / right
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return left // right
        return result
    if operator == "%":
        if right == 0:
            raise ExecutionError("modulo by zero")
        return sql_remainder(left, right)
    raise ExecutionError(f"unknown arithmetic operator {operator!r}")


def _kleene_and(left: bool | None, right: bool | None) -> bool | None:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _kleene_or(left: bool | None, right: bool | None) -> bool | None:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _as_bool(value: SQLValue, context: str) -> bool | None:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    raise ExecutionError(f"{context} requires a boolean, got {value!r}")
