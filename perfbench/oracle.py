"""Independent answer oracle: stdlib ``sqlite3`` over a copy of the rows.

Gold rows never come from ``repro.sqldb``: a defect there would move an
answer and its gold together.  Each domain's generated tables are copied
value by value into an in-memory SQLite database, and every gold query is
written in plain SQL against that copy.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass

_SQLITE_TYPES = {
    "INTEGER": "INTEGER",
    "FLOAT": "REAL",
    "TEXT": "TEXT",
    "BOOLEAN": "INTEGER",
    "DATE": "TEXT",
}

REL_TOL = 1e-6
ABS_TOL = 1e-9


class OracleError(RuntimeError):
    """A gold query failed: the run cannot be checked, so it fails."""


@dataclass(frozen=True)
class Gold:
    """What a data turn must return.

    ``key`` marks ORDER BY ... LIMIT answers, compared in order: it names
    the ordering column, and ``unlimited_sql`` is the same query without
    its LIMIT, so rows that tie on the key may come back in any order, as
    SQL allows, and still count as correct.  Without a key the rows are
    compared as a multiset.
    """

    sql: str
    key: str | None = None
    unlimited_sql: str | None = None


@dataclass
class GoldRows:
    columns: list[str]
    rows: list[tuple]
    #: Ordered answers only: the ordering column's index.
    key_index: int | None = None
    #: Ordered answers only: every row the unlimited query returns.
    pool: list[tuple] | None = None


class SQLiteOracle:
    """Gold answers for one domain's tables."""

    def __init__(self, catalog):
        self.connection = sqlite3.connect(":memory:")
        self.rows_per_table: dict[str, int] = {}
        for name in catalog.table_names:
            table = catalog.table(name)
            columns = ", ".join(
                f'"{column.name}" {_SQLITE_TYPES[column.type.value]}'
                for column in table.schema
            )
            self.connection.execute(f'CREATE TABLE "{name}" ({columns})')
            rows = [tuple(_sqlite_value(v) for v in row) for row in table.rows()]
            marks = ", ".join("?" for _ in table.schema)
            self.connection.executemany(
                f'INSERT INTO "{name}" VALUES ({marks})', rows
            )
            self.rows_per_table[name] = len(rows)
        self.connection.commit()

    def close(self) -> None:
        self.connection.close()

    def query(self, sql: str) -> tuple[list[str], list[tuple]]:
        try:
            cursor = self.connection.execute(sql)
            rows = cursor.fetchall()
        except sqlite3.Error as error:
            raise OracleError(f"gold query failed: {sql!r}: {error}") from error
        return [d[0] for d in cursor.description], rows

    def column(self, table: str, column: str) -> list:
        """Every value of one column, in insertion order (for generators)."""
        return [row[0] for row in self.query(f'SELECT "{column}" FROM "{table}"')[1]]

    def gold(self, spec: Gold) -> GoldRows:
        columns, rows = self.query(spec.sql)
        if spec.key is None:
            return GoldRows(columns, rows)
        if spec.key not in columns:
            raise OracleError(f"ordering key {spec.key!r} not in {columns}")
        _cols, pool = self.query(spec.unlimited_sql or spec.sql)
        return GoldRows(columns, rows, columns.index(spec.key), pool)


def _sqlite_value(value):
    if value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)


def values_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return str(a) == str(b)


def rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(values_equal(x, y) for x, y in zip(a, b))


def multiset_equal(answer: list[tuple], gold: list[tuple]) -> bool:
    """Rows equal as multisets, floats within tolerance."""
    if len(answer) != len(gold):
        return False
    unmatched = list(gold)
    for row in answer:
        for index, candidate in enumerate(unmatched):
            if rows_equal(row, candidate):
                del unmatched[index]
                break
        else:
            return False
    return True


def _aligned(answer_columns: list[str], gold: GoldRows):
    """Gold columns in the answer's column order when both name the same
    columns; positional otherwise (aggregate aliases differ by system)."""
    names = [c.split(".")[-1].lower() for c in answer_columns]
    gold_names = [c.lower() for c in gold.columns]
    if sorted(names) != sorted(gold_names) or names == gold_names:
        return gold.rows, gold.pool, gold.key_index
    order = [gold_names.index(name) for name in names]

    def permute(rows):
        return None if rows is None else [tuple(r[i] for i in order) for r in rows]

    key = None if gold.key_index is None else order.index(gold.key_index)
    return permute(gold.rows), permute(gold.pool), key


def answer_matches(
    answer_columns: list[str], answer_rows: list, gold: GoldRows
) -> bool:
    """Whether a DATA answer's rows agree with the oracle's gold rows."""
    rows = [tuple(row) for row in answer_rows]
    gold_rows, pool, key = _aligned(answer_columns, gold)
    if len(rows) != len(gold_rows):
        return False
    if any(len(row) != len(gold.columns) for row in rows):
        return False
    if key is None:
        return multiset_equal(rows, gold_rows)
    # Ordered with ties allowed: the key sequence must match exactly, and
    # the rows sharing one key value must be rows of the unlimited result
    # with that key.
    if not all(values_equal(a[key], g[key]) for a, g in zip(rows, gold_rows)):
        return False
    index = 0
    while index < len(rows):
        end = index
        while end < len(rows) and values_equal(rows[end][key], rows[index][key]):
            end += 1
        remaining = [r for r in pool if values_equal(r[key], rows[index][key])]
        for row in rows[index:end]:
            for position, candidate in enumerate(remaining):
                if rows_equal(row, candidate):
                    del remaining[position]
                    break
            else:
                return False
        index = end
    return True
