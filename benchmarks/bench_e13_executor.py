"""E13 — executor optimization: compiled expressions + logical planner.

Paper claim (Section 3.2, P1 Efficiency): the pipeline "should be
accessible by a holistic optimizer, which identifies optimization
opportunities, such as caching, batched computations, and sharing of
computation".  This benchmark measures the sharing-of-computation half:
compiling each operator's expressions once instead of interpreting the
AST per row, pushing predicates below joins, and hashing composite
equi-join keys.

Three workloads, each executed by the reference engine
(:class:`repro.sqldb.reference.ReferenceExecutor`: the seed engine's
unplanned, interpreted behaviour) and by the planned, compiled production
executor, with provenance capture off and on:

* ``filter-heavy`` — conjunctive WHERE + arithmetic projection over one
  wide table;
* ``join-heavy``   — composite-key equi-join the seed engine cannot hash
  (its detector only saw bare single equalities), forcing O(n·m);
* ``group-heavy``  — GROUP BY with multiple aggregates.

Parity is asserted on every run — identical result rows, where-lineage
and (at reduced scale) how-polynomials — because an optimizer that loses
provenance would silently break P3/P4 ("provenance survives
optimization", cf. Query By Provenance).  Results are also written
machine-readable to ``benchmarks/results/BENCH_executor.json``.

Expected shape: ≥3× on filter- and join-heavy (join-heavy typically far
more — the plan changes complexity class, not constants), with parity
everywhere.  ``E13_SCALE`` scales the row counts (CI smoke uses 0.1;
speedup floors are only asserted at full scale where timing is stable).
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from conftest import format_table, write_results
from repro.sqldb.database import Database
from repro.sqldb.executor import SelectExecutor
from repro.sqldb.parser import parse_sql
from repro.sqldb.reference import ReferenceExecutor
from repro.sqldb.types import Column, ColumnType

SCALE = float(os.environ.get("E13_SCALE", "1.0"))
#: Timing noise dominates small runs; only full scale asserts the floors.
ASSERT_SPEEDUPS = SCALE >= 1.0
HOW_PARITY_ROWS = 1500  # how-polynomials are costly; parity-check at this size

RESULTS_DIR = Path(__file__).parent / "results"


def _scaled(n: int) -> int:
    return max(50, int(n * SCALE))


# -- workload construction -----------------------------------------------------


def _filter_db() -> tuple[Database, str]:
    rng = random.Random(131)
    db = Database(capture_how=False)
    db.create_table(
        "events",
        [
            Column(name="id", type=ColumnType.INTEGER),
            Column(name="category", type=ColumnType.TEXT),
            Column(name="region", type=ColumnType.TEXT),
            Column(name="amount", type=ColumnType.FLOAT, nullable=True),
        ],
    )
    table = db.catalog.table("events")
    for i in range(_scaled(20_000)):
        amount = None if rng.random() < 0.05 else round(rng.uniform(0, 1000), 2)
        table.insert(
            (i, f"c{rng.randrange(8)}", f"r{rng.randrange(5)}", amount)
        )
    sql = (
        "SELECT id, amount * 1.08 AS gross FROM events "
        "WHERE amount > 250 AND category = 'c3' AND region <> 'r0'"
    )
    return db, sql


def _join_db() -> tuple[Database, str]:
    rng = random.Random(137)
    db = Database(capture_how=False)
    db.create_table(
        "customers",
        [
            Column(name="a", type=ColumnType.INTEGER),
            Column(name="b", type=ColumnType.INTEGER),
            Column(name="name", type=ColumnType.TEXT),
        ],
    )
    db.create_table(
        "orders",
        [
            Column(name="id", type=ColumnType.INTEGER),
            Column(name="cust_a", type=ColumnType.INTEGER, nullable=True),
            Column(name="cust_b", type=ColumnType.INTEGER),
            Column(name="amount", type=ColumnType.FLOAT),
        ],
    )
    customers = db.catalog.table("customers")
    n_customers = _scaled(200)
    for i in range(n_customers):
        customers.insert((i, i % 10, f"cust{i}"))
    orders = db.catalog.table("orders")
    for i in range(_scaled(3_000)):
        cust = None if rng.random() < 0.02 else rng.randrange(n_customers)
        orders.insert(
            (i, cust, (cust or 0) % 10, round(rng.uniform(5, 500), 2))
        )
    # Composite key: the seed detector only hashed bare single equalities,
    # so this AND condition fell to the O(n·m) nested loop.
    sql = (
        "SELECT o.id, c.name, o.amount FROM orders o "
        "JOIN customers c ON o.cust_a = c.a AND o.cust_b = c.b "
        "WHERE o.amount > 20"
    )
    return db, sql


def _group_db() -> tuple[Database, str]:
    rng = random.Random(139)
    db = Database(capture_how=False)
    db.create_table(
        "sales",
        [
            Column(name="region", type=ColumnType.TEXT),
            Column(name="product", type=ColumnType.TEXT),
            Column(name="amount", type=ColumnType.FLOAT, nullable=True),
        ],
    )
    table = db.catalog.table("sales")
    for _ in range(_scaled(20_000)):
        amount = None if rng.random() < 0.05 else round(rng.uniform(1, 200), 2)
        table.insert(
            (f"r{rng.randrange(12)}", f"p{rng.randrange(40)}", amount)
        )
    sql = (
        "SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean "
        "FROM sales GROUP BY region ORDER BY region"
    )
    return db, sql


WORKLOADS = [
    ("filter-heavy", _filter_db),
    ("join-heavy", _join_db),
    ("group-heavy", _group_db),
]


# -- measurement ----------------------------------------------------------------


REPEATS = 3


def _run(db: Database, sql: str, capture_lineage: bool, executor_class):
    """Best-of-``REPEATS`` wall time (steady state: a conversational
    workload re-runs queries against warm interned scan provenance)."""
    statement = parse_sql(sql)
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        executor = executor_class(
            db.catalog,
            capture_lineage=capture_lineage,
            capture_how=False,
        )
        started = time.perf_counter()
        result = executor.execute(statement)
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best, result


def _assert_parity(optimized, interpreted, capture_how: bool = False) -> None:
    assert optimized.columns == interpreted.columns
    assert optimized.rows == interpreted.rows
    assert optimized.lineage == interpreted.lineage
    assert optimized.scanned_rows == interpreted.scanned_rows
    if capture_how:
        assert optimized.how == interpreted.how


def _how_parity(db: Database, sql: str) -> bool:
    """Full how-polynomial parity on a truncated copy of the workload.

    How capture is quadratic-ish in derivation counts, so the check runs
    on the first ``HOW_PARITY_ROWS`` rows of each table — enough to
    exercise join products and group sums without dominating the bench.
    """
    small = Database(capture_how=True)
    for name in db.catalog.table_names:
        table = db.catalog.table(name)
        clone = small.create_table(name, list(table.schema.columns))
        for _row_id, values in list(table.rows_with_ids())[:HOW_PARITY_ROWS]:
            clone.insert(values)
    statement = parse_sql(sql)
    optimized = SelectExecutor(small.catalog, capture_how=True).execute(statement)
    interpreted = ReferenceExecutor(small.catalog, capture_how=True).execute(
        statement
    )
    _assert_parity(optimized, interpreted, capture_how=True)
    return True


def test_e13_executor_optimization(benchmark):
    records = []
    table_rows = []
    for workload_name, build in WORKLOADS:
        db, sql = build()
        for capture_lineage in (False, True):
            interp_elapsed, interpreted = _run(
                db, sql, capture_lineage, ReferenceExecutor
            )
            opt_elapsed, optimized = _run(db, sql, capture_lineage, SelectExecutor)
            _assert_parity(optimized, interpreted)
            speedup = interp_elapsed / opt_elapsed if opt_elapsed else float("inf")
            records.append(
                {
                    "workload": workload_name,
                    "provenance": "lineage" if capture_lineage else "off",
                    "result_rows": len(optimized.rows),
                    "scanned_rows": optimized.scanned_rows,
                    "interpreted_seconds": round(interp_elapsed, 6),
                    "optimized_seconds": round(opt_elapsed, 6),
                    "speedup": round(speedup, 2),
                    "parity": True,
                }
            )
            table_rows.append(
                [
                    workload_name,
                    "lineage" if capture_lineage else "off",
                    f"{optimized.scanned_rows}",
                    f"{interp_elapsed * 1000:.1f}",
                    f"{opt_elapsed * 1000:.1f}",
                    f"{speedup:.1f}x",
                ]
            )
        how_ok = _how_parity(db, sql)
        records.append(
            {
                "workload": workload_name,
                "provenance": "lineage+how",
                "parity_rows": HOW_PARITY_ROWS,
                "parity": how_ok,
            }
        )

    payload = {
        "experiment": "E13",
        "scale": SCALE,
        "speedup_floor_asserted": ASSERT_SPEEDUPS,
        "workloads": records,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_executor.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    write_results(
        "e13_executor",
        format_table(
            ["workload", "provenance", "scanned", "interp ms", "opt ms", "speedup"],
            table_rows,
            title=f"E13: compiled expressions + planner (scale={SCALE})",
        ),
    )

    # Timed kernel: the optimized filter-heavy query with lineage on.
    db, sql = _filter_db()
    statement = parse_sql(sql)
    benchmark(
        lambda: SelectExecutor(db.catalog).execute(statement)
    )

    by_key = {
        (record["workload"], record["provenance"]): record for record in records
    }
    if ASSERT_SPEEDUPS:
        # Acceptance floor: ≥3× on filter- and join-heavy in both modes.
        for workload_name in ("filter-heavy", "join-heavy"):
            for mode in ("off", "lineage"):
                assert by_key[(workload_name, mode)]["speedup"] >= 3.0, (
                    workload_name,
                    mode,
                )
        assert by_key[("group-heavy", "lineage")]["speedup"] >= 1.0
