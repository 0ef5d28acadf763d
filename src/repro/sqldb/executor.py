"""Query executor with built-in provenance capture.

The executor evaluates a :class:`~repro.sqldb.ast.SelectStatement` against
a :class:`~repro.sqldb.catalog.Catalog` one operator at a time: scan →
join → filter → group/aggregate → having → project → distinct → sort →
limit.  Each intermediate row carries

* **where-lineage** — the set of ``(table, row_id)`` base rows it derives
  from, and
* optionally a **how-provenance** polynomial (see
  :mod:`repro.provenance.semiring`), with joins multiplying and
  duplicate-merging/grouping adding.

Capturing lineage is what lets the explainability layer (P3) produce
lossless, invertible explanations, and the soundness layer (P4) re-derive
answers from their cited sources.

The executor runs the plan produced by :mod:`repro.sqldb.planner` —
predicates pushed below joins, composite hash keys for INNER and LEFT
joins — and evaluates every expression through :mod:`repro.sqldb.compile`
closures.  Scan provenance (singleton lineage sets and how-variables) is
interned per table version so repeated queries share it.  The FROM clause
is read through one hook, :meth:`SelectExecutor._from_clause`; the
unplanned, interpreted engine in :mod:`repro.sqldb.reference` overrides
it (and expression compilation) to serve as the test oracle and as
benchmark E13's baseline.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.obs.metrics import counter
from repro.obs.trace import current_span
from repro.provenance.semiring import Polynomial, row_variable
from repro.sqldb import ast
from repro.sqldb.aggregates import make_aggregator
from repro.sqldb.catalog import Catalog
from repro.sqldb.compile import CompiledExpression, compile_expression
from repro.sqldb.expressions import BoundColumn, RowLayout
from repro.sqldb.planner import JoinPlan, plan_select, split_conjuncts
from repro.sqldb.table import Table
from repro.sqldb.types import SQLValue

#: A where-lineage set: base rows as (table_name, row_id) pairs.
Lineage = frozenset[tuple[str, int]]

# Plan-choice tallies (handles cached at import; registry resets in place).
_PLANS = counter("sqldb.planner.plans")
_PUSHED_CONJUNCTS = counter("sqldb.planner.pushed_conjuncts")
_HASH_JOINS = counter("sqldb.planner.hash_joins")

EMPTY_LINEAGE: Lineage = frozenset()

def _scan_provenance(
    table: Table, want_how: bool
) -> tuple[list[Lineage], list[Polynomial] | None]:
    """Shared singleton lineage sets (and how-variables) for every live row.

    Interned on the table instance itself (version-checked so any
    mutation invalidates); row order matches :meth:`Table.rows_with_ids`.
    """
    entry: tuple[int, list[Lineage], list[Polynomial] | None] | None = getattr(
        table, "_scan_provenance", None
    )
    if entry is not None and entry[0] == table.version:
        _version, lineages, hows = entry
        if not want_how or hows is not None:
            return lineages, hows
    name = table.name
    lineages = [frozenset({(name, row_id)}) for row_id, _values in table.rows_with_ids()]
    hows = (
        [
            Polynomial.var(row_variable(name, row_id))
            for row_id, _values in table.rows_with_ids()
        ]
        if want_how
        else None
    )
    object.__setattr__(table, "_scan_provenance", (table.version, lineages, hows))
    return lineages, hows


def _all_true(fns) -> "CompiledExpression":
    """Fuse conjunct closures into one all-exactly-TRUE test.

    Unrolled for the common small arities — a per-row generator
    expression would cost more than the conjuncts themselves.
    """
    if len(fns) == 1:
        f0 = fns[0]
        return lambda values: f0(values) is True
    if len(fns) == 2:
        f0, f1 = fns
        return lambda values: f0(values) is True and f1(values) is True
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda values: (
            f0(values) is True and f1(values) is True and f2(values) is True
        )

    def fn(values):
        for conjunct_fn in fns:
            if conjunct_fn(values) is not True:
                return False
        return True

    return fn


@dataclass
class ExecRow:
    """One intermediate row: values plus provenance annotations."""

    values: tuple[SQLValue, ...]
    lineage: Lineage
    how: Polynomial | None


@dataclass
class Relation:
    """An operator output: a shared layout and a list of rows."""

    layout: RowLayout
    rows: list[ExecRow]


def unit_relation(capture_how: bool) -> Relation:
    """The input of a SELECT without FROM: one empty row."""
    one = Polynomial.one() if capture_how else None
    return Relation(RowLayout([]), [ExecRow((), EMPTY_LINEAGE, one)])


@dataclass
class SelectResult:
    """The final output of executing a SELECT."""

    columns: list[str]
    rows: list[tuple[SQLValue, ...]]
    lineage: list[Lineage]
    how: list[Polynomial] | None
    scanned_rows: int


class SelectExecutor:
    """Executes SELECT statements against a catalog.

    ``capture_lineage`` controls where-provenance (cheap set unions);
    ``capture_how`` additionally maintains N[X] polynomials (costlier —
    benchmark E5 quantifies the overhead).
    """

    def __init__(
        self,
        catalog: Catalog,
        capture_lineage: bool = True,
        capture_how: bool = False,
    ):
        self._catalog = catalog
        self._capture_lineage = capture_lineage
        self._capture_how = capture_how
        self._scanned_rows = 0
        #: Shared per-query memo for uncorrelated subqueries.
        self._subquery_cache: dict[str, list[tuple]] = {}

    # -- public entry point ------------------------------------------------------

    def execute(self, statement: ast.SelectStatement) -> SelectResult:
        """Run ``statement`` (and any UNION arms) with provenance."""
        result = self._execute_single(statement)
        if statement.union is None:
            return result
        keep_duplicates, right_statement = statement.union
        right = self.execute(right_statement)
        if len(right.columns) != len(result.columns):
            raise ExecutionError(
                "UNION arms must have the same number of columns "
                f"({len(result.columns)} vs {len(right.columns)})"
            )
        rows = result.rows + right.rows
        lineage = result.lineage + right.lineage
        how = None
        if result.how is not None and right.how is not None:
            how = result.how + right.how
        if not keep_duplicates:
            merged: dict[tuple, int] = {}
            kept_rows: list[tuple] = []
            kept_lineage: list[Lineage] = []
            kept_how: list[Polynomial] | None = [] if how is not None else None
            for index, row in enumerate(rows):
                key = tuple(row)
                if key in merged:
                    target = merged[key]
                    kept_lineage[target] = kept_lineage[target] | lineage[index]
                    if kept_how is not None:
                        kept_how[target] = kept_how[target] + how[index]
                    continue
                merged[key] = len(kept_rows)
                kept_rows.append(row)
                kept_lineage.append(lineage[index])
                if kept_how is not None:
                    kept_how.append(how[index])
            rows, lineage, how = kept_rows, kept_lineage, kept_how
        return SelectResult(
            columns=result.columns,
            rows=rows,
            lineage=lineage,
            how=how,
            scanned_rows=result.scanned_rows + right.scanned_rows,
        )

    def _run_subquery(self, statement: ast.SelectStatement) -> list[tuple]:
        """Execute an uncorrelated subquery on an executor of this class;
        lineage is not propagated (the subquery acts as a computed constant
        for the outer query)."""
        nested = type(self)(self._catalog, capture_lineage=False, capture_how=False)
        result = nested.execute(statement)
        self._scanned_rows += result.scanned_rows
        return result.rows

    # -- expression compilation ----------------------------------------------------

    def _compile_values(
        self,
        expressions: list[ast.Expression],
        layout: RowLayout,
        aggregate_slots: dict[str, int] | None = None,
    ) -> list[CompiledExpression]:
        """Per-row callables for ``expressions`` over ``layout`` tuples."""
        return [
            compile_expression(
                expression,
                layout,
                aggregate_slots=aggregate_slots,
                subquery_runner=self._run_subquery,
                subquery_cache=self._subquery_cache,
            )
            for expression in expressions
        ]

    def _compile_one(
        self,
        expression: ast.Expression,
        layout: RowLayout,
        aggregate_slots: dict[str, int] | None = None,
    ) -> CompiledExpression:
        return self._compile_values([expression], layout, aggregate_slots)[0]

    def _execute_single(self, statement: ast.SelectStatement) -> SelectResult:
        self._scanned_rows = 0
        self._subquery_cache = {}
        relation, residual_where = self._from_clause(statement)
        if residual_where is not None:
            relation = self._filter(relation, residual_where)
        aggregates = self._collect_aggregates(statement)
        if statement.group_by or aggregates:
            relation, aggregate_slots = self._group(relation, statement, aggregates)
        else:
            aggregate_slots = {}
        if statement.having is not None:
            if not statement.group_by and not aggregates:
                raise ExecutionError("HAVING requires GROUP BY or aggregates")
            relation = self._filter(relation, statement.having, aggregate_slots)
        columns, projected = self._project(relation, statement, aggregate_slots)
        if statement.distinct:
            projected = self._distinct(projected)
        if statement.order_by:
            projected = self._sort(
                projected, relation, statement, columns, aggregate_slots
            )
        projected = self._limit(projected, statement.limit, statement.offset)
        rows = [row.values for _pre, row in projected]
        lineage = [row.lineage for _pre, row in projected]
        how = [row.how for _pre, row in projected] if self._capture_how else None
        return SelectResult(
            columns=columns,
            rows=rows,
            lineage=lineage,
            how=how,
            scanned_rows=self._scanned_rows,
        )

    # -- provenance helpers --------------------------------------------------------

    def _merge_join(self, left: ExecRow, right: ExecRow) -> tuple[Lineage, Polynomial | None]:
        lineage = left.lineage | right.lineage if self._capture_lineage else EMPTY_LINEAGE
        how = None
        if self._capture_how:
            assert left.how is not None and right.how is not None
            how = left.how * right.how
        return lineage, how

    def _merge_union(self, rows: list[ExecRow]) -> tuple[Lineage, Polynomial | None]:
        lineage: Lineage = EMPTY_LINEAGE
        if self._capture_lineage:
            combined: set[tuple[str, int]] = set()
            for row in rows:
                combined |= row.lineage
            lineage = frozenset(combined)
        how = None
        if self._capture_how:
            how = Polynomial.sum_all(row.how for row in rows)
        return lineage, how

    # -- FROM / JOIN -------------------------------------------------------------

    def _from_clause(
        self, statement: ast.SelectStatement
    ) -> tuple[Relation, ast.Expression | None]:
        """Scan and join per the logical plan.

        Returns the joined relation and the WHERE conjuncts the plan could
        not push into a scan.
        """
        plan = plan_select(statement, self._catalog)
        hash_joins = sum(1 for join in plan.joins if join.is_hash_join)
        _PLANS.inc()
        _PUSHED_CONJUNCTS.inc(plan.pushed_conjuncts)
        _HASH_JOINS.inc(hash_joins)
        active = current_span()
        if active.recording:
            active.set_attribute("pushed_conjuncts", plan.pushed_conjuncts)
            active.set_attribute("hash_joins", hash_joins)
        if plan.base is None:
            return unit_relation(self._capture_how), plan.where
        relation = self._scan(plan.base.table, plan.base.predicate)
        for join_plan in plan.joins:
            right = self._scan(join_plan.scan.table, join_plan.scan.predicate)
            if join_plan.kind == "CROSS":
                relation = self._cross_join(relation, right)
            elif join_plan.kind in ("INNER", "LEFT"):
                relation = self._planned_join(relation, right, join_plan)
            else:
                raise ExecutionError(f"unsupported join kind {join_plan.kind!r}")
        return relation, plan.where

    def _scan(
        self, table_ref: ast.TableRef, predicate: ast.Expression | None = None
    ) -> Relation:
        table = self._catalog.table(table_ref.name)
        layout = RowLayout.for_table(table, table_ref.binding)
        rows: list[ExecRow] = []
        # Interned scan provenance: the singleton lineage set (and the
        # how-variable) of a base row never changes while the table
        # version holds, so every query shares one object per row.
        lineages, hows = (
            _scan_provenance(table, self._capture_how)
            if self._capture_lineage or self._capture_how
            else (None, None)
        )
        # Pushed conjuncts are evaluated as independent closures — a row
        # survives only if every one is exactly TRUE, which is the same
        # row set as the conjoined 3VL predicate (WHERE keeps only TRUE
        # rows; see the planner's error-order note).
        keep = (
            _all_true(self._compile_values(split_conjuncts(predicate), layout))
            if predicate is not None
            else None
        )
        if lineages is None or not self._capture_lineage:
            lineages = itertools.repeat(EMPTY_LINEAGE)
        if hows is None or not self._capture_how:
            hows = itertools.repeat(None)
        append = rows.append
        scanned = 0
        for (_row_id, values), lineage, how in zip(
            table.rows_with_ids(), lineages, hows
        ):
            scanned += 1
            if keep is not None and not keep(values):
                continue
            append(ExecRow(values, lineage, how))
        self._scanned_rows += scanned
        return Relation(layout, rows)

    def _cross_join(self, left: Relation, right: Relation) -> Relation:
        layout = left.layout.concat(right.layout)
        rows: list[ExecRow] = []
        for left_row in left.rows:
            for right_row in right.rows:
                lineage, how = self._merge_join(left_row, right_row)
                rows.append(
                    ExecRow(left_row.values + right_row.values, lineage, how)
                )
        return Relation(layout, rows)

    def _planned_join(
        self, left: Relation, right: Relation, join_plan: JoinPlan
    ) -> Relation:
        """INNER/LEFT join via composite hash keys plus a residual filter."""
        layout = left.layout.concat(right.layout)
        residual_fn = (
            self._compile_one(join_plan.residual, layout)
            if join_plan.residual is not None
            else None
        )
        is_left = join_plan.kind == "LEFT"
        null_right = (None,) * len(right.layout)
        rows: list[ExecRow] = []
        if not join_plan.is_hash_join:
            # No equi component: nested loop with the compiled condition.
            assert residual_fn is not None
            for left_row in left.rows:
                matched = False
                for right_row in right.rows:
                    values = left_row.values + right_row.values
                    if residual_fn(values) is True:
                        lineage, how = self._merge_join(left_row, right_row)
                        rows.append(ExecRow(values, lineage, how))
                        matched = True
                if is_left and not matched:
                    rows.append(
                        ExecRow(
                            left_row.values + null_right,
                            left_row.lineage,
                            left_row.how,
                        )
                    )
            return Relation(layout, rows)
        left_positions = [
            left.layout.resolve(ref.name, ref.table) for ref in join_plan.left_keys
        ]
        right_positions = [
            right.layout.resolve(ref.name, ref.table) for ref in join_plan.right_keys
        ]
        if not left.rows or (not right.rows and not is_left):
            return Relation(layout, rows)
        buckets: dict[tuple, list[ExecRow]] = {}
        for right_row in right.rows:
            key = tuple(right_row.values[position] for position in right_positions)
            if None in key:
                continue  # NULL never equi-matches
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [right_row]
            else:
                bucket.append(right_row)
        for left_row in left.rows:
            key = tuple(left_row.values[position] for position in left_positions)
            matched = False
            bucket = buckets.get(key) if None not in key else None
            if bucket is not None:
                for right_row in bucket:
                    values = left_row.values + right_row.values
                    if residual_fn is not None and residual_fn(values) is not True:
                        continue
                    lineage, how = self._merge_join(left_row, right_row)
                    rows.append(ExecRow(values, lineage, how))
                    matched = True
            if is_left and not matched:
                rows.append(
                    ExecRow(
                        left_row.values + null_right, left_row.lineage, left_row.how
                    )
                )
        return Relation(layout, rows)

    # -- WHERE / HAVING ------------------------------------------------------------

    def _filter(
        self,
        relation: Relation,
        predicate: ast.Expression,
        aggregate_slots: dict[str, int] | None = None,
    ) -> Relation:
        # Independent closures per conjunct (same survivors as the
        # conjoined 3VL tree — WHERE/HAVING keep only TRUE rows).
        keep = _all_true(
            self._compile_values(
                split_conjuncts(predicate), relation.layout, aggregate_slots
            )
        )
        kept = [row for row in relation.rows if keep(row.values)]
        return Relation(relation.layout, kept)

    # -- GROUP BY / aggregates -------------------------------------------------------

    def _collect_aggregates(
        self, statement: ast.SelectStatement
    ) -> list[ast.AggregateCall]:
        found: dict[str, ast.AggregateCall] = {}
        expressions: list[ast.Expression] = [
            item.expression for item in statement.items
        ]
        if statement.having is not None:
            expressions.append(statement.having)
        expressions.extend(item.expression for item in statement.order_by)
        for expression in expressions:
            for aggregate in ast.collect_aggregates(expression):
                found.setdefault(aggregate.to_sql(), aggregate)
        return list(found.values())

    def _group(
        self,
        relation: Relation,
        statement: ast.SelectStatement,
        aggregates: list[ast.AggregateCall],
    ) -> tuple[Relation, dict[str, int]]:
        group_sqls = {expr.to_sql() for expr in statement.group_by}
        for item in statement.items:
            _validate_grouped(item.expression, group_sqls)
        if statement.having is not None:
            _validate_grouped(statement.having, group_sqls)
        for order_item in statement.order_by:
            _validate_grouped(
                order_item.expression, group_sqls, allow_bare_column=True
            )
        key_fns = self._compile_values(list(statement.group_by), relation.layout)
        argument_fns: list[CompiledExpression | None] = [
            None
            if isinstance(aggregate.argument, ast.Star)
            else self._compile_one(aggregate.argument, relation.layout)
            for aggregate in aggregates
        ]
        groups: dict[tuple, list[ExecRow]] = {}
        order: list[tuple] = []
        for row in relation.rows:
            key = tuple(key_fn(row.values) for key_fn in key_fns)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not statement.group_by and not groups:
            # Global aggregation over an empty input: one empty group.
            groups[()] = []
            order.append(())
        aggregate_slots = {
            aggregate.to_sql(): len(relation.layout) + position
            for position, aggregate in enumerate(aggregates)
        }
        extended_layout = RowLayout(
            relation.layout.columns
            + [
                BoundColumn(binding="#agg", name=f"agg_{position}")
                for position in range(len(aggregates))
            ]
        )
        grouped_rows: list[ExecRow] = []
        for key in order:
            members = groups[key]
            accumulators = [
                make_aggregator(
                    aggregate.name,
                    star=isinstance(aggregate.argument, ast.Star),
                    distinct=aggregate.distinct,
                )
                for aggregate in aggregates
            ]
            for member in members:
                for argument_fn, accumulator in zip(argument_fns, accumulators):
                    if argument_fn is None:
                        accumulator.step(1)
                    else:
                        accumulator.step(argument_fn(member.values))
            aggregate_values = tuple(
                accumulator.finalize() for accumulator in accumulators
            )
            if members:
                representative = members[0].values
                lineage, how = self._merge_union(members)
            else:
                representative = (None,) * len(relation.layout)
                lineage = EMPTY_LINEAGE
                how = Polynomial.zero() if self._capture_how else None
            grouped_rows.append(
                ExecRow(representative + aggregate_values, lineage, how)
            )
        return Relation(extended_layout, grouped_rows), aggregate_slots

    # -- projection -------------------------------------------------------------------

    def _expand_items(
        self, statement: ast.SelectStatement, layout: RowLayout
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in statement.items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                if statement.group_by or self._collect_aggregates(statement):
                    raise ExecutionError("'*' cannot be used with GROUP BY/aggregates")
                for bound in layout.columns:
                    if expression.table is not None and (
                        bound.binding.lower() != expression.table.lower()
                    ):
                        continue
                    expanded.append(
                        ast.SelectItem(
                            expression=ast.ColumnRef(
                                name=bound.name, table=bound.binding
                            ),
                            alias=bound.name,
                        )
                    )
                continue
            expanded.append(item)
        if not expanded:
            raise ExecutionError("select list is empty after star expansion")
        return expanded

    def _project(
        self,
        relation: Relation,
        statement: ast.SelectStatement,
        aggregate_slots: dict[str, int],
    ) -> tuple[list[str], list[tuple[ExecRow, ExecRow]]]:
        items = self._expand_items(statement, relation.layout)
        columns = [item.output_name(position) for position, item in enumerate(items)]
        item_fns = self._compile_values(
            [item.expression for item in items], relation.layout, aggregate_slots
        )
        projected: list[tuple[ExecRow, ExecRow]] = []
        for row in relation.rows:
            values = tuple(item_fn(row.values) for item_fn in item_fns)
            projected.append((row, ExecRow(values, row.lineage, row.how)))
        return columns, projected

    # -- DISTINCT / ORDER / LIMIT ----------------------------------------------------

    def _distinct(
        self, projected: list[tuple[ExecRow, ExecRow]]
    ) -> list[tuple[ExecRow, ExecRow]]:
        buckets: dict[tuple, list[tuple[ExecRow, ExecRow]]] = {}
        order: list[tuple] = []
        for pre, out in projected:
            key = out.values
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append((pre, out))
        result: list[tuple[ExecRow, ExecRow]] = []
        for key in order:
            group = buckets[key]
            first_pre, first_out = group[0]
            lineage, how = self._merge_union([out for _pre, out in group])
            result.append((first_pre, ExecRow(first_out.values, lineage, how)))
        return result

    def _sort(
        self,
        projected: list[tuple[ExecRow, ExecRow]],
        relation: Relation,
        statement: ast.SelectStatement,
        columns: list[str],
        aggregate_slots: dict[str, int],
    ) -> list[tuple[ExecRow, ExecRow]]:
        column_positions = {name.lower(): index for index, name in enumerate(columns)}
        #: Per ORDER BY key: ("out", output position) for bare output
        #: columns, ("pre", compiled expr) evaluated over the
        #: pre-projection row otherwise.
        extractors: list[tuple[str, object]] = []
        for order_item in statement.order_by:
            expression = order_item.expression
            if (
                isinstance(expression, ast.ColumnRef)
                and expression.table is None
                and expression.name.lower() in column_positions
            ):
                extractors.append(("out", column_positions[expression.name.lower()]))
            else:
                extractors.append(
                    (
                        "pre",
                        self._compile_one(
                            expression, relation.layout, aggregate_slots
                        ),
                    )
                )

        def sort_keys(pair: tuple[ExecRow, ExecRow]) -> list[SQLValue]:
            pre, out = pair
            keys: list[SQLValue] = []
            for kind, extractor in extractors:
                if kind == "out":
                    keys.append(out.values[extractor])
                else:
                    keys.append(extractor(pre.values))
            return keys

        decorated = [(sort_keys(pair), pair) for pair in projected]
        directions = [item.descending for item in statement.order_by]

        def compare(a: tuple, b: tuple) -> int:
            for key_a, key_b, descending in zip(a[0], b[0], directions):
                verdict = _compare_sort_values(key_a, key_b)
                if verdict == 0:
                    continue
                return -verdict if descending else verdict
            return 0

        decorated.sort(key=functools.cmp_to_key(compare))
        return [pair for _keys, pair in decorated]

    def _limit(
        self,
        projected: list[tuple[ExecRow, ExecRow]],
        limit: int | None,
        offset: int | None,
    ) -> list[tuple[ExecRow, ExecRow]]:
        start = offset or 0
        if limit is None:
            return projected[start:]
        return projected[start : start + limit]


def _compare_sort_values(a: SQLValue, b: SQLValue) -> int:
    """Compare for ORDER BY: NULLs sort last in ascending order."""
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    if a == b:
        return 0
    try:
        return -1 if a < b else 1
    except TypeError as exc:
        raise ExecutionError(
            f"cannot order {type(a).__name__} against {type(b).__name__}"
        ) from exc


def _validate_grouped(
    expression: ast.Expression,
    group_sqls: set[str],
    allow_bare_column: bool = False,
) -> None:
    """Check ``expression`` is evaluable over a grouped row.

    Every column reference must be covered by a GROUP BY expression or
    occur inside an aggregate — the strict SQL rule, which matters here
    because a silently-chosen representative value would be exactly the
    kind of unsound answer the paper warns about.
    """
    if expression.to_sql() in group_sqls:
        return
    if isinstance(expression, (ast.Literal, ast.AggregateCall)):
        return
    if isinstance(expression, ast.ColumnRef):
        if allow_bare_column:
            return
        raise ExecutionError(
            f"column {expression.to_sql()} must appear in GROUP BY "
            "or inside an aggregate"
        )
    if isinstance(expression, ast.Star):
        raise ExecutionError("'*' cannot be used with GROUP BY/aggregates")
    if isinstance(expression, ast.BinaryOp):
        _validate_grouped(expression.left, group_sqls, allow_bare_column)
        _validate_grouped(expression.right, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.UnaryOp):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.IsNull):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.InList):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        for item in expression.items:
            _validate_grouped(item, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.Between):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        _validate_grouped(expression.low, group_sqls, allow_bare_column)
        _validate_grouped(expression.high, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.Like):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        _validate_grouped(expression.pattern, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.FunctionCall):
        for arg in expression.args:
            _validate_grouped(arg, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.CaseWhen):
        for condition, value in expression.branches:
            _validate_grouped(condition, group_sqls, allow_bare_column)
            _validate_grouped(value, group_sqls, allow_bare_column)
        if expression.default is not None:
            _validate_grouped(expression.default, group_sqls, allow_bare_column)
        return
    if isinstance(expression, ast.ScalarSubquery):
        return  # uncorrelated: a constant with respect to the grouping
    if isinstance(expression, ast.InSubquery):
        _validate_grouped(expression.operand, group_sqls, allow_bare_column)
        return
    raise ExecutionError(f"cannot validate grouped expression {expression!r}")
