"""The reference (interpreted) SQL engine: the oracle for the production path.

Production evaluates every expression through :mod:`repro.sqldb.compile`
closures over a :mod:`repro.sqldb.planner` plan.  This module keeps the
engine that preceded them, built on the same shared helpers in
:mod:`repro.sqldb.expressions`:

* :class:`ExpressionEvaluator` re-dispatches on node type and re-resolves
  column names for every row of a :class:`RowContext`;
* :class:`ReferenceExecutor` runs a SELECT as written — an unplanned scan
  that builds fresh lineage per row, nested-loop joins, and the whole
  WHERE clause after all joins — with every expression interpreted.

Nothing in the production path imports this module.  The parity corpora
(``tests/test_sqldb_planner.py``, ``tests/test_sqldb_compile.py``,
``tests/test_soundness.py``) assert that both engines agree on values,
where-lineage and how-polynomials, and benchmark E13 times the planned,
compiled executor against this one.  Both engines raise on the same
queries, but where the planned executor hashes a join key or splits a
conjunction, the *first* error it reports may differ (see the planner's
error-order note).
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.provenance.semiring import Polynomial, row_variable
from repro.sqldb import ast
from repro.sqldb.compile import CompiledExpression
from repro.sqldb.executor import (
    EMPTY_LINEAGE,
    ExecRow,
    Relation,
    SelectExecutor,
    unit_relation,
)
from repro.sqldb.expressions import (
    RowLayout,
    _arithmetic,
    _as_bool,
    _compare,
    _is_number,
    _kleene_and,
    _kleene_or,
    like_to_regex,
)
from repro.sqldb.functions import call_scalar_function
from repro.sqldb.planner import JoinPlan, ScanPlan
from repro.sqldb.types import SQLValue


class RowContext:
    """An intermediate row: a layout (bound columns) plus a value tuple.

    The layout is shared between all rows of an operator's output, so the
    per-row cost is just the tuple.
    """

    __slots__ = ("layout", "values")

    def __init__(self, layout: "RowLayout", values: tuple[SQLValue, ...]):
        self.layout = layout
        self.values = values

    def value_at(self, index: int) -> SQLValue:
        return self.values[index]


class ExpressionEvaluator:
    """Evaluates AST expressions over :class:`RowContext` rows.

    ``aggregate_slots`` maps :class:`~repro.sqldb.ast.AggregateCall` nodes
    (by object identity via ``to_sql()`` text) to result-column positions —
    used when evaluating HAVING / select items over a grouped row whose
    aggregates were already computed.

    ``subquery_runner`` executes an uncorrelated SELECT and returns its
    rows; the executor injects it so scalar and IN subqueries work.
    Results are memoised per subquery text (uncorrelated subqueries are
    row-invariant by definition).
    """

    def __init__(
        self,
        aggregate_slots: dict[str, int] | None = None,
        subquery_runner=None,
    ):
        self._aggregate_slots = aggregate_slots or {}
        self._subquery_runner = subquery_runner
        self._subquery_cache: dict[str, list[tuple]] = {}

    def evaluate(self, expression: ast.Expression, row: RowContext) -> SQLValue:
        """Evaluate ``expression`` in the scope of ``row``."""
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.ColumnRef):
            index = row.layout.resolve(expression.name, expression.table)
            return row.value_at(index)
        if isinstance(expression, ast.AggregateCall):
            key = expression.to_sql()
            if key not in self._aggregate_slots:
                raise ExecutionError(
                    f"aggregate {key} used outside of a grouped context"
                )
            return row.value_at(self._aggregate_slots[key])
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression, row)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression, row)
        if isinstance(expression, ast.IsNull):
            value = self.evaluate(expression.operand, row)
            result = value is None
            return (not result) if expression.negated else result
        if isinstance(expression, ast.InList):
            return self._evaluate_in(expression, row)
        if isinstance(expression, ast.Between):
            return self._evaluate_between(expression, row)
        if isinstance(expression, ast.Like):
            return self._evaluate_like(expression, row)
        if isinstance(expression, ast.FunctionCall):
            args = [self.evaluate(arg, row) for arg in expression.args]
            return call_scalar_function(expression.name, args)
        if isinstance(expression, ast.CaseWhen):
            return self._evaluate_case(expression, row)
        if isinstance(expression, ast.ScalarSubquery):
            return self._evaluate_scalar_subquery(expression)
        if isinstance(expression, ast.InSubquery):
            return self._evaluate_in_subquery(expression, row)
        if isinstance(expression, ast.Star):
            raise ExecutionError("'*' is only valid in a select list or COUNT(*)")
        raise ExecutionError(f"cannot evaluate expression node {expression!r}")

    # -- node-specific helpers ---------------------------------------------------

    def _evaluate_binary(self, node: ast.BinaryOp, row: RowContext) -> SQLValue:
        if node.operator == "AND":
            left = _as_bool(self.evaluate(node.left, row), "AND")
            if left is False:
                return False  # short-circuit
            right = _as_bool(self.evaluate(node.right, row), "AND")
            return _kleene_and(left, right)
        if node.operator == "OR":
            left = _as_bool(self.evaluate(node.left, row), "OR")
            if left is True:
                return True  # short-circuit
            right = _as_bool(self.evaluate(node.right, row), "OR")
            return _kleene_or(left, right)
        left = self.evaluate(node.left, row)
        right = self.evaluate(node.right, row)
        if node.operator in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(node.operator, left, right)
        return _arithmetic(node.operator, left, right)

    def _evaluate_unary(self, node: ast.UnaryOp, row: RowContext) -> SQLValue:
        value = self.evaluate(node.operand, row)
        if node.operator == "NOT":
            as_bool = _as_bool(value, "NOT")
            if as_bool is None:
                return None
            return not as_bool
        if node.operator == "-":
            if value is None:
                return None
            if not _is_number(value):
                raise ExecutionError(f"unary minus requires a number, got {value!r}")
            return -value
        raise ExecutionError(f"unknown unary operator {node.operator!r}")

    def _evaluate_in(self, node: ast.InList, row: RowContext) -> bool | None:
        value = self.evaluate(node.operand, row)
        if value is None:
            return None
        saw_null = False
        for item in node.items:
            candidate = self.evaluate(item, row)
            if candidate is None:
                saw_null = True
                continue
            if _compare("=", value, candidate) is True:
                return not node.negated
        if saw_null:
            return None
        return node.negated

    def _evaluate_between(self, node: ast.Between, row: RowContext) -> bool | None:
        value = self.evaluate(node.operand, row)
        low = self.evaluate(node.low, row)
        high = self.evaluate(node.high, row)
        lower_ok = _compare(">=", value, low)
        upper_ok = _compare("<=", value, high)
        result = _kleene_and(lower_ok, upper_ok)
        if result is None:
            return None
        return (not result) if node.negated else result

    def _evaluate_like(self, node: ast.Like, row: RowContext) -> bool | None:
        value = self.evaluate(node.operand, row)
        pattern = self.evaluate(node.pattern, row)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise ExecutionError("LIKE requires string operands")
        matched = like_to_regex(pattern).match(value) is not None
        return (not matched) if node.negated else matched

    def _run_subquery(self, statement) -> list[tuple]:
        if self._subquery_runner is None:
            raise ExecutionError("subqueries are not available in this context")
        key = statement.to_sql()
        if key not in self._subquery_cache:
            self._subquery_cache[key] = self._subquery_runner(statement)
        return self._subquery_cache[key]

    def _evaluate_scalar_subquery(self, node: ast.ScalarSubquery) -> SQLValue:
        rows = self._run_subquery(node.statement)
        if not rows:
            return None
        if len(rows) > 1 or len(rows[0]) != 1:
            raise ExecutionError(
                "scalar subquery must return at most one row with one column"
            )
        return rows[0][0]

    def _evaluate_in_subquery(
        self, node: ast.InSubquery, row: RowContext
    ) -> bool | None:
        value = self.evaluate(node.operand, row)
        if value is None:
            return None
        rows = self._run_subquery(node.statement)
        if rows and len(rows[0]) != 1:
            raise ExecutionError("IN subquery must return exactly one column")
        saw_null = False
        for (candidate,) in rows:
            if candidate is None:
                saw_null = True
                continue
            if _compare("=", value, candidate) is True:
                return not node.negated
        if saw_null:
            return None
        return node.negated

    def _evaluate_case(self, node: ast.CaseWhen, row: RowContext) -> SQLValue:
        for condition, value in node.branches:
            if _as_bool(self.evaluate(condition, row), "CASE WHEN") is True:
                return self.evaluate(value, row)
        if node.default is not None:
            return self.evaluate(node.default, row)
        return None


class ReferenceExecutor(SelectExecutor):
    """:class:`SelectExecutor` with no planner and no compiled expressions.

    Results, lineage and how-polynomials must equal the production
    executor's; only the machinery (and its cost) differs.
    """

    def _compile_values(
        self,
        expressions: list[ast.Expression],
        layout: RowLayout,
        aggregate_slots: dict[str, int] | None = None,
    ) -> list[CompiledExpression]:
        """Thin wrappers around one shared :class:`ExpressionEvaluator`."""
        evaluator = ExpressionEvaluator(
            aggregate_slots, subquery_runner=self._run_subquery
        )
        wrappers: list[CompiledExpression] = []
        for expression in expressions:

            def wrapper(
                values,
                _expression=expression,
                _evaluator=evaluator,
                _layout=layout,
            ):
                return _evaluator.evaluate(_expression, RowContext(_layout, values))

            wrappers.append(wrapper)
        return wrappers

    def _from_clause(
        self, statement: ast.SelectStatement
    ) -> tuple[Relation, ast.Expression | None]:
        """Scan and join as written; the whole WHERE clause stays residual."""
        if statement.from_table is None:
            return unit_relation(self._capture_how), statement.where
        relation = self._scan_unplanned(statement.from_table)
        for join in statement.joins:
            right = self._scan_unplanned(join.table)
            if join.kind == "CROSS":
                relation = self._cross_join(relation, right)
            elif join.kind in ("INNER", "LEFT"):
                # A plan with no equi-keys is the nested loop over the
                # whole ON condition.
                nested_loop = JoinPlan(
                    kind=join.kind, scan=ScanPlan(join.table), residual=join.condition
                )
                relation = self._planned_join(relation, right, nested_loop)
            else:
                raise ExecutionError(f"unsupported join kind {join.kind!r}")
        return relation, statement.where

    def _scan_unplanned(self, table_ref: ast.TableRef) -> Relation:
        table = self._catalog.table(table_ref.name)
        name = table.name
        rows: list[ExecRow] = []
        for row_id, values in table.rows_with_ids():
            lineage = (
                frozenset({(name, row_id)}) if self._capture_lineage else EMPTY_LINEAGE
            )
            how = (
                Polynomial.var(row_variable(name, row_id))
                if self._capture_how
                else None
            )
            rows.append(ExecRow(values, lineage, how))
        self._scanned_rows += len(rows)
        return Relation(RowLayout.for_table(table, table_ref.binding), rows)

    def _filter(
        self,
        relation: Relation,
        predicate: ast.Expression,
        aggregate_slots: dict[str, int] | None = None,
    ) -> Relation:
        """The whole conjoined predicate at once: the interpreter's error order."""
        keep = self._compile_one(predicate, relation.layout, aggregate_slots)
        kept = [row for row in relation.rows if keep(row.values) is True]
        return Relation(relation.layout, kept)
