"""Tests for the soundness layer: UQ, calibration, verification, abstention."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import AbstentionError, ExecutionError, SoundnessError
from repro.nl import SimulatedLLM
from repro.nl.llmsim import LLMOutput
from repro.soundness import (
    AnswerVerifier,
    ConsistencyUQ,
    HistogramBinningCalibrator,
    IsotonicCalibrator,
    SelectiveAnsweringPolicy,
    area_under_risk_coverage,
    auroc,
    brier_score,
    expected_calibration_error,
    fuse_confidence,
    reliability_diagram,
    risk_coverage_curve,
)
from repro.soundness.abstention import accuracy_at_coverage
from repro.soundness.verifier import RowVerdict, _values_close, verify_rows
from repro.sqldb import Database, ast
from repro.sqldb.aggregates import make_aggregator
from repro.sqldb.expressions import RowLayout
from repro.sqldb.reference import ExpressionEvaluator, RowContext

GOLD = "SELECT AVG(salary) AS avg_salary FROM employees WHERE department = 'sales'"


class TestConsistencyUQ:
    def test_unanimous_agreement(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql([GOLD, GOLD, GOLD])
        assert result.confidence == 1.0
        assert result.chosen is not None

    def test_semantic_equivalence_clusters_together(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        # Different SQL text, same answer.
        other = (
            "SELECT AVG(salary) AS avg_salary FROM employees "
            "WHERE department = 'sales' AND 1 = 1"
        )
        result = uq.assess_sql([GOLD, other])
        assert result.confidence == 1.0

    def test_disagreement_lowers_confidence(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        wrong = "SELECT MAX(salary) AS avg_salary FROM employees"
        result = uq.assess_sql([GOLD, GOLD, wrong])
        assert result.confidence == pytest.approx(2 / 3)

    def test_invalid_candidates_count_against_confidence(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql([GOLD, "SELCT broken", "also broken"])
        assert result.confidence == pytest.approx(1 / 3)
        assert result.n_valid == 1

    def test_all_invalid_abstains(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql(["broken", "also broken"])
        assert result.abstained
        assert result.confidence == 0.0

    def test_majority_rows_returned(self, employees_db):
        uq = ConsistencyUQ(employees_db)
        result = uq.assess_sql([GOLD, GOLD])
        assert result.majority_rows == [(75.0,)]

    def test_empty_candidates_rejected(self, employees_db):
        with pytest.raises(SoundnessError):
            ConsistencyUQ(employees_db).assess([])

    def test_agreement_discriminates_better_than_self_report(self, employees_db):
        """The E3 claim in miniature: consistency AUROC > self-report AUROC."""
        llm = SimulatedLLM(employees_db.catalog, error_rate=0.4, seed=13)
        uq = ConsistencyUQ(employees_db)
        self_conf, cons_conf, correct = [], [], []
        for index in range(40):
            outputs = llm.generate_sql(f"question {index}", GOLD, n_samples=5)
            vote = uq.assess(outputs)
            self_conf.append(outputs[0].self_confidence)
            cons_conf.append(vote.confidence)
            correct.append(
                1.0 if vote.chosen is not None and vote.chosen.is_faithful else 0.0
            )
        assert auroc(cons_conf, correct) > auroc(self_conf, correct)


class TestCalibrationMetrics:
    def test_perfect_calibration_zero_ece(self):
        rng = np.random.default_rng(0)
        confidences = rng.uniform(0.05, 0.95, size=4000)
        outcomes = (rng.random(4000) < confidences).astype(float)
        assert expected_calibration_error(confidences, outcomes) < 0.05

    def test_overconfidence_detected(self):
        confidences = np.full(100, 0.9)
        outcomes = np.array([1.0] * 50 + [0.0] * 50)
        assert expected_calibration_error(confidences, outcomes) == pytest.approx(0.4)

    def test_brier_score_bounds(self):
        assert brier_score([1.0, 0.0], [1.0, 0.0]) == 0.0
        assert brier_score([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_auroc_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_auroc_inverted_ranking(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_auroc_ties_give_half(self):
        assert auroc([0.5, 0.5], [1, 0]) == pytest.approx(0.5)

    def test_auroc_degenerate(self):
        assert auroc([0.5, 0.6], [1, 1]) == 0.5

    def test_reliability_diagram_masses(self):
        bins = reliability_diagram([0.05, 0.95, 0.96], [0, 1, 1], n_bins=10)
        assert sum(b.count for b in bins) == 3
        assert bins[-1].count == 2

    def test_input_validation(self):
        with pytest.raises(SoundnessError):
            expected_calibration_error([1.5], [1])
        with pytest.raises(SoundnessError):
            expected_calibration_error([0.5], [2])
        with pytest.raises(SoundnessError):
            expected_calibration_error([], [])


class TestRecalibration:
    def make_overconfident(self, n=2000):
        rng = np.random.default_rng(1)
        confidences = rng.uniform(0.6, 0.99, size=n)
        true_probability = (confidences - 0.5) * 0.8  # actual accuracy lower
        outcomes = (rng.random(n) < true_probability).astype(float)
        return confidences, outcomes

    def test_histogram_binning_reduces_ece(self):
        confidences, outcomes = self.make_overconfident()
        calibrator = HistogramBinningCalibrator().fit(
            confidences[:1000], outcomes[:1000]
        )
        raw = expected_calibration_error(confidences[1000:], outcomes[1000:])
        calibrated = expected_calibration_error(
            calibrator.transform(confidences[1000:]), outcomes[1000:]
        )
        assert calibrated < raw / 2

    def test_isotonic_reduces_ece(self):
        confidences, outcomes = self.make_overconfident()
        calibrator = IsotonicCalibrator().fit(confidences[:1000], outcomes[:1000])
        raw = expected_calibration_error(confidences[1000:], outcomes[1000:])
        calibrated = expected_calibration_error(
            calibrator.transform(confidences[1000:]), outcomes[1000:]
        )
        assert calibrated < raw / 2

    def test_isotonic_is_monotone(self):
        confidences, outcomes = self.make_overconfident()
        calibrator = IsotonicCalibrator().fit(confidences, outcomes)
        grid = np.linspace(0, 1, 50)
        transformed = calibrator.transform(grid)
        assert np.all(np.diff(transformed) >= -1e-12)

    def test_unfitted_calibrator_raises(self):
        with pytest.raises(SoundnessError):
            IsotonicCalibrator().transform([0.5])
        with pytest.raises(SoundnessError):
            HistogramBinningCalibrator().transform([0.5])


class TestVerifier:
    def test_correct_answer_passes_all_depths(self, employees_db):
        result = employees_db.execute(GOLD)
        verifier = AnswerVerifier(employees_db)
        for depth in ("static", "reexecution", "provenance"):
            assert verifier.verify(result, depth=depth).passed

    def test_static_catches_schema_hallucination(self, employees_db):
        result = employees_db.execute(GOLD)
        result.sql = "SELECT bogus_column FROM employees"
        report = AnswerVerifier(employees_db).verify(result, depth="static")
        assert not report.passed

    def test_reexecution_catches_tampered_rows(self, employees_db):
        result = employees_db.execute(GOLD)
        result.rows = [(999.0,)]
        report = AnswerVerifier(employees_db).verify(result, depth="reexecution")
        assert not report.passed
        assert any("different rows" in issue for issue in report.issues)

    def test_provenance_recomputes_aggregate(self, employees_db):
        result = employees_db.execute(GOLD)
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert any("recompute aggregate" in check for check in report.checks_run)

    def test_provenance_catches_missing_lineage(self, employees_db):
        result = employees_db.execute("SELECT name FROM employees WHERE id = 1")
        result.lineage = []
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed

    def test_provenance_checks_filters_on_cited_rows(self, employees_db):
        result = employees_db.execute(
            "SELECT name FROM employees WHERE city = 'zurich'"
        )
        # Claim a bern row supports a zurich answer.
        result.lineage = [frozenset({("employees", 1)})] * len(result.rows)
        report = AnswerVerifier(employees_db).verify(result, depth="provenance")
        assert not report.passed
        assert any("WHERE clause" in issue for issue in report.issues)

    def test_invalid_depth_rejected(self, employees_db):
        result = employees_db.execute(GOLD)
        with pytest.raises(SoundnessError):
            AnswerVerifier(employees_db).verify(result, depth="bogus")


class TestConfidenceFusion:
    def test_consistency_preferred_over_self_report(self):
        breakdown = fuse_confidence(self_reported=0.99, consistency=0.4)
        assert breakdown.value == pytest.approx(0.4)

    def test_grounding_scales(self):
        high = fuse_confidence(consistency=0.8, grounding=1.0)
        low = fuse_confidence(consistency=0.8, grounding=0.2)
        assert high.value > low.value

    def test_failed_verification_collapses(self):
        breakdown = fuse_confidence(consistency=0.95, verification_passed=False)
        assert breakdown.value <= 0.05

    def test_passed_verification_keeps_value(self):
        breakdown = fuse_confidence(consistency=0.8, verification_passed=True)
        assert breakdown.value == pytest.approx(0.8)

    def test_requires_some_signal(self):
        with pytest.raises(SoundnessError):
            fuse_confidence()

    def test_unit_interval_validation(self):
        with pytest.raises(SoundnessError):
            fuse_confidence(self_reported=1.2)

    def test_describe_mentions_parts(self):
        breakdown = fuse_confidence(self_reported=0.7, grounding=0.9)
        text = breakdown.describe()
        assert "self_reported" in text
        assert "grounding" in text


class TestAbstention:
    def test_threshold_decision(self):
        policy = SelectiveAnsweringPolicy(threshold=0.6)
        assert policy.decide(0.7).answered
        assert policy.decide(0.5).abstained

    def test_failed_verification_forces_abstention(self):
        policy = SelectiveAnsweringPolicy(threshold=0.1)
        assert policy.decide(0.99, verification_passed=False).abstained

    def test_require_answer_raises(self):
        policy = SelectiveAnsweringPolicy(threshold=0.9)
        with pytest.raises(AbstentionError) as excinfo:
            policy.require_answer(0.2)
        assert excinfo.value.confidence == 0.2
        assert excinfo.value.threshold == 0.9

    def test_risk_coverage_monotone_coverage(self):
        rng = np.random.default_rng(2)
        confidences = rng.uniform(size=300)
        correct = (rng.random(300) < confidences).astype(float)
        points = risk_coverage_curve(confidences, correct)
        coverages = [point.coverage for point in points]
        assert coverages == sorted(coverages, reverse=True)

    def test_informative_confidence_beats_random_aurc(self):
        rng = np.random.default_rng(3)
        true_probability = rng.uniform(size=500)
        correct = (rng.random(500) < true_probability).astype(float)
        informed = risk_coverage_curve(true_probability, correct)
        random_conf = rng.uniform(size=500)
        uninformed = risk_coverage_curve(random_conf, correct)
        assert area_under_risk_coverage(informed) < area_under_risk_coverage(uninformed)

    def test_accuracy_at_coverage(self):
        points = risk_coverage_curve([0.9, 0.8, 0.2], [1, 1, 0])
        assert accuracy_at_coverage(points, 0.6) == pytest.approx(1.0)

    def test_threshold_validation(self):
        with pytest.raises(SoundnessError):
            SelectiveAnsweringPolicy(threshold=1.5)


class TestRowVerification:
    def test_grouped_aggregate_rows_verify(self, employees_db):
        from repro.soundness.verifier import verify_rows

        result = employees_db.execute(
            "SELECT department, SUM(salary) AS total FROM employees "
            "GROUP BY department ORDER BY department"
        )
        verdicts = verify_rows(employees_db, result)
        assert verdicts is not None
        assert all(verdict.verified for verdict in verdicts)
        assert len(verdicts) == 2

    def test_tampered_row_flagged_individually(self, employees_db):
        from repro.soundness.verifier import verify_rows

        result = employees_db.execute(
            "SELECT department, COUNT(*) AS n FROM employees "
            "GROUP BY department ORDER BY department"
        )
        tampered = list(result.rows)
        tampered[1] = (tampered[1][0], 999)
        result.rows = tampered
        verdicts = verify_rows(employees_db, result)
        assert verdicts[0].verified
        assert not verdicts[1].verified
        assert "999" in verdicts[1].detail

    def test_unverifiable_shapes_return_none(self, employees_db):
        from repro.soundness.verifier import verify_rows

        joined = employees_db.execute(
            "SELECT e.department, COUNT(*) FROM employees e "
            "JOIN departments d ON e.department = d.department "
            "GROUP BY e.department"
        )
        assert verify_rows(employees_db, joined) is None
        plain = employees_db.execute("SELECT name FROM employees")
        assert verify_rows(employees_db, plain) is None

    def test_engine_attaches_row_verification(self):
        from repro.core import CDAEngine
        from repro.datasets import build_swiss_labour_registry

        domain = build_swiss_labour_registry(seed=5)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        answer = engine.ask("what is the average employees for each sector")
        assert answer.metadata.get("row_verification") is not None
        assert all(answer.metadata["row_verification"])


# -- compiled verifier vs the reference interpreter ------------------------------


def _interpret_on_row(database, statement, expression, table_name, row_id):
    table = database.catalog.table(table_name)
    layout = RowLayout.for_table(table, statement.from_table.binding)
    row = RowContext(layout, table.get_row(row_id))
    return ExpressionEvaluator().evaluate(expression, row)


def _reference_provenance_issues(database, result) -> list[str]:
    """The provenance depth's issues, re-derived through the interpreter."""
    statement = result.statement
    issues = []
    for row_lineage in result.lineage:
        for table_name, row_id in row_lineage:
            try:
                database.fetch_source_row(table_name, row_id)
            except Exception as exc:  # noqa: BLE001
                issues.append(f"cited row {table_name}[{row_id}] is gone: {exc}")
    if statement.where is not None:
        for row_lineage in result.lineage:
            for table_name, row_id in row_lineage:
                try:
                    verdict = _interpret_on_row(
                        database, statement, statement.where, table_name, row_id
                    )
                except Exception as exc:  # noqa: BLE001
                    issues.append(
                        f"cannot re-check filter on {table_name}[{row_id}]: {exc}"
                    )
                    continue
                if verdict is not True:
                    issues.append(
                        f"cited row {table_name}[{row_id}] does not satisfy "
                        "the query's WHERE clause"
                    )
    if statement.group_by or len(statement.items) != 1:
        return issues
    (aggregate,) = ast.collect_aggregates(statement.items[0].expression)
    star = isinstance(aggregate.argument, ast.Star)
    accumulator = make_aggregator(
        aggregate.name, star=star, distinct=aggregate.distinct
    )
    for table_name, row_id in sorted(result.all_source_rows()):
        try:
            accumulator.step(
                1
                if star
                else _interpret_on_row(
                    database, statement, aggregate.argument, table_name, row_id
                )
            )
        except Exception as exc:  # noqa: BLE001
            return issues + [
                f"cannot recompute aggregate on {table_name}[{row_id}]: {exc}"
            ]
    recomputed, reported = accumulator.finalize(), result.rows[0][0]
    if not _values_close(recomputed, reported):
        issues.append(
            f"aggregate recomputed from cited rows is {recomputed!r}, "
            f"but the answer reports {reported!r}"
        )
    return issues


def _reference_row_verdicts(database, result) -> list[RowVerdict] | None:
    statement = result.statement
    if not statement.group_by:
        return None
    aggregate = statement.items[1].expression
    star = isinstance(aggregate.argument, ast.Star)
    table_name = statement.from_table.name
    verdicts = []
    for index, (row, lineage) in enumerate(zip(result.rows, result.lineage)):
        accumulator = make_aggregator(
            aggregate.name, star=star, distinct=aggregate.distinct
        )
        try:
            for _name, row_id in sorted(lineage):
                # COUNT(*) steps a constant but still fetches every row.
                expression = ast.Literal(1) if star else aggregate.argument
                accumulator.step(
                    _interpret_on_row(
                        database, statement, expression, table_name, row_id
                    )
                )
        except Exception as exc:  # noqa: BLE001
            verdicts.append(RowVerdict(index, False, f"cannot re-derive: {exc}"))
            continue
        recomputed, reported = accumulator.finalize(), row[1]
        if _values_close(recomputed, reported):
            verdicts.append(RowVerdict(index, True))
        else:
            verdicts.append(
                RowVerdict(
                    index,
                    False,
                    f"cited rows give {recomputed!r}, answer says {reported!r}",
                )
            )
    return verdicts


_VERIFY_ROWS = [
    ("x", 1, 10),
    ("y", -3, None),
    ("x", None, 4),
    ("z", 7, -2),
    ("y", 2, 0),
    ("x", -5, 9),
    ("z", 0, 3),
    ("y", 4, 4),
]

_OPERANDS = st.sampled_from(["a", "b", "a % 3", "b - a", "a * 2"])
_LITERAL = st.sampled_from(["0", "1", "-2", "4", "NULL"])


@st.composite
def _where(draw) -> str:
    comparison = st.builds(
        lambda left, op, right: f"{left} {op} {right}",
        _OPERANDS,
        st.sampled_from(["=", "<>", "<", ">=", ">"]),
        _LITERAL,
    )
    atom = st.one_of(
        comparison,
        st.sampled_from(
            ["a IS NULL", "b IS NOT NULL", "g IN ('x', 'z')", "g LIKE 'y%'"]
        ),
    )
    parts = draw(st.lists(atom, min_size=1, max_size=3))
    joiners = draw(st.lists(st.sampled_from(["AND", "OR"]), min_size=2, max_size=2))
    where = parts[0]
    for joiner, part in zip(joiners, parts[1:]):
        where = f"({where}) {joiner} {part}"
    return f"NOT ({where})" if draw(st.booleans()) else where


_AGGREGATES = st.sampled_from(
    [
        "COUNT(*)",
        "COUNT(a)",
        "SUM(a)",
        "AVG(b)",
        "MIN(b - a)",
        "MAX(a % 3)",
        "SUM(DISTINCT b)",
    ]
)


class TestVerifierParity:
    """The compiled verifier agrees with the interpreter on every verdict."""

    @settings(max_examples=150, deadline=None)
    @given(
        where=_where(),
        aggregate=_AGGREGATES,
        grouped=st.booleans(),
        alias=st.sampled_from(["", " AS s"]),
        tamper=st.sampled_from(["none", "mutate", "inject", "delete"]),
        pick=st.integers(min_value=0, max_value=100),
    )
    def test_verdicts_match_interpreted_recomputation(
        self, where, aggregate, grouped, alias, tamper, pick
    ):
        db = Database()
        db.execute("CREATE TABLE t (g TEXT, a INT, b INT)")
        for row in _VERIFY_ROWS:
            db.catalog.table("t").insert(row)
        items = f"g, {aggregate}" if grouped else aggregate
        tail = " GROUP BY g ORDER BY g" if grouped else ""
        try:
            result = db.execute(f"SELECT {items} FROM t{alias} WHERE {where}{tail}")
        except ExecutionError:
            assume(False)
        assume(result.rows)
        target = pick % len(result.rows)
        if tamper == "mutate":
            row = list(result.rows[target])
            row[-1] = 1 if row[-1] is None else row[-1] + 1
            result.rows = list(result.rows)
            result.rows[target] = tuple(row)
        elif tamper == "inject":
            statement = result.statement
            failing = []
            for row_id in db.catalog.table("t").row_ids:
                try:
                    verdict = _interpret_on_row(
                        db, statement, statement.where, "t", row_id
                    )
                except ExecutionError:
                    continue
                if verdict is not True:
                    failing.append(row_id)
            assume(failing)
            result.lineage = list(result.lineage)
            result.lineage[target] = result.lineage[target] | {
                ("t", failing[pick % len(failing)])
            }
        elif tamper == "delete":
            cited = sorted(result.all_source_rows())
            assume(cited)
            db.catalog.table("t").delete_row(cited[pick % len(cited)][1])

        report = AnswerVerifier(db)._verify_provenance(result)
        expected = _reference_provenance_issues(db, result)
        assert report.issues == expected
        assert report.passed is (not expected)
        assert verify_rows(db, result) == _reference_row_verdicts(db, result)
        if tamper != "none":
            row_verdicts = verify_rows(db, result) or []
            assert not report.passed or not all(v.verified for v in row_verdicts)
