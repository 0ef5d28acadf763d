"""Tests for the CDA engine and the core layer."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core import (
    Answer,
    AnswerKind,
    CDAEngine,
    ReliabilityConfig,
    Session,
)
from repro.datasets import build_swiss_labour_registry
from repro.guidance.clarification import ClarificationMode
from repro.guidance.conversation_graph import TurnKind
from repro.nl import SimulatedLLM


@pytest.fixture
def engine():
    domain = build_swiss_labour_registry(seed=5)
    return CDAEngine(domain.registry, domain.vocabulary)


class TestIntentRouting:
    def test_discovery_turn(self, engine):
        answer = engine.ask("give me an overview of the available datasets about the working force")
        assert answer.kind is AnswerKind.DISCOVERY
        assert answer.clarification is not None

    def test_metadata_turn(self, engine):
        answer = engine.ask("what is the barometer?")
        assert answer.kind is AnswerKind.METADATA
        assert answer.sources  # the origin URL is cited

    def test_chitchat_turn(self, engine):
        answer = engine.ask("hello")
        assert answer.kind is AnswerKind.CHITCHAT

    def test_data_turn(self, engine):
        answer = engine.ask("how many cantons are there")
        assert answer.kind is AnswerKind.DATA
        assert answer.rows == [(8,)]


class TestFigure1Conversation:
    """The paper's running example, end to end."""

    def test_full_dialogue(self, engine):
        # Turn 1: vague topical request -> dataset suggestions + question.
        first = engine.ask("Give me an overview of the working force in Switzerland")
        assert first.kind is AnswerKind.DISCOVERY
        assert engine.session.expecting_clarification_reply

        # Turn 2: the user picks the barometer -> overview with source.
        second = engine.ask("I am interested in the barometer")
        assert second.kind is AnswerKind.METADATA
        assert any("barometer" in source for source in second.sources)
        assert engine.session.focus_table == "barometer"

        # Turn 3: seasonality insights -> period 6 with confidence + code.
        third = engine.ask("can you give me the seasonality insights, such as overall trend")
        assert third.kind is AnswerKind.ANALYSIS
        assert third.metadata["period"] == 6
        assert third.confidence.value > 0.8
        assert "python" in third.text.lower() or "repro.analytics" in third.text

    def test_suggestions_offered_on_metadata(self, engine):
        engine.ask("give me an overview of the working force")
        answer = engine.ask("the barometer")
        assert any(s.kind == "analysis" for s in answer.suggestions)


class TestDataPath:
    def test_answer_is_annotated(self, engine):
        answer = engine.ask("what is the average employees for each sector")
        assert answer.kind is AnswerKind.DATA
        assert answer.confidence is not None
        assert answer.verification is not None
        assert answer.verification.passed
        assert answer.explanation is not None
        assert answer.sql is not None

    def test_explanation_is_lossless_and_invertible(self, engine):
        from repro.provenance import check_invertibility

        answer = engine.ask("how many cantons are there")
        violations = check_invertibility(answer.explanation, engine.database)
        assert violations == []

    def test_render_includes_confidence(self, engine):
        answer = engine.ask("how many cantons are there")
        assert "Confidence:" in answer.render()

    def test_untranslatable_without_llm_abstains(self, engine):
        answer = engine.ask("please compute the frobnication coefficient")
        assert answer.kind is AnswerKind.ABSTENTION

    def test_focus_table_tracked(self, engine):
        engine.ask("how many employment records are there")
        assert engine.session.focus_table == "employment"


class TestClarificationFlow:
    def test_ambiguous_question_asks(self):
        domain = build_swiss_labour_registry(seed=6)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        # Both employment and cantons contain canton values: force a tie by
        # asking something that mentions only a shared value.
        answer = engine.ask("compare zurich against bern")
        # Whatever the route, the engine must not crash; if it asked, a
        # reply must resolve it.
        if answer.kind is AnswerKind.CLARIFICATION:
            follow_up = engine.ask("employment")
            assert follow_up.kind is not AnswerKind.CLARIFICATION

    def test_discovery_reply_resolves_dataset(self, engine):
        engine.ask("what datasets do you have about the labour market")
        answer = engine.ask("employment")
        assert answer.kind is AnswerKind.METADATA
        assert engine.session.focus_table == "employment"

    def test_unresolvable_reply_reasks(self, engine):
        engine.ask("what datasets do you have about jobs")
        answer = engine.ask("xyzzy plugh")
        assert answer.kind is AnswerKind.CLARIFICATION
        assert engine.session.expecting_clarification_reply


class TestAnalysisPath:
    def test_named_table_analysis(self, engine):
        answer = engine.ask("show me the trend and seasonality of the barometer")
        assert answer.kind is AnswerKind.ANALYSIS
        assert answer.metadata["period"] == 6

    def test_outlier_analysis(self, engine):
        answer = engine.ask("are there outliers in the barometer")
        assert answer.kind is AnswerKind.ANALYSIS
        assert "outlier" in answer.text.lower()

    def test_analysis_without_target_abstains(self, engine):
        answer = engine.ask("show me the seasonality")
        assert answer.kind is AnswerKind.ABSTENTION

    def test_counts_series_for_event_tables(self):
        from repro.datasets import build_healthcare_registry

        domain = build_healthcare_registry(seed=4)
        engine = CDAEngine(domain.registry, domain.vocabulary)
        answer = engine.ask("show me the seasonality of the visits")
        assert answer.kind is AnswerKind.ANALYSIS
        assert answer.metadata["period"] == 12


class TestLLMFallback:
    def make_engine(self, error_rate, config=None):
        domain = build_swiss_labour_registry(seed=8)
        llm = SimulatedLLM(
            domain.registry.database.catalog, error_rate=error_rate, seed=3
        )
        return CDAEngine(
            domain.registry, domain.vocabulary, config=config, llm=llm
        )

    GOLD = "SELECT COUNT(*) AS count_all FROM cantons"

    def test_reliable_llm_answers(self):
        engine = self.make_engine(0.0)
        answer = engine.ask(
            "an utterly untranslatable question", llm_gold_sql=self.GOLD
        )
        assert answer.kind is AnswerKind.DATA
        assert answer.rows == [(8,)]

    def test_llm_only_mode_answers_blindly(self):
        engine = self.make_engine(1.0, config=ReliabilityConfig.llm_only())
        answer = engine.ask("another odd question", llm_gold_sql=self.GOLD)
        # LLM-only never abstains: it answers (possibly wrongly) or errors.
        assert answer.kind in (AnswerKind.DATA, AnswerKind.ERROR, AnswerKind.ABSTENTION)
        if answer.kind is AnswerKind.DATA:
            assert answer.verification is None

    def test_full_cda_abstains_on_unreliable_llm(self):
        engine = self.make_engine(1.0)
        answers = [
            engine.ask(f"weird question {i}", llm_gold_sql=self.GOLD)
            for i in range(5)
        ]
        assert any(a.kind is AnswerKind.ABSTENTION for a in answers)

    def test_consistency_confidence_attached(self):
        engine = self.make_engine(0.0)
        answer = engine.ask("odd question", llm_gold_sql=self.GOLD)
        assert "consistency" in answer.confidence.parts


class TestReliabilityConfig:
    def test_presets_differ(self):
        full = ReliabilityConfig.full()
        llm_only = ReliabilityConfig.llm_only()
        assert full.use_grounded_parser and not llm_only.use_grounded_parser
        assert full.verification_depth != "none"
        assert llm_only.verification_depth == "none"
        assert llm_only.clarification_mode is ClarificationMode.NEVER

    def test_no_explanations_config(self):
        domain = build_swiss_labour_registry(seed=9)
        config = ReliabilityConfig(attach_explanations=False)
        engine = CDAEngine(domain.registry, domain.vocabulary, config=config)
        answer = engine.ask("how many cantons are there")
        assert answer.explanation is None

    def test_no_suggestions_config(self):
        domain = build_swiss_labour_registry(seed=9)
        config = ReliabilityConfig(offer_suggestions=False)
        engine = CDAEngine(domain.registry, domain.vocabulary, config=config)
        answer = engine.ask("how many cantons are there")
        assert answer.suggestions == []


class TestSessionState:
    def test_counters(self, engine):
        engine.ask("how many cantons are there")
        engine.ask("what is the barometer?")
        assert engine.session.questions_asked == 2
        assert engine.session.answers_given == 2

    def test_conversation_graph_records_turns(self, engine):
        engine.ask("how many cantons are there")
        kinds = [t.kind for t in engine.session.graph.turns()]
        assert TurnKind.USER_QUESTION in kinds
        assert TurnKind.SYSTEM_ANSWER in kinds

    def test_provenance_tracker_records_queries(self, engine):
        engine.ask("how many cantons are there")
        assert len(engine.session.tracker) >= 1

    def test_session_dataclass_defaults(self):
        session = Session()
        assert not session.expecting_clarification_reply
        assert session.focus_table is None


class TestProductionPath:
    def test_data_turn_never_imports_the_reference_engine(self):
        # A fresh interpreter: this test process has the reference engine
        # loaded already, for the parity corpora.
        script = textwrap.dedent(
            """
            import json, sys
            from repro.core import AnswerKind, CDAEngine
            from repro.datasets import build_swiss_labour_registry

            domain = build_swiss_labour_registry(seed=5)
            engine = CDAEngine(domain.registry, domain.vocabulary)
            answer = engine.ask("how many cantons are there")
            print(json.dumps({
                "kind": answer.kind.value,
                "verified": answer.verification is not None
                and answer.verification.depth == "provenance",
                "reference_loaded": "repro.sqldb.reference" in sys.modules,
            }))
            """
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        outcome = json.loads(completed.stdout.strip().splitlines()[-1])
        assert outcome == {
            "kind": AnswerKind.DATA.value,
            "verified": True,
            "reference_loaded": False,
        }
