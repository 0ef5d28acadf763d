"""Flight recorder: capture, black-box serialisation, config round-trip.

The capture side of the PR-5 loop: every ``CDAEngine.ask`` leaves a
:class:`~repro.obs.recorder.TurnRecording` in the bounded ring, the ring
serialises to a versioned JSONL black box, anomalous turns auto-dump,
and the two satellites it rests on — a lossless
``ReliabilityConfig.to_dict/from_dict`` and a deterministic
``Session.state_digest`` — hold under property-based scrutiny.
The replay/divergence side lives in ``tests/test_replay.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDAEngine, ReliabilityConfig
from repro.core.session import Session
from repro.guidance.clarification import ClarificationMode
from repro.guidance.conversation_graph import TurnKind
from repro.nl.nl2sql import GroundingConfig
from repro.obs import (
    BLACKBOX_VERSION,
    BlackBox,
    FlightRecorder,
    SLOThresholds,
    get_event_log,
)
from repro.obs.events import EventLog


QUESTIONS = (
    "how many employees are there",
    "what is the average salary by canton",
    "what data do you have about employment",
    "employment",
)


@pytest.fixture
def engine(swiss_domain):
    return CDAEngine(swiss_domain.registry, swiss_domain.vocabulary)


# -- satellite: ReliabilityConfig round trip ----------------------------------


_config_kwargs = st.fixed_dictionaries(
    {},
    optional={
        "use_grounded_parser": st.booleans(),
        "use_llm_fallback": st.booleans(),
        "consistency_samples": st.integers(min_value=1, max_value=9),
        "use_constrained_decoding": st.booleans(),
        "query_cache_size": st.one_of(
            st.none(), st.integers(min_value=1, max_value=4096)
        ),
        "attach_explanations": st.booleans(),
        "record_turns": st.booleans(),
        "recorder_capacity": st.integers(min_value=1, max_value=2048),
        "recorder_dump_dir": st.one_of(st.none(), st.just("/tmp/boxes")),
        "tracing": st.booleans(),
        "verification_depth": st.sampled_from(
            ["none", "static", "reexecution", "provenance"]
        ),
        "abstention_threshold": st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        "allow_abstention": st.booleans(),
        "clarification_mode": st.sampled_from(list(ClarificationMode)),
        "offer_suggestions": st.booleans(),
        "adapt_to_expertise": st.booleans(),
        "grounding": st.builds(
            GroundingConfig,
            use_vocabulary=st.booleans(),
            use_value_index=st.booleans(),
            min_match_score=st.floats(
                min_value=0.0, max_value=1.0, allow_nan=False
            ),
        ),
        "slo": st.builds(
            SLOThresholds,
            turn_p50_seconds=st.floats(
                min_value=1e-4, max_value=10.0, allow_nan=False
            ),
            abstention_rate_ceiling=st.floats(
                min_value=0.0, max_value=1.0, allow_nan=False
            ),
        ),
    },
)


class TestConfigRoundTrip:
    @given(kwargs=_config_kwargs)
    @settings(max_examples=60, deadline=None)
    def test_to_dict_from_dict_is_lossless(self, kwargs):
        config = ReliabilityConfig(**kwargs)
        payload = config.to_dict()
        # The black box stores this payload as JSON: the JSON round-trip
        # must be part of the loop.
        decoded = json.loads(json.dumps(payload))
        restored = ReliabilityConfig.from_dict(decoded)
        assert restored == config
        assert restored.to_dict() == payload

    def test_presets_round_trip(self):
        for preset in (
            ReliabilityConfig.full(),
            ReliabilityConfig.llm_only(),
            ReliabilityConfig.grounded_no_verify(),
            ReliabilityConfig.no_guidance(),
        ):
            assert ReliabilityConfig.from_dict(preset.to_dict()) == preset

    def test_unknown_keys_raise(self):
        payload = ReliabilityConfig.full().to_dict()
        payload["use_time_travel"] = True
        with pytest.raises(ValueError, match="use_time_travel"):
            ReliabilityConfig.from_dict(payload)

    def test_payload_is_json_safe(self):
        payload = ReliabilityConfig.full().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["clarification_mode"] == "when_ambiguous"
        assert isinstance(payload["grounding"], dict)
        assert isinstance(payload["slo"], dict)


# -- satellite: deterministic session state digest ----------------------------


class TestStateDigest:
    def _scripted_session(self, order=("canton", "sector")) -> Session:
        session = Session()
        turn = session.record_user_turn("how many employees", TurnKind.USER_QUESTION)
        session.record_system_turn(
            "There are 8000.", TurnKind.SYSTEM_ANSWER, turn, confidence=0.91
        )
        session.focus_table = "employees"
        for column in order:
            session.used_group_columns.add(column)
        return session

    def test_identical_histories_share_a_digest(self):
        assert (
            self._scripted_session().state_digest()
            == self._scripted_session().state_digest()
        )

    def test_set_insertion_order_does_not_matter(self):
        forward = self._scripted_session(order=("canton", "sector"))
        backward = self._scripted_session(order=("sector", "canton"))
        assert forward.state_digest() == backward.state_digest()

    def test_any_state_change_moves_the_digest(self):
        base = self._scripted_session()
        changed = self._scripted_session()
        changed.focus_table = "departments"
        assert base.state_digest() != changed.state_digest()
        extra_turn = self._scripted_session()
        extra_turn.record_user_turn("and for bern?", TurnKind.USER_QUESTION)
        assert base.state_digest() != extra_turn.state_digest()

    def test_state_dict_is_canonical_json(self):
        state = self._scripted_session().state_dict()
        assert json.loads(json.dumps(state)) == state


# -- satellite ride-along: EventLog mark/since --------------------------------


class TestEventSlicing:
    def test_since_returns_exactly_the_new_events(self):
        log = EventLog(capacity=16)
        log.emit("before.one")
        marker = log.mark()
        log.emit("after.one")
        log.emit("after.two", severity="warning")
        names = [event.name for event in log.since(marker)]
        assert names == ["after.one", "after.two"]
        assert log.since(log.mark()) == []

    def test_since_survives_ring_overflow(self):
        log = EventLog(capacity=3)
        marker = log.mark()
        for index in range(7):
            log.emit(f"event.{index}")
        names = [event.name for event in log.since(marker)]
        # Seven were emitted after the marker but only three survive.
        assert names == ["event.4", "event.5", "event.6"]


# -- capture ------------------------------------------------------------------


class TestEngineCapture:
    def test_every_turn_lands_in_the_recorder(self, engine):
        for question in QUESTIONS:
            engine.ask(question)
        assert len(engine.recorder) == len(QUESTIONS)
        recordings = engine.recorder.recordings()
        assert [r.question for r in recordings] == list(QUESTIONS)
        assert [r.turn_index for r in recordings] == list(range(len(QUESTIONS)))

    def test_output_envelope_contents(self, engine):
        engine.ask(QUESTIONS[0])
        outputs = engine.recorder.last().outputs
        assert outputs["kind"] == "data"
        assert outputs["abstained"] is False
        assert outputs["sql"].lower().startswith("select")
        assert outputs["rows"] and outputs["row_count"] == len(outputs["rows"])
        assert outputs["rows_truncated"] is False
        assert 0.0 < outputs["confidence"]["value"] <= 1.0
        assert outputs["post_digest"] == engine.session.state_digest()
        assert outputs["metrics_delta"]["core.session.questions"] == 1
        assert outputs["latency_s"] > 0
        assert "engine.execution" in outputs["stage_latency_ms"]
        # The span tree is held live and only serialised on to_dict().
        serialised = engine.recorder.last().to_dict()["outputs"]
        assert serialised["trace"]["name"] == "engine.ask"
        assert any(
            event["name"] == "engine.turn" for event in outputs["events"]
        )

    def test_pre_digest_chains_to_previous_post_digest(self, engine):
        fresh_digest = engine.session.state_digest()
        for question in QUESTIONS[:2]:
            engine.ask(question)
        first, second = engine.recorder.recordings()
        assert first.inputs["pre_digest"] == fresh_digest
        assert second.inputs["pre_digest"] == first.outputs["post_digest"]

    def test_ring_is_bounded(self, swiss_domain):
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(recorder_capacity=2),
        )
        for question in QUESTIONS[:3]:
            engine.ask(question)
        assert len(engine.recorder) == 2
        assert engine.recorder.dropped == 1
        assert engine.recorder.recordings()[0].question == QUESTIONS[1]

    def test_record_turns_off_disables_capture(self, swiss_domain):
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(record_turns=False),
        )
        assert engine.recorder is None
        answer = engine.ask(QUESTIONS[0])
        assert answer.kind.value == "data"

    def test_untraced_turns_still_capture(self, swiss_domain):
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(tracing=False),
        )
        engine.ask(QUESTIONS[0])
        outputs = engine.recorder.last().outputs
        assert outputs["kind"] == "data"
        assert outputs["trace"] is None
        assert outputs["stage_latency_ms"] == {}


# -- black-box files ----------------------------------------------------------


class TestBlackBox:
    def test_jsonl_round_trip(self, engine, tmp_path):
        for question in QUESTIONS:
            engine.ask(question)
        engine.recorder.context.update(domain="swiss", seed=0)
        path = tmp_path / "box.jsonl"
        engine.recorder.dump(path)
        blackbox = BlackBox.load(path)
        assert blackbox.header["version"] == BLACKBOX_VERSION
        assert blackbox.header["domain"] == "swiss"
        assert blackbox.header["config"] == engine.config.to_dict()
        assert len(blackbox) == len(QUESTIONS)
        for loaded, live in zip(blackbox.turns, engine.recorder.recordings()):
            assert loaded.to_dict() == json.loads(json.dumps(live.to_dict()))

    def test_header_resolves_fingerprint_lazily(self):
        recorder = FlightRecorder(context={"fingerprint": lambda: "abc123"})
        assert callable(recorder.context["fingerprint"])
        header = recorder.header()
        assert header["fingerprint"] == "abc123"
        assert recorder.context["fingerprint"] == "abc123"  # cached

    def test_engine_header_carries_the_registry_fingerprint(self, engine):
        header = engine.recorder.header()
        assert header["fingerprint"] == engine.registry.fingerprint()

    def test_malformed_blackboxes_raise(self, tmp_path):
        no_header = tmp_path / "no_header.jsonl"
        no_header.write_text(
            '{"record": "turn", "turn_index": 0, "inputs": {}, "outputs": {}}\n'
        )
        with pytest.raises(ValueError, match="no header"):
            BlackBox.load(no_header)
        wrong_version = tmp_path / "wrong_version.jsonl"
        wrong_version.write_text('{"record": "header", "version": 999}\n')
        with pytest.raises(ValueError, match="version"):
            BlackBox.load(wrong_version)


# -- registry fingerprint -----------------------------------------------------


class TestRegistryFingerprint:
    def test_stable_within_and_across_builds(self, swiss_domain):
        from repro.datasets import build_swiss_labour_registry

        assert (
            swiss_domain.registry.fingerprint()
            == swiss_domain.registry.fingerprint()
        )
        rebuilt = build_swiss_labour_registry(seed=7)
        assert (
            rebuilt.registry.fingerprint() == swiss_domain.registry.fingerprint()
        )

    def test_data_changes_move_the_fingerprint(self):
        from repro.datasets import build_swiss_labour_registry

        changed_seed = build_swiss_labour_registry(seed=8)
        baseline = build_swiss_labour_registry(seed=7)
        assert (
            changed_seed.registry.fingerprint()
            != baseline.registry.fingerprint()
        )


# -- dump-on-anomaly ----------------------------------------------------------


class TestAnomalies:
    def test_error_turn_is_flagged_and_dumped(self, swiss_domain, tmp_path):
        from repro.nl import SimulatedLLM

        dump_dir = tmp_path / "boxes"
        engine = CDAEngine(
            swiss_domain.registry,
            swiss_domain.vocabulary,
            config=ReliabilityConfig(
                use_grounded_parser=False,
                use_constrained_decoding=False,
                consistency_samples=1,
                recorder_dump_dir=str(dump_dir),
            ),
            llm=SimulatedLLM(
                swiss_domain.registry.database.catalog,
                error_rate=0.0,
                sample_fidelity=1.0,
            ),
        )
        answer = engine.ask(
            "how many employees are there",
            llm_gold_sql="SELECT * FROM phantom_table",
        )
        assert answer.kind.value == "error"
        recording = engine.recorder.last()
        assert "error" in recording.anomaly
        anomaly_events = get_event_log().events(prefix="recorder.anomaly")
        assert anomaly_events and anomaly_events[-1].attrs["turn"] == 0
        dumped = list(dump_dir.glob("blackbox-turn*.jsonl"))
        assert len(dumped) == 1
        assert BlackBox.load(dumped[0]).turns[-1].anomaly == recording.anomaly

    def test_latency_slo_breach_is_flagged(self, swiss_domain):
        config = ReliabilityConfig(slo=SLOThresholds(turn_p95_seconds=0.0))
        engine = CDAEngine(swiss_domain.registry, swiss_domain.vocabulary, config)
        engine.ask(QUESTIONS[0])
        assert "latency_slo_breach" in engine.recorder.last().anomaly

    def test_clean_turns_are_not_flagged(self, engine):
        engine.ask(QUESTIONS[0])
        assert engine.recorder.last().anomaly is None
        assert get_event_log().events(prefix="recorder.anomaly") == []


# -- CLI ----------------------------------------------------------------------


class TestRecordCLI:
    def test_record_flag_writes_a_blackbox(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "session.jsonl"
        exit_code = main([
            "--domain", "swiss",
            "--ask", "how many employees are there",
            "--record", str(path),
        ])
        assert exit_code == 0
        assert "black box written" in capsys.readouterr().out
        blackbox = BlackBox.load(path)
        assert blackbox.header["domain"] == "swiss"
        assert len(blackbox) == 1
        assert blackbox.turns[0].outputs["kind"] == "data"
