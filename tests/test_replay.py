"""Replay harness: deterministic reproduction + divergence attribution.

The consumption side of the PR-5 loop (capture lives in
``tests/test_recorder.py``): a black box recorded on one engine replays
on a *fresh* engine with zero divergences; a config change injected into
the replay yields a non-empty, field-attributed report; and mutating any
single compared field of a recorded envelope flags exactly that field —
the property that makes the report trustworthy for bisection.

Replay tests build their own registry bundles instead of using the
shared session-scoped domain: record and replay must both start from a
cold query cache, or the cache hit/miss counters (part of each turn's
``metrics_delta``) would differ by test-ordering accident.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CDAEngine, ReliabilityConfig
from repro.datasets import build_swiss_labour_registry
from repro.obs import (
    BlackBox,
    blackbox_chrome_trace,
    diff_envelopes,
    replay_session,
)

#: A conversation that exercises the stateful paths: data queries, a
#: discovery turn that opens a clarification, its reply, and a
#: follow-up that refines the previous intent.
SCRIPT = (
    "how many employees are there",
    "average employees by canton",
    "what data do you have about employment",
    "employment",
    "and for bern",
)


def fresh_engine(config: ReliabilityConfig | None = None) -> CDAEngine:
    """An engine over its own cold registry bundle (header replayable)."""
    bundle = build_swiss_labour_registry(seed=0)
    engine = CDAEngine(
        bundle.registry,
        bundle.vocabulary,
        config=config if config is not None else ReliabilityConfig.full(),
    )
    if engine.recorder is not None:
        engine.recorder.context.update(
            domain="swiss", seed=0, llm_error_rate=None
        )
    return engine


def record_script(questions=SCRIPT) -> BlackBox:
    """Run ``questions`` on a fresh engine and return its black box."""
    engine = fresh_engine()
    for question in questions:
        engine.ask(question)
    return BlackBox.loads(engine.recorder.to_jsonl())


@pytest.fixture(scope="module")
def recorded_script() -> BlackBox:
    """One recorded conversation, shared read-only by this module
    (turn deltas are self-relative, so the global-registry resets
    between tests do not bleed into it)."""
    return record_script()


# -- healthy replay: zero divergences -----------------------------------------


class TestFaithfulReplay:
    def test_script_replays_with_zero_divergences(self, recorded_script):
        report = replay_session(recorded_script)
        assert report.diverged is False
        assert report.divergence_count == 0
        assert report.header_issues == []
        assert len(report.turns) == len(SCRIPT)
        assert "every turn reproduced exactly" in report.render_text()

    def test_hundred_turns_replay_exactly(self):
        questions = [SCRIPT[i % len(SCRIPT)] for i in range(100)]
        blackbox = record_script(questions)
        assert len(blackbox) == 100
        report = replay_session(blackbox)
        assert report.diverged is False
        assert report.divergence_count == 0
        assert len(report.turns) == 100

    def test_replay_carries_latency_diagnostics(self, recorded_script):
        report = replay_session(recorded_script)
        first = report.turns[0]
        assert first.latency_delta_s is not None
        assert "engine.execution" in first.stage_delta_ms
        recorded_ms, replayed_ms = first.stage_delta_ms["engine.execution"]
        assert recorded_ms > 0 and replayed_ms > 0

    def test_report_to_dict_is_json_safe(self, recorded_script):
        payload = replay_session(recorded_script).to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["turns_replayed"] == len(SCRIPT)
        assert payload["diverged"] is False

    def test_replay_accepts_a_live_recorder(self):
        engine = fresh_engine()
        engine.ask(SCRIPT[0])
        report = replay_session(engine.recorder)
        assert report.diverged is False
        assert len(report.turns) == 1

    def test_replay_engine_must_record(self, recorded_script):
        disabled = fresh_engine(
            ReliabilityConfig(record_turns=False)
        )
        with pytest.raises(ValueError, match="record_turns"):
            replay_session(recorded_script, engine=disabled)


# -- injected config changes are field-attributed -----------------------------


class TestConfigInjection:
    def test_query_cache_off_flags_only_the_work_profile(self, recorded_script):
        report = replay_session(
            recorded_script, config_overrides={"query_cache_size": None}
        )
        # Without the cache every query re-executes and returns identical
        # results — the recorder still catches the change through the
        # per-turn counter deltas (different machinery did the work).
        assert report.diverged is True
        assert report.fields_flagged() == ["metrics_delta"]

    def test_raised_abstention_threshold_flags_the_answers(
        self, recorded_script
    ):
        report = replay_session(
            recorded_script, config_overrides={"abstention_threshold": 0.99}
        )
        assert report.diverged is True
        flagged = report.fields_flagged()
        assert "kind" in flagged and "text" in flagged
        divergence = next(
            d for d in report.divergences() if d.field == "kind"
        )
        assert divergence.recorded == "data"
        assert divergence.replayed == "abstention"
        assert "field 'kind'" in divergence.describe()

    def test_fingerprint_mismatch_is_a_header_issue(self, recorded_script):
        tampered = copy.deepcopy(recorded_script)
        tampered.header["fingerprint"] = "0" * 64
        report = replay_session(tampered)
        assert report.diverged is True
        assert any("fingerprint mismatch" in issue for issue in report.header_issues)

    def test_dropped_turns_are_a_header_issue(self):
        engine = fresh_engine(ReliabilityConfig(recorder_capacity=2))
        engine.recorder.context.update(domain="swiss", seed=0)
        for question in SCRIPT[:3]:
            engine.ask(question)
        blackbox = BlackBox.loads(engine.recorder.to_jsonl())
        report = replay_session(blackbox)
        assert any("fell off" in issue for issue in report.header_issues)


# -- mutation flags exactly the mutated field ---------------------------------


def _mutate_sql(envelope):
    envelope["sql"] = (envelope["sql"] or "") + " -- tampered"
    return "sql"


def _mutate_text(envelope):
    envelope["text"] = envelope["text"] + " (edited)"
    return "text"


def _mutate_confidence(envelope):
    envelope["confidence"]["value"] = round(
        envelope["confidence"]["value"] / 2 + 0.001, 12
    )
    return "confidence"


def _mutate_rows(envelope):
    envelope["rows"][0][0] = 10_000_000
    return "rows"


def _mutate_kind(envelope):
    envelope["kind"] = "metadata" if envelope["kind"] == "data" else "data"
    return "kind"


def _mutate_metrics(envelope):
    name, value = next(iter(envelope["metrics_delta"].items()))
    envelope["metrics_delta"][name] = value + 1
    return "metrics_delta"


def _mutate_digest(envelope):
    digest = envelope["post_digest"]
    envelope["post_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    return "post_digest"


MUTATORS = (
    _mutate_sql,
    _mutate_text,
    _mutate_confidence,
    _mutate_rows,
    _mutate_kind,
    _mutate_metrics,
    _mutate_digest,
)


class TestMutationAttribution:
    @given(mutate=st.sampled_from(MUTATORS), turn=st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_diff_flags_exactly_the_mutated_field(
        self, recorded_script, mutate, turn
    ):
        recorded = recorded_script.turns[turn].outputs
        mutated = copy.deepcopy(recorded)
        field = mutate(mutated)
        assert [name for name, _r, _p in diff_envelopes(recorded, mutated)] == [
            field
        ]
        # And the unmutated envelope still diffs clean against itself.
        assert diff_envelopes(recorded, copy.deepcopy(recorded)) == []

    @pytest.mark.parametrize(
        "mutate", [_mutate_sql, _mutate_rows, _mutate_confidence]
    )
    def test_replay_report_attributes_the_tampered_field(
        self, recorded_script, mutate
    ):
        tampered = copy.deepcopy(recorded_script)
        field = mutate(tampered.turns[1].outputs)
        report = replay_session(tampered)
        assert report.diverged is True
        assert report.fields_flagged() == [field]
        (divergence,) = report.divergences()
        assert divergence.turn_index == 1
        clean_turns = [t for t in report.turns if t.turn_index != 1]
        assert all(not t.diverged for t in clean_turns)

    def test_informational_fields_are_never_flagged(self, recorded_script):
        recorded = recorded_script.turns[0].outputs
        mutated = copy.deepcopy(recorded)
        mutated["latency_s"] = 99.0
        mutated["stage_latency_ms"] = {}
        mutated["events"] = []
        mutated["trace"] = None
        assert diff_envelopes(recorded, mutated) == []


# -- CLI record → replay ------------------------------------------------------


class TestReplayCLI:
    def test_record_then_replay_round_trip(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main

        path = tmp_path / "session.jsonl"
        monkeypatch.setattr(
            "sys.stdin", _FakeStdin(["how many employees are there", ""])
        )
        assert main(["--domain", "swiss", "--record", str(path)]) == 0
        capsys.readouterr()
        exit_code = main(["--replay", str(path)])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "0 divergences" in out
        assert "every turn reproduced exactly" in out

    def test_replay_exits_nonzero_on_divergence(self, tmp_path, capsys):
        from repro.__main__ import main

        blackbox = record_script(SCRIPT[:1])
        blackbox.turns[0].outputs["sql"] = "SELECT 42"
        path = tmp_path / "tampered.jsonl"
        lines = [json.dumps(blackbox.header, sort_keys=True)]
        lines.extend(
            json.dumps(turn.to_dict(), sort_keys=True) for turn in blackbox.turns
        )
        path.write_text("\n".join(lines) + "\n")
        exit_code = main(["--replay", str(path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "field 'sql'" in out


class _FakeStdin:
    """Just enough of a stdin for the CLI's input() loop."""

    def __init__(self, lines):
        self._lines = iter(lines)

    def readline(self):
        try:
            return next(self._lines) + "\n"
        except StopIteration:
            return ""


# -- session-timeline export --------------------------------------------------


class TestBlackboxChromeTrace:
    def test_turns_lay_out_sequentially(self, recorded_script):
        document = blackbox_chrome_trace(recorded_script)
        events = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        roots = [e for e in events if e["name"] == "engine.ask"]
        assert len(roots) == len(SCRIPT)
        starts = [e["ts"] for e in roots]
        assert starts == sorted(starts)
        for earlier, later in zip(roots, roots[1:]):
            assert later["ts"] >= earlier["ts"] + earlier["dur"] - 1e-6
        assert [e["args"]["turn_index"] for e in roots] == list(range(len(SCRIPT)))
        assert json.loads(json.dumps(document)) == document

    def test_untraced_turns_get_a_synthetic_span(self):
        engine = fresh_engine(ReliabilityConfig(tracing=False))
        engine.recorder.context.update(domain="swiss", seed=0)
        engine.ask(SCRIPT[0])
        blackbox = BlackBox.loads(engine.recorder.to_jsonl())
        document = blackbox_chrome_trace(blackbox)
        spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "engine.ask"
        assert spans[0]["dur"] > 0
