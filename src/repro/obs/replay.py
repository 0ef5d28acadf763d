"""Replay harness: re-execute a black box and diagnose divergences.

Query By Provenance re-executes captured derivations and compares; the
replay harness does the same for whole conversational turns.  Given a
black box captured by :mod:`repro.obs.recorder`, it builds a *fresh*
engine (same domain, same serialized config, same data fingerprint),
feeds the recorded questions through it in order, and diffs every
replayed output envelope against the recorded one field by field.

The product is a :class:`DivergenceReport`:

* a healthy system replays with **zero divergences** — the turn path is
  deterministic end to end, which is what makes regression bisection
  ("which commit changed this answer?") possible;
* after a config or code change, every difference is *field-attributed*
  (``sql`` changed, ``confidence.value`` moved, the turn now abstains)
  and carries both values, plus per-stage latency deltas for the
  performance side of the diff.

``replay_session()`` is the API; ``python -m repro --replay FILE`` is
the CLI (exit code 1 on any divergence, so CI can gate on it).  Module
imports stay stdlib-only — the engine is imported lazily inside
:func:`build_engine_for_header`, keeping :mod:`repro.obs` cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.recorder import BlackBox, FlightRecorder, diff_envelopes

__all__ = [
    "FieldDivergence",
    "TurnReplay",
    "DivergenceReport",
    "build_engine_for_header",
    "replay_session",
]


@dataclass
class FieldDivergence:
    """One output-envelope field that did not reproduce."""

    turn_index: int
    field: str
    recorded: object
    replayed: object

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "turn_index": self.turn_index,
            "field": self.field,
            "recorded": self.recorded,
            "replayed": self.replayed,
        }

    def describe(self) -> str:
        """One line for the text report (long values elided)."""
        return (
            f"turn {self.turn_index} field {self.field!r}: "
            f"recorded {_elide(self.recorded)} != replayed {_elide(self.replayed)}"
        )


def _elide(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 1] + "…"


@dataclass
class TurnReplay:
    """The comparison outcome for one replayed turn."""

    turn_index: int
    question: str
    divergences: list[FieldDivergence] = field(default_factory=list)
    #: stage → (recorded_ms, replayed_ms); informational, never flagged.
    stage_delta_ms: dict = field(default_factory=dict)
    latency_delta_s: float | None = None

    @property
    def diverged(self) -> bool:
        """Whether any compared field differed."""
        return bool(self.divergences)

    def to_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "turn_index": self.turn_index,
            "question": self.question,
            "diverged": self.diverged,
            "divergences": [d.to_dict() for d in self.divergences],
            "stage_delta_ms": {
                stage: list(pair) for stage, pair in self.stage_delta_ms.items()
            },
            "latency_delta_s": self.latency_delta_s,
        }


@dataclass
class DivergenceReport:
    """Every replayed turn's outcome, plus header-level issues."""

    turns: list[TurnReplay] = field(default_factory=list)
    #: Problems found before any turn ran (fingerprint mismatch, …).
    header_issues: list[str] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        """Whether anything at all failed to reproduce."""
        return bool(self.header_issues) or any(t.diverged for t in self.turns)

    @property
    def divergence_count(self) -> int:
        """Total flagged fields across all turns."""
        return sum(len(t.divergences) for t in self.turns)

    def divergences(self) -> list[FieldDivergence]:
        """All flagged fields, in turn order."""
        return [d for turn in self.turns for d in turn.divergences]

    def fields_flagged(self) -> list[str]:
        """Distinct diverged field names, first-seen order."""
        seen: list[str] = []
        for divergence in self.divergences():
            if divergence.field not in seen:
                seen.append(divergence.field)
        return seen

    def to_dict(self) -> dict:
        """JSON-ready form (the machine output of ``--replay``)."""
        return {
            "diverged": self.diverged,
            "turns_replayed": len(self.turns),
            "divergence_count": self.divergence_count,
            "fields_flagged": self.fields_flagged(),
            "header_issues": list(self.header_issues),
            "turns": [turn.to_dict() for turn in self.turns],
        }

    def render_text(self) -> str:
        """The terminal report behind ``python -m repro --replay``."""
        lines = [
            f"Replay report — {len(self.turns)} turns, "
            f"{self.divergence_count} divergences"
            + (
                f" across fields {', '.join(self.fields_flagged())}"
                if self.divergence_count
                else ""
            )
        ]
        for issue in self.header_issues:
            lines.append(f"  ! header: {issue}")
        for turn in self.turns:
            if not turn.diverged:
                continue
            lines.append(f"  turn {turn.turn_index}: {turn.question!r}")
            for divergence in turn.divergences:
                lines.append(f"    {divergence.describe()}")
        if not self.diverged:
            lines.append("  every turn reproduced exactly")
        return "\n".join(lines)


def build_engine_for_header(header: dict, config_overrides: dict | None = None):
    """A fresh ``CDAEngine`` matching a black-box header.

    The header must carry ``domain`` (a bundled domain name), and may
    carry ``seed``, ``llm_error_rate`` and the serialized ``config``.
    ``config_overrides`` replaces individual config fields — the
    injection point for "replay this recording with the query cache off".
    A header whose config names a field this version no longer has is
    refused (``ValueError`` from ``ReliabilityConfig.from_dict``), never
    replayed under a silently dropped switch.
    """
    # Deferred imports: obs stays importable from every layer.
    from dataclasses import replace as dc_replace

    from repro.core import CDAEngine, ReliabilityConfig
    import repro.datasets as datasets

    builders = {
        "swiss": datasets.build_swiss_labour_registry,
        "ecommerce": datasets.build_ecommerce_registry,
        "healthcare": datasets.build_healthcare_registry,
    }
    domain = header.get("domain")
    if domain not in builders:
        raise ValueError(
            f"black box names no replayable domain (got {domain!r}); "
            "pass an engine or engine_factory to replay_session instead"
        )
    bundle = builders[domain](seed=header.get("seed", 0))
    config = (
        ReliabilityConfig.from_dict(header["config"])
        if "config" in header
        else ReliabilityConfig.full()
    )
    if config_overrides:
        config = dc_replace(config, **config_overrides)
    llm = None
    if header.get("llm_error_rate") is not None:
        from repro.nl import SimulatedLLM

        llm = SimulatedLLM(
            bundle.registry.database.catalog,
            error_rate=header["llm_error_rate"],
        )
    return CDAEngine(bundle.registry, bundle.vocabulary, config=config, llm=llm)


def replay_session(
    source,
    engine=None,
    engine_factory=None,
    config_overrides: dict | None = None,
) -> DivergenceReport:
    """Re-execute a black box on a fresh engine and diff every turn.

    ``source`` is a :class:`~repro.obs.recorder.BlackBox`, a live
    :class:`~repro.obs.recorder.FlightRecorder`, or a path to a black-box
    JSONL file.  The engine replaying it is, in priority order: the
    ``engine`` argument (must be *fresh* — replay starts from turn 0),
    ``engine_factory(header)``, or one built from the header via
    :func:`build_engine_for_header` (with ``config_overrides`` applied).
    """
    if isinstance(source, BlackBox):
        blackbox = source
    elif isinstance(source, FlightRecorder):
        blackbox = BlackBox(header=source.header(), turns=source.recordings())
    else:
        blackbox = BlackBox.load(source)
    header = blackbox.header
    if engine is None:
        engine = (
            engine_factory(header)
            if engine_factory is not None
            else build_engine_for_header(header, config_overrides)
        )
    report = DivergenceReport()
    if engine.recorder is None:
        raise ValueError(
            "the replay engine has record_turns disabled; replay needs its "
            "own capture to compare against the recording"
        )
    recorded_fingerprint = header.get("fingerprint")
    if recorded_fingerprint is not None:
        live_fingerprint = engine.registry.fingerprint()
        if live_fingerprint != recorded_fingerprint:
            report.header_issues.append(
                "dataset fingerprint mismatch: the engine is not serving "
                "the recorded data "
                f"(recorded {recorded_fingerprint[:12]}…, "
                f"live {live_fingerprint[:12]}…)"
            )
    if blackbox.header.get("dropped", 0):
        report.header_issues.append(
            f"{blackbox.header['dropped']} turns fell off the recorder ring "
            "before the dump; replay starts mid-session and digests will "
            "not line up"
        )
    for recording in blackbox.turns:
        turn = TurnReplay(
            turn_index=recording.turn_index, question=recording.question
        )
        divergences = []
        recorded_pre = recording.inputs.get("pre_digest")
        if recorded_pre is not None:
            live_pre = engine.session.state_digest()
            if live_pre != recorded_pre:
                divergences.append(
                    FieldDivergence(
                        recording.turn_index, "pre_digest", recorded_pre, live_pre
                    )
                )
        engine.ask(recording.question, recording.inputs.get("gold_sql"))
        replayed = engine.recorder.last().outputs
        recorded = recording.outputs
        divergences.extend(
            FieldDivergence(recording.turn_index, name, a, b)
            for name, a, b in diff_envelopes(recorded, replayed)
        )
        turn.divergences = divergences
        recorded_stages = recorded.get("stage_latency_ms") or {}
        replayed_stages = replayed.get("stage_latency_ms") or {}
        turn.stage_delta_ms = {
            stage: (recorded_stages.get(stage), replayed_stages.get(stage))
            for stage in {**recorded_stages, **replayed_stages}
        }
        if (
            recorded.get("latency_s") is not None
            and replayed.get("latency_s") is not None
        ):
            turn.latency_delta_s = round(
                replayed["latency_s"] - recorded["latency_s"], 9
            )
        report.turns.append(turn)
    return report
