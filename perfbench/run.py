"""Turn-level benchmark of the CDA engine.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 30 --trace 0

Run from the repository root.  One simulated analyst per workload asks
the next question only after the answer arrives (a closed loop, one
client, one thread).  Every session is a fresh ``CDAEngine`` with the
default ``ReliabilityConfig()``, as ``python -m repro`` uses; the domain
databases are built once per run and shared by all sessions, so the
query cache lives across sessions as in one long-lived process.

Every DATA answer is checked against gold rows that stdlib ``sqlite3``
computes over a copy of the same rows.  With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` a seeded coin picks the sessions that are traced (layer
functions wrapped from outside, see ``tracer.py``), so each domain has
traced and untraced sessions and neither set follows the generators'
fixed cycles of question variants; the JSON holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

KINDS = ("data", "discovery", "metadata", "analysis", "clarification",
         "abstention", "chitchat")

#: The metrics the result line carries with ``--trace 0``.  Turn times are
#: in ``ref`` units: each turn's time divided by the time the fixed
#: pure-Python ``reference_work`` took next to it (the mean of the
#: readings just before and just after it, taken between turns at most
#: ``REFERENCE_INTERVAL`` apart; about 1.4 ms on an idle 2-core host).  The
#: shared host switches between a fast and a slow speed every few
#: seconds, by up to 1.7x; a turn and its neighbouring readings see the
#: same speed, so turn times in ``ref`` units vary far less between runs
#: than milliseconds do.  The report prints both.
END_TO_END = {
    "setup_s": "s", "turn_p50_ref": "ref", "turn_p95_ref": "ref",
    "data_turn_p50_ref": "ref", "turn_mean_ref": "ref",
    "wrong_answer_rate": "ratio", "correct_rate": "ratio", "mem_mb": "MB",
}

#: Printed in the report, with the metrics above.
REPORTED = {
    "turn_p50_ms": "ms", "turn_p95_ms": "ms", "data_turn_p50_ms": "ms",
    "turns_per_s": "1/s", "setup_wall_s": "s", "error_rate": "ratio",
    "reference_ms": "ms",
}

PER_LAYER = {
    "core.self_ms_per_turn": "ms",
    **{f"core.{kind}.p50_ms": "ms" for kind in KINDS},
    "kg.vocab.ms_per_turn": "ms", "kg.vocab.lookups_per_turn": "count",
    "kg.schema.ms_per_turn": "ms",
    "nl.intent.ms_per_turn": "ms",
    "nl.parser.ms_per_turn": "ms", "nl.parser.fail_rate": "ratio",
    "nl.llm.ms_per_turn": "ms",
    "nl.validator.ms_per_turn": "ms", "nl.validator.reject_rate": "ratio",
    "sqldb.parse.calls_per_turn": "count", "sqldb.parse.ms_per_turn": "ms",
    "sqldb.database.ms_per_turn": "ms",
    "sqldb.executor.ms_per_turn": "ms", "sqldb.executor.calls_per_turn": "count",
    "sqldb.cache.hit_rate": "ratio",
    "sqldb.scanned_per_returned": "ratio",
    "sqldb.source_rows_per_turn": "count",
    "soundness.verify.ms_per_turn": "ms", "soundness.verify.fail_rate": "ratio",
    "soundness.verify_rows.ms_per_turn": "ms",
    "soundness.uq.ms_per_turn": "ms",
    "soundness.fuse.ms_per_turn": "ms",
    "provenance.explain.ms_per_turn": "ms",
    "retrieval.ms_per_turn": "ms",
    "guidance.ms_per_turn": "ms",
    "analytics.ms_per_turn": "ms",
    "obs.recorder.ms_per_turn": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Seconds between two readings of the reference work.
REFERENCE_INTERVAL = 0.1

#: ``setup_s`` is set-up time at a fixed host speed: each set-up's time in
#: ``ref`` units times this, about the reference work's time on an idle
#: 2-core host.  Set-up times in wall seconds fall into the host's two speeds
#: (about 60 and 105 ms for ``chat``), so their median jumps between the
#: two; the report prints the wall-clock median as ``setup_wall_s``.
REFERENCE_SECONDS = 1.4e-3

#: Set-up runs this many times per run and its median is reported: once
#: before the sessions, the rest spread evenly over the sessions after the
#: memory reading, so the repeats see the host at different moments.
#: Set-up time inside the loop does not count toward ``--seconds``.
SETUP_REPEATS = 7

#: Resident memory is read after this many sessions, so it does not
#: depend on how many turns the host managed in the run; every run gets
#: at least this many sessions.
MEM_SESSIONS = 24

#: Every run goes on until it has this many untraced turns, so that their
#: p95 leaves at least 10 turns beyond it (5% of 240 is 12).  A traced run
#: on a slow host may otherwise end with too few: about half its sessions
#: are traced, and ``chat_large`` gets only 24 to 30 sessions in 30 s.
MIN_UNTRACED_TURNS = 240

# ----------------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------------

def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class _Phrase:
    """A phrase with its trigram set (reference work only)."""

    def __init__(self, text: str):
        self.text = text
        self.grams = {text[i:i + 3] for i in range(len(text) - 2)}

    def similarity(self, other: "_Phrase") -> float:
        return len(self.grams & other.grams) / len(self.grams | other.grams)


#: Rows the reference work groups and sums.
_ROWS = [(f"key_{i % 211}", i * 0.5) for i in range(6_000)]


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work that uses no
    repro code: trigram-set similarity between short phrases, with the
    object, set and method-call mix of the engine's own Python, and a
    grouped sum over a few thousand rows, as the executor and verifier
    walk tables.  It tells how fast the host runs Python at this moment;
    without the row scan, the turn times of ``chat_large``, which walk
    15 000-row tables, spread about twice as widely between runs.  The work runs twice
    with the collector paused and only the second, warm run is timed, so
    neither the caches nor the heap the engine left behind move it."""
    gc.disable()
    try:
        for _ in range(2):
            started = perf_counter()
            phrases = [_Phrase(f"column_{i % 37}_value_{i}") for i in range(40)]
            best = 0.0
            for left in phrases[:12]:
                for right in phrases:
                    best = max(best, left.similarity(right))
            totals: dict[str, float] = {}
            for key, value in _ROWS:
                totals[key] = totals.get(key, 0.0) + value
            seconds = perf_counter() - started
    finally:
        gc.enable()
    return seconds


def new_engine(entry):
    from repro.core.config import ReliabilityConfig
    from repro.core.engine import CDAEngine

    registry, vocabulary, llm = entry[:3]
    return CDAEngine(registry, vocabulary=vocabulary, config=ReliabilityConfig(),
                     llm=llm)


class TurnLog:
    """Per-turn outcomes of one run."""

    def __init__(self):
        self.turns: list[dict] = []
        self.seen_sql: set[str] = set()
        #: Seconds of reference work, read between turns.
        self.reference: list[float] = []
        self._read_at = None

    def read_reference(self, force: bool = False) -> None:
        """Time the reference work, unless the last reading is younger
        than ``REFERENCE_INTERVAL`` and ``force`` is not set."""
        if force or self._read_at is None or (
            perf_counter() - self._read_at >= REFERENCE_INTERVAL
        ):
            self.reference.append(reference_work())
            self._read_at = perf_counter()

    def add(self, **fields) -> None:
        fields["reference_index"] = len(self.reference) - 1
        self.turns.append(fields)

    def ref_seconds(self, turn: dict) -> float:
        """The reference time next to a turn: the mean of the readings
        before and after it (the run ends with a reading)."""
        index = turn["reference_index"]
        return (self.reference[index] + self.reference[index + 1]) / 2


def run_session(session, entry, log: TurnLog, traced: bool) -> None:
    from oracle import answer_matches

    engine = new_engine(entry)
    llm = entry[2]
    previous = None
    for turn in session.turns:
        question = turn.question
        if turn.reply_from:
            options = list(previous.clarification.options) if (
                previous is not None and previous.clarification is not None
            ) else []
            question = next((o for o in options if o in turn.reply_from),
                            options[0] if options else "none of these")
        llm_calls = llm.calls if llm is not None else 0
        log.read_reference()
        started = perf_counter()
        try:
            answer = engine.ask(question, llm_gold_sql=turn.llm_gold_sql)
            seconds = perf_counter() - started
            kind = answer.kind.value
        except Exception as error:  # noqa: BLE001 - counted as a failed turn
            seconds = perf_counter() - started
            answer, kind = None, "exception"
            print(f"turn raised {type(error).__name__}: {error} ({question!r})",
                  file=sys.stderr)
        matches = None
        repeat = None
        if kind == "data" and turn.expect == "data":
            matches = answer_matches(answer.columns or [], answer.rows or [],
                                     turn.gold)
            repeat = answer.sql in log.seen_sql
            log.seen_sql.add(answer.sql)
        log.add(
            seconds=seconds, kind=kind, expect=turn.expect,
            template=turn.template, traced=traced, matches=matches,
            repeat=repeat,
            fallback=None if llm is None else llm.calls > llm_calls,
        )
        previous = answer


def measure_setup(workload) -> tuple[float, float, dict]:
    """Build registries plus one engine per domain, timed; (seconds, the
    reference time next to it, built)."""
    before = reference_work()
    started = perf_counter()
    built = workload.build()
    for entry in built.values():
        new_engine(entry)
    seconds = perf_counter() - started
    return seconds, (before + reference_work()) / 2, built


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    sys.path.insert(0, SRC)
    from oracle import SQLiteOracle
    from tracer import Tracer
    from workloads import make_workload

    workload = make_workload(name, seed)

    # Oracle and generators work on their own copy of the data, built
    # before anything is timed or counted toward memory.
    reference = workload.build()
    oracles = {
        domain: SQLiteOracle(entry[0].database.catalog)
        for domain, entry in reference.items()
    }
    rows_per_table = {
        f"{domain}.{table}": count
        for domain, oracle in oracles.items()
        for table, count in oracle.rows_per_table.items()
    }

    # Warm-up: one session per domain on the oracle's copy, from a
    # separate generator stream, so imports and lazy caches are filled
    # while the measured copy's query cache stays cold.
    for domain, generator in workload.generators(reference, oracles, stream=1).items():
        run_session(generator.session(), reference[domain], TurnLog(), False)
    generators = workload.generators(reference, oracles, stream=0)

    # The first set-up comes on a settled heap, so the memory figure
    # includes the registries it builds; the further set-ups that time it
    # again are spread over the sessions.
    gc.collect()
    rss_before = _rss_mb()
    *first_setup, built = measure_setup(workload)
    setup_times = [tuple(first_setup)]

    tracer = Tracer()
    log = TurnLog()
    order = list(workload.domains)
    sessions = 0
    loop_started = perf_counter()
    in_setup = 0.0  # set-up time inside the loop

    def elapsed() -> float:
        return perf_counter() - loop_started - in_setup

    def repeat_setup() -> None:
        nonlocal in_setup
        started = perf_counter()
        setup_times.append(measure_setup(workload)[:2])
        gc.collect()
        in_setup += perf_counter() - started
        log.read_reference(force=True)

    coin = random.Random(seed)
    mem_mb = None
    setup_due = []
    untraced_turns = 0
    while (elapsed() < seconds or sessions < MEM_SESSIONS
           or untraced_turns < MIN_UNTRACED_TURNS):
        domain = order[sessions % len(order)]
        session = generators[domain].session()
        traced = trace and coin.random() < 0.5
        if traced:
            tracer.install()
        try:
            run_session(session, built[domain], log, traced)
        finally:
            tracer.uninstall()
        sessions += 1
        if not traced:
            untraced_turns += len(session.turns)
        if sessions == MEM_SESSIONS:
            gc.collect()
            mem_mb = _rss_mb() - rss_before
            now = elapsed()
            step = max(0.0, seconds - now) / (SETUP_REPEATS - 1)
            setup_due = [now + step * k for k in range(SETUP_REPEATS - 1)]
        if setup_due and elapsed() >= setup_due[0]:
            setup_due.pop(0)
            repeat_setup()
    while setup_due:
        setup_due.pop(0)
        repeat_setup()
    log.read_reference(force=True)
    wall = perf_counter() - loop_started
    for oracle in oracles.values():
        oracle.close()

    report = summarise(log, setup_times, mem_mb, rows_per_table)
    report.update(name=name, seed=seed, sessions=sessions, wall_s=wall)
    if trace:
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        report["per_layer"] = per_layer(log, tracer)
        report["spans_path"] = spans_path
    return report


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def _p(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def summarise(log: TurnLog, setup_times, mem_mb, rows_per_table) -> dict:
    turns = [t for t in log.turns if not t["traced"]]
    latencies = [t["seconds"] * 1e3 for t in turns]
    data_latencies = [t["seconds"] * 1e3 for t in turns if t["kind"] == "data"]
    attempted = len(log.turns)
    failed = sum(t["kind"] in ("error", "exception") for t in log.turns)
    expect_data = [t for t in log.turns if t["expect"] == "data"]
    wrong = sum(t["matches"] is False for t in expect_data)
    correct = sum(
        t["kind"] == t["expect"] and t["matches"] is not False for t in log.turns
    )
    checked = [t for t in log.turns if t["matches"] is not None]
    kinds = {}
    for t in log.turns:
        kinds[t["kind"]] = kinds.get(t["kind"], 0) + 1
    wrong_by_template = {}
    for t in expect_data:
        if t["kind"] != "data" or not t["matches"]:
            key = f"{t['template']}:{'wrong' if t['matches'] is False else t['kind']}"
            wrong_by_template[key] = wrong_by_template.get(key, 0) + 1
    fallback_turns = [t for t in log.turns if t["fallback"] is not None]
    beyond_p95 = len(latencies) - sum(x <= _p(latencies, 95) for x in latencies)
    in_ref = [t["seconds"] / log.ref_seconds(t) for t in turns]
    data_in_ref = [t["seconds"] / log.ref_seconds(t) for t in turns
                   if t["kind"] == "data"]
    reported = {
        "turn_p50_ms": _p(latencies, 50),
        "turn_p95_ms": _p(latencies, 95),
        "data_turn_p50_ms": _p(data_latencies, 50),
        "turns_per_s": len(latencies) / (sum(latencies) / 1e3),
        "setup_wall_s": statistics.median(seconds for seconds, _ in setup_times),
        "error_rate": failed / attempted,
        "reference_ms": 1e3 * statistics.fmean(log.reference),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "untraced_turns": len(turns),
        "beyond_p95": beyond_p95,
        "metrics": {
            "setup_s": REFERENCE_SECONDS * statistics.median(
                seconds / ref for seconds, ref in setup_times),
            "turn_p50_ref": _p(in_ref, 50),
            "turn_p95_ref": _p(in_ref, 95),
            "data_turn_p50_ref": _p(data_in_ref, 50),
            "turn_mean_ref": statistics.fmean(in_ref),
            "wrong_answer_rate": wrong / max(1, len(expect_data)),
            "correct_rate": correct / attempted,
            "mem_mb": mem_mb,
        },
        "reported": reported,
        "properties": {
            "kind_share": {k: v / attempted for k, v in sorted(kinds.items())},
            "data_sql_repeat_share": (
                sum(bool(t["repeat"]) for t in checked) / max(1, len(checked))
            ),
            "fallback_share": (
                sum(t["fallback"] for t in fallback_turns) / len(fallback_turns)
                if fallback_turns else None
            ),
            "rows_per_table": rows_per_table,
            "data_turns_checked": len(checked),
            "data_turns_expected": len(expect_data),
            "misses_by_template": dict(sorted(wrong_by_template.items())),
        },
    }


def per_layer(log: TurnLog, tracer) -> dict:
    traced = [t for t in log.turns if t["traced"]]
    untraced = [t for t in log.turns if not t["traced"]]
    n = max(1, len(traced))
    counts = tracer.counts
    ms = tracer.layer_ms_per_turn(n)
    metrics = {f"{layer}.ms_per_turn": value for layer, value in ms.items()
               if layer != "core"}
    metrics["core.self_ms_per_turn"] = ms["core"]
    for kind in KINDS:
        metrics[f"core.{kind}.p50_ms"] = _p(
            [t["seconds"] * 1e3 for t in untraced if t["kind"] == kind], 50
        )

    def ratio(numerator, denominator):
        return counts[numerator] / counts[denominator] if counts[denominator] else 0.0

    metrics.update({
        "kg.vocab.lookups_per_turn": counts["kg.vocab.lookup"] / n,
        "nl.parser.fail_rate": ratio("nl.parser.failed", "nl.parser"),
        "nl.validator.reject_rate": ratio("nl.validator.failed", "nl.validator"),
        "sqldb.parse.calls_per_turn": counts["sqldb.parse"] / n,
        "sqldb.executor.calls_per_turn": counts["sqldb.executor"] / n,
        "sqldb.cache.hit_rate": ratio("sqldb.cache.get.hit", "sqldb.cache.get"),
        "sqldb.scanned_per_returned": ratio("sqldb.scanned_rows",
                                            "sqldb.returned_rows"),
        "sqldb.source_rows_per_turn": counts["sqldb.source_row"] / n,
        "soundness.verify.fail_rate": ratio("soundness.verify.failed",
                                            "soundness.verify"),
    })
    # In ref units, as the host's speed may differ between the traced and
    # the untraced rounds.
    traced_mean = sum(t["seconds"] / log.ref_seconds(t) for t in traced) / n
    untraced_mean = sum(
        t["seconds"] / log.ref_seconds(t) for t in untraced
    ) / max(1, len(untraced))
    metrics["trace.overhead_ratio"] = traced_mean / untraced_mean
    # Accounting: layer self times plus the engine's own self time are the
    # whole traced ask() time, by construction of self time.
    total_self = sum(tracer.self_seconds.values())
    metrics_check = abs(total_self - tracer.traced_ask_seconds())
    return {"metrics": metrics, "accounting_gap_s": metrics_check,
            "traced_turns": len(traced)}


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["chat", "chat_large", "llm_fallback"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}: run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print_report(report)
    checks = integrity_checks(report, bool(args.trace))
    for problem in checks:
        print(f"CHECK FAILED: {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    values = report["per_layer"]["metrics"] if args.trace else report["metrics"]
    print(json.dumps({
        "correct": not checks,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def integrity_checks(report: dict, trace: bool) -> list[str]:
    """What must hold for the run's answers and numbers to be trusted."""
    problems = []
    props = report["properties"]
    if report["failed"]:
        problems.append(f"{report['failed']} turns raised or returned ERROR")
    if props["data_turns_checked"] == 0:
        problems.append("no data turn was checked against the oracle")
    if props["fallback_share"] is not None and props["fallback_share"] < 1.0:
        problems.append(f"fallback share {props['fallback_share']:.3f} < 1")
    if report["beyond_p95"] < 10:
        problems.append(f"only {report['beyond_p95']} turns beyond p95")
    if trace and report["per_layer"]["accounting_gap_s"] > 1e-6:
        problems.append("layer self times do not add up to ask() time")
    return problems


def print_report(report: dict) -> None:
    print(f"workload {report['name']} seed {report['seed']}: "
          f"{report['attempted']} turns in {report['sessions']} sessions, "
          f"{report['wall_s']:.1f} s wall")
    for name, unit in END_TO_END.items():
        print(f"  {name:<22} {report['metrics'][name]:>12.4f} {unit}")
    for name, unit in REPORTED.items():
        print(f"  {name:<22} {report['reported'][name]:>12.4f} {unit}")
    props = report["properties"]
    print("workload properties:")
    for kind, share in props["kind_share"].items():
        print(f"  answer kind {kind:<15} {share:.3f}")
    print(f"  data-turn SQL seen earlier in run   {props['data_sql_repeat_share']:.3f}")
    if props["fallback_share"] is not None:
        print(f"  turns that reached the LLM fallback {props['fallback_share']:.3f}")
    for table, rows in props["rows_per_table"].items():
        print(f"  rows {table:<30} {rows}")
    print(f"  data turns checked {props['data_turns_checked']} of "
          f"{props['data_turns_expected']} expected")
    for key, count in props["misses_by_template"].items():
        print(f"  missed {key:<32} {count}")
    if "per_layer" in report:
        layer = report["per_layer"]
        print(f"per layer ({layer['traced_turns']} traced turns, "
              f"spans in {report['spans_path']}):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<36} {layer['metrics'][name]:>12.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
