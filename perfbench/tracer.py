"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer (nothing inside
``src/`` changes).  Every wrapped call is a span with a name, start, end,
parent and turn id, kept in memory and written out when the run ends.  A
layer's self time is its spans' duration minus their children's, so the
layer self times plus the engine's own self time add up to the whole
``CDAEngine.ask`` time.  Calls made once per source row are counted, not
timed: timing them would slow the traced run far more than the rest.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

#: (module or class path, attribute, layer, outcome kind).  Functions
#: imported by name are patched where they are looked up.
TIMED = [
    ("repro.core.engine:CDAEngine", "ask", "core", None),
    ("repro.kg.vocabulary:DomainVocabulary", "ground_question", "kg.vocab", None),
    ("repro.kg.schema_kg:SchemaKnowledgeGraph", "find_tables", "kg.schema", None),
    ("repro.kg.schema_kg:SchemaKnowledgeGraph", "find_columns", "kg.schema", None),
    ("repro.kg.schema_kg:SchemaKnowledgeGraph", "find_values", "kg.schema", None),
    ("repro.kg.schema_kg:SchemaKnowledgeGraph", "exact_value_columns", "kg.schema", None),
    ("repro.core.engine", "classify_intent", "nl.intent", None),
    ("repro.nl.nl2sql:GroundedSemanticParser", "parse", "nl.parser", "raises"),
    ("repro.nl.llmsim:SimulatedLLM", "generate_sql", "nl.llm", None),
    ("repro.nl.constrained:SQLValidator", "validate", "nl.validator", "valid"),
    ("repro.sqldb.parser", "parse_sql", "sqldb.parse", None),
    ("repro.sqldb.database", "parse_sql", "sqldb.parse", None),
    ("repro.nl.constrained", "parse_sql", "sqldb.parse", None),
    ("repro.nl.llmsim", "parse_sql", "sqldb.parse", None),
    ("repro.sqldb.database:Database", "execute", "sqldb.database", None),
    ("repro.sqldb.database:Database", "execute_select", "sqldb.database", None),
    ("repro.sqldb.executor:SelectExecutor", "execute", "sqldb.executor", "rows"),
    ("repro.soundness.verifier:AnswerVerifier", "verify", "soundness.verify", "passed"),
    ("repro.soundness.verifier", "verify_rows", "soundness.verify_rows", None),
    ("repro.soundness.consistency:ConsistencyUQ", "assess", "soundness.uq", None),
    ("repro.core.engine", "fuse_confidence", "soundness.fuse", None),
    ("repro.provenance.explanation:ExplanationBuilder", "from_query_result",
     "provenance.explain", None),
    ("repro.retrieval.dataset_search:DatasetSearchEngine", "suggestions_for_prose",
     "retrieval", None),
    ("repro.retrieval.hybrid:HybridRetriever", "search", "retrieval", None),
    ("repro.guidance.suggestions:SuggestionEngine", "suggest", "guidance", None),
    ("repro.guidance.clarification:ClarificationPolicy", "build_question",
     "guidance", None),
    ("repro.guidance.clarification:ClarificationPolicy", "resolve_reply",
     "guidance", None),
    ("repro.guidance.planner:ConversationPlanner", "plan", "guidance", None),
    ("repro.core.engine", "detect_seasonality", "analytics", None),
    ("repro.core.engine", "decompose", "analytics", None),
    ("repro.core.engine", "iqr_outliers", "analytics", None),
    ("repro.obs.recorder:FlightRecorder", "record", "obs.recorder", None),
    ("repro.core.session:Session", "state_digest", "obs.recorder", None),
    ("repro.core.engine", "output_envelope", "obs.recorder", None),
]

#: Called once per row or lookup: counted only.
COUNTED = [
    ("repro.kg.vocabulary:DomainVocabulary", "lookup", "kg.vocab.lookup", None),
    ("repro.sqldb.cache:QueryCache", "get", "sqldb.cache.get", "hit"),
    ("repro.sqldb.database:Database", "fetch_source_row", "sqldb.source_row", None),
]

LAYERS = sorted({layer for _o, _a, layer, _k in TIMED})


def _resolve(path: str):
    import importlib

    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span stack, per-layer self time and call counters for one run."""

    def __init__(self):
        #: [layer, start, end, parent index, turn id] per span.
        self.spans: list[list] = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.turn = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, layer: str, function, outcome: str | None):
        spans, child, stack = self.spans, self._child, self._stack
        self_seconds, counts = self.self_seconds, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if layer == "core":
                tracer.turn += 1
            index = len(spans)
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.turn]
            spans.append(record)
            child.append(0.0)
            stack.append(index)
            counts[layer] += 1
            record[1] = start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                if outcome == "raises":
                    counts[layer + ".failed"] += 1
                raise
            finally:
                record[2] = end = perf_counter()
                stack.pop()
                duration = end - start
                self_seconds[layer] += duration - child[index]
                if record[3] >= 0:
                    child[record[3]] += duration
            if outcome == "valid" and not result.valid:
                counts[layer + ".failed"] += 1
            elif outcome == "passed" and not result.passed:
                counts[layer + ".failed"] += 1
            elif outcome == "rows":
                counts["sqldb.scanned_rows"] += result.scanned_rows
                counts["sqldb.returned_rows"] += len(result.rows)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _counted(self, name: str, function, outcome: str | None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            counts[name] += 1
            if outcome == "hit" and result is not None:
                counts[name + ".hit"] += 1
            return result

        wrapper.__wrapped__ = function
        return wrapper

    # -- patching -------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for path, attribute, name, outcome in table:
                owner = _resolve(path)
                original = owner.__dict__[attribute] if isinstance(owner, type) \
                    else getattr(owner, attribute)
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, make(name, original, outcome))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------------

    def write(self, path: str) -> None:
        """The span list as JSON lines: name, start, end, parent, turn."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def layer_ms_per_turn(self, turns: int) -> dict[str, float]:
        return {
            layer: 1e3 * self.self_seconds.get(layer, 0.0) / turns
            for layer in LAYERS
        }

    def traced_ask_seconds(self) -> float:
        return sum(
            end - start for layer, start, end, parent, _t in self.spans
            if layer == "core" and parent < 0
        )
