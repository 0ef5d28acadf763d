"""Seeded session generators for the three workloads.

A session is the list of turns one simulated analyst sends to a fresh
``CDAEngine``, each after the previous answer arrived (closed loop).  A
turn carries the answer kind it expects and, for data turns, the gold
query the SQLite oracle answers.  Everything is drawn from the workload
seed and from the data itself, outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from oracle import Gold, GoldRows, SQLiteOracle

DATA = "data"


@dataclass
class Turn:
    question: str
    expect: str
    template: str
    gold: GoldRows | None = None
    llm_gold_sql: str | None = None
    #: The analyst answers a clarification by picking one of these
    #: offered options (the first one present); the question is then
    #: ignored.
    reply_from: tuple[str, ...] = ()


@dataclass
class Session:
    domain: str
    turns: list[Turn] = field(default_factory=list)


# ----------------------------------------------------------------------------
# chat / chat_large: multi-turn sessions over the bundled domains
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Dim:
    """A text column an analyst filters or groups by."""

    table: str  # the table holding the column
    column: str
    #: FROM/JOIN clause that brings the column next to the measure.
    source: str


@dataclass(frozen=True)
class DomainProfile:
    """What an analyst of one domain talks about."""

    #: (phrase, table, category column, numeric column)
    count_subjects: tuple[tuple[str, str, str, str], ...]
    fact: str
    measure: str
    dims: tuple[Dim, ...]
    numeric_filters: tuple[tuple[str, str], ...]  # (table, column)
    join: tuple[str, str, str, str, str]  # phrase, dim table, measure, fk, pk
    top_n: tuple[tuple[str, str], ...]  # (table, measure)
    tables: tuple[str, ...]
    doc_questions: tuple[str, ...]
    discovery_topics: tuple[str, ...]
    analysis: tuple[str, ...]


PROFILES = {
    "swiss_labour": DomainProfile(
        count_subjects=(
            ("employment records", "employment", "canton", "employees"),
            ("employment records", "employment", "sector", "employees"),
        ),
        fact="employment",
        measure="employees",
        dims=(
            Dim("employment", "canton", "employment"),
            Dim("employment", "sector", "employment"),
        ),
        numeric_filters=(("employment", "employees"), ("cantons", "population")),
        join=("employment records in cantons", "cantons", "population",
              "canton", "canton"),
        top_n=(("employment", "employees"),),
        tables=("employment", "cantons", "barometer"),
        doc_questions=(
            "explain how the survey of labour market experts works",
            "what documentation explains how counts are collected",
        ),
        discovery_topics=("the labour market", "jobs", "cantons"),
        analysis=(
            "seasonality insights for the barometer",
            "are there outliers in the barometer",
        ),
    ),
    "ecommerce": DomainProfile(
        count_subjects=(
            ("customers", "customers", "country", "age"),
            ("products", "products", "category", "price"),
        ),
        fact="orders",
        measure="amount",
        dims=(
            Dim("customers", "country",
                "orders JOIN customers ON orders.customer_id = customers.customer_id"),
            Dim("products", "category",
                "orders JOIN products ON orders.product_id = products.product_id"),
        ),
        numeric_filters=(("orders", "amount"), ("customers", "age")),
        join=("orders of products", "products", "price", "product_id", "product_id"),
        top_n=(("orders", "amount"), ("products", "price")),
        tables=("orders", "customers", "products"),
        doc_questions=("explain how revenue is defined",),
        discovery_topics=("sales", "customers", "pricing"),
        analysis=("seasonality of orders", "outliers in orders"),
    ),
    "healthcare": DomainProfile(
        count_subjects=(("visits", "visits", "ward", "cost"),),
        fact="visits",
        measure="cost",
        dims=(Dim("visits", "ward", "visits"),),
        numeric_filters=(("visits", "cost"), ("patients", "systolic_bp")),
        join=("visits of patients", "patients", "age", "patient_id", "patient_id"),
        top_n=(("visits", "cost"),),
        tables=("visits", "patients"),
        doc_questions=(
            "explain the cohort study protocol",
            "what documentation describes respiratory admissions",
        ),
        discovery_topics=("hospital costs", "patients"),
        analysis=("seasonality of visits", "outliers in visits"),
    ),
}

THRESHOLD_BANDS = 5

_NONSENSE = (
    ("frobnication", "coefficient"), ("quantum", "sentiment"),
    ("astral", "velocity"), ("unicorn", "migration"), ("gravitic", "yield"),
)


class ChatGenerator:
    """Endless seeded sessions over one domain's data."""

    def __init__(self, domain: str, oracle: SQLiteOracle, rng: np.random.Generator):
        self.domain = domain
        self.profile = PROFILES[domain]
        self.oracle = oracle
        self.rng = rng
        self._columns: dict[tuple[str, str], list] = {}
        self._cycles: dict[str, int] = {}

    def _pick(self, options):
        return options[int(self.rng.integers(0, len(options)))]

    def _cycle(self, name: str, options):
        """The options in turn, from the first: every run asks each kind
        of question equally often, also when it stops part-way through a
        cycle, so runs on different seeds differ in values and order, not
        in their mix of cheap and costly turns."""
        count = self._cycles.get(name, 0)
        self._cycles[name] = count + 1
        return options[count % len(options)]

    def _column(self, table: str, column: str) -> list:
        key = (table, column)
        if key not in self._columns:
            self._columns[key] = self.oracle.column(table, column)
        return self._columns[key]

    def _threshold(self, template: str, table: str, column: str):
        """A value drawn from the column itself, so most SQL is new.  The
        column's values below its 90th percentile (so a filter keeps some
        rows) are cut into ``THRESHOLD_BANDS`` bands, and the draw cycles
        over the bands: every run filters as many rows as another, as the
        cost of a turn follows the rows it keeps."""
        values = sorted(self._column(table, column))
        band = self._cycle(f"threshold:{template}", range(THRESHOLD_BANDS))
        width = len(values) * 9 // 10 / THRESHOLD_BANDS
        low = int(band * width)
        value = values[int(self.rng.integers(low, max(low + 1, int(low + width))))]
        return value if isinstance(value, int) else round(float(value), 1)

    def _data(self, question: str, template: str, gold: Gold) -> Turn:
        return Turn(question, DATA, template, gold=self.oracle.gold(gold))

    # Each block is a run of turns that must stay adjacent (a follow-up
    # after its question, a reply after the clarification it answers).

    def _count_and_followup(self) -> list[Turn]:
        phrase, table, column, numeric = self._cycle(
            "count", self.profile.count_subjects)
        values = sorted(set(self._column(table, column)))
        first, second = (
            values[int(i)] for i in self.rng.choice(len(values), 2, replace=False)
        )
        threshold = self._threshold("count", table, numeric)

        def gold(value):
            return Gold(f"SELECT COUNT(*) FROM {table} "
                        f"WHERE {column} = '{value}' AND {numeric} > {threshold}")

        return [
            self._data(f"how many {phrase} in {first} with {numeric} above "
                       f"{threshold}", "count", gold(first)),
            self._data(f"and for {second}", "followup", gold(second)),
        ]

    def _group_agg(self) -> list[Turn]:
        p = self.profile
        dim = self._cycle("group_agg", p.dims)
        threshold = self._threshold("group_agg", p.fact, p.measure)
        return [self._data(
            f"what is the total {p.measure} per {dim.column} "
            f"with {p.measure} above {threshold}",
            "group_agg",
            Gold(f"SELECT {dim.table}.{dim.column}, SUM({p.fact}.{p.measure}) "
                 f"FROM {dim.source} WHERE {p.fact}.{p.measure} > {threshold} "
                 f"GROUP BY {dim.table}.{dim.column}"),
        )]

    def _average_by(self) -> list[Turn]:
        # The parser reads "by <dim>" as no grouping at all; this template
        # stays in so that misreading counts in wrong_answer_rate.
        p = self.profile
        dim = self._cycle("average_by", p.dims)
        return [self._data(
            f"average {p.measure} by {dim.column}",
            "average_by",
            Gold(f"SELECT {dim.table}.{dim.column}, AVG({p.fact}.{p.measure}) "
                 f"FROM {dim.source} GROUP BY {dim.table}.{dim.column}"),
        )]

    def _superlative(self) -> list[Turn]:
        p = self.profile
        dim = self._cycle("superlative", p.dims)
        threshold = self._threshold("superlative", p.fact, p.measure)
        base = (f"SELECT {dim.table}.{dim.column}, SUM({p.fact}.{p.measure}) AS total "
                f"FROM {dim.source} WHERE {p.fact}.{p.measure} > {threshold} "
                f"GROUP BY {dim.table}.{dim.column} ORDER BY total DESC")
        return [self._data(
            f"which {dim.column} has the highest total {p.measure} "
            f"with {p.measure} above {threshold}",
            "superlative",
            Gold(base + " LIMIT 1", key="total", unlimited_sql=base),
        )]

    def _numeric_filter(self) -> list[Turn]:
        table, column = self._cycle("numeric_filter", self.profile.numeric_filters)
        threshold = self._threshold("numeric_filter", table, column)
        return [self._data(
            f"how many {table} with {column} above {threshold}",
            "numeric_filter",
            Gold(f"SELECT COUNT(*) FROM {table} WHERE {column} > {threshold}"),
        )]

    def _join_filter(self) -> list[Turn]:
        phrase, dim_table, measure, fk, pk = self.profile.join
        fact = self.profile.fact
        threshold = self._threshold("join_filter", dim_table, measure)
        return [self._data(
            f"how many {phrase} with {measure} above {threshold}",
            "join_filter",
            Gold(f"SELECT COUNT(*) FROM {fact} JOIN {dim_table} "
                 f"ON {fact}.{fk} = {dim_table}.{pk} "
                 f"WHERE {dim_table}.{measure} > {threshold}"),
        )]

    def _top_n(self) -> list[Turn]:
        table, measure = self._cycle("top_n", self.profile.top_n)
        n = int(self.rng.integers(2, 11))
        base = f"SELECT * FROM {table} ORDER BY {measure} DESC"
        return [self._data(
            f"top {n} {table} by {measure}",
            "top_n",
            Gold(f"{base} LIMIT {n}", key=measure, unlimited_sql=base),
        )]

    def _discovery(self) -> list[Turn]:
        topic = self._cycle("discovery", self.profile.discovery_topics)
        return [
            Turn(f"find datasets about {topic}", "discovery", "discovery"),
            Turn("", "metadata", "discovery_reply", reply_from=self.profile.tables),
        ]

    def _ambiguity(self) -> list[Turn]:
        tables = self.profile.tables[:2]
        first, second = (tables[int(i)] for i in self.rng.permutation(2))
        pick = self._cycle("ambiguity", tables)
        return [
            Turn(f"how many records in {first} or {second}", "clarification",
                 "ambiguity"),
            Turn(pick, DATA, "ambiguity_reply",
                 gold=self.oracle.gold(Gold(f"SELECT COUNT(*) FROM {pick}"))),
        ]

    def _metadata(self) -> list[Turn]:
        return [
            Turn(f"describe the {self._pick(self.profile.tables)}", "metadata",
                 "named_source"),
            Turn(self._pick(self.profile.doc_questions), "metadata", "document"),
        ]

    def _analysis(self) -> list[Turn]:
        return [Turn(self._cycle("analysis", self.profile.analysis), "analysis",
                     "analysis")]

    def _unanswerable(self) -> list[Turn]:
        adjective, noun = self._pick(_NONSENSE)
        return [Turn(f"please compute the {adjective} {noun}", "abstention",
                     "unanswerable")]

    def session(self) -> Session:
        blocks = [
            self._count_and_followup, self._group_agg, self._average_by,
            self._superlative, self._numeric_filter, self._join_filter,
            self._top_n, self._discovery, self._ambiguity, self._metadata,
            self._analysis, self._unanswerable,
        ]
        turns = [Turn(self._pick(["hello", "hi"]), "chitchat", "chitchat")]
        for index in self.rng.permutation(len(blocks)):
            turns.extend(blocks[int(index)]())
        turns.append(Turn("thanks", "chitchat", "chitchat"))
        return Session(self.domain, turns)


# ----------------------------------------------------------------------------
# llm_fallback: benchgen cases, asked in German
# ----------------------------------------------------------------------------

#: German surface forms for the first three benchgen archetypes.  The
#: grounded parser covers English only, so every such question falls
#: back to the simulated LLM, which receives the case's gold SQL.
GERMAN = {
    "vehicles": "Fahrzeuge", "depot": "Standort", "model": "Baureihe",
    "mileage": "Kilometerstand", "capacity": "Ladekapazität",
    "depots": "Standorte", "staff": "Personalbestand", "bays": "Stellplätze",
    "north": "Norden", "south": "Süden", "east": "Osten", "west": "Westen",
    "hauler": "Schlepper", "runner": "Renner", "carrier": "Transporter",
    "shuttle": "Pendler", "lifter": "Heber",
    "shipments": "Sendungen", "route": "Strecke", "status": "Zustand",
    "weight": "Gewicht", "distance": "Entfernung", "routes": "Strecken",
    "tolls": "Mautgebühren", "hubs": "Umschlagplätze",
    "alpine": "alpin", "coastal": "Küste", "urban": "städtisch",
    "express": "Eilweg", "delivered": "zugestellt", "pending": "offen",
    "delayed": "verspätet", "returned": "zurückgeschickt",
    "students": "Studierende", "faculty": "Fakultät", "credits": "Leistungspunkte",
    "grade": "Note", "faculties": "Fakultäten", "professors": "Lehrstühle",
    "labs": "Labore", "science": "Naturwissenschaften",
    "arts": "Geisteswissenschaften", "medicine": "Heilkunde", "law": "Recht",
    "enrolled": "eingeschrieben", "graduated": "abgeschlossen",
    "paused": "pausiert",
}

_AGG_DE = {
    "AVG": "der Durchschnitt von", "SUM": "die Summe von",
    "MAX": "der Höchstwert von", "MIN": "der Tiefstwert von",
}


def _de(word) -> str:
    return GERMAN.get(str(word), str(word))


def german_question(case) -> str:
    """The case's question, asked in German (rendered from its gold intent)."""
    intent = case.gold_intent
    entity = _de(intent.table)
    aggregate = intent.aggregates[0] if intent.aggregates else None
    filters = intent.filters
    template = case.template
    if template == "count_all":
        return f"Wie viele {entity} gibt es insgesamt?"
    if template == "count_category":
        spec = filters[0]
        return f"Wie viele {entity} haben {_de(spec.column)} {_de(spec.value)}?"
    if template == "agg_measure":
        return (f"Wie hoch ist {_AGG_DE[aggregate.function]} "
                f"{_de(aggregate.column)} über alle {entity}?")
    if template == "agg_numeric_filter":
        spec = filters[0]
        side = "über" if spec.operator == ">" else "unter"
        return (f"Wie hoch ist {_AGG_DE[aggregate.function]} {_de(aggregate.column)} "
                f"bei {entity} mit {_de(spec.column)} {side} {spec.value}?")
    if template == "group_agg":
        return (f"Bitte {_AGG_DE[aggregate.function]} {_de(aggregate.column)} "
                f"je {_de(intent.group_by[0])}.")
    if template == "superlative":
        return (f"Welcher {_de(intent.group_by[0])} hat die grösste Summe "
                f"{_de(aggregate.column)}?")
    if template == "list_filter":
        spec = filters[0]
        shown = " und ".join(_de(column) for column in intent.select_columns)
        return f"Zeig mir {shown} der {entity} mit {_de(spec.column)} über {spec.value}."
    if template == "top_n":
        return (f"Welche {intent.limit} {entity} haben den grössten "
                f"{_de(intent.order_by.column)}?")
    if template == "join_filter":
        spec = filters[0]
        return (f"Wie viele {entity} gehören zu {_de(spec.table)} mit "
                f"{_de(spec.column)} über {spec.value}?")
    raise ValueError(f"no German rendering for template {template!r}")


def llm_gold(case) -> Gold:
    """The oracle's view of a benchgen case: its gold SQL, run on SQLite."""
    intent = case.gold_intent
    if intent.order_by is None or intent.limit is None:
        return Gold(case.gold_sql)
    from repro.nl.sqlgen import compile_intent

    unlimited = compile_intent(replace(intent, limit=None)).to_sql()
    return Gold(case.gold_sql, key=intent.order_by.column, unlimited_sql=unlimited)


# ----------------------------------------------------------------------------
# workloads: what a run builds and asks
# ----------------------------------------------------------------------------

#: The domain data is the same in every run; the workload seed draws the
#: questions.  Runs on different seeds then differ only in what is asked.
DATA_SEED = 0


class ChatWorkload:
    """Multi-turn sessions rotating over bundled domains.

    ``chat`` (bundled sizes, at most 1.5k rows per table): vocabulary
    grounding and provenance verification dominate a turn, which is where
    grounding, verifier and engine-overhead work acts.

    ``chat_large`` (ecommerce and healthcare with 10x fact tables):
    verification plus source-row fetches take most of a turn and the
    executor works on a 10x larger working set; a grounding speedup
    should barely show here.
    """

    def __init__(self, seed: int, large: bool):
        self.seed = seed
        self.fact_rows = 15_000 if large else None
        self.domains = (
            ("ecommerce", "healthcare") if large
            else ("swiss_labour", "ecommerce", "healthcare")
        )

    def build(self) -> dict:
        """The timed set-up: every domain's registry."""
        from repro.datasets import (
            build_ecommerce_registry,
            build_healthcare_registry,
            build_swiss_labour_registry,
        )

        built = {}
        for domain in self.domains:
            if domain == "swiss_labour":
                bundle = build_swiss_labour_registry(seed=DATA_SEED)
            elif domain == "ecommerce":
                kwargs = {"n_orders": self.fact_rows} if self.fact_rows else {}
                bundle = build_ecommerce_registry(seed=DATA_SEED, **kwargs)
            else:
                kwargs = {"n_visits": self.fact_rows} if self.fact_rows else {}
                bundle = build_healthcare_registry(seed=DATA_SEED, **kwargs)
            built[domain] = (bundle.registry, bundle.vocabulary, None)
        return built

    def generators(self, built: dict, oracles: dict, stream: int) -> dict:
        return {
            domain: ChatGenerator(
                domain, oracles[domain],
                np.random.default_rng([self.seed, stream, index]),
            )
            for index, domain in enumerate(self.domains)
        }


class LLMFallbackWorkload:
    """Benchgen cases over three archetype databases, asked in German.

    The grounded parser covers English only and the registry names no
    source, so every turn falls back to the simulated LLM (fixed error
    rate and seed; the case's gold SQL is passed as ``llm_gold_sql``):
    constrained validation plus a 5-sample consistency vote, each sample
    parsed and executed.  No vocabulary, so this is the control for
    grounding work and the only workload whose wrong answers come from an
    unreliable generator.
    """

    ERROR_RATE = 0.3
    LLM_SEED = 202
    N_ROWS = 120
    TURNS_PER_SESSION = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.domains = ("fleet", "logistics", "education")

    def build(self) -> dict:
        """The timed set-up: benchgen's archetype databases (as
        ``build_workload`` generates them) wrapped in registries."""
        from repro.benchgen.schema_gen import generate_random_database
        from repro.datasets.registry import DataSourceRegistry
        from repro.nl.llmsim import SimulatedLLM

        built = {}
        for index, domain in enumerate(self.domains):
            schema = generate_random_database(
                np.random.default_rng([DATA_SEED, index]),
                n_rows=self.N_ROWS, archetype_index=index,
            )
            llm = SimulatedLLM(schema.database.catalog,
                               error_rate=self.ERROR_RATE, seed=self.LLM_SEED)
            built[domain] = (DataSourceRegistry(schema.database), None, llm, schema)
        return built

    def generators(self, built: dict, oracles: dict, stream: int) -> dict:
        from repro.benchgen.question_gen import QuestionGenerator

        out = {}
        for index, domain in enumerate(self.domains):
            schema = built[domain][3]
            cases = QuestionGenerator(
                schema, np.random.default_rng([self.seed, stream, index, 1])
            )
            out[domain] = FallbackGenerator(domain, cases, oracles[domain],
                                             self.TURNS_PER_SESSION)
        return out


class FallbackGenerator:
    """Endless sessions of German benchgen questions over one database,
    cycling through benchgen's templates."""

    def __init__(self, domain: str, cases, oracle: SQLiteOracle, turns: int):
        self.domain = domain
        self.cases = cases
        self.oracle = oracle
        self.turns = turns
        self.index = 0

    def session(self) -> Session:
        session = Session(self.domain)
        templates = self.cases.TEMPLATES
        for _ in range(self.turns):
            case = self.cases.generate(templates[self.index % len(templates)])
            self.index += 1
            session.turns.append(Turn(
                german_question(case), DATA, case.template,
                gold=self.oracle.gold(llm_gold(case)), llm_gold_sql=case.gold_sql,
            ))
        return session


def make_workload(name: str, seed: int):
    if name == "chat":
        return ChatWorkload(seed, large=False)
    if name == "chat_large":
        return ChatWorkload(seed, large=True)
    if name == "llm_fallback":
        return LLMFallbackWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
