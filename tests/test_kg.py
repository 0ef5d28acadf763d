"""Tests for the knowledge-graph substrate."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import KGError, OntologyError
from repro.kg import (
    DomainVocabulary,
    EntityLinker,
    Ontology,
    SchemaKnowledgeGraph,
    Triple,
    TriplePattern,
    TripleStore,
    Variable,
    VocabularyTerm,
    bgp_query,
)
from repro.kg.ontology import RDFS_COMMENT, RDFS_LABEL
from repro.kg.query import select
from repro.kg.schema_kg import CDA_COLUMN, CDA_TABLE, SchemaMatch, table_node
from repro.kg.vocabulary import (
    GroundedTerm,
    edit_similarity,
    edit_similarity_bound,
    token_overlap,
    trigram_similarity,
)
from repro.sqldb import Database
from repro.vector.embedding import tokenize_text


class TestTripleStore:
    def make(self):
        store = TripleStore()
        store.add("ent:a", "knows", "ent:b")
        store.add("ent:b", "knows", "ent:c")
        store.add("ent:a", "age", 30)
        return store

    def test_add_idempotent(self):
        store = self.make()
        size = len(store)
        store.add("ent:a", "knows", "ent:b")
        assert len(store) == size

    def test_contains(self):
        store = self.make()
        assert Triple("ent:a", "knows", "ent:b") in store
        assert Triple("ent:a", "knows", "ent:z") not in store

    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (("ent:a", None, None), 2),
            ((None, "knows", None), 2),
            ((None, None, "ent:b"), 1),
            (("ent:a", "knows", None), 1),
            ((None, "knows", "ent:c"), 1),
            (("ent:a", None, 30), 1),
            ((None, None, None), 3),
        ],
    )
    def test_wildcard_matching(self, pattern, expected):
        store = self.make()
        assert len(store.match(*pattern)) == expected

    def test_remove(self):
        store = self.make()
        assert store.remove("ent:a", "knows", "ent:b")
        assert not store.remove("ent:a", "knows", "ent:b")
        assert len(store.match("ent:a", "knows", None)) == 0

    def test_literal_objects(self):
        store = self.make()
        assert store.match(None, "age", 30)[0].subject == "ent:a"

    def test_one_object(self):
        store = self.make()
        assert store.one_object("ent:a", "age") == 30
        store.add("ent:a", "age", 31)
        assert store.one_object("ent:a", "age") is None

    def test_empty_subject_rejected(self):
        with pytest.raises(KGError):
            TripleStore().add("", "p", "o")


class TestBGPQuery:
    def make(self):
        store = TripleStore()
        store.add_all(
            [
                ("alice", "works_at", "acme"),
                ("bob", "works_at", "acme"),
                ("carol", "works_at", "globex"),
                ("acme", "located_in", "zurich"),
                ("globex", "located_in", "bern"),
            ]
        )
        return store

    def test_single_pattern(self):
        bindings = bgp_query(
            self.make(), [TriplePattern(Variable("who"), "works_at", "acme")]
        )
        assert {binding["who"] for binding in bindings} == {"alice", "bob"}

    def test_join_across_patterns(self):
        bindings = bgp_query(
            self.make(),
            [
                TriplePattern(Variable("p"), "works_at", Variable("c")),
                TriplePattern(Variable("c"), "located_in", "zurich"),
            ],
        )
        assert {binding["p"] for binding in bindings} == {"alice", "bob"}

    def test_shared_variable_consistency(self):
        store = TripleStore()
        store.add("x", "p", "x")
        store.add("y", "p", "z")
        bindings = bgp_query(
            store, [TriplePattern(Variable("a"), "p", Variable("a"))]
        )
        assert [binding["a"] for binding in bindings] == ["x"]

    def test_filters(self):
        bindings = bgp_query(
            self.make(),
            [TriplePattern(Variable("who"), "works_at", Variable("c"))],
            filters=[lambda binding: binding["who"] != "bob"],
        )
        assert all(binding["who"] != "bob" for binding in bindings)

    def test_no_match_is_empty(self):
        assert bgp_query(
            self.make(), [TriplePattern("nobody", "works_at", Variable("c"))]
        ) == []

    def test_empty_patterns_rejected(self):
        with pytest.raises(KGError):
            bgp_query(self.make(), [])

    def test_select_projection_dedupes(self):
        rows = select(
            self.make(),
            ["c"],
            [TriplePattern(Variable("p"), "works_at", Variable("c"))],
        )
        assert sorted(rows) == [("acme",), ("globex",)]


class TestOntology:
    def make(self):
        ontology = Ontology()
        ontology.add_class("cls:Animal", label="animal")
        ontology.add_class("cls:Dog", label="dog", parent="cls:Animal")
        ontology.add_class("cls:Puppy", label="puppy", parent="cls:Dog")
        ontology.add_instance("rex", "cls:Puppy", label="rex")
        return ontology

    def test_transitive_ancestors(self):
        assert self.make().ancestors("cls:Puppy") == ["cls:Animal", "cls:Dog"]

    def test_descendants(self):
        assert self.make().descendants("cls:Animal") == ["cls:Dog", "cls:Puppy"]

    def test_is_subclass_of(self):
        ontology = self.make()
        assert ontology.is_subclass_of("cls:Puppy", "cls:Animal")
        assert not ontology.is_subclass_of("cls:Animal", "cls:Puppy")

    def test_type_inheritance(self):
        assert "cls:Animal" in self.make().types_of("rex")

    def test_instances_with_inference(self):
        assert self.make().instances_of("cls:Animal") == ["rex"]

    def test_is_a(self):
        assert self.make().is_a("rex", "cls:Dog")

    def test_cycle_rejected(self):
        ontology = self.make()
        with pytest.raises(OntologyError):
            ontology.add_subclass("cls:Animal", "cls:Puppy")

    def test_self_subclass_rejected(self):
        with pytest.raises(OntologyError):
            self.make().add_subclass("cls:Dog", "cls:Dog")

    def test_labels(self):
        ontology = self.make()
        assert ontology.label("rex") == "rex"
        assert ontology.label("unknown:thing") == "unknown:thing"


class TestSimilarityKernels:
    def test_trigram_identity(self):
        assert trigram_similarity("abc", "abc") == 1.0

    def test_token_overlap(self):
        assert token_overlap("labour market", "market data") == pytest.approx(1 / 3)

    def test_edit_similarity_typo(self):
        assert edit_similarity("caapcity", "capacity") >= 0.7

    def test_edit_similarity_transposition_single_edit(self):
        # OSA counts 'wieght' -> 'weight' as one edit.
        assert edit_similarity("wieght", "weight") == pytest.approx(1 - 1 / 6)

    def test_edit_similarity_bounds(self):
        assert edit_similarity("", "abc") == 0.0
        assert 0.0 <= edit_similarity("abc", "xyz") <= 1.0


class TestVocabulary:
    def make(self):
        vocabulary = DomainVocabulary()
        vocabulary.add_term(
            VocabularyTerm(
                name="employment",
                definition="people in work",
                synonyms=["working force", "workforce", "labour market"],
                schema_bindings=["table:employment"],
            )
        )
        vocabulary.add_term(
            VocabularyTerm(name="barometer", synonyms=["leading indicator"])
        )
        return vocabulary

    def test_exact_lookup(self):
        hit = self.make().lookup("employment")
        assert hit.match_kind == "exact"
        assert hit.score == 1.0

    def test_synonym_lookup(self):
        hit = self.make().lookup("working force")
        assert hit.term.name == "employment"
        assert hit.match_kind == "synonym"

    def test_fuzzy_lookup(self):
        hit = self.make().lookup("employmnt")
        assert hit is not None
        assert hit.term.name == "employment"

    def test_no_match(self):
        assert self.make().lookup("astronomy") is None

    def test_ground_question_prefers_exact_spans(self):
        grounded = self.make().ground_question(
            "overview of the working force in switzerland"
        )
        assert grounded
        assert grounded[0].term.name == "employment"
        assert grounded[0].match_kind == "synonym"

    def test_ground_question_multiple_terms(self):
        names = {
            hit.term.name
            for hit in self.make().ground_question(
                "is the barometer related to employment"
            )
        }
        assert names == {"barometer", "employment"}

    def test_duplicate_term_rejected(self):
        vocabulary = self.make()
        with pytest.raises(KGError):
            vocabulary.add_term(VocabularyTerm(name="employment"))

    def test_colliding_synonym_rejected(self):
        vocabulary = self.make()
        with pytest.raises(KGError):
            vocabulary.add_term(
                VocabularyTerm(name="jobs", synonyms=["workforce"])
            )

    def test_expand(self):
        assert "workforce" in self.make().expand("employment")


class TestEntityLinker:
    def test_links_schema_labels(self, employees_kg):
        linker = EntityLinker(employees_kg.ontology)
        links = linker.link_text("average salary per department")
        mentions = {link.mention: link.entity for link in links}
        assert mentions.get("salary") == "column:employees.salary"

    def test_ambiguity_reported(self, employees_kg):
        linker = EntityLinker(employees_kg.ontology, ambiguity_margin=0.5)
        links = linker.link_text("department")
        assert links
        # 'department' exists in both tables: competitors must be visible.
        assert links[0].ambiguous_with

    def test_below_threshold_returns_none(self, employees_kg):
        linker = EntityLinker(employees_kg.ontology)
        assert linker.link_phrase("zzzzqqq") is None

    def test_refresh_picks_up_new_labels(self, employees_kg):
        linker = EntityLinker(employees_kg.ontology)
        employees_kg.ontology.add_instance(
            "ent:new", "cda:Table", label="brand new table"
        )
        assert linker.link_phrase("brand new table") is None
        linker.refresh()
        assert linker.link_phrase("brand new table") is not None


class TestSchemaKG:
    def test_tables_and_columns(self, employees_kg):
        assert set(employees_kg.tables()) == {"employees", "departments"}
        assert "salary" in employees_kg.columns_of("employees")

    def test_datatype(self, employees_kg):
        assert employees_kg.datatype_of("employees", "salary") == "FLOAT"
        assert employees_kg.datatype_of("employees", "name") == "TEXT"

    def test_find_tables_by_phrase(self, employees_kg):
        matches = employees_kg.find_tables("employees data")
        assert matches[0].table == "employees"

    def test_find_columns_scoped(self, employees_kg):
        matches = employees_kg.find_columns("budget", table="departments")
        assert matches[0].column == "budget"
        assert not employees_kg.find_columns("budget", table="employees", min_score=0.9)

    def test_value_index_exact(self, employees_kg):
        hits = employees_kg.find_values("zurich")
        assert [(hit.table, hit.column) for hit in hits] == [("employees", "city")]

    def test_value_index_preserves_case(self, employees_kg):
        hits = employees_kg.exact_value_columns("ZURICH")
        assert hits == [("employees", "city", "zurich")]

    def test_join_edges_and_path(self, employees_kg):
        assert employees_kg.join_path("employees", "departments") == [
            ("employees", "department", "departments", "department")
        ]
        assert employees_kg.join_path("employees", "employees") == []

    def test_no_join_path(self, employees_db):
        employees_db.catalog.drop_table("departments")
        kg = SchemaKnowledgeGraph(employees_db.catalog)
        assert kg.join_path("employees", "nonexistent") == []

    def test_value_index_can_be_disabled(self, employees_db):
        kg = SchemaKnowledgeGraph(employees_db.catalog, index_values=False)
        assert kg.find_values("zurich") == []

    def test_high_cardinality_columns_skipped(self, employees_db):
        kg = SchemaKnowledgeGraph(employees_db.catalog, max_distinct_values=2)
        # 'name' has 5 distinct values > 2; 'city' has 3 > 2.
        assert kg.find_values("ann") == []


# -- grounding parity: precomputed features vs the linear reference scan ----------------
#
# The reference functions below are the straightforward scans that score
# every surface with the public string kernels, rebuilding both strings'
# features each time.  Production grounding precomputes surface features,
# probes the surface dict in the exact-only pass and skips edit distance
# when the length bound rules a match out; it must return identical
# results, scores included (compared with ``==``).


def reference_lookup(vocabulary: DomainVocabulary, text: str) -> GroundedTerm | None:
    hit = vocabulary._surface_index.get(text.lower().strip())
    if hit is not None:
        term_key, kind = hit
        return GroundedTerm(
            term=vocabulary._terms[term_key], matched_text=text, match_kind=kind, score=1.0
        )
    best = None
    for term in vocabulary._terms.values():
        for surface in [term.name, *term.synonyms]:
            overlap = token_overlap(text, surface)
            if overlap > 0:
                candidate = GroundedTerm(term, surface, "token", overlap)
                if best is None or candidate.score > best.score:
                    best = candidate
    if best is not None and best.score >= 0.34:
        return best
    for term in vocabulary._terms.values():
        for surface in [term.name, *term.synonyms]:
            similarity = trigram_similarity(text, surface)
            if similarity >= vocabulary.fuzzy_threshold:
                candidate = GroundedTerm(term, surface, "fuzzy", similarity)
                if best is None or candidate.score > best.score:
                    best = candidate
    if best is not None and (
        best.match_kind != "fuzzy" or best.score >= vocabulary.fuzzy_threshold
    ):
        return best
    return None


def reference_ground_question(
    vocabulary: DomainVocabulary, question: str, max_ngram: int = 3
) -> list[GroundedTerm]:
    tokens = tokenize_text(question)
    consumed = [False] * len(tokens)
    grounded = []
    for exact_only in (True, False):
        for size in range(min(max_ngram, len(tokens)), 0, -1):
            for start in range(0, len(tokens) - size + 1):
                if any(consumed[start : start + size]):
                    continue
                hit = reference_lookup(vocabulary, " ".join(tokens[start : start + size]))
                if hit is None:
                    continue
                if exact_only and hit.match_kind not in ("exact", "synonym"):
                    continue
                if hit.score >= (0.999 if size == 1 else 0.5):
                    grounded.append(hit)
                    for position in range(start, start + size):
                        consumed[position] = True
    return grounded


def reference_score_against(kg: SchemaKnowledgeGraph, phrase: str, node: str):
    label = kg.ontology.label(node)
    comment = kg.ontology.comment(node) or ""
    best = max(token_overlap(phrase, label), trigram_similarity(phrase, label))
    matched_on = "label"
    for phrase_token in tokenize_text(phrase):
        for label_token in tokenize_text(label):
            if min(len(phrase_token), len(label_token)) < 4:
                continue
            similarity = edit_similarity(phrase_token, label_token)
            if similarity >= 0.7 and 0.9 * similarity > best:
                best = 0.9 * similarity
    if comment:
        comment_score = 0.9 * token_overlap(phrase, comment)
        if comment_score > best:
            best = comment_score
            matched_on = "comment"
    return best, matched_on


def reference_find(kg: SchemaKnowledgeGraph, phrase: str, kind: str, min_score=0.3):
    matches = []
    for node in kg.ontology.instances_of(kind):
        name = node.split(":", 1)[1]
        table, column = name.rsplit(".", 1) if kind == CDA_COLUMN else (name, None)
        score, matched_on = reference_score_against(kg, phrase, node)
        if score >= min_score:
            matches.append(SchemaMatch(node, table, column, score, matched_on))
    return sorted(matches, key=lambda match: (-match.score, match.node))


# Few, overlapping words so that token ties, shared trigrams and typo
# neighbours are common rather than rare.
_WORDS = [
    "work", "workforce", "working", "force", "labour", "labor", "market",
    "rate", "rates", "salary", "salaries", "canton", "cantons", "order",
    "orders", "visit", "visits", "patient", "employment", "employed", "jobs",
]


def _typo(word: str, position: int, kind: str) -> str:
    if not word:
        return word
    i = position % len(word)
    if kind == "delete":
        return word[:i] + word[i + 1 :]
    if kind == "double":
        return word[:i] + word[i] + word[i:]
    if kind == "transpose" and i + 1 < len(word):
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    return word[:i] + "x" + word[i + 1 :]


_word = st.sampled_from(_WORDS)
_typo_word = st.builds(
    _typo, _word, st.integers(0, 12),
    st.sampled_from(["delete", "double", "transpose", "substitute"]),
)
_surface = st.lists(_word, min_size=1, max_size=3).map(" ".join)
_phrase = st.one_of(
    st.lists(st.one_of(_word, _typo_word), min_size=1, max_size=4).map(" ".join),
    st.text(max_size=12),
    st.sampled_from(["", " ", "?!", "--", "İstanbul", "ǅ", "ß"]),
)
_terms = st.lists(
    st.tuples(_surface, st.lists(_surface, max_size=3)), min_size=1, max_size=5
)


def _vocabulary(terms, threshold) -> DomainVocabulary:
    vocabulary = DomainVocabulary(fuzzy_threshold=threshold)
    for name, synonyms in terms:
        try:
            vocabulary.add_term(VocabularyTerm(name=name, synonyms=synonyms))
        except KGError:
            pass  # collisions leave the same partial state in both paths
    return vocabulary


def _key(hit: GroundedTerm | None):
    if hit is None:
        return None
    return (hit.term.name, hit.matched_text, hit.match_kind, hit.score)


class TestGroundingParity:
    @settings(max_examples=300, deadline=None)
    @given(_terms, st.sampled_from([0.3, 0.45, 0.6]), st.lists(_phrase, max_size=6))
    def test_lookup_matches_reference(self, terms, threshold, phrases):
        vocabulary = _vocabulary(terms, threshold)
        for phrase in phrases:
            assert _key(vocabulary.lookup(phrase)) == _key(
                reference_lookup(vocabulary, phrase)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        _terms,
        st.sampled_from([0.3, 0.45, 0.6]),
        st.lists(st.one_of(_word, _typo_word, st.sampled_from(["the", "of", "?"])),
                 max_size=8).map(" ".join),
    )
    def test_ground_question_matches_reference(self, terms, threshold, question):
        vocabulary = _vocabulary(terms, threshold)
        assert [_key(hit) for hit in vocabulary.ground_question(question)] == [
            _key(hit) for hit in reference_ground_question(vocabulary, question)
        ]

    def test_token_tie_keeps_first_registered_surface(self):
        vocabulary = _vocabulary([("labour rate", []), ("labour market", [])], 0.45)
        hit = vocabulary.lookup("labour")
        assert (hit.term.name, hit.match_kind, hit.score) == ("labour rate", "token", 0.5)
        assert _key(hit) == _key(reference_lookup(vocabulary, "labour"))

    def test_exact_pass_does_not_accept_scored_hits(self):
        # Pass 1 accepts exact/synonym hits only: the 3-gram "the working
        # force" overlaps the synonym by 2/3 but must not consume the span.
        vocabulary = _vocabulary([("employment", ["working force"])], 0.45)
        question = "the working force"
        grounded = vocabulary.ground_question(question)
        assert [_key(hit) for hit in grounded] == [
            ("employment", "working force", "synonym", 1.0)
        ]
        assert [_key(hit) for hit in grounded] == [
            _key(hit) for hit in reference_ground_question(vocabulary, question)
        ]

    def test_bundled_vocabularies_match_reference(
        self, swiss_domain, ecommerce_domain, healthcare_domain
    ):
        questions = [
            "how many employees are there per canton",
            "overview of the working force in switzerland",
            "labour markt barometr for bern",
            "average order value per customer segment",
            "how many patients visited per department",
            "wrokforce by region data",
        ]
        for domain in (swiss_domain, ecommerce_domain, healthcare_domain):
            vocabulary = domain.vocabulary
            for question in questions:
                assert [_key(hit) for hit in vocabulary.ground_question(question)] == [
                    _key(hit) for hit in reference_ground_question(vocabulary, question)
                ]
                for phrase in tokenize_text(question):
                    assert _key(vocabulary.lookup(phrase)) == _key(
                        reference_lookup(vocabulary, phrase)
                    )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(_word, st.lists(_word, min_size=1, max_size=4, unique=True)),
            min_size=1, max_size=3, unique_by=lambda table: table[0],
        ),
        st.lists(st.tuples(st.integers(0, 20), _surface), max_size=4),
        st.lists(_phrase, min_size=1, max_size=5),
    )
    def test_find_tables_and_columns_match_reference(self, tables, comments, phrases):
        db = Database()
        for table, columns in tables:
            db.execute(f"CREATE TABLE t_{table} ({', '.join(f'{c}_col INT' for c in columns)})")
        kg = SchemaKnowledgeGraph(db.catalog)
        nodes = sorted(kg.ontology.instances_of(CDA_TABLE)) + sorted(
            kg.ontology.instances_of(CDA_COLUMN)
        )
        for index, comment in comments:
            node = nodes[index % len(nodes)]
            if kg.ontology.comment(node) is None:
                kg.store.add(node, RDFS_COMMENT, comment)
        for phrase in phrases:
            assert kg.find_tables(phrase) == reference_find(kg, phrase, CDA_TABLE)
            assert kg.find_tables(phrase, min_score=0.15) == reference_find(
                kg, phrase, CDA_TABLE, min_score=0.15
            )
            assert kg.find_columns(phrase) == reference_find(kg, phrase, CDA_COLUMN)

    def test_find_tables_matches_reference_on_bundled_domains(
        self, swiss_domain, ecommerce_domain, healthcare_domain
    ):
        for domain in (swiss_domain, ecommerce_domain, healthcare_domain):
            kg = SchemaKnowledgeGraph(domain.registry.database.catalog)
            for phrase in ["how many employees per canton", "ordres by custmer",
                           "patient vists", "unemployment rate", ""]:
                assert kg.find_tables(phrase, min_score=0.15) == reference_find(
                    kg, phrase, CDA_TABLE, min_score=0.15
                )
                assert kg.find_columns(phrase) == reference_find(kg, phrase, CDA_COLUMN)

    def test_relabelled_node_is_rescored(self, employees_kg):
        assert not employees_kg.find_tables("staff")  # warms the feature cache
        node = table_node("employees")
        employees_kg.store.remove(node, RDFS_LABEL, "employees")
        employees_kg.store.add(node, RDFS_LABEL, "staff members")
        matches = employees_kg.find_tables("staff")
        assert [match.table for match in matches] == ["employees"]
        assert matches == reference_find(employees_kg, "staff", CDA_TABLE)

    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=10), st.text(max_size=10))
    @example("İstanbul", "istanbul")
    @example("ǅemal", "dzemal")
    @example("", "")
    @example("", "abc")
    def test_edit_similarity_bound_is_an_upper_bound(self, a, b):
        assert edit_similarity(a, b) <= edit_similarity_bound(a, b)

    def test_edit_similarity_bound_is_tight_for_insertions(self):
        assert edit_similarity_bound("work", "works") == edit_similarity("work", "works")
        assert edit_similarity_bound("capacity", "capacities") == pytest.approx(0.8)
