"""Parity suite for the batched retrieval hot path.

The batched kernels (``search_batch``, ``embed_batch``, vectorised HNSW
expansion, array-form BM25) promise *bit-identical* results to the
single-query path: same ids in the same order, same distances, same
tie-breaks, and the same ``distance_computations`` accounting.  These
tests pin that promise — with hypothesis-driven random workloads across
every index family, against hand-captured pre-batch counter values, and
against a straight-line reference reimplementation of the original BM25
scoring loop.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.bm25 import BM25Index
from repro.retrieval.documents import Document, DocumentStore
from repro.vector import (
    BruteForceIndex,
    HNSWIndex,
    IVFIndex,
    LSHIndex,
    LearnedStopIVFIndex,
    Metric,
    ProgressiveIndex,
    generate_clustered_dataset,
)
from repro.vector.dataset import generate_query_set
from repro.vector.embedding import HashingEmbedder, tokenize_text
from repro.vector.reference import ScalarHNSWIndex

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _assert_result_parity(single, batched, label=""):
    assert single.ids == batched.ids, label
    assert single.distances == batched.distances, label
    assert single.distance_computations == batched.distance_computations, label
    assert single.candidates_visited == batched.candidates_visited, label


def _make_workload(seed, n_points=120, dim=6, n_queries=4):
    rng = np.random.default_rng(seed)
    dataset = generate_clustered_dataset(n_points, dim, 3, rng)
    queries = generate_query_set(dataset, n_queries, rng)
    return dataset, queries


INDEX_FACTORIES = {
    "brute": lambda metric: BruteForceIndex(metric=metric),
    "ivf": lambda metric: IVFIndex(n_lists=6, n_probe=2, seed=1, metric=metric),
    "hnsw": lambda metric: HNSWIndex(
        m=4, ef_construction=16, ef_search=10, seed=1, metric=metric
    ),
    "lsh": lambda metric: LSHIndex(n_tables=4, n_bits=6, seed=1, metric=metric),
    "progressive": lambda metric: ProgressiveIndex(delta=0.1, seed=1, metric=metric),
}


# ---------------------------------------------------------------------------
# hypothesis parity: search_batch == sequential search
# ---------------------------------------------------------------------------


class TestSearchBatchParity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 500),
        kind=st.sampled_from(sorted(INDEX_FACTORIES)),
        metric=st.sampled_from([Metric.L2, Metric.COSINE]),
        k=st.integers(1, 12),
    )
    def test_batch_matches_sequential(self, seed, kind, metric, k):
        dataset, queries = _make_workload(seed)
        index = INDEX_FACTORIES[kind](metric)
        index.build(dataset)
        singles = [index.search(query, k) for query in queries]
        batched = index.search_batch(queries, k)
        assert len(batched) == len(queries)
        for single, batch in zip(singles, batched):
            _assert_result_parity(single, batch, f"{kind}/{metric.value}/k={k}")

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 200), k=st.integers(1, 8))
    def test_learned_stop_batch_matches_sequential(self, seed, k):
        dataset, queries = _make_workload(seed)
        index = LearnedStopIVFIndex(n_lists=6, seed=1)
        index.build(dataset)
        train_queries = generate_query_set(dataset, 16, np.random.default_rng(seed + 1))
        index.train(train_queries, k=k)
        singles = [index.search(query, k) for query in queries]
        batched = index.search_batch(queries, k)
        for single, batch in zip(singles, batched):
            _assert_result_parity(single, batch, "learned_stop")
            assert (
                single.metadata["predicted_probes"]
                == batch.metadata["predicted_probes"]
            )

    def test_duplicate_points_tie_break_identical(self):
        # Exact duplicates force distance ties; batch and single paths
        # must break them identically (by dataset position).
        rng = np.random.default_rng(7)
        base = rng.normal(size=(10, 4))
        vectors = np.vstack([base, base, base])
        from repro.vector import VectorDataset

        dataset = VectorDataset(vectors=vectors, ids=list(range(len(vectors))))
        queries = base[:4] + 1e-12
        for kind in ("brute", "ivf", "lsh"):
            index = INDEX_FACTORIES[kind](Metric.L2)
            index.build(dataset)
            for single, batch in zip(
                [index.search(query, 8) for query in queries],
                index.search_batch(queries, 8),
            ):
                _assert_result_parity(single, batch, kind)

    def test_batch_validation(self):
        dataset, queries = _make_workload(0)
        index = BruteForceIndex()
        index.build(dataset)
        assert index.search_batch(np.empty((0, dataset.dim)), 3) == []
        with pytest.raises(Exception):
            index.search_batch(queries[0], 3)  # 1-d input rejected
        with pytest.raises(Exception):
            index.search_batch(queries[:, :-1], 3)  # dim mismatch


# ---------------------------------------------------------------------------
# HNSW: vectorised expansion == the per-edge reference
# ---------------------------------------------------------------------------


class TestHNSWVectorizedParity:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 300), k=st.integers(1, 10))
    def test_vectorized_matches_scalar(self, seed, k):
        dataset, queries = _make_workload(seed)
        scalar = ScalarHNSWIndex(m=4, ef_construction=16, ef_search=12, seed=1)
        vectorized = HNSWIndex(m=4, ef_construction=16, ef_search=12, seed=1)
        scalar.build(dataset)
        vectorized.build(dataset)
        # Construction must produce the same graph under both modes.
        assert scalar._graph == vectorized._graph
        assert scalar._entry_point == vectorized._entry_point
        for query in queries:
            _assert_result_parity(scalar.search(query, k), vectorized.search(query, k))


# ---------------------------------------------------------------------------
# counter pinning against pre-batch values
# ---------------------------------------------------------------------------


class TestDistanceCounterPinning:
    """Values captured from the repository *before* the batched kernels
    landed (per-edge ``single_distance`` HNSW, per-vector IVF scan).  The
    batched kernels must charge identical work.
    """

    @pytest.fixture()
    def workload(self):
        rng = np.random.default_rng(42)
        dataset = generate_clustered_dataset(300, 8, 4, rng)
        queries = generate_query_set(dataset, 5, rng)
        return dataset, queries

    def test_hnsw_counter_pinned(self, workload):
        dataset, queries = workload
        index = HNSWIndex(m=4, ef_construction=16, ef_search=12, seed=1)
        index.build(dataset)
        results = [index.search(query, 5) for query in queries]
        assert [r.distance_computations for r in results] == [55, 73, 64, 60, 76]
        assert results[0].ids == [74, 78, 136, 206, 244]
        assert results[1].ids == [66, 246, 230, 295, 94]

    def test_ivf_counter_pinned(self, workload):
        dataset, queries = workload
        index = IVFIndex(n_lists=8, n_probe=2, seed=1)
        index.build(dataset)
        results = [index.search(query, 5) for query in queries]
        assert [r.distance_computations for r in results] == [57, 80, 150, 65, 150]

    def test_batch_counters_match_pinned(self, workload):
        dataset, queries = workload
        hnsw = HNSWIndex(m=4, ef_construction=16, ef_search=12, seed=1)
        hnsw.build(dataset)
        ivf = IVFIndex(n_lists=8, n_probe=2, seed=1)
        ivf.build(dataset)
        assert [
            r.distance_computations for r in hnsw.search_batch(queries, 5)
        ] == [55, 73, 64, 60, 76]
        assert [
            r.distance_computations for r in ivf.search_batch(queries, 5)
        ] == [57, 80, 150, 65, 150]


# ---------------------------------------------------------------------------
# embed_batch == stacked embed
# ---------------------------------------------------------------------------


TEXT_ALPHABET = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=127)
    | st.sampled_from(" .,-_"),
    max_size=60,
)


class TestEmbedBatchParity:
    @settings(max_examples=20, deadline=None)
    @given(texts=st.lists(TEXT_ALPHABET, min_size=1, max_size=8))
    def test_batch_matches_stacked_singles(self, texts):
        embedder = HashingEmbedder(dim=32)
        stacked = np.stack([embedder.embed(text) for text in texts])
        batched = embedder.embed_batch(texts)
        assert batched.shape == stacked.shape
        assert np.array_equal(batched, stacked)

    def test_empty_batch(self):
        embedder = HashingEmbedder(dim=16)
        assert embedder.embed_batch([]).shape == (0, 16)


# ---------------------------------------------------------------------------
# BM25: vectorised scoring == reference loop; add_document regression
# ---------------------------------------------------------------------------


def _reference_bm25_search(index, query, k):
    """The original per-document Python scoring loop, kept verbatim as a
    behavioural reference for the vectorised implementation.
    """
    if index._n_documents == 0:
        return []
    scores = {}
    for term in tokenize_text(query):
        postings = index._postings.get(term)
        if not postings:
            continue
        idf = index._idf(term)
        for doc_id, frequency in postings.items():
            length_norm = 1.0 - index.b + index.b * (
                index._doc_lengths[doc_id] / index._average_length
            )
            contribution = idf * (
                frequency * (index.k1 + 1.0)
                / (frequency + index.k1 * length_norm)
            )
            scores[doc_id] = scores.get(doc_id, 0.0) + contribution
    ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    return [(doc_id, score) for doc_id, score in ranked[:k]]


WORDS = ["labour", "force", "swiss", "canton", "rate", "survey", "data", "health"]


@st.composite
def corpora(draw):
    n_docs = draw(st.integers(2, 10))
    docs = []
    for i in range(n_docs):
        tokens = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
        docs.append((f"doc-{i}", " ".join(tokens)))
    return docs


class TestBM25Parity:
    @settings(max_examples=25, deadline=None)
    @given(
        docs=corpora(),
        query_terms=st.lists(st.sampled_from(WORDS), min_size=1, max_size=5),
        k=st.integers(1, 8),
    )
    def test_vectorised_matches_reference(self, docs, query_terms, k):
        store = DocumentStore()
        for doc_id, text in docs:
            store.add_text(doc_id, title=doc_id, text=text)
        index = BM25Index()
        index.build(store)
        query = " ".join(query_terms)
        reference = _reference_bm25_search(index, query, k)
        actual = index.search(query, k)
        assert [hit.doc_id for hit in actual] == [d for d, _ in reference]
        for hit, (_, score) in zip(actual, reference):
            assert math.isclose(hit.score, score, rel_tol=0.0, abs_tol=0.0) or (
                hit.score == score
            )

    def test_readd_document_replaces_old_postings(self):
        # Regression: re-adding a doc_id used to leave the old version's
        # postings in place and inflate the running average length.
        index = BM25Index()
        index.add_document(
            Document(doc_id="d1", title="old", text="zebra zebra zebra zebra")
        )
        index.add_document(Document(doc_id="d2", title="other", text="labour force"))
        index.add_document(Document(doc_id="d1", title="new", text="labour survey"))
        # The stale term must no longer hit d1.
        assert [hit.doc_id for hit in index.search("zebra", 5)] == []
        assert "d1" in {hit.doc_id for hit in index.search("labour", 5)}
        # Statistics reflect exactly the two live documents.
        assert index._n_documents == 2
        expected_avg = (
            len(tokenize_text("new\nlabour survey"))
            + len(tokenize_text("other\nlabour force"))
        ) / 2
        assert index._average_length == expected_avg

    def test_readd_matches_fresh_build(self):
        # After replacement the index must rank exactly like one built
        # from scratch over the final corpus.
        index = BM25Index()
        index.add_document(Document(doc_id="a", title="t", text="swiss labour data"))
        index.add_document(Document(doc_id="b", title="t", text="health survey"))
        index.add_document(Document(doc_id="a", title="t", text="canton health rate"))

        store = DocumentStore()
        store.add_text("a", title="t", text="canton health rate")
        store.add_text("b", title="t", text="health survey")
        fresh = BM25Index()
        fresh.build(store)

        for query in ("health", "canton rate", "swiss labour", "survey"):
            incremental = [(h.doc_id, h.score) for h in index.search(query, 5)]
            rebuilt = [(h.doc_id, h.score) for h in fresh.search(query, 5)]
            assert incremental == rebuilt

    def test_search_batch_matches_singles(self):
        store = DocumentStore()
        store.add_text("a", title="labour", text="swiss labour force survey")
        store.add_text("b", title="health", text="health canton data")
        store.add_text("c", title="rates", text="rate rate labour")
        index = BM25Index()
        index.build(store)
        queries = ["labour force", "health", "rate survey", "missingterm"]
        batched = index.search_batch(queries, 3)
        singles = [index.search(query, 3) for query in queries]
        assert [
            [(h.doc_id, h.score) for h in ranking] for ranking in batched
        ] == [[(h.doc_id, h.score) for h in ranking] for ranking in singles]
