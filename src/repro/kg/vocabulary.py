"""Domain vocabulary: terms, synonyms, definitions, schema bindings.

This is the disambiguation substrate for P2.  A
:class:`DomainVocabulary` maps surface language ("working force",
"headcount", "staff") to canonical domain terms ("employment") and from
there to the schema elements that hold the data — the step in Figure 1
where the system understands that "working force in Switzerland" means
the labour-market datasets.

Matching is layered: exact term/synonym hit, then token-overlap scoring,
then character-trigram fuzzy match — each cheaper layer short-circuits the
next, and every hit reports its match kind so the explanation layer can
say *why* a term was grounded the way it was.

Every surface form (term name, then its synonyms) has its token set and
trigram set computed once, when the term is added; a lookup computes the
phrase's two sets once and scores them against the stored ones.  A
vocabulary holds a dozen or so surfaces, so this precomputed linear scan
is the whole index: there is no postings list to keep in sync.

:meth:`DomainVocabulary.ground_question` runs two passes over the
question's word n-grams.  The first accepts only exact term/synonym hits
and is a dict probe per n-gram; the second scores the remaining phrases
with :meth:`~DomainVocabulary.lookup`.

:func:`edit_similarity_bound` is the exact length bound on
:func:`edit_similarity` that lets callers skip the O(n*m) typo kernel when
no match above their threshold is possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KGError
from repro.vector.embedding import tokenize_text


@dataclass
class VocabularyTerm:
    """One canonical domain term with synonyms and schema bindings."""

    name: str
    definition: str = ""
    synonyms: list[str] = field(default_factory=list)
    #: Schema elements this term grounds to, e.g. ``"table:employment"``
    #: or ``"column:employment.rate"``.
    schema_bindings: list[str] = field(default_factory=list)
    #: Optional broader term (taxonomy edge).
    broader: str | None = None


@dataclass
class GroundedTerm:
    """A vocabulary hit: the term, how it matched, and how well."""

    term: VocabularyTerm
    matched_text: str
    match_kind: str  # "exact" | "synonym" | "token" | "fuzzy"
    score: float


def _trigrams(text: str) -> frozenset[str]:
    padded = f"  {text.lower()} "
    return frozenset(padded[i : i + 3] for i in range(len(padded) - 2))


def _tokens(text: str) -> frozenset[str]:
    return frozenset(tokenize_text(text))


def text_features(text: str) -> tuple[frozenset[str], frozenset[str]]:
    """``(word tokens, character trigrams)`` of ``text``: the two sets the
    :func:`token_overlap` and :func:`trigram_similarity` kernels compare,
    for callers that score one text against many."""
    return _tokens(text), _trigrams(text)


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard similarity of two feature sets (0.0 if either is empty)."""
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def trigram_similarity(a: str, b: str) -> float:
    """Jaccard similarity of character trigrams (fuzzy-match kernel)."""
    return jaccard(_trigrams(a), _trigrams(b))


def edit_similarity(a: str, b: str) -> float:
    """Normalised Damerau-Levenshtein (OSA) similarity.

    The typo kernel: "caapcity" vs "capacity" scores 0.75, and adjacent
    transpositions ("wieght" vs "weight") count as a single edit — the
    dominant human typo class.  O(len(a)*len(b)) dynamic programming.
    """
    a = a.lower()
    b = b.lower()
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    # Optimal string alignment: Levenshtein + adjacent transposition.
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            rows[i][j] = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                rows[i][j] = min(rows[i][j], rows[i - 2][j - 2] + 1)
    distance = rows[len(a)][len(b)]
    return 1.0 - distance / max(len(a), len(b))


def edit_similarity_bound(a: str, b: str) -> float:
    """Upper bound on :func:`edit_similarity` from the lengths alone.

    The OSA distance is at least the length difference, so
    ``edit_similarity(a, b) <= 1 - |len(a) - len(b)| / max(len(a), len(b))``
    (on the lowercased strings, as the kernel compares them).  A caller
    skips the kernel whenever this bound is below its threshold.
    """
    length_a = len(a.lower())
    length_b = len(b.lower())
    longest = max(length_a, length_b)
    if longest == 0:
        return 1.0
    return 1.0 - abs(length_a - length_b) / longest


def token_overlap(a: str, b: str) -> float:
    """Jaccard similarity of word tokens."""
    return jaccard(_tokens(a), _tokens(b))


class DomainVocabulary:
    """A registry of :class:`VocabularyTerm` with layered lookup."""

    def __init__(self, fuzzy_threshold: float = 0.45):
        self._terms: dict[str, VocabularyTerm] = {}
        self._surface_index: dict[str, tuple[str, str]] = {}
        #: (term, surface, token set, trigram set) per registered surface,
        #: in registration order — the order :meth:`lookup` scores them in.
        self._surface_features: list[
            tuple[VocabularyTerm, str, frozenset[str], frozenset[str]]
        ] = []
        self.fuzzy_threshold = fuzzy_threshold

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._terms

    @property
    def term_names(self) -> list[str]:
        """All canonical term names."""
        return sorted(self._terms)

    def add_term(self, term: VocabularyTerm) -> None:
        """Register a term; names and synonyms must not collide."""
        key = term.name.lower()
        if key in self._terms:
            raise KGError(f"vocabulary term {term.name!r} already exists")
        self._terms[key] = term
        for surface in (term.name, *term.synonyms):
            self._surface_features.append((term, surface, *text_features(surface)))
        self._register_surface(term.name, key, "exact")
        for synonym in term.synonyms:
            self._register_surface(synonym, key, "synonym")

    def _register_surface(self, surface: str, term_key: str, kind: str) -> None:
        surface_key = surface.lower().strip()
        existing = self._surface_index.get(surface_key)
        if existing is not None and existing[0] != term_key:
            raise KGError(
                f"surface form {surface!r} already maps to {existing[0]!r}"
            )
        self._surface_index[surface_key] = (term_key, kind)

    def term(self, name: str) -> VocabularyTerm:
        """Fetch a term by canonical name."""
        key = name.lower()
        if key not in self._terms:
            raise KGError(f"no vocabulary term {name!r}")
        return self._terms[key]

    # -- lookup layers -----------------------------------------------------------------

    def lookup(self, text: str) -> GroundedTerm | None:
        """Ground a single phrase to the best-matching term, if any."""
        surface_key = text.lower().strip()
        hit = self._surface_index.get(surface_key)
        if hit is not None:
            term_key, kind = hit
            return GroundedTerm(
                term=self._terms[term_key],
                matched_text=text,
                match_kind=kind,
                score=1.0,
            )
        tokens, grams = text_features(text)
        best: GroundedTerm | None = None
        for term, surface, surface_tokens, _ in self._surface_features:
            overlap = jaccard(tokens, surface_tokens)
            if overlap > 0 and (best is None or overlap > best.score):
                best = GroundedTerm(
                    term=term, matched_text=surface, match_kind="token", score=overlap
                )
        if best is not None and best.score >= 0.34:
            return best
        for term, surface, _, surface_grams in self._surface_features:
            similarity = jaccard(grams, surface_grams)
            if similarity >= self.fuzzy_threshold and (
                best is None or similarity > best.score
            ):
                best = GroundedTerm(
                    term=term, matched_text=surface, match_kind="fuzzy", score=similarity
                )
        if best is not None and (
            best.match_kind != "fuzzy" or best.score >= self.fuzzy_threshold
        ):
            return best
        return None

    def ground_question(self, question: str, max_ngram: int = 3) -> list[GroundedTerm]:
        """Ground every maximal matching phrase in ``question``.

        Scans word n-grams (longest first) and greedily consumes matched
        spans, so "labour market barometer" grounds as one term rather
        than three.
        """
        tokens = tokenize_text(question)
        consumed = [False] * len(tokens)
        grounded: list[GroundedTerm] = []
        # Pass 1: exact term/synonym hits (all n-gram sizes, longest first),
        # so "working force" wins over a fuzzy "the working force" overlap.
        # Tokens are lowercase and unpadded, so a phrase is its own surface
        # key, and lookup() returns an exact/synonym hit exactly when the
        # surface index has it: pass 1 never needs the scoring scan.
        for exact_only in (True, False):
            for size in range(min(max_ngram, len(tokens)), 0, -1):
                for start in range(0, len(tokens) - size + 1):
                    if any(consumed[start : start + size]):
                        continue
                    phrase = " ".join(tokens[start : start + size])
                    if exact_only and phrase not in self._surface_index:
                        continue
                    hit = self.lookup(phrase)
                    if hit is None:
                        continue
                    if hit.score >= (0.999 if size == 1 else 0.5):
                        grounded.append(hit)
                        for position in range(start, start + size):
                            consumed[position] = True
        return grounded

    def expand(self, term_name: str) -> list[str]:
        """Canonical name plus all synonyms of a term (query expansion)."""
        term = self.term(term_name)
        return [term.name, *term.synonyms]
