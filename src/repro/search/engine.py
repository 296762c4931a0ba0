"""Base machinery shared by the search-engine simulators.

A :class:`SearchEngine` indexes a corpus with TF-IDF over titles and abstracts
and ranks papers for a query by combining the lexical relevance with an
engine-specific :class:`RankingPolicy` (citation boost, venue prestige,
recency).  The combination is multiplicative on relevance so that papers whose
text does not match the query at all can never be ranked, which is exactly the
behaviour of real keyword search engines that the paper's Observation I
describes.

Lexical relevance comes from an inverted
:class:`~repro.textproc.postings.PostingsIndex` built once per corpus: only
papers sharing at least one term with the query are scored.
:func:`scan_search` is the reference it is held to — it scores every stored
paper and must return the same ranking, scores and tie-breaks (papers sharing
no term have zero relevance and can never be returned by the scan either).
Only tests and benchmarks call it.

All per-corpus artifacts — the fitted vectoriser, document vectors and the
postings index — are built lazily (or eagerly by the serving warm-up), so
constructing an engine is cheap regardless of corpus size.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..corpus.storage import CorpusStore
from ..errors import EmptyQueryError, SearchError
from ..textproc.postings import PostingsIndex
from ..textproc.tfidf import TfidfVectorizer
from ..types import Paper, SearchResult
from ..venues.rankings import VenueCatalog, build_default_catalog

__all__ = ["RankingPolicy", "SearchEngine", "scan_search"]


@dataclass(frozen=True, slots=True)
class RankingPolicy:
    """Weights that shape an engine's ranking.

    The final score of a candidate paper is::

        relevance * (1 + citation_weight * log1p(citations) / 10)
                  * (1 + venue_weight * venue_score)
                  * (1 + recency_weight * recency)

    where ``relevance`` is the TF-IDF cosine between query and title+abstract,
    ``recency`` is a 0..1 value growing with the publication year, and a
    ``title_match_bonus`` multiplier applies when every query token occurs in
    the title (search engines strongly prefer exact title matches).
    """

    citation_weight: float = 0.0
    venue_weight: float = 0.0
    recency_weight: float = 0.0
    title_match_bonus: float = 1.5
    min_relevance: float = 1.0e-6


class SearchEngine:
    """Offline academic search engine over a :class:`CorpusStore`."""

    #: Human-readable engine name, overridden by subclasses.
    name: str = "generic"

    def __init__(
        self,
        store: CorpusStore,
        policy: RankingPolicy | None = None,
        venues: VenueCatalog | None = None,
        exclude_surveys: bool = False,
    ) -> None:
        self.store = store
        self.policy = policy or RankingPolicy()
        self.venues = venues or build_default_catalog()
        self.exclude_surveys = exclude_surveys
        self._vectorizer = TfidfVectorizer()
        self._fitted = False
        self._vector_cache: dict[str, dict[str, float]] = {}
        self._postings: PostingsIndex | None = None
        self._index_papers: tuple[Paper, ...] = ()
        self._index_lock = threading.RLock()
        years = [paper.year for paper in store if paper.year > 0]
        self._min_year = min(years) if years else 0
        self._max_year = max(years) if years else 0

    # -- per-corpus artifacts (lazy) ---------------------------------------------

    @property
    def vectorizer(self) -> TfidfVectorizer:
        """The TF-IDF model, fitted on first use (one corpus pass)."""
        if not self._fitted:
            with self._index_lock:
                if not self._fitted:
                    self._vectorizer.fit(paper.text for paper in self.store)
                    self._fitted = True
        return self._vectorizer

    def _document_vector(self, paper: Paper) -> dict[str, float]:
        """The paper's TF-IDF vector, transformed on first use and cached."""
        vector = self._vector_cache.get(paper.paper_id)
        if vector is None:
            vector = self.vectorizer.transform(paper.text)
            self._vector_cache[paper.paper_id] = vector
        return vector

    @property
    def index_built(self) -> bool:
        """Whether the postings index already exists (no building side effect).

        Readiness probes use this instead of :meth:`ensure_index`, which
        would *build* the index and turn a health check into warm-up work.
        """
        return self._postings is not None

    def ensure_index(self) -> PostingsIndex:
        """Build (or return) the per-corpus postings index.

        Building it fits the vectoriser and transforms every document.  The
        serving warm-up calls this eagerly so the first query does not pay
        the corpus transform and concurrent first queries only *read* shared
        state; otherwise the first search does.
        """
        if self._postings is None:
            with self._index_lock:
                if self._postings is None:
                    papers = tuple(self.store)
                    vectors = [self._document_vector(paper) for paper in papers]
                    self._index_papers = papers
                    self._postings = PostingsIndex(vectors)
        return self._postings

    # -- artifact-snapshot support ----------------------------------------------

    def export_index_state(self) -> dict[str, object]:
        """Serialisable per-corpus search state (vectoriser + document vectors).

        The postings lists themselves are cheap to rebuild from the vectors
        (no tokenisation), so the snapshot stores only the vectors and the
        fitted IDF table.
        """
        self.ensure_index()
        return {
            "vectorizer": self.vectorizer.export_state(),
            "document_vectors": {
                paper.paper_id: self._document_vector(paper) for paper in self.store
            },
        }

    def prime_index(self, state: dict[str, object]) -> None:
        """Restore per-corpus search state captured by :meth:`export_index_state`.

        Raises:
            SearchError: If the state does not cover every stored paper.
        """
        vectors = {
            str(pid): {str(t): float(w) for t, w in vector.items()}
            for pid, vector in state["document_vectors"].items()  # type: ignore[union-attr]
        }
        missing = [p.paper_id for p in self.store if p.paper_id not in vectors]
        if missing:
            raise SearchError(
                f"search-index state is missing {len(missing)} papers, "
                f"e.g. {missing[:3]}"
            )
        with self._index_lock:
            self._vectorizer = TfidfVectorizer.from_state(state["vectorizer"])  # type: ignore[arg-type]
            self._fitted = True
            self._vector_cache = vectors
            papers = tuple(self.store)
            self._index_papers = papers
            self._postings = PostingsIndex([vectors[paper.paper_id] for paper in papers])

    # -- scoring ------------------------------------------------------------------

    def _recency(self, paper: Paper) -> float:
        if self._max_year <= self._min_year:
            return 0.0
        return (paper.year - self._min_year) / (self._max_year - self._min_year)

    def _title_matches(self, query_tokens: Sequence[str], paper: Paper) -> bool:
        title = paper.title.lower()
        return all(token in title for token in query_tokens)

    def _policy_score(
        self, relevance: float, paper: Paper, query_tokens: Sequence[str]
    ) -> float:
        """Apply the engine policy to a precomputed lexical relevance."""
        if relevance < self.policy.min_relevance:
            return 0.0
        policy = self.policy
        score = relevance
        if policy.citation_weight:
            score *= 1.0 + policy.citation_weight * math.log1p(paper.citation_count) / 10.0
        if policy.venue_weight:
            score *= 1.0 + policy.venue_weight * self.venues.score(paper.venue)
        if policy.recency_weight:
            score *= 1.0 + policy.recency_weight * self._recency(paper)
        if query_tokens and self._title_matches(query_tokens, paper):
            score *= policy.title_match_bonus
        return score

    def score(self, query: str, paper: Paper) -> float:
        """Score a single paper for a query under this engine's policy."""
        relevance = TfidfVectorizer.dot(
            self.vectorizer.transform(query), self._document_vector(paper)
        )
        query_tokens = [t for t in query.lower().split() if t]
        return self._policy_score(relevance, paper, query_tokens)

    def _postings_relevance(
        self, query_vector: dict[str, float]
    ) -> list[tuple[float, Paper]]:
        """Relevance of every paper sharing at least one term with the query."""
        index = self.ensure_index()
        papers = self._index_papers
        return [
            (relevance, papers[position])
            for position, relevance in index.scores(query_vector).items()
        ]

    def _rank(
        self,
        query: str,
        top_k: int,
        year_cutoff: int | None,
        exclude_ids: Sequence[str],
        relevance: Callable[[dict[str, float]], Iterable[tuple[float, Paper]]],
    ) -> list[SearchResult]:
        """Filter, policy-score and rank what ``relevance(query_vector)`` scores.

        ``relevance`` yields ``(lexical relevance, paper)`` pairs.
        """
        if top_k < 1:
            raise SearchError("top_k must be >= 1")
        if not query or not query.strip():
            raise EmptyQueryError("query must not be empty")
        normalized_query = query.replace(",", " ")
        excluded = set(exclude_ids)
        query_vector = self.vectorizer.transform(normalized_query)
        query_tokens = [t for t in normalized_query.lower().split() if t]
        scored: list[tuple[float, str]] = []
        for lexical, paper in relevance(query_vector):
            if paper.paper_id in excluded:
                continue
            if self.exclude_surveys and paper.is_survey:
                continue
            if year_cutoff is not None and paper.year > year_cutoff:
                continue
            value = self._policy_score(lexical, paper, query_tokens)
            if value > 0.0:
                scored.append((value, paper.paper_id))
        scored.sort(key=lambda item: (-item[0], item[1]))

        return [
            SearchResult(paper_id=paper_id, rank=rank, score=value, engine=self.name)
            for rank, (value, paper_id) in enumerate(scored[:top_k])
        ]

    # -- public API ------------------------------------------------------------------

    def search(
        self,
        query: str,
        top_k: int = 30,
        year_cutoff: int | None = None,
        exclude_ids: Sequence[str] = (),
    ) -> list[SearchResult]:
        """Return the top-K papers for a query.

        Args:
            query: Key phrases, comma- or space-separated.
            top_k: Number of results to return.
            year_cutoff: If given, only papers published in or before this year
                are returned (the paper restricts results to papers published
                before the survey).
            exclude_ids: Paper ids to drop from the result (e.g. the survey the
                query was derived from, to avoid data leakage).

        Raises:
            EmptyQueryError: If the query contains no usable text.
            SearchError: If ``top_k`` is not positive.
        """
        return self._rank(
            query, top_k, year_cutoff, exclude_ids, self._postings_relevance
        )

    def search_ids(
        self,
        query: str,
        top_k: int = 30,
        year_cutoff: int | None = None,
        exclude_ids: Sequence[str] = (),
    ) -> list[str]:
        """Like :meth:`search` but returning only the ranked paper ids."""
        return [
            result.paper_id
            for result in self.search(
                query, top_k=top_k, year_cutoff=year_cutoff, exclude_ids=exclude_ids
            )
        ]


def scan_search(
    engine: SearchEngine,
    query: str,
    top_k: int = 30,
    year_cutoff: int | None = None,
    exclude_ids: Sequence[str] = (),
) -> list[SearchResult]:
    """Reference for :meth:`SearchEngine.search`: score every stored paper.

    The postings index must reproduce this corpus scan exactly — results,
    scores and tie-breaks.  Only tests and benchmarks call it.
    """
    dot = TfidfVectorizer.dot

    def relevance(query_vector: dict[str, float]) -> list[tuple[float, Paper]]:
        return [
            (dot(query_vector, engine._document_vector(paper)), paper)
            for paper in engine.store
        ]

    return engine._rank(query, top_k, year_cutoff, exclude_ids, relevance)
