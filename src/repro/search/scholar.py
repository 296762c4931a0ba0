"""Google-Scholar-like search engine simulator.

Google Scholar's observable ranking behaviour is dominated by query relevance
and citation counts — highly cited papers matching the keywords float to the
top regardless of venue.  The simulator encodes that with a strong citation
boost and a mild recency preference.
"""

from __future__ import annotations

from ..corpus.storage import CorpusStore
from ..venues.rankings import VenueCatalog
from .engine import RankingPolicy, SearchEngine

__all__ = ["GoogleScholarEngine"]


class GoogleScholarEngine(SearchEngine):
    """Simulated Google Scholar: relevance with a strong citation-count boost."""

    name = "google-scholar"

    def __init__(
        self,
        store: CorpusStore,
        venues: VenueCatalog | None = None,
        exclude_surveys: bool = False,
    ) -> None:
        policy = RankingPolicy(
            citation_weight=2.5,
            venue_weight=0.2,
            recency_weight=0.1,
            title_match_bonus=1.8,
        )
        super().__init__(
            store,
            policy=policy,
            venues=venues,
            exclude_surveys=exclude_surveys,
        )
