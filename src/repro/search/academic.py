"""Microsoft-Academic-like search engine simulator.

Microsoft Academic ranked papers by a "saliency" signal that blended citations
with venue prestige and freshness.  The simulator mirrors that blend: a
moderate citation boost, a strong venue-prestige boost and some recency.
"""

from __future__ import annotations

from ..corpus.storage import CorpusStore
from ..venues.rankings import VenueCatalog
from .engine import RankingPolicy, SearchEngine

__all__ = ["MicrosoftAcademicEngine"]


class MicrosoftAcademicEngine(SearchEngine):
    """Simulated Microsoft Academic: relevance blended with venue saliency."""

    name = "microsoft-academic"

    def __init__(
        self,
        store: CorpusStore,
        venues: VenueCatalog | None = None,
        exclude_surveys: bool = False,
    ) -> None:
        policy = RankingPolicy(
            citation_weight=1.2,
            venue_weight=1.5,
            recency_weight=0.3,
            title_match_bonus=1.5,
        )
        super().__init__(
            store,
            policy=policy,
            venues=venues,
            exclude_surveys=exclude_surveys,
        )
