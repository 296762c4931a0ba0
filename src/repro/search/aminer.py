"""AMiner-like search engine simulator.

AMiner's ranking favours recent, topically focused papers over classical highly
cited ones.  The simulator encodes a pronounced recency preference with only a
mild citation boost.
"""

from __future__ import annotations

from ..corpus.storage import CorpusStore
from ..venues.rankings import VenueCatalog
from .engine import RankingPolicy, SearchEngine

__all__ = ["AMinerEngine"]


class AMinerEngine(SearchEngine):
    """Simulated AMiner: relevance with a pronounced recency preference."""

    name = "aminer"

    def __init__(
        self,
        store: CorpusStore,
        venues: VenueCatalog | None = None,
        exclude_surveys: bool = False,
    ) -> None:
        policy = RankingPolicy(
            citation_weight=0.8,
            venue_weight=0.4,
            recency_weight=1.2,
            title_match_bonus=1.4,
        )
        super().__init__(
            store,
            policy=policy,
            venues=venues,
            exclude_surveys=exclude_surveys,
        )
