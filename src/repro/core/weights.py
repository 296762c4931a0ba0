"""Node weights and edge costs of the NEWST model (Sec. IV-B, Eq. 2 and Eq. 3).

Edge cost::

    c(i, j) = alpha / con(i, j) ** beta

where ``con(i, j)`` measures the relevance between papers ``i`` and ``j``: the
number of direct citation links between them plus a co-citation component (the
number of papers citing both), so that strongly related pairs get cheap edges.

Node weight::

    w(i) = gamma / (a * pagerank(i) + b * venue(i))

where ``pagerank(i)`` is the paper's PageRank in the citation network and
``venue(i)`` is the combined CCF/AMiner venue score.  Important, well-published
papers therefore have *low* node cost and are preferred as Steiner nodes.

PageRank scores are min-max normalised before entering Eq. 3 so that the two
terms live on comparable scales regardless of graph size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..config import NewstConfig
from ..corpus.storage import CorpusStore
from ..errors import GraphError
from ..graph.citation_graph import CitationGraph
from ..graph.indexed import IndexedGraph
from ..graph.kernels import indexed_pagerank
from ..venues.rankings import VenueCatalog, build_default_catalog

__all__ = ["NodeWeights", "EdgeCosts", "WeightedGraphBuilder", "reference_edge_relevance"]


@dataclass(frozen=True, slots=True)
class NodeWeights:
    """Pre-computed node-weight components plus the Eq. 3 combination."""

    pagerank_scores: Mapping[str, float]
    venue_scores: Mapping[str, float]
    config: NewstConfig

    def importance(self, paper_id: str) -> float:
        """The denominator of Eq. 3: ``a * pagerank + b * venue``."""
        pg = self.pagerank_scores.get(paper_id, 0.0)
        venue = self.venue_scores.get(paper_id, 0.0)
        return self.config.a * pg + self.config.b * venue

    def weight(self, paper_id: str) -> float:
        """Node weight ``w(i) = gamma / (a * pagerank(i) + b * venue(i))``."""
        denominator = self.importance(paper_id)
        if denominator <= 0.0:
            # Unknown papers get the gamma-scaled worst-case weight rather than
            # an infinite cost so that the Steiner tree can still pass through
            # them when no better path exists.
            denominator = 1.0e-3
        return self.config.gamma / denominator

    def as_cost_function(self):
        """Return ``node_cost(paper_id)`` suitable for the Steiner solver."""
        return self.weight


@dataclass(frozen=True, slots=True)
class EdgeCosts:
    """Pre-computed relevance scores plus the Eq. 2 edge-cost combination."""

    relevance: Mapping[tuple[str, str], float]
    config: NewstConfig
    default_relevance: float = 1.0

    def con(self, source: str, target: str) -> float:
        """Relevance ``con(i, j)`` between two papers (symmetric lookup)."""
        key = (source, target) if source < target else (target, source)
        return self.relevance.get(key, self.default_relevance)

    def cost(self, source: str, target: str) -> float:
        """Edge cost ``c(i, j) = alpha / con(i, j) ** beta``."""
        relevance = max(self.con(source, target), 1.0e-6)
        return self.config.alpha / (relevance ** self.config.beta)

    def as_cost_function(self):
        """Return ``edge_cost(source, target)`` suitable for the Steiner solver."""
        return self.cost


class WeightedGraphBuilder:
    """Step 2 of the pipeline: attach NEWST weights to the citation graph.

    The builder owns a corpus's configuration-independent artifacts: the CSR
    snapshot, the Eq. 3 node weights and the Eq. 2 relevance map.  Each is
    built once, lazily or by warm-up, and the Table III variant pipelines
    over the corpus all read them through one builder.
    """

    def __init__(
        self,
        store: CorpusStore,
        graph: CitationGraph,
        config: NewstConfig | None = None,
        venues: VenueCatalog | None = None,
    ) -> None:
        self.store = store
        self.graph = graph
        self.config = config or NewstConfig()
        self.venues = venues or build_default_catalog()
        self._pagerank: dict[str, float] | None = None
        self._node_weights: NodeWeights | None = None
        self._snapshot: IndexedGraph | None = None
        self._edge_relevance: Mapping[tuple[str, str], float] | None = None
        # One reentrant lock guards every lazy build: the node weights and
        # the relevance map both build the snapshot under it.
        self._lock = threading.RLock()

    def readiness(self) -> dict[str, bool]:
        """Which per-corpus artifacts are built, without building any."""
        return {
            "node_weights_ready": self._node_weights is not None,
            "graph_snapshot_ready": self._snapshot is not None,
            "edge_relevance_ready": self._edge_relevance is not None,
        }

    def restore(
        self,
        pagerank_scores: Mapping[str, float],
        venue_scores: Mapping[str, float],
        edge_relevance: Mapping[tuple[str, str], float],
    ) -> None:
        """Install artifacts restored from an artifact snapshot.

        An empty relevance map stays lazy: it is computed on first use.
        """
        with self._lock:
            self._node_weights = NodeWeights(
                pagerank_scores=pagerank_scores,
                venue_scores=venue_scores,
                config=self.config,
            )
            if edge_relevance:
                self._edge_relevance = edge_relevance

    # -- indexed snapshot --------------------------------------------------------

    def indexed_snapshot(self) -> IndexedGraph:
        """The per-corpus :class:`IndexedGraph` snapshot (built once, cached).

        The snapshot backs the PageRank pass, the cost arrays and every
        query's candidate mask, so the dict graph is only ever walked once
        per corpus.
        """
        if self._snapshot is None:
            with self._lock:
                if self._snapshot is None:
                    self._snapshot = IndexedGraph.from_graph(self.graph)
        return self._snapshot

    # -- node weights ------------------------------------------------------------

    def pagerank_scores(self) -> Mapping[str, float]:
        """PageRank of every paper in the full citation graph (cached, normalised)."""
        if self._pagerank is None:
            raw = indexed_pagerank(
                self.indexed_snapshot(),
                damping=self.config.pagerank_damping,
                max_iterations=self.config.pagerank_max_iterations,
                tolerance=self.config.pagerank_tolerance,
            )
            low = min(raw.values())
            high = max(raw.values())
            span = high - low
            if span <= 0:
                self._pagerank = {node: 0.5 for node in raw}
            else:
                self._pagerank = {
                    node: (score - low) / span for node, score in raw.items()
                }
        return self._pagerank

    def venue_scores(self) -> Mapping[str, float]:
        """Venue score of every paper in the graph."""
        scores: dict[str, float] = {}
        for node in self.graph.nodes:
            venue = self.graph.get_node_attr(node, "venue", "")
            if not venue and node in self.store:
                venue = self.store.get_paper(node).venue
            scores[node] = self.venues.score(venue)
        return scores

    def node_weights(self) -> NodeWeights:
        """The Eq. 3 node-weight object for the full graph (built once, cached).

        Every pipeline over the corpus shares it, whatever its Table III
        switches: the PageRank pass dominates set-up time.
        """
        if self._node_weights is None:
            with self._lock:
                if self._node_weights is None:
                    self._node_weights = NodeWeights(
                        pagerank_scores=self.pagerank_scores(),
                        venue_scores=self.venue_scores(),
                        config=self.config,
                    )
        return self._node_weights

    # -- edge costs ------------------------------------------------------------------

    def edge_relevance(self) -> Mapping[tuple[str, str], float]:
        """Per-corpus relevance ``con(i, j)`` for every adjacent pair (cached).

        Relevance depends only on the corpus — direct citation links between
        the pair plus the co-citation component — never on the query, so it is
        computed once on the CSR snapshot and shared, read-only, by every
        pipeline over the corpus.  Direct links are counted straight off the
        edge arrays; co-citation counts come from a sorted-adjacency
        two-pointer intersection of the predecessor lists
        (:func:`reference_edge_relevance` builds two fresh Python sets per
        edge instead).

        Memory: one dict entry per undirected adjacent pair, i.e. O(edges)
        — about 100 bytes per entry, the same order as the snapshot itself.
        """
        if self._edge_relevance is None:
            with self._lock:
                if self._edge_relevance is None:
                    self._edge_relevance = self._compute_edge_relevance()
        return self._edge_relevance

    def _compute_edge_relevance(self) -> dict[tuple[str, str], float]:
        snapshot = self.indexed_snapshot()
        ids = snapshot.node_ids
        rank = snapshot.sort_rank
        # Direct links: every directed edge adds 1.0 to its undirected pair,
        # keyed (u, v) with u lexicographically smaller — exactly
        # reference_edge_relevance's key and accumulation.
        pair_links: dict[tuple[int, int], float] = {}
        for source, target in zip(snapshot.edge_src, snapshot.edge_dst):
            key = (source, target) if rank[source] < rank[target] else (target, source)
            pair_links[key] = pair_links.get(key, 0.0) + 1.0

        # Predecessor lists in CSR edge order are automatically sorted by
        # source index, which is what makes the merge intersection linear.
        in_offsets, in_sources = snapshot.in_adjacency()
        relevance: dict[tuple[str, str], float] = {}
        for (u, v), links in pair_links.items():
            i, i_end = in_offsets[u], in_offsets[u + 1]
            j, j_end = in_offsets[v], in_offsets[v + 1]
            common = 0
            while i < i_end and j < j_end:
                a, b = in_sources[i], in_sources[j]
                if a == b:
                    common += 1
                    i += 1
                    j += 1
                elif a < b:
                    i += 1
                else:
                    j += 1
            if common:
                links += 0.5 * common
            relevance[(ids[u], ids[v])] = links
        return relevance

    def edge_costs(self) -> EdgeCosts:
        """Build the Eq. 2 edge-cost object over the whole corpus.

        Relevance ``con(i, j)`` counts direct citation links between ``i`` and
        ``j`` (1 or 2) plus half a point per common citing paper (co-citation).
        It reads the cached per-corpus :meth:`edge_relevance` map without
        copying it; the values are bit-identical to
        :func:`reference_edge_relevance`.
        """
        if self.graph.num_nodes == 0:
            raise GraphError("cannot compute edge costs on an empty graph")
        return EdgeCosts(relevance=self.edge_relevance(), config=self.config)


def reference_edge_relevance(
    graph: CitationGraph, nodes: Iterable[str] | None = None
) -> dict[tuple[str, str], float]:
    """Eq. 2 relevance ``con(i, j)`` straight off the dict graph.

    The reference :meth:`WeightedGraphBuilder.edge_relevance` is held to:
    direct links plus half a point per common citing paper, keyed ``(u, v)``
    with ``u < v``, restricted to edges inside ``nodes`` when given.  Only
    tests and benchmarks call it.
    """
    scope = set(nodes) if nodes is not None else set(graph.nodes)
    relevance: dict[tuple[str, str], float] = {}
    for source in scope:
        if source not in graph:
            continue
        for target in graph.successors(source):
            if target not in scope:
                continue
            key = (source, target) if source < target else (target, source)
            relevance[key] = relevance.get(key, 0.0) + 1.0

    # Co-citation component: papers citing both endpoints strengthen the link.
    for key in list(relevance):
        source, target = key
        common = len(set(graph.predecessors(source)) & set(graph.predecessors(target)))
        if common:
            relevance[key] += 0.5 * common
    return relevance
