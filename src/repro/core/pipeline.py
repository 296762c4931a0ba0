"""The end-to-end RePaGer pipeline (Sec. IV-A steps 1-5) and its ablations.

:class:`RePaGerPipeline` wires the five steps together:

    search seeds → weighted citation graph → subgraph expansion →
    seed reallocation → NEWST Steiner tree → reading path

and exposes every variant evaluated in Table III through
:func:`make_variant_config`:

========= =====================================================================
Variant   Difference from NEWST
========= =====================================================================
NEWST     reallocated (high co-occurrence) papers as compulsory terminals
NEWST-W   initial top-K seed papers as compulsory terminals
NEWST-U   union of initial and reallocated seeds
NEWST-I   intersection of initial and reallocated seeds
NEWST-C   no Steiner step: the reallocated papers are the output
NEWST-N   Steiner tree without node weights
NEWST-E   Steiner tree without edge weights
========= =====================================================================
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from ..config import PipelineConfig
from ..corpus.storage import CorpusStore
from ..errors import PipelineError
from ..graph.citation_graph import CitationGraph
from ..graph.indexed import BoundCosts
from ..graph.steiner import SteinerTreeResult
from ..obs.trace import stage
from ..resilience.deadline import check_deadline
from ..resilience.faults import fault_point
from ..search.engine import SearchEngine
from ..search.serapi import SerApiClient
from ..types import ReadingPath
from ..venues.rankings import VenueCatalog
from .newst import NewstModel
from .reading_path import build_reading_path, rank_path_papers
from .reallocation import cooccurrence_counts, reallocate_seeds
from .seeds import SeedSelector
from .subgraph import SubgraphBuilder
from .weights import EdgeCosts, NodeWeights, WeightedGraphBuilder

__all__ = ["PipelineResult", "RePaGerPipeline", "VARIANT_CONFIGS", "make_variant_config"]


@dataclass(slots=True)
class PipelineResult:
    """Everything the pipeline produced for one query."""

    query: str
    reading_path: ReadingPath
    initial_seeds: tuple[str, ...]
    reallocated_seeds: tuple[str, ...]
    terminals: tuple[str, ...]
    candidate_hops: Mapping[str, int]
    subgraph_nodes: int
    subgraph_edges: int
    tree: SteinerTreeResult | None
    elapsed_seconds: float
    padding: tuple[str, ...] = field(default_factory=tuple)

    def ranked_papers(self, k: int | None = None) -> list[str]:
        """The generated papers in ranked order, optionally truncated to K.

        The ranking is the reading path's paper order (tree papers ranked by
        importance, then padding papers); the evaluation takes the top-K of
        this list, matching the paper's "top-K recommended papers" protocol.
        """
        papers = list(self.reading_path.papers)
        if k is None:
            return papers
        return papers[:k]


#: Named ablation variants from Table III mapped to configuration overrides.
VARIANT_CONFIGS: Mapping[str, dict[str, object]] = {
    "NEWST": {},
    "NEWST-W": {"seed_strategy": "initial"},
    "NEWST-U": {"seed_strategy": "union"},
    "NEWST-I": {"seed_strategy": "intersection"},
    "NEWST-C": {"steiner_only": False},
    "NEWST-N": {"use_node_weights": False},
    "NEWST-E": {"use_edge_weights": False},
}


def make_variant_config(name: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Build the :class:`PipelineConfig` for a named Table III variant."""
    if name not in VARIANT_CONFIGS:
        raise PipelineError(
            f"unknown NEWST variant {name!r}; choose from {sorted(VARIANT_CONFIGS)}"
        )
    base = base or PipelineConfig()
    return replace(base, **VARIANT_CONFIGS[name])  # type: ignore[arg-type]


class RePaGerPipeline:
    """Generate reading paths for queries over a corpus.

    ``weight_builder`` shares another pipeline's per-corpus artifacts (the
    Table III variants of one corpus); its graph is then this pipeline's
    graph, and it must carry this pipeline's :class:`NewstConfig`.  Without
    one the pipeline builds its own.
    """

    def __init__(
        self,
        store: CorpusStore,
        search_source: SearchEngine | SerApiClient,
        graph: CitationGraph | None = None,
        config: PipelineConfig | None = None,
        venues: VenueCatalog | None = None,
        weight_builder: WeightedGraphBuilder | None = None,
    ) -> None:
        self.store = store
        self.config = config or PipelineConfig()
        #: Stable fingerprint of this pipeline's configuration.  The serving
        #: layer keys its result cache on it and artifact snapshots embed it,
        #: so configuration drift (another Table III variant, changed NEWST
        #: parameters, ...) invalidates cached state.  The config is frozen,
        #: so it is computed once.
        self.config_fingerprint = self.config.fingerprint()
        if weight_builder is None:
            weight_builder = WeightedGraphBuilder(
                store,
                graph if graph is not None else CitationGraph.from_papers(store.papers),
                config=self.config.newst,
                venues=venues,
            )
        elif weight_builder.config != self.config.newst:
            raise PipelineError(
                "the shared weight builder carries a different NewstConfig"
            )
        self.weight_builder = weight_builder
        self.graph = weight_builder.graph
        self.seed_selector = SeedSelector(search_source)
        self.newst = NewstModel(
            config=self.config.newst,
            use_node_weights=self.config.use_node_weights,
            use_edge_weights=self.config.use_edge_weights,
        )
        # The Steiner solve's costs depend only on the corpus and the
        # NEWST-N/-E switches: bound once over the corpus snapshot.
        self._solve_costs: tuple[EdgeCosts, BoundCosts] | None = None
        self._solve_costs_lock = threading.Lock()

    # -- helpers ------------------------------------------------------------------

    @property
    def node_weights(self) -> NodeWeights:
        """Eq. 3 node weights over the full citation graph (the builder's)."""
        return self.weight_builder.node_weights()

    @property
    def indexed_graph(self):
        """Per-corpus :class:`~repro.graph.indexed.IndexedGraph` snapshot.

        Built once (lazily, or eagerly by :func:`repro.serving.warmup.warm_up`)
        and shared across queries: PageRank runs on it, the solve's costs are
        bound over it, and each query's candidate subgraph is a mask over it.
        """
        return self.weight_builder.indexed_snapshot()

    @property
    def solve_costs(self) -> tuple[EdgeCosts, BoundCosts]:
        """Eq. 2 edge costs and the solve's cost arrays over :attr:`indexed_graph`.

        Bound once per pipeline (lazily, or eagerly by
        :func:`~repro.serving.warmup.warm_up`), after this variant's NEWST-N /
        NEWST-E switches; every query's solve reads them under its candidate
        mask.
        """
        if self._solve_costs is None:
            with self._solve_costs_lock:
                if self._solve_costs is None:
                    edge_costs = self.weight_builder.edge_costs()
                    bound = self.newst.bind_costs(
                        self.indexed_graph, self.node_weights, edge_costs
                    )
                    self._solve_costs = (edge_costs, bound)
        return self._solve_costs

    def _terminals(
        self,
        initial_seeds: Sequence[str],
        reallocated: Sequence[str],
    ) -> list[str]:
        strategy = self.config.seed_strategy
        initial_in_graph = [s for s in initial_seeds if s in self.graph]
        if strategy == "initial":
            return list(dict.fromkeys(initial_in_graph))
        if strategy == "reallocated":
            return list(dict.fromkeys(reallocated))
        if strategy == "union":
            return list(dict.fromkeys([*initial_in_graph, *reallocated]))
        # intersection
        reallocated_set = set(reallocated)
        intersection = [s for s in initial_in_graph if s in reallocated_set]
        if intersection:
            return intersection
        # The intersection can be empty when reallocation promoted only
        # prerequisite papers; fall back to the reallocated seeds, which is the
        # closest behaviour to NEWST-I's intent.
        return list(dict.fromkeys(reallocated))

    # -- main entry point ------------------------------------------------------------

    def generate(
        self,
        query: str,
        year_cutoff: int | None = None,
        exclude_ids: Sequence[str] = (),
        pad_to: int = 60,
    ) -> PipelineResult:
        """Generate a reading path for a query.

        Args:
            query: Key phrases describing the research topic.
            year_cutoff: Only consider papers published in or before this year.
            exclude_ids: Papers that must never appear (e.g. the survey the
                query came from, to avoid data leakage).
            pad_to: Guarantee at least this many ranked papers by padding the
                tree with the best remaining candidates (the evaluation
                truncates to K ≤ 50, so the default of 60 is always enough).

        Raises:
            PipelineError: If no seeds can be found or the subgraph is empty.
        """
        started = time.perf_counter()

        # Step 1: initial seed papers from the search engine.
        with stage("postings_search") as span:
            check_deadline("postings_search")
            fault_point("postings_search")
            initial_seeds = self.seed_selector.select(
                query,
                num_seeds=self.config.num_seeds,
                year_cutoff=year_cutoff,
                exclude_ids=exclude_ids,
            )
            span.tag(num_seeds=len(initial_seeds))

        # Step 3: expand to the candidate subgraph (step 2's node weights are
        # computed once per pipeline and shared).  The BFS runs on the
        # per-corpus CSR snapshot, and the subgraph stays a mask over it: the
        # later steps read the corpus graph, and every pair they look at lies
        # inside the candidate set.
        with stage("k_hop_expand") as span:
            check_deadline("k_hop_expand")
            fault_point("k_hop_expand")
            candidates = SubgraphBuilder(
                self.graph,
                expansion_order=self.config.expansion_order,
                max_nodes=self.config.max_expanded_nodes,
                snapshot=self.indexed_graph,
            ).build(initial_seeds, year_cutoff=year_cutoff, exclude_ids=exclude_ids)
            candidate_hops = candidates.hops
            span.tag(nodes=len(candidate_hops), edges=candidates.num_edges)

        # Step 4: seed reallocation by co-occurrence.
        with stage("seed_reallocation") as span:
            check_deadline("seed_reallocation")
            fault_point("seed_reallocation")
            cooccurrence = cooccurrence_counts(self.graph, initial_seeds, candidate_hops)
            reallocated = reallocate_seeds(
                self.graph,
                initial_seeds,
                candidates=candidate_hops,
                threshold=self.config.cooccurrence_threshold,
            )
            terminals = self._terminals(initial_seeds, reallocated)
            span.tag(num_reallocated=len(reallocated), num_terminals=len(terminals))
        if not terminals:
            raise PipelineError(f"no usable terminal papers for query {query!r}")

        if not self.config.steiner_only:
            # NEWST-C: the reallocated papers (plus seeds) are the output —
            # no tree, so the solve's costs are never bound.
            result_path, padding = self._without_steiner(
                query, initial_seeds, reallocated, cooccurrence, candidate_hops, pad_to
            )
            tree = None
        else:
            # Step 5: NEWST Steiner tree and reading path.  The solve reads
            # the per-pipeline costs (bound here on a variant's first solve
            # when warm-up did not) under the query's candidate mask.
            with stage("edge_relevance_slice"):
                check_deadline("edge_relevance_slice")
                fault_point("edge_relevance_slice")
                edge_costs, bound_costs = self.solve_costs
            with stage("steiner_solve") as span:
                check_deadline("steiner_solve")
                fault_point("steiner_solve")
                tree = self.newst.solve(
                    self.graph,
                    terminals,
                    self.node_weights,
                    edge_costs,
                    snapshot=self.indexed_graph,
                    costs=bound_costs,
                    blocked=candidates.blocked,
                )
                span.tag(tree_nodes=len(tree.nodes), tree_edges=len(tree.edges))
            with stage("padding") as span:
                relevance = self._relevance_scores(initial_seeds, cooccurrence)
                padding = self._padding(
                    set(tree.nodes), relevance, candidate_hops, pad_to - len(tree.nodes)
                )
                span.tag(num_padding=len(padding))
            with stage("ranking"):
                result_path = build_reading_path(
                    query,
                    tree,
                    self.graph,
                    self.node_weights,
                    edge_costs=edge_costs,
                    seeds=terminals,
                    extra_papers=padding,
                    relevance=relevance,
                )

        elapsed = time.perf_counter() - started
        return PipelineResult(
            query=query,
            reading_path=result_path,
            initial_seeds=tuple(initial_seeds),
            reallocated_seeds=tuple(reallocated),
            terminals=tuple(terminals),
            candidate_hops=candidate_hops,
            subgraph_nodes=len(candidate_hops),
            subgraph_edges=candidates.num_edges,
            tree=tree,
            elapsed_seconds=elapsed,
            padding=tuple(padding),
        )

    # -- variant internals ----------------------------------------------------------

    def _without_steiner(
        self,
        query: str,
        initial_seeds: Sequence[str],
        reallocated: Sequence[str],
        cooccurrence: Mapping[str, int],
        candidate_hops: Mapping[str, int],
        pad_to: int,
    ) -> tuple[ReadingPath, list[str]]:
        """NEWST-C: return the reallocated + seed papers without a tree."""
        core = list(dict.fromkeys([*reallocated, *initial_seeds]))
        core = [pid for pid in core if pid in self.graph]
        relevance = self._relevance_scores(initial_seeds, cooccurrence)
        with stage("ranking"):
            ranked_core = rank_path_papers(
                core, self.node_weights, seeds=reallocated, relevance=relevance
            )
        with stage("padding"):
            padding = self._padding(set(ranked_core), relevance, candidate_hops,
                                    pad_to - len(ranked_core))
        path = ReadingPath(
            query=query,
            papers=tuple([*ranked_core, *padding]),
            edges=(),
            node_weights={
                pid: self.node_weights.importance(pid)
                for pid in [*ranked_core, *padding]
            },
            seeds=tuple(reallocated),
        )
        return path, padding

    def _relevance_scores(
        self,
        initial_seeds: Sequence[str],
        cooccurrence: Mapping[str, int],
    ) -> dict[str, float]:
        """Query-specific relevance used for top-K ordering.

        Co-cited papers score their co-occurrence count.  The initial seeds are
        directly relevant to the query (the search engine retrieved them), so
        they receive a score between the "cited by two seeds" and "cited by
        three seeds" levels, decaying slowly with their search rank.
        """
        scores: dict[str, float] = {pid: float(count) for pid, count in cooccurrence.items()}
        num_seeds = max(len(initial_seeds), 1)
        for rank, seed in enumerate(initial_seeds):
            scores[seed] = max(scores.get(seed, 0.0), 2.5 - rank / num_seeds)
        return scores

    def _padding(
        self,
        already: set[str],
        relevance: Mapping[str, float],
        candidate_hops: Mapping[str, int],
        needed: int,
    ) -> list[str]:
        """Best remaining candidates: relevant to the query, important, close to the seeds."""
        if needed <= 0:
            return []
        pool = [pid for pid in candidate_hops if pid not in already]
        # One importance lookup per candidate instead of two mapping probes
        # per sort comparison (the pool is the whole expanded subgraph).
        importance = self.node_weights.importance
        scores = {pid: importance(pid) for pid in pool}
        pool.sort(
            key=lambda pid: (
                -relevance.get(pid, 0.0),
                candidate_hops.get(pid, 9),
                -scores[pid],
                pid,
            )
        )
        return pool[:needed]
