"""Run the pipeline end to end on the dict reference kernels.

The runtime has one graph core: the postings search, the CSR snapshot and its
array kernels.  Every kernel keeps a dict-graph reference that the
equivalence suites (``test_indexed_equivalence.py``,
``test_query_prep_equivalence.py``) hold it to one call at a time.  This
module composes those references into a whole pipeline, so end-to-end tests
can also check that the references alone reproduce the same bytes:

* search: :func:`~repro.search.engine.scan_search` (score every paper);
* node weights: :func:`~repro.graph.pagerank.pagerank` on the dict graph;
* expansion: :class:`~repro.core.subgraph.SubgraphBuilder` without a snapshot
  (dict BFS);
* edge costs: :func:`~repro.core.weights.reference_edge_relevance`;
* Steiner solve: a dict induce of the candidate set
  (:meth:`~repro.graph.citation_graph.CitationGraph.subgraph`) and the metric
  closure without a snapshot (dict Dijkstra) on it.

Tests parametrize over :data:`GRAPH_CORES` and enter :func:`graph_core`.  The
patches are class- and module-level, so in-process serve replicas started
inside the block run on the references too.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Mapping

import pytest

from repro.core import newst as newst_module
from repro.core import pipeline as pipeline_module
from repro.core.subgraph import SubgraphBuilder
from repro.core.weights import EdgeCosts, WeightedGraphBuilder, reference_edge_relevance
from repro.graph.pagerank import pagerank
from repro.graph.steiner import node_edge_weighted_steiner_tree
from repro.search.engine import SearchEngine, scan_search

#: ``"dict"`` runs the references below; ``"indexed"`` runs the runtime core.
GRAPH_CORES: tuple[str, ...] = ("dict", "indexed")


def _scan_search(self, query, top_k=30, year_cutoff=None, exclude_ids=()):
    return scan_search(self, query, top_k, year_cutoff, exclude_ids)


def _dict_pagerank_scores(self) -> Mapping[str, float]:
    if self._pagerank is None:
        raw = pagerank(
            self.graph,
            damping=self.config.pagerank_damping,
            max_iterations=self.config.pagerank_max_iterations,
            tolerance=self.config.pagerank_tolerance,
        )
        low = min(raw.values())
        span = max(raw.values()) - low
        if span <= 0:
            self._pagerank = {node: 0.5 for node in raw}
        else:
            self._pagerank = {node: (score - low) / span for node, score in raw.items()}
    return self._pagerank


def _reference_edge_costs(self) -> EdgeCosts:
    return EdgeCosts(relevance=reference_edge_relevance(self.graph), config=self.config)


class _DictExpansion(SubgraphBuilder):
    """Expands with the dict BFS; only the candidate mask reads the snapshot."""

    def expand(self, *args, **kwargs):
        dict_builder = SubgraphBuilder(
            self.graph, expansion_order=self.expansion_order, max_nodes=self.max_nodes
        )
        return dict_builder.expand(*args, **kwargs)


def _dict_steiner_tree(graph, terminals, *, snapshot=None, costs=None, blocked=None,
                       **kwargs):
    if blocked is not None:
        graph = graph.subgraph(
            node for node, absent in zip(snapshot.node_ids, blocked) if not absent
        )
    return node_edge_weighted_steiner_tree(graph, terminals, **kwargs)


@contextlib.contextmanager
def dict_reference_core() -> Iterator[None]:
    """Swap every runtime kernel for its dict reference inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SearchEngine, "search", _scan_search)
        patch.setattr(WeightedGraphBuilder, "pagerank_scores", _dict_pagerank_scores)
        patch.setattr(WeightedGraphBuilder, "edge_costs", _reference_edge_costs)
        patch.setattr(pipeline_module, "SubgraphBuilder", _DictExpansion)
        patch.setattr(
            newst_module, "node_edge_weighted_steiner_tree", _dict_steiner_tree
        )
        yield


def graph_core(name: str) -> contextlib.AbstractContextManager[None]:
    """The context a test body runs in for one entry of :data:`GRAPH_CORES`."""
    return dict_reference_core() if name == "dict" else contextlib.nullcontext()
