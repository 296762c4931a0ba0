"""Turning a Steiner tree into a reading path.

The paper defines the reading order between two papers in the generated tree
by the citation relationship combined with publication time: the cited (and
therefore earlier) paper is read first, the citing paper later.  This module
orients the undirected tree edges accordingly and packages everything into a
:class:`~repro.types.ReadingPath`, annotating each node with its importance
(the Eq. 3 denominator — higher is more important) so that the UI layer can
colour nodes the way Fig. 7 does.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..graph.citation_graph import CitationGraph
from ..graph.steiner import SteinerTreeResult
from ..types import ReadingPath, ReadingPathEdge
from .weights import EdgeCosts, NodeWeights

__all__ = ["order_tree_edges", "build_reading_path", "rank_path_papers"]


def order_tree_edges(
    tree: SteinerTreeResult,
    graph: CitationGraph,
) -> list[tuple[str, str]]:
    """Orient each undirected tree edge into reading order (read source first).

    Orientation rules, in priority order:

    1. if one endpoint cites the other, the *cited* paper is read first;
    2. otherwise the older paper (by the ``year`` node attribute) is read first;
    3. ties fall back to lexicographic id order for determinism.
    """
    ordered: list[tuple[str, str]] = []
    for u, v in tree.edges:
        if graph.has_edge(u, v) and not graph.has_edge(v, u):
            # u cites v: v is the prerequisite, read v first.
            ordered.append((v, u))
        elif graph.has_edge(v, u) and not graph.has_edge(u, v):
            ordered.append((u, v))
        else:
            year_u = graph.get_node_attr(u, "year", 0)
            year_v = graph.get_node_attr(v, "year", 0)
            if (year_u, u) <= (year_v, v):
                ordered.append((u, v))
            else:
                ordered.append((v, u))
    return ordered


def rank_path_papers(
    papers: Sequence[str],
    node_weights: NodeWeights,
    seeds: Sequence[str] = (),
    relevance: Mapping[str, float] | None = None,
) -> list[str]:
    """Rank the papers of a path for top-K truncation.

    Compulsory terminals come first; within each group papers are ordered by
    their query-specific relevance (the co-occurrence count collected during
    seed reallocation) and then by the Eq. 3 importance the model optimises.
    The evaluation truncates generated paths to the top-K papers, so this
    ranking decides which tree papers survive small K values.
    """
    seed_set = set(seeds)
    relevance = relevance or {}
    # Precompute the importance scores once: the sort evaluates its key with
    # two mapping lookups per paper otherwise, and this runs on every query.
    importance = node_weights.importance
    scores = {pid: importance(pid) for pid in papers}
    return sorted(
        papers,
        key=lambda pid: (
            0 if pid in seed_set else 1,
            -relevance.get(pid, 0.0),
            -scores[pid],
            pid,
        ),
    )


def build_reading_path(
    query: str,
    tree: SteinerTreeResult,
    graph: CitationGraph,
    node_weights: NodeWeights,
    edge_costs: EdgeCosts | None = None,
    seeds: Sequence[str] = (),
    extra_papers: Sequence[str] = (),
    relevance: Mapping[str, float] | None = None,
) -> ReadingPath:
    """Package a Steiner tree into a :class:`~repro.types.ReadingPath`.

    Args:
        query: The original query phrases.
        tree: The NEWST tree.
        graph: A citation graph containing the tree (provides citation
            direction and years for edge orientation).
        node_weights: Importance scores used for node annotation and ranking.
        edge_costs: Optional edge costs; when given, each reading-path edge is
            annotated with the relevance ``con(i, j)`` so the UI can colour
            edges by strength.
        seeds: The compulsory terminals (kept first when ranking papers).
        extra_papers: Papers appended after the tree nodes in ranked order —
            used when the tree is smaller than the number of papers the caller
            wants to return.
        relevance: Optional query-specific relevance scores (co-occurrence
            counts) used to order papers within the tree and the extras.
    """
    ranked_tree_papers = rank_path_papers(
        tuple(tree.nodes), node_weights, seeds, relevance=relevance
    )
    ranked_extras = [
        pid
        for pid in rank_path_papers(
            tuple(extra_papers), node_weights, seeds, relevance=relevance
        )
        if pid not in tree.nodes
    ]
    papers = tuple(ranked_tree_papers + ranked_extras)

    oriented = order_tree_edges(tree, graph)
    edges = tuple(
        ReadingPathEdge(
            source=source,
            target=target,
            weight=edge_costs.con(source, target) if edge_costs is not None else 1.0,
        )
        for source, target in oriented
    )
    importances: Mapping[str, float] = {
        pid: node_weights.importance(pid) for pid in papers
    }
    return ReadingPath(
        query=query,
        papers=papers,
        edges=edges,
        node_weights=importances,
        seeds=tuple(seeds),
    )
