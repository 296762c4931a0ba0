"""The NEWST model: node-edge weighted Steiner tree over the subgraph.

Given the expanded, weighted sub-citation graph and the reallocated seed
papers as compulsory terminals, NEWST finds a tree that spans every terminal
while minimising the Eq. 1 objective (edge costs plus node weights).  The
solver is the KMB heuristic from :mod:`repro.graph.steiner`; this module adds
the paper-specific cost functions and the Table III ablation switches
(disabling node weights, edge weights, or the Steiner step entirely).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..config import NewstConfig
from ..errors import DisconnectedTerminalsError, PipelineError
from ..graph.citation_graph import CitationGraph
from ..graph.indexed import IndexedGraph
from ..graph.steiner import SteinerTreeResult, node_edge_weighted_steiner_tree
from .weights import EdgeCosts, NodeWeights

__all__ = ["NewstModel"]


@dataclass(frozen=True, slots=True)
class NewstModel:
    """Solve the NEWST problem for a given subgraph and terminal set.

    Attributes:
        config: NEWST cost parameters (alpha, beta, gamma, a, b).
        use_node_weights: If False the node-weight term is dropped (NEWST-N).
        use_edge_weights: If False every edge costs a constant alpha (NEWST-E).
    """

    config: NewstConfig
    use_node_weights: bool = True
    use_edge_weights: bool = True

    def _cost_functions(
        self, node_weights: NodeWeights, edge_costs: EdgeCosts
    ) -> tuple[Callable[[str, str], float], Callable[[str], float]]:
        """The ``(edge_cost, node_cost)`` callables after ablation switches."""
        node_cost = node_weights.as_cost_function() if self.use_node_weights else (
            lambda _node: 0.0
        )
        if self.use_edge_weights:
            edge_cost = edge_costs.as_cost_function()
        else:
            constant = self.config.alpha
            edge_cost = lambda _u, _v: constant  # noqa: E731 - tiny closure
        return edge_cost, node_cost

    def solve(
        self,
        subgraph: CitationGraph,
        terminals: Sequence[str],
        node_weights: NodeWeights,
        edge_costs: EdgeCosts,
        snapshot: IndexedGraph | None = None,
    ) -> SteinerTreeResult:
        """Compute the Steiner tree spanning ``terminals`` in ``subgraph``.

        Terminals that are missing from the subgraph are dropped (the search
        engine may return papers outside the citation-graph snapshot);
        terminals in different components are handled by spanning the largest
        connectable group, matching the behaviour of a production system that
        must always return *some* reading path.

        Args:
            snapshot: Optional prebuilt :class:`IndexedGraph` view of
                ``subgraph`` (the pipeline carves it out of the per-corpus
                snapshot); built on the fly when none is supplied.  The
                metric closure runs on it with the cost arrays bound per solve.

        Raises:
            PipelineError: If no terminal is present in the subgraph.
        """
        present = [t for t in dict.fromkeys(terminals) if t in subgraph]
        if not present:
            raise PipelineError("no compulsory terminal is present in the subgraph")

        if snapshot is None:
            snapshot = IndexedGraph.from_graph(subgraph)

        edge_cost, node_cost = self._cost_functions(node_weights, edge_costs)

        try:
            return node_edge_weighted_steiner_tree(
                subgraph,
                present,
                edge_cost=edge_cost,
                node_cost=node_cost,
                require_all_terminals=False,
                snapshot=snapshot,
            )
        except DisconnectedTerminalsError as exc:  # pragma: no cover - defensive
            raise PipelineError(f"could not connect the terminal papers: {exc}") from exc
