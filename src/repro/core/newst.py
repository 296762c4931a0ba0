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
from ..graph.indexed import BoundCosts, IndexedGraph
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

    def bind_costs(
        self, snapshot: IndexedGraph, node_weights: NodeWeights, edge_costs: EdgeCosts
    ) -> BoundCosts:
        """The solve's cost arrays over ``snapshot``, after the ablation switches.

        They depend only on the graph and the weights, never on the query, so
        the pipeline binds them once over the corpus snapshot and passes them
        to every :meth:`solve`.
        """
        return snapshot.bind_costs(*self._cost_functions(node_weights, edge_costs))

    def solve(
        self,
        graph: CitationGraph,
        terminals: Sequence[str],
        node_weights: NodeWeights,
        edge_costs: EdgeCosts,
        snapshot: IndexedGraph | None = None,
        costs: BoundCosts | None = None,
        blocked: bytearray | None = None,
    ) -> SteinerTreeResult:
        """Compute the Steiner tree spanning ``terminals`` in ``graph``.

        Terminals that are missing from the graph are dropped (the search
        engine may return papers outside the citation-graph snapshot);
        terminals in different components are handled by spanning the largest
        connectable group, matching the behaviour of a production system that
        must always return *some* reading path.

        Args:
            snapshot: Optional prebuilt :class:`IndexedGraph` view of
                ``graph``; built on the fly when none is supplied.  The metric
                closure runs on it.
            costs: :meth:`bind_costs` over ``snapshot``; bound per solve when
                omitted.
            blocked: Mask over ``snapshot`` (1 = not a candidate).  The solve
                then spans the subgraph induced by the candidates — the
                pipeline passes the corpus graph and snapshot with each
                query's candidate mask instead of building that subgraph.

        Raises:
            PipelineError: If no terminal is present in the (masked) graph.
        """
        present = [
            t for t in dict.fromkeys(terminals)
            if t in graph and (blocked is None or not blocked[snapshot.index[t]])
        ]
        if not present:
            raise PipelineError("no compulsory terminal is present in the subgraph")

        if snapshot is None:
            snapshot = IndexedGraph.from_graph(graph)

        edge_cost, node_cost = self._cost_functions(node_weights, edge_costs)

        try:
            return node_edge_weighted_steiner_tree(
                graph,
                present,
                edge_cost=edge_cost,
                node_cost=node_cost,
                require_all_terminals=False,
                snapshot=snapshot,
                costs=costs,
                blocked=blocked,
            )
        except DisconnectedTerminalsError as exc:  # pragma: no cover - defensive
            raise PipelineError(f"could not connect the terminal papers: {exc}") from exc
