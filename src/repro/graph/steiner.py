"""Node-edge weighted Steiner tree (KMB heuristic).

This implements Algorithm 1 of the paper — the Kou–Markowsky–Berman (KMB)
heuristic generalised to node weights:

1. build the complete distance graph (metric closure) over the compulsory
   terminals, where each pairwise distance is the shortest-path cost including
   node weights of intermediate nodes;
2. compute a minimum spanning tree of the metric closure;
3. replace every MST edge by its corresponding shortest path in the original
   graph, producing a connected subgraph;
4. compute a minimum spanning tree of that subgraph (edge weight = edge cost +
   the endpoint node weights are accounted for by the overall objective), and
   prune non-terminal leaves.

The resulting tree spans every terminal with total cost (sum of edge costs plus
node weights of every tree node) at most ``2 * (1 - 1/l)`` times the optimum,
where ``l`` is the number of terminal leaves in the optimal tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import DisconnectedTerminalsError, GraphError, NodeNotFoundError
from .citation_graph import CitationGraph
from .indexed import BoundCosts, IndexedGraph
from ..obs.trace import stage
from ..resilience.deadline import check_deadline
from ..resilience.faults import fault_point
from .kernels import indexed_metric_closure
from .mst import minimum_spanning_tree
from .shortest_paths import dijkstra

__all__ = ["SteinerTreeResult", "metric_closure", "node_edge_weighted_steiner_tree"]

EdgeCost = Callable[[str, str], float]
NodeCost = Callable[[str], float]


@dataclass(frozen=True, slots=True)
class SteinerTreeResult:
    """The tree produced by the NEWST heuristic.

    Attributes:
        nodes: All nodes of the tree (terminals plus Steiner nodes).
        edges: Undirected tree edges as ``(u, v)`` pairs.
        terminals: The compulsory terminals the tree spans.
        total_cost: Objective value: sum of edge costs plus node weights of
            every tree node (Eq. 1 of the paper).
        edge_cost_total: The edge-cost part of the objective.
        node_cost_total: The node-weight part of the objective.
    """

    nodes: frozenset[str]
    edges: tuple[tuple[str, str], ...]
    terminals: frozenset[str]
    total_cost: float
    edge_cost_total: float
    node_cost_total: float

    def __post_init__(self) -> None:
        missing = self.terminals - self.nodes
        if missing:
            raise GraphError(f"Steiner tree does not span terminals: {sorted(missing)[:5]}")

    @property
    def steiner_nodes(self) -> frozenset[str]:
        """Nodes of the tree that are not compulsory terminals."""
        return self.nodes - self.terminals

    def adjacency(self) -> dict[str, list[str]]:
        """Undirected adjacency lists of the tree."""
        adjacency: dict[str, list[str]] = {node: [] for node in self.nodes}
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        return adjacency

    def is_tree(self) -> bool:
        """Whether the result is acyclic and connected (single component)."""
        if not self.nodes:
            return True
        if len(self.edges) != len(self.nodes) - 1:
            return False
        adjacency = self.adjacency()
        seen: set[str] = set()
        stack = [next(iter(self.nodes))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(n for n in adjacency[node] if n not in seen)
        return seen == set(self.nodes)


def metric_closure(
    graph: CitationGraph,
    terminals: Sequence[str],
    edge_cost: EdgeCost | None = None,
    node_cost: NodeCost | None = None,
    snapshot: IndexedGraph | None = None,
    costs: BoundCosts | None = None,
    blocked: bytearray | None = None,
) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], list[str]]]:
    """Pairwise shortest-path distances and paths between terminals.

    Args:
        snapshot: Optional :class:`IndexedGraph` view of ``graph``.  When
            given, the closure runs on the array kernels (cost callables are
            bound to arrays once per node/edge instead of being invoked on
            every relaxation) and returns identical results.
        costs: The cost callables already bound over ``snapshot``; skips the
            per-call bind.
        blocked: Mask over ``snapshot`` (1 = absent): the closure is that of
            the subgraph induced by the unblocked nodes.

    Returns:
        ``(distances, paths)`` keyed by ordered terminal pairs ``(u, v)`` with
        ``u < v``.  Unreachable pairs are omitted.
    """
    if snapshot is not None:
        if costs is None:
            costs = snapshot.bind_costs(edge_cost, node_cost)
        return indexed_metric_closure(
            snapshot, costs, list(dict.fromkeys(terminals)), blocked
        )
    distances: dict[tuple[str, str], float] = {}
    paths: dict[tuple[str, str], list[str]] = {}
    terminal_list = list(dict.fromkeys(terminals))
    for index, source in enumerate(terminal_list):
        remaining = terminal_list[index + 1:]
        if not remaining:
            continue
        # One checkpoint per single-source pass: the closure dominates solve
        # time, so this is where an expired deadline gets noticed soonest.
        check_deadline("metric_closure")
        result = dijkstra(
            graph,
            source,
            edge_cost=edge_cost,
            node_cost=node_cost,
            undirected=True,
            targets=remaining,
        )
        for target in remaining:
            distance = result.distance_to(target)
            if distance == float("inf"):
                continue
            key = (source, target) if source < target else (target, source)
            path = result.path_to(target)
            if key[0] != source:
                path = list(reversed(path))
            distances[key] = distance
            paths[key] = path
    return distances, paths


def node_edge_weighted_steiner_tree(
    graph: CitationGraph,
    terminals: Iterable[str],
    edge_cost: EdgeCost | None = None,
    node_cost: NodeCost | None = None,
    require_all_terminals: bool = True,
    snapshot: IndexedGraph | None = None,
    costs: BoundCosts | None = None,
    blocked: bytearray | None = None,
) -> SteinerTreeResult:
    """Compute a node-edge weighted Steiner tree spanning ``terminals``.

    Args:
        graph: The (sub-)citation graph to span.
        terminals: Compulsory terminal nodes (the reallocated seed papers).
        edge_cost: Edge cost function ``c(i, j)``; defaults to 1 per edge.
        node_cost: Node weight function ``w(i)``; defaults to 0 per node.
        require_all_terminals: If True, terminals in different connected
            components raise :class:`DisconnectedTerminalsError`; if False the
            tree spans only the terminals in the largest reachable group.
        snapshot: Optional :class:`IndexedGraph` view of ``graph``; routes the
            metric closure (the dominant cost) through the array kernels.
        costs: ``edge_cost`` / ``node_cost`` already bound over ``snapshot``
            (see :meth:`IndexedGraph.bind_costs`); skips the per-solve bind.
        blocked: Mask over ``snapshot`` (1 = absent).  The tree is the one
            ``graph.subgraph`` of the unblocked nodes would give, without
            building that subgraph: the closure runs masked, and the later
            steps only touch nodes on its paths.

    Returns:
        A :class:`SteinerTreeResult`.

    Raises:
        NodeNotFoundError: If a terminal is not present in the graph.
        DisconnectedTerminalsError: If terminals cannot all be connected and
            ``require_all_terminals`` is True.
        GraphError: If no terminals are supplied.
    """
    edge_cost = edge_cost or (lambda u, v: 1.0)
    node_cost = node_cost or (lambda n: 0.0)

    terminal_list = list(dict.fromkeys(terminals))
    if not terminal_list:
        raise GraphError("Steiner tree requires at least one terminal")
    for terminal in terminal_list:
        if terminal not in graph or (
            blocked is not None and blocked[snapshot.index[terminal]]
        ):
            raise NodeNotFoundError(terminal)

    if len(terminal_list) == 1:
        only = terminal_list[0]
        node_total = node_cost(only)
        return SteinerTreeResult(
            nodes=frozenset(terminal_list),
            edges=(),
            terminals=frozenset(terminal_list),
            total_cost=node_total,
            edge_cost_total=0.0,
            node_cost_total=node_total,
        )

    # Step 1: metric closure over the terminals.
    with stage("metric_closure") as span:
        check_deadline("metric_closure")
        fault_point("metric_closure")
        distances, closure_paths = metric_closure(
            graph, terminal_list, edge_cost, node_cost, snapshot, costs, blocked
        )
        span.tag(num_terminals=len(terminal_list), num_pairs=len(distances))

    connected_terminals = _largest_connected_terminal_group(terminal_list, distances)
    if len(connected_terminals) < len(terminal_list):
        if require_all_terminals:
            missing = sorted(set(terminal_list) - connected_terminals)
            raise DisconnectedTerminalsError(
                f"{len(missing)} terminals cannot be connected, e.g. {missing[:5]}"
            )
        terminal_list = [t for t in terminal_list if t in connected_terminals]
        if len(terminal_list) == 1:
            return node_edge_weighted_steiner_tree(
                graph, terminal_list, edge_cost, node_cost
            )

    # Step 2: MST of the metric closure restricted to the connected terminals.
    closure_edges = [
        (u, v, dist)
        for (u, v), dist in distances.items()
        if u in connected_terminals and v in connected_terminals
    ]
    closure_mst = minimum_spanning_tree(terminal_list, closure_edges)

    # Step 3: expand each MST edge into its shortest path in the original graph.
    subgraph_nodes: set[str] = set(terminal_list)
    subgraph_edges: set[tuple[str, str]] = set()
    for u, v, _ in closure_mst:
        key = (u, v) if u < v else (v, u)
        path = closure_paths[key]
        subgraph_nodes.update(path)
        for a, b in zip(path, path[1:]):
            subgraph_edges.add((a, b) if a < b else (b, a))

    # Step 4: MST of the expanded subgraph, using a weight that mirrors the
    # objective (edge cost plus half the node weights of both endpoints so each
    # node weight is counted once per incident tree edge on average).
    weighted_edges = [
        (a, b, edge_cost(a, b) + 0.5 * (node_cost(a) + node_cost(b)))
        for a, b in subgraph_edges
    ]
    final_mst = minimum_spanning_tree(subgraph_nodes, weighted_edges)

    tree_nodes, tree_edges = _prune_non_terminal_leaves(
        subgraph_nodes, [(a, b) for a, b, _ in final_mst], set(terminal_list)
    )

    edge_total = sum(_undirected_edge_cost(graph, a, b, edge_cost) for a, b in tree_edges)
    node_total = sum(node_cost(node) for node in tree_nodes)
    return SteinerTreeResult(
        nodes=frozenset(tree_nodes),
        edges=tuple(sorted(tree_edges)),
        terminals=frozenset(terminal_list),
        total_cost=edge_total + node_total,
        edge_cost_total=edge_total,
        node_cost_total=node_total,
    )


def _undirected_edge_cost(
    graph: CitationGraph, a: str, b: str, edge_cost: EdgeCost
) -> float:
    """Cost of an undirected tree edge: use the direction that exists in the graph."""
    if graph.has_edge(a, b):
        return edge_cost(a, b)
    return edge_cost(b, a)


def _largest_connected_terminal_group(
    terminals: Sequence[str],
    distances: Mapping[tuple[str, str], float],
) -> set[str]:
    """Group terminals by mutual reachability and return the largest group."""
    adjacency: dict[str, set[str]] = {t: set() for t in terminals}
    for u, v in distances:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen: set[str] = set()
    best: set[str] = set()
    for terminal in terminals:
        if terminal in seen:
            continue
        group: set[str] = {terminal}
        stack = [terminal]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if neighbor not in group:
                    group.add(neighbor)
                    stack.append(neighbor)
        seen |= group
        if len(group) > len(best):
            best = group
    return best


def _prune_non_terminal_leaves(
    nodes: set[str],
    edges: list[tuple[str, str]],
    terminals: set[str],
) -> tuple[set[str], list[tuple[str, str]]]:
    """Iteratively remove leaves that are not terminals.

    The subgraph MST may contain dangling Steiner nodes that no longer help to
    connect any terminal; removing them only lowers the objective.
    """
    adjacency: dict[str, set[str]] = {node: set() for node in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    # Drop isolated non-terminal nodes that the final MST never used.
    current_nodes = {
        node for node in nodes if adjacency[node] or node in terminals
    }
    changed = True
    while changed:
        changed = False
        for node in list(current_nodes):
            if node in terminals:
                continue
            if len(adjacency[node]) <= 1:
                for neighbor in adjacency[node]:
                    adjacency[neighbor].discard(node)
                adjacency[node] = set()
                current_nodes.discard(node)
                changed = True

    remaining_edges = [
        (a, b) for a, b in edges if a in current_nodes and b in current_nodes
        and b in adjacency[a]
    ]
    return current_nodes, remaining_edges
