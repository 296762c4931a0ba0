"""Array-based graph kernels over :class:`~repro.graph.indexed.IndexedGraph`.

These are drop-in fast paths for the three algorithms on the NEWST hot path:

* :func:`indexed_dijkstra` — single-source shortest paths with node and edge
  costs, mirroring :func:`repro.graph.shortest_paths.dijkstra`;
* :func:`indexed_metric_closure` — batched multi-terminal metric closure,
  mirroring :func:`repro.graph.steiner.metric_closure`;
* :func:`indexed_pagerank` — power iteration, mirroring
  :func:`repro.graph.pagerank.pagerank` bit for bit;
* :func:`indexed_k_hop` — breadth-first k-hop expansion, mirroring
  :func:`repro.graph.traversal.k_hop_neighborhood` including its
  ``max_nodes`` truncation semantics.

Equivalence contract: given the same graph and cost functions, every kernel
returns *identical* results to its dict counterpart — identical distances and
predecessors (heap ties are broken by lexicographic node id through the
snapshot's ``sort_rank``, matching the dict implementation's string ordering),
and bit-identical PageRank scores (all floating-point accumulations run in the
graph's insertion order, in the same expression order).  The golden-path and
property-based equivalence suites under ``tests/`` enforce this contract.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable, Mapping, Sequence

from ..errors import GraphError, NodeNotFoundError
from ..resilience.deadline import check_deadline
from .indexed import BoundCosts, IndexedGraph
from .shortest_paths import PathResult

__all__ = [
    "indexed_dijkstra",
    "indexed_k_hop",
    "indexed_metric_closure",
    "indexed_pagerank",
]

EdgeCost = Callable[[str, str], float]
NodeCost = Callable[[str], float]

_INF = float("inf")


def _dijkstra_arrays(
    snapshot: IndexedGraph,
    costs: BoundCosts,
    source: int,
    undirected: bool,
    targets: set[int] | None,
    missing_targets: int,
    blocked: bytearray | None = None,
) -> tuple[list[float], list[int]]:
    """Core relaxation loop: returns ``(distance, predecessor)`` arrays.

    ``missing_targets`` counts requested targets absent from the snapshot;
    while it is non-zero the search can never exit early, matching the dict
    implementation (an unknown target keeps its ``remaining`` set non-empty).
    Nodes flagged in ``blocked`` start out settled, so they are never reached
    and a blocked target, like a missing one, never ends the search early.
    """
    n = snapshot.num_nodes
    dist = [_INF] * n
    pred = [-1] * n
    settled = bytearray(n) if blocked is None else bytearray(blocked)
    rank = snapshot.sort_rank
    offsets = snapshot.adj_offsets
    neighbors = snapshot.adj_nodes
    out_degree = snapshot.out_degree
    edge_cost = costs.adj
    node_cost = costs.node

    dist[source] = 0.0
    heap: list[tuple[float, int, int]] = [(0.0, rank[source], source)]
    pop = heapq.heappop
    push = heapq.heappush
    pops = 0
    while heap:
        # Cooperative deadline checkpoint: one enormous relaxation pass must
        # be sheddable *mid-solve*, not only at stage boundaries.  Every 1024
        # pops keeps the cost a bitmask test on the hot path (check_deadline
        # itself is one ContextVar read when no deadline is set).
        pops += 1
        if not pops & 1023:
            check_deadline("metric_closure_relaxation")
        distance, _, node = pop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        if targets is not None:
            targets.discard(node)
            if not targets and not missing_targets:
                break
        start = offsets[node]
        end = offsets[node + 1] if undirected else start + out_degree[node]
        through = node_cost[node] if node != source else 0.0
        for neighbor, weight in zip(neighbors[start:end], edge_cost[start:end]):
            if settled[neighbor]:
                continue
            candidate = distance + weight + through
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                pred[neighbor] = node
                push(heap, (candidate, rank[neighbor], neighbor))
    return dist, pred


def _resolve_targets(
    snapshot: IndexedGraph, targets: Iterable[str] | None
) -> tuple[set[int] | None, int]:
    if targets is None:
        return None, 0
    indices: set[int] = set()
    missing = 0
    index = snapshot.index
    for target in targets:
        position = index.get(target)
        if position is None:
            missing += 1
        else:
            indices.add(position)
    return indices, missing


def indexed_dijkstra(
    snapshot: IndexedGraph,
    source: str,
    edge_cost: EdgeCost | None = None,
    node_cost: NodeCost | None = None,
    undirected: bool = True,
    targets: Iterable[str] | None = None,
    include_endpoints: bool = False,
    costs: BoundCosts | None = None,
) -> PathResult:
    """Single-source Dijkstra on a snapshot; same contract as the dict version.

    Args:
        snapshot: The indexed graph to search.
        source: Starting node id.
        edge_cost / node_cost: Cost callables, prefetched once via
            :meth:`IndexedGraph.bind_costs` (ignored when ``costs`` is given).
        undirected: Traverse edges in either direction (the default).
        targets: Optional early-exit target set.
        include_endpoints: Add the node costs of the source and of each
            reached node to its distance (endpoints are excluded by default).
        costs: Pre-bound cost arrays; pass this when running many searches
            over the same snapshot to amortise the cost prefetch.

    Returns:
        A :class:`~repro.graph.shortest_paths.PathResult` identical to the one
        :func:`repro.graph.shortest_paths.dijkstra` would return.
    """
    if source not in snapshot.index:
        raise NodeNotFoundError(source)
    if costs is None:
        costs = snapshot.bind_costs(edge_cost, node_cost)
    target_indices, missing = _resolve_targets(snapshot, targets)
    dist, pred = _dijkstra_arrays(
        snapshot, costs, snapshot.index[source], undirected, target_indices, missing
    )
    ids = snapshot.node_ids
    source_index = snapshot.index[source]
    if include_endpoints:
        source_cost = costs.node[source_index]
        distances = {
            ids[i]: d + source_cost + (costs.node[i] if i != source_index else 0.0)
            for i, d in enumerate(dist)
            if d != _INF
        }
    else:
        distances = {ids[i]: d for i, d in enumerate(dist) if d != _INF}
    predecessors = {ids[i]: ids[p] for i, p in enumerate(pred) if p >= 0}
    return PathResult(source=source, distances=distances, predecessors=predecessors)


def indexed_k_hop(
    snapshot: IndexedGraph,
    seeds: Iterable[str],
    order: int,
    direction: str = "both",
    max_nodes: int | None = None,
) -> dict[str, int]:
    """Breadth-first k-hop expansion on a snapshot's flat adjacency arrays.

    Mirrors :func:`repro.graph.traversal.k_hop_neighborhood` — same arguments,
    same validation, same hop distances, and (crucially) the same ``max_nodes``
    truncation: the returned dict is filled in discovery order and the
    expansion stops mid-scan the moment the cap is reached.  The snapshot
    interns its predecessor lists in the dict graph's insertion order (see
    :meth:`IndexedGraph.in_adjacency`), so the *set* of kept nodes matches the
    dict implementation for every construction order, not just source-major
    :meth:`CitationGraph.from_papers` graphs.

    Returns:
        Mapping from node id to its hop distance from the nearest seed, in
        discovery order.

    Raises:
        GraphError: If ``order`` is negative or ``direction`` is invalid.
    """
    if order < 0:
        raise GraphError("expansion order must be non-negative")
    if direction not in ("out", "in", "both"):
        raise GraphError(f"invalid direction {direction!r}")

    index = snapshot.index
    ids = snapshot.node_ids
    present = [index[s] for s in seeds if s in index]
    distances = [-1] * snapshot.num_nodes
    result: dict[str, int] = {}
    for seed in present:
        if distances[seed] == -1:
            distances[seed] = 0
            result[ids[seed]] = 0
    queue: deque[int] = deque(present)

    if direction == "in":
        offsets, neighbors = snapshot.in_adjacency()
        out_degree = None
    else:
        offsets = snapshot.adj_offsets
        neighbors = snapshot.adj_nodes
        # The undirected block starts with the directed out-neighbours, so
        # "out" is simply a prefix of each node's block.
        out_degree = snapshot.out_degree if direction == "out" else None

    while queue:
        node = queue.popleft()
        depth = distances[node]
        if depth >= order:
            continue
        start = offsets[node]
        end = start + out_degree[node] if out_degree is not None else offsets[node + 1]
        for neighbor in neighbors[start:end]:
            if distances[neighbor] != -1:
                continue
            if max_nodes is not None and len(result) >= max_nodes:
                return result
            distances[neighbor] = depth + 1
            result[ids[neighbor]] = depth + 1
            queue.append(neighbor)
    return result


def indexed_metric_closure(
    snapshot: IndexedGraph,
    costs: BoundCosts,
    terminals: Sequence[str],
    blocked: bytearray | None = None,
) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], list[str]]]:
    """Batched pairwise terminal distances and paths (undirected).

    Mirrors :func:`repro.graph.steiner.metric_closure`: one early-exiting
    Dijkstra per terminal against the not-yet-paired terminals, results keyed
    by ordered pairs ``(u, v)`` with ``u < v``, unreachable pairs omitted.
    Unlike the dict version, each search runs on flat arrays and paths are
    materialised only for the terminal pairs, never for the whole graph.

    ``blocked`` (one byte per snapshot node) masks nodes out: the result is
    the closure of the subgraph induced by the unblocked nodes, computed in
    place on the whole snapshot.  A blocked terminal is absent from that
    subgraph: as a source it raises :class:`NodeNotFoundError`, as a target
    it is unreachable.
    """
    distances: dict[tuple[str, str], float] = {}
    paths: dict[tuple[str, str], list[str]] = {}
    terminal_list = list(dict.fromkeys(terminals))
    index = snapshot.index
    ids = snapshot.node_ids
    for position, source in enumerate(terminal_list):
        remaining = terminal_list[position + 1:]
        if not remaining:
            continue
        source_index = index.get(source)
        if source_index is None or (blocked is not None and blocked[source_index]):
            raise NodeNotFoundError(source)
        target_indices, missing = _resolve_targets(snapshot, remaining)
        dist, pred = _dijkstra_arrays(
            snapshot, costs, source_index, True, target_indices, missing, blocked
        )
        for target in remaining:
            target_index = index.get(target)
            if target_index is None or dist[target_index] == _INF:
                continue
            path = [ids[target_index]]
            node = target_index
            while node != source_index:
                node = pred[node]
                path.append(ids[node])
            path.reverse()  # now source -> target
            if source < target:
                key = (source, target)
            else:
                key = (target, source)
                path.reverse()
            distances[key] = dist[target_index]
            paths[key] = path
    return distances, paths


def indexed_pagerank(
    snapshot: IndexedGraph,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1.0e-9,
    personalization: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """PageRank on a snapshot, bit-identical to :func:`repro.graph.pagerank.pagerank`.

    Every floating-point accumulation (dangling mass, share scatter, the L1
    convergence test and the final normalisation) runs in the graph's node
    insertion order with the dict implementation's exact expression order, so
    both produce the same scores down to the last bit — which is what keeps
    reading-path output byte-identical to the dict reference.
    """
    n = snapshot.num_nodes
    if n == 0:
        raise GraphError("cannot compute PageRank of an empty graph")
    if not 0.0 < damping < 1.0:
        raise GraphError(f"damping must be in (0, 1), got {damping}")
    if max_iterations < 1:
        raise GraphError("max_iterations must be >= 1")

    ids = snapshot.node_ids
    if personalization is None:
        teleport = [1.0 / n] * n
    else:
        masses = [max(0.0, personalization.get(nid, 0.0)) for nid in ids]
        total = sum(masses)
        if total <= 0.0:
            raise GraphError("personalization vector has no positive mass on the graph")
        teleport = [mass / total for mass in masses]

    scores = [1.0 / n] * n
    out_degree = snapshot.out_degree
    offsets = snapshot.adj_offsets
    neighbors = snapshot.adj_nodes

    for _ in range(max_iterations):
        dangling_mass = sum(scores[i] for i in range(n) if out_degree[i] == 0)
        new_scores = [
            (1.0 - damping) * teleport[i] + damping * dangling_mass * teleport[i]
            for i in range(n)
        ]
        for i in range(n):
            degree = out_degree[i]
            if degree == 0:
                continue
            share = damping * scores[i] / degree
            start = offsets[i]
            for entry in range(start, start + degree):
                new_scores[neighbors[entry]] += share
        change = sum(abs(new_scores[i] - scores[i]) for i in range(n))
        scores = new_scores
        if change < tolerance:
            break

    normalizer = sum(scores)
    return {ids[i]: scores[i] / normalizer for i in range(n)}
