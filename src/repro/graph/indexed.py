"""Immutable integer-ID (CSR-style) snapshot of a :class:`CitationGraph`.

The dict-of-dicts :class:`~repro.graph.citation_graph.CitationGraph` is the
right structure for *building* a citation network — incremental inserts,
attribute dictionaries, subgraph induction — but it is a poor substrate for
the NEWST hot path: every Dijkstra relaxation pays for a ``neighbors()`` tuple
allocation, two ``has_edge`` dict probes and two Python cost-closure calls.

:class:`IndexedGraph` freezes a graph into flat parallel arrays:

* node ids are interned to dense integers (``node_ids[i]`` ↔ ``index[id] == i``)
  in the graph's insertion order, so accumulation-order-sensitive kernels
  (PageRank) reproduce the dict implementation bit for bit;
* ``sort_rank[i]`` is the rank of node ``i`` in lexicographic id order, so
  heap tie-breaking in the array Dijkstra matches the dict implementation's
  ``(distance, node_id)`` string ordering exactly;
* directed edges are numbered ``0..num_edges-1`` in CSR out-adjacency order
  (``edge_src[e] -> edge_dst[e]``);
* the undirected adjacency is one CSR block per node — successors first (in
  insertion order), then predecessors that are not also successors — with a
  parallel ``adj_edge`` array mapping every adjacency entry back to its
  directed edge, and an ``adj_forward`` flag recording whether that edge runs
  ``node -> neighbor`` (this reproduces the reversed-edge cost branch of
  :func:`~repro.graph.shortest_paths.dijkstra`);
* because successors lead each block, the directed out-adjacency of node ``i``
  is simply the first ``out_degree[i]`` entries of its undirected block.

Cost functions are *prefetched* by :meth:`IndexedGraph.bind_costs`: each cost
callable is evaluated exactly once per directed edge / node into flat float
arrays (:class:`BoundCosts`), so the kernels in :mod:`repro.graph.kernels`
never dispatch into Python closures inside the inner loop.

A snapshot is built once per corpus (see :mod:`repro.serving.warmup`) and
reused across queries.  A query's candidate set is a mask over it: the
kernels treat masked-out nodes as absent, so no per-query subgraph is built.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..errors import GraphError, NodeNotFoundError
from .citation_graph import CitationGraph

__all__ = ["BoundCosts", "IndexedGraph"]

EdgeCost = Callable[[str, str], float]
NodeCost = Callable[[str], float]


class BoundCosts:
    """Cost arrays aligned with an :class:`IndexedGraph`'s adjacency.

    Attributes:
        node: Per-node cost, indexed by node id.
        adj: Per-adjacency-entry edge cost, aligned with ``adj_nodes`` (the
            cost is that of the underlying *directed* edge, whichever way the
            entry traverses it).
    """

    __slots__ = ("node", "adj")

    def __init__(self, node: list[float], adj: list[float]) -> None:
        self.node = node
        self.adj = adj


def _assemble_adjacency(
    outgoing: list[list[tuple[int, int]]],
    incoming: list[list[tuple[int, int]]],
) -> tuple[list[int], list[int], list[int], bytearray, list[int]]:
    """Build the undirected CSR block from per-node (node, edge) pair lists.

    The block ordering — successors first, then predecessors that are not
    also successors — is load-bearing: the directed out-adjacency of a node
    must be the prefix of its undirected block (PageRank and directed Dijkstra
    rely on it).

    Returns ``(adj_offsets, adj_nodes, adj_edge, adj_forward, out_degree)``.
    """
    adj_offsets = [0]
    adj_nodes: list[int] = []
    adj_edge: list[int] = []
    adj_forward = bytearray()
    out_degree: list[int] = []
    for u in range(len(outgoing)):
        succ = outgoing[u]
        out_degree.append(len(succ))
        for v, edge in succ:
            adj_nodes.append(v)
            adj_edge.append(edge)
            adj_forward.append(1)
        successor_set = {v for v, _ in succ}
        for v, edge in incoming[u]:
            if v in successor_set:
                continue
            adj_nodes.append(v)
            adj_edge.append(edge)
            adj_forward.append(0)
        adj_offsets.append(len(adj_nodes))
    return adj_offsets, adj_nodes, adj_edge, adj_forward, out_degree


class IndexedGraph:
    """Frozen array-backed view of a :class:`CitationGraph`.

    Instances are immutable by convention: every field is filled at
    construction time and never mutated, which is what makes a single
    snapshot safe to share across serving threads without locks.
    """

    __slots__ = (
        "node_ids",
        "index",
        "sort_rank",
        "edge_src",
        "edge_dst",
        "adj_offsets",
        "adj_nodes",
        "adj_edge",
        "adj_forward",
        "out_degree",
        "_in_offsets",
        "_in_nodes",
    )

    def __init__(
        self,
        node_ids: tuple[str, ...],
        edge_src: list[int],
        edge_dst: list[int],
        adj_offsets: list[int],
        adj_nodes: list[int],
        adj_edge: list[int],
        adj_forward: bytearray,
        out_degree: list[int],
    ) -> None:
        self.node_ids = node_ids
        self.index: dict[str, int] = {nid: i for i, nid in enumerate(node_ids)}
        order = sorted(range(len(node_ids)), key=node_ids.__getitem__)
        rank = [0] * len(node_ids)
        for position, node in enumerate(order):
            rank[node] = position
        self.sort_rank = rank
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.adj_offsets = adj_offsets
        self.adj_nodes = adj_nodes
        self.adj_edge = adj_edge
        self.adj_forward = adj_forward
        self.out_degree = out_degree
        self._in_offsets: list[int] | None = None
        self._in_nodes: list[int] | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: CitationGraph) -> "IndexedGraph":
        """Snapshot a :class:`CitationGraph` (nodes in insertion order)."""
        node_ids = graph.nodes
        index = {nid: i for i, nid in enumerate(node_ids)}

        # Pass 1: number every directed edge in CSR out-adjacency order,
        # recording each node's outgoing (node, edge) pairs.
        edge_src: list[int] = []
        edge_dst: list[int] = []
        edge_of: dict[tuple[int, int], int] = {}
        outgoing: list[list[tuple[int, int]]] = [[] for _ in node_ids]
        for u, nid in enumerate(node_ids):
            for target in graph.successors(nid):
                v = index[target]
                edge = len(edge_src)
                edge_src.append(u)
                edge_dst.append(v)
                edge_of[(u, v)] = edge
                outgoing[u].append((v, edge))

        # Pass 2: incoming pairs in the dict graph's *predecessor insertion
        # order*, not ascending source index — the two only coincide for
        # source-major graphs (``from_papers``), and kernels that truncate
        # mid-scan (``indexed_k_hop`` with ``max_nodes``) must visit
        # predecessors exactly as ``CitationGraph.predecessors`` yields them.
        incoming: list[list[tuple[int, int]]] = []
        for v, nid in enumerate(node_ids):
            incoming.append(
                [
                    (index[src], edge_of[(index[src], v)])
                    for src in graph.predecessors(nid)
                ]
            )

        adj_offsets, adj_nodes, adj_edge, adj_forward, out_degree = (
            _assemble_adjacency(outgoing, incoming)
        )
        snapshot = cls(
            node_ids=node_ids,
            edge_src=edge_src,
            edge_dst=edge_dst,
            adj_offsets=adj_offsets,
            adj_nodes=adj_nodes,
            adj_edge=adj_edge,
            adj_forward=adj_forward,
            out_degree=out_degree,
        )
        snapshot._intern_in_adjacency(incoming)
        return snapshot

    # -- queries ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def __len__(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self.index

    def index_of(self, node_id: str) -> int:
        """Dense integer id of a node; raises :class:`NodeNotFoundError`."""
        try:
            return self.index[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def _intern_in_adjacency(
        self, incoming: list[list[tuple[int, int]]]
    ) -> None:
        """Freeze the in-adjacency CSR from per-node (source, edge) pair lists.

        Called by :meth:`from_graph` with pairs already in the dict graph's
        predecessor insertion order, so ``in_adjacency`` never has to guess
        that order from the edge arrays.
        """
        offsets = [0]
        sources: list[int] = []
        for pairs in incoming:
            for u, _edge in pairs:
                sources.append(u)
            offsets.append(len(sources))
        self._in_offsets = offsets
        self._in_nodes = sources

    def in_adjacency(self) -> tuple[list[int], list[int]]:
        """Directed in-adjacency as a CSR block ``(offsets, sources)``.

        The sources of node ``v`` are ``sources[offsets[v]:offsets[v + 1]]``
        in the dict graph's predecessor *insertion* order — :meth:`from_graph`
        interns the block at construction time from the same pair lists that
        feed :func:`_assemble_adjacency`, so truncating kernels see
        predecessors exactly as :meth:`CitationGraph.predecessors` yields
        them, even for graphs whose edges were added out of source-major
        order.  The lazy fallback below (ascending source index — identical
        for source-major graphs) only runs for snapshots constructed directly
        from arrays; it is deterministic, so a benign double-build under
        concurrency is safe.
        """
        if self._in_offsets is None or self._in_nodes is None:
            n = len(self.node_ids)
            counts = [0] * n
            for target in self.edge_dst:
                counts[target] += 1
            offsets = [0] * (n + 1)
            for i in range(n):
                offsets[i + 1] = offsets[i] + counts[i]
            sources = [0] * len(self.edge_src)
            cursor = offsets[:n]
            for source, target in zip(self.edge_src, self.edge_dst):
                sources[cursor[target]] = source
                cursor[target] += 1
            self._in_offsets = offsets
            self._in_nodes = sources
        return self._in_offsets, self._in_nodes

    # -- cost prefetch ---------------------------------------------------------

    def bind_costs(
        self,
        edge_cost: EdgeCost | None = None,
        node_cost: NodeCost | None = None,
    ) -> BoundCosts:
        """Evaluate cost callables once per node / directed edge into arrays.

        ``edge_cost`` defaults to 1 per edge and ``node_cost`` to 0 per node,
        matching :func:`~repro.graph.shortest_paths.dijkstra`.  Every directed
        edge is costed exactly once as ``edge_cost(src, dst)`` and the value is
        mirrored to both adjacency entries that traverse it, which reproduces
        the dict Dijkstra's reversed-edge branch (a backward traversal pays
        the cost of the underlying directed edge).

        Raises:
            GraphError: If any prefetched cost is negative.
        """
        node_ids = self.node_ids
        if node_cost is None:
            node_array = [0.0] * len(node_ids)
        else:
            node_array = [node_cost(nid) for nid in node_ids]
        if edge_cost is None:
            adj_array = [1.0] * len(self.adj_nodes)
        else:
            per_edge = [
                edge_cost(node_ids[s], node_ids[d])
                for s, d in zip(self.edge_src, self.edge_dst)
            ]
            adj_array = [per_edge[e] for e in self.adj_edge]
        if (node_array and min(node_array) < 0) or (adj_array and min(adj_array) < 0):
            raise GraphError("Dijkstra requires non-negative node and edge costs")
        return BoundCosts(node=node_array, adj=adj_array)

    # -- debugging -------------------------------------------------------------

    def degree_view(self) -> Mapping[str, tuple[int, int]]:
        """Per-node ``(out_degree, undirected_degree)`` — handy in tests."""
        offsets = self.adj_offsets
        return {
            nid: (self.out_degree[i], offsets[i + 1] - offsets[i])
            for i, nid in enumerate(self.node_ids)
        }
