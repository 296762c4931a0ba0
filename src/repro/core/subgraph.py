"""Sub-citation graph construction (Sec. IV-A step 3).

Starting from the initial seed papers, the pipeline captures their first- and
second-order citation neighbours (in both directions — papers they cite and
papers citing them); the Steiner tree spans the subgraph of the weighted
citation graph that these candidates induce.  The expansion respects an
optional publication-year cutoff so that papers newer than the survey being
evaluated never enter the candidate pool, and a size cap that keeps the
Steiner solver tractable (nodes closest to the seeds are kept first,
mirroring the paper's observation that most ground truth papers live within
two hops).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from ..errors import PipelineError
from ..graph.citation_graph import CitationGraph
from ..graph.indexed import IndexedGraph
from ..graph.kernels import indexed_k_hop
from ..graph.traversal import k_hop_neighborhood

__all__ = ["Candidates", "SubgraphBuilder"]


class Candidates(NamedTuple):
    """One query's candidate subgraph, as a view of the corpus snapshot.

    Attributes:
        hops: Candidate paper id -> hop distance from the nearest seed, in
            discovery order.
        blocked: One byte per snapshot node, 1 for every node that is *not*
            a candidate (the mask the Steiner solve runs under).
        num_edges: Citation edges with both endpoints among the candidates.
    """

    hops: dict[str, int]
    blocked: bytearray
    num_edges: int


class SubgraphBuilder:
    """Expand seeds into the candidate subgraph.

    When a per-corpus :class:`IndexedGraph` snapshot of ``graph`` is supplied,
    the breadth-first expansion runs on the snapshot's flat adjacency arrays
    (:func:`~repro.graph.kernels.indexed_k_hop`) instead of walking the dict
    graph, with identical candidates and hop distances; year filtering still
    reads the dict graph, which owns the node attributes.
    """

    def __init__(
        self,
        graph: CitationGraph,
        expansion_order: int = 2,
        max_nodes: int = 4000,
        snapshot: IndexedGraph | None = None,
    ) -> None:
        if expansion_order < 1:
            raise PipelineError("expansion_order must be >= 1")
        if max_nodes < 1:
            raise PipelineError("max_nodes must be >= 1")
        self.graph = graph
        self.expansion_order = expansion_order
        self.max_nodes = max_nodes
        self.snapshot = snapshot

    def expand(
        self,
        seeds: Sequence[str],
        year_cutoff: int | None = None,
        exclude_ids: Iterable[str] = (),
    ) -> dict[str, int]:
        """Return candidate papers with their hop distance from the seeds.

        Args:
            seeds: Initial seed paper ids (hop 0).  Seeds missing from the
                citation graph are skipped.
            year_cutoff: Drop candidates published after this year (seeds are
                never dropped — the search already applied the cutoff).
            exclude_ids: Papers to drop regardless (e.g. the survey itself).

        Raises:
            PipelineError: If no seed is present in the citation graph.
        """
        present = [s for s in seeds if s in self.graph]
        if not present:
            raise PipelineError("none of the seed papers exist in the citation graph")

        if self.snapshot is not None:
            distances = indexed_k_hop(
                self.snapshot,
                present,
                order=self.expansion_order,
                direction="both",
                max_nodes=self.max_nodes * 3,
            )
        else:
            distances = k_hop_neighborhood(
                self.graph,
                present,
                order=self.expansion_order,
                direction="both",
                max_nodes=self.max_nodes * 3,
            )
        excluded = set(exclude_ids)
        candidates: dict[str, int] = {}
        for node, distance in distances.items():
            if node in excluded:
                continue
            if (
                year_cutoff is not None
                and distance > 0
                and self.graph.get_node_attr(node, "year", 0) > year_cutoff
            ):
                continue
            candidates[node] = distance

        if len(candidates) > self.max_nodes:
            # Keep the nodes closest to the seeds; ties broken by id for determinism.
            kept = sorted(candidates.items(), key=lambda item: (item[1], item[0]))
            candidates = dict(kept[: self.max_nodes])
            for seed in present:
                candidates.setdefault(seed, 0)
        return candidates

    def build(
        self,
        seeds: Sequence[str],
        year_cutoff: int | None = None,
        exclude_ids: Iterable[str] = (),
    ) -> Candidates:
        """Expand, then mark the candidates on the snapshot.

        Nothing is copied out of the corpus graph: the candidate subgraph is
        the snapshot under the returned mask.

        Raises:
            PipelineError: If no seed is present in the citation graph, the
                expansion keeps no candidate, or the builder has no snapshot.
        """
        snapshot = self.snapshot
        if snapshot is None:
            raise PipelineError("building the candidate mask needs the corpus snapshot")
        hops = self.expand(seeds, year_cutoff=year_cutoff, exclude_ids=exclude_ids)
        if not hops:
            raise PipelineError("candidate expansion produced an empty subgraph")
        index = snapshot.index
        positions = [index[node] for node in hops]
        blocked = bytearray(b"\x01") * snapshot.num_nodes
        for i in positions:
            blocked[i] = 0
        offsets = snapshot.adj_offsets
        neighbors = snapshot.adj_nodes
        out_degree = snapshot.out_degree
        num_edges = 0
        for i in positions:
            start = offsets[i]
            cited = neighbors[start:start + out_degree[i]]
            num_edges += len(cited) - sum(map(blocked.__getitem__, cited))
        return Candidates(hops, blocked, num_edges)
