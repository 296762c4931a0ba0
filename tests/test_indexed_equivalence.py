"""Randomized equivalence: indexed (CSR) backend vs the dict-of-dicts backend.

The indexed graph core (:mod:`repro.graph.indexed` / :mod:`repro.graph.kernels`)
promises *identical* results to the dict implementations — same distances and
predecessors from Dijkstra (heap ties included), same metric closure, same
Steiner trees, bit-identical PageRank — and a closure run under a candidate
mask equals the dict closure on the subgraph the candidates induce.  These
tests enforce that promise on seeded random graphs sweeping density, weight
regimes (including the tie-heavy unit-cost case) and disconnected components,
so future kernel rewrites cannot silently drift.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.citation_graph import CitationGraph
from repro.graph.indexed import IndexedGraph
from repro.graph.kernels import indexed_dijkstra, indexed_k_hop, indexed_pagerank
from repro.graph.pagerank import pagerank
from repro.graph.shortest_paths import dijkstra
from repro.graph.steiner import metric_closure, node_edge_weighted_steiner_tree
from repro.graph.traversal import k_hop_neighborhood

# Each case: (seed, num_nodes, edge_factor, weighted, components)
#   edge_factor: average out-degree of the random graph
#   weighted:    False -> unit edge costs / zero node costs (maximally tie-heavy)
#   components:  number of disjoint clusters the nodes are split into
CASES = [
    (1, 12, 1.2, False, 1),
    (2, 20, 2.5, True, 1),
    (3, 30, 4.0, True, 1),
    (4, 25, 1.5, False, 3),
    (5, 40, 3.0, True, 2),
    (6, 8, 0.8, True, 2),
    (7, 35, 5.0, False, 1),
    (8, 50, 2.0, True, 4),
]


def make_random_case(seed: int, num_nodes: int, edge_factor: float,
                     weighted: bool, components: int):
    """A seeded random directed graph plus matching cost functions.

    Node ids are inserted in shuffled order so that insertion order and
    lexicographic order disagree — the regime where heap tie-breaking between
    the two backends could diverge if the snapshot's ``sort_rank`` were wrong.
    """
    rng = random.Random(seed)
    names = [f"N{i:03d}" for i in range(num_nodes)]
    insertion = names[:]
    rng.shuffle(insertion)
    graph = CitationGraph()
    for name in insertion:
        graph.add_node(name)

    # Split nodes into disjoint clusters; edges only ever stay in-cluster.
    clusters: list[list[str]] = [[] for _ in range(components)]
    for position, name in enumerate(names):
        clusters[position % components].append(name)

    edge_costs: dict[tuple[str, str], float] = {}
    node_costs: dict[str, float] = {}
    for cluster in clusters:
        target_edges = max(1, int(len(cluster) * edge_factor))
        for _ in range(target_edges):
            source, target = rng.sample(cluster, 2) if len(cluster) >= 2 else (None, None)
            if source is None:
                continue
            graph.add_edge(source, target)
            if (source, target) not in edge_costs:
                edge_costs[(source, target)] = (
                    round(rng.uniform(0.1, 5.0), 3) if weighted else 1.0
                )
    for name in names:
        node_costs[name] = round(rng.uniform(0.0, 2.0), 3) if weighted else 0.0

    def edge_cost(u: str, v: str) -> float:
        return edge_costs.get((u, v), 1.0)

    def node_cost(n: str) -> float:
        return node_costs[n]

    return graph, edge_cost, node_cost, rng


@pytest.mark.parametrize("seed,n,factor,weighted,components", CASES)
def test_dijkstra_equivalence(seed, n, factor, weighted, components):
    graph, edge_cost, node_cost, rng = make_random_case(seed, n, factor, weighted, components)
    snapshot = IndexedGraph.from_graph(graph)
    sources = rng.sample(sorted(graph.nodes), min(5, len(graph)))
    for source in sources:
        for undirected in (True, False):
            expected = dijkstra(
                graph, source, edge_cost, node_cost, undirected=undirected
            )
            actual = indexed_dijkstra(
                snapshot, source, edge_cost, node_cost, undirected=undirected
            )
            assert dict(actual.distances) == dict(expected.distances)
            assert dict(actual.predecessors) == dict(expected.predecessors)


@pytest.mark.parametrize("seed,n,factor,weighted,components", CASES)
def test_dijkstra_targets_and_endpoints_equivalence(seed, n, factor, weighted, components):
    graph, edge_cost, node_cost, rng = make_random_case(seed, n, factor, weighted, components)
    snapshot = IndexedGraph.from_graph(graph)
    nodes = sorted(graph.nodes)
    source = rng.choice(nodes)
    targets = rng.sample(nodes, min(4, len(nodes))) + ["MISSING-TARGET"]
    for include_endpoints in (False, True):
        expected = dijkstra(
            graph, source, edge_cost, node_cost,
            targets=targets, include_endpoints=include_endpoints,
        )
        actual = indexed_dijkstra(
            snapshot, source, edge_cost, node_cost,
            targets=targets, include_endpoints=include_endpoints,
        )
        assert dict(actual.distances) == dict(expected.distances)
        assert dict(actual.predecessors) == dict(expected.predecessors)


@pytest.mark.parametrize("seed,n,factor,weighted,components", CASES)
def test_metric_closure_equivalence(seed, n, factor, weighted, components):
    graph, edge_cost, node_cost, rng = make_random_case(seed, n, factor, weighted, components)
    snapshot = IndexedGraph.from_graph(graph)
    terminals = rng.sample(sorted(graph.nodes), min(7, len(graph)))
    expected_dist, expected_paths = metric_closure(graph, terminals, edge_cost, node_cost)
    actual_dist, actual_paths = metric_closure(
        graph, terminals, edge_cost, node_cost, snapshot=snapshot
    )
    assert actual_dist == expected_dist
    assert actual_paths == expected_paths


@pytest.mark.parametrize("seed,n,factor,weighted,components", CASES)
def test_steiner_tree_equivalence(seed, n, factor, weighted, components):
    graph, edge_cost, node_cost, rng = make_random_case(seed, n, factor, weighted, components)
    snapshot = IndexedGraph.from_graph(graph)
    terminals = rng.sample(sorted(graph.nodes), min(6, len(graph)))
    expected = node_edge_weighted_steiner_tree(
        graph, terminals, edge_cost, node_cost, require_all_terminals=False
    )
    actual = node_edge_weighted_steiner_tree(
        graph, terminals, edge_cost, node_cost,
        require_all_terminals=False, snapshot=snapshot,
    )
    assert actual.nodes == expected.nodes
    assert actual.edges == expected.edges
    assert actual.terminals == expected.terminals
    assert actual.total_cost == pytest.approx(expected.total_cost, abs=1e-9)
    assert actual.edge_cost_total == pytest.approx(expected.edge_cost_total, abs=1e-9)
    assert actual.node_cost_total == pytest.approx(expected.node_cost_total, abs=1e-9)


@pytest.mark.parametrize("seed,n,factor,weighted,components", CASES)
def test_pagerank_equivalence_bit_identical(seed, n, factor, weighted, components):
    graph, _, _, _ = make_random_case(seed, n, factor, weighted, components)
    snapshot = IndexedGraph.from_graph(graph)
    expected = pagerank(graph)
    actual = indexed_pagerank(snapshot)
    assert set(actual) == set(expected)
    for node, score in expected.items():
        # Bit-identical by design: every accumulation runs in insertion order.
        assert actual[node] == score


def test_pagerank_personalization_equivalence():
    graph, _, _, rng = make_random_case(9, 30, 3.0, True, 1)
    snapshot = IndexedGraph.from_graph(graph)
    nodes = sorted(graph.nodes)
    personalization = {node: rng.random() for node in rng.sample(nodes, 10)}
    expected = pagerank(graph, personalization=personalization)
    actual = indexed_pagerank(snapshot, personalization=personalization)
    for node, score in expected.items():
        assert actual[node] == score


@pytest.mark.parametrize("seed,n,factor,weighted,components", CASES)
def test_k_hop_truncation_equivalence(seed, n, factor, weighted, components):
    """``max_nodes`` truncation keeps the same node *dict* as the reference.

    The random graphs insert edges in shuffled order (not source-major), so
    this exercises the interned predecessor-order array: a snapshot whose
    in-adjacency followed ascending source index instead of insertion order
    would truncate a different prefix for directions ``in`` and ``both``.
    """
    graph, _, _, rng = make_random_case(seed, n, factor, weighted, components)
    snapshot = IndexedGraph.from_graph(graph)
    nodes = sorted(graph.nodes)
    seeds = rng.sample(nodes, min(3, len(nodes)))
    for direction in ("out", "in", "both"):
        for order in (1, 2, 3):
            full = k_hop_neighborhood(graph, seeds, order, direction=direction)
            for max_nodes in (None, 1, len(full) // 2 or 1, len(full)):
                expected = k_hop_neighborhood(
                    graph, seeds, order, direction=direction, max_nodes=max_nodes
                )
                actual = indexed_k_hop(
                    snapshot, seeds, order, direction=direction, max_nodes=max_nodes
                )
                assert actual == expected


def make_out_of_order_graph() -> CitationGraph:
    """A star whose edges were added target-first, not in source-major order."""
    graph = CitationGraph()
    for name in ("HUB", "Z", "M", "A", "Q"):
        graph.add_node(name)
    # Predecessors of HUB in insertion order: Z, M, A, Q — the reverse of
    # ascending source index (A, M, Q, Z after interning sorted node ids).
    graph.add_edge("Z", "HUB")
    graph.add_edge("M", "HUB")
    graph.add_edge("A", "HUB")
    graph.add_edge("Q", "HUB")
    return graph


def test_k_hop_truncation_with_out_of_order_edges():
    """Regression: edges added target-first must truncate like the dict graph.

    Before the predecessor-order array was interned, the snapshot's lazy
    in-adjacency followed ascending source index, so a graph built in
    non-source-major order truncated a different node set once ``max_nodes``
    bit mid-scan.
    """
    graph = make_out_of_order_graph()
    snapshot = IndexedGraph.from_graph(graph)
    for direction in ("in", "both"):
        for cap in (2, 3):
            expected = k_hop_neighborhood(
                graph, ["HUB"], 1, direction=direction, max_nodes=cap
            )
            actual = indexed_k_hop(
                snapshot, ["HUB"], 1, direction=direction, max_nodes=cap
            )
            assert actual == expected
            assert list(actual) == list(expected)


def masked_cases(graph: CitationGraph, rng: random.Random):
    """Seeded ``(candidates, terminals)`` draws, terminals inside the candidates.

    Three random candidate sets of shrinking size, then one that drops every
    neighbour of a terminal — its bridges to the rest of the graph — so that
    terminal pairs reachable in the whole graph become unreachable.
    """
    nodes = sorted(graph.nodes)
    for fraction in (0.8, 0.6, 0.4):
        kept = rng.sample(nodes, max(2, round(len(nodes) * fraction)))
        yield kept, rng.sample(kept, min(6, len(kept)))
    lone = rng.choice([node for node in nodes if graph.degree(node)])
    bridges = set(graph.neighbors(lone))
    kept = [node for node in nodes if node not in bridges]
    others = [node for node in kept if node != lone]
    yield kept, [lone, *rng.sample(others, min(5, len(others)))]


def check_masked_solve(graph, edge_cost, node_cost, rng) -> int:
    """Assert the masked solve on the whole snapshot equals the dict solve on
    the induced subgraph: distances, paths, tree nodes and tree edges.

    The costs are bound once over the whole graph, as the pipeline binds them
    over the corpus.  Returns how many terminal pairs the masks cut off
    (reachable in the whole graph, unreachable among the candidates).
    """
    snapshot = IndexedGraph.from_graph(graph)
    costs = snapshot.bind_costs(edge_cost, node_cost)
    cut = 0
    for kept, terminals in masked_cases(graph, rng):
        kept_set = set(kept)
        blocked = bytearray(node not in kept_set for node in snapshot.node_ids)
        induced = graph.subgraph(kept)
        masked = {"snapshot": snapshot, "costs": costs, "blocked": blocked}
        expected = metric_closure(induced, terminals, edge_cost, node_cost)
        assert metric_closure(graph, terminals, edge_cost, node_cost, **masked) == expected
        whole, _ = metric_closure(graph, terminals, edge_cost, node_cost)
        cut += len(whole.keys() - expected[0].keys())

        expected_tree = node_edge_weighted_steiner_tree(
            induced, terminals, edge_cost, node_cost, require_all_terminals=False
        )
        actual_tree = node_edge_weighted_steiner_tree(
            graph, terminals, edge_cost, node_cost, require_all_terminals=False, **masked
        )
        assert actual_tree.nodes == expected_tree.nodes
        assert actual_tree.edges == expected_tree.edges
        assert actual_tree.terminals == expected_tree.terminals
    return cut


@pytest.mark.parametrize("seed,n,factor,weighted,components", CASES)
def test_masked_solve_matches_induced_subgraph(seed, n, factor, weighted, components):
    graph, edge_cost, node_cost, rng = make_random_case(seed, n, factor, weighted, components)
    assert check_masked_solve(graph, edge_cost, node_cost, rng) > 0, "no terminal pair cut"


def test_induced_snapshot_matches_from_graph_of_subgraph():
    """A candidate mask over the parent snapshot stands in for the induced
    subgraph, also on the out-of-order-edges star, whose hub is the only
    bridge between any two of its leaves."""
    graph, edge_cost, node_cost, rng = make_random_case(10, 40, 3.0, True, 1)
    assert check_masked_solve(graph, edge_cost, node_cost, rng) > 0
    assert check_masked_solve(make_out_of_order_graph(), None, None, random.Random(10)) > 0
