"""Graph-kernel latency: dict-of-dicts reference kernels vs the indexed CSR core.

The NEWST hot path (Algorithm 1) is dominated by the metric closure — one
node+edge weighted Dijkstra per terminal.  The indexed core
(:mod:`repro.graph.indexed` / :mod:`repro.graph.kernels`) snapshots the graph
into flat arrays once per corpus and prefetches both cost functions, so the
inner relaxation loop performs no attribute-dict lookups and no Python
closure calls.  This benchmark measures, on a ~1k-node synthetic corpus:

* **metric closure** — the per-query closure cost as the serving layer pays
  it (snapshot amortised across queries, costs bound per query); acceptance:
  the indexed kernel is at least ``MIN_CLOSURE_SPEEDUP``× faster *and*
  returns identical distances and paths;
* **PageRank** — the per-corpus warm-up pass, bit-identical scores.

Every measurement is written to ``benchmarks/BENCH_graph_kernels.json`` so
runs can be compared across commits.  Thresholds and sizes honour
``REPRO_BENCH_*`` environment variables (see the CI ``bench-smoke`` job).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from bench_utils import env_float, env_int, print_table

from repro.config import CorpusConfig
from repro.core.weights import WeightedGraphBuilder
from repro.corpus.generator import CorpusGenerator
from repro.graph.citation_graph import CitationGraph
from repro.graph.indexed import IndexedGraph
from repro.graph.kernels import indexed_metric_closure, indexed_pagerank
from repro.graph.pagerank import pagerank
from repro.graph.steiner import metric_closure
from repro.search.scholar import GoogleScholarEngine

#: Acceptance criterion: minimum metric-closure speedup of the indexed kernel.
MIN_CLOSURE_SPEEDUP = env_float("REPRO_BENCH_MIN_SPEEDUP", 3.0)

#: ~1k nodes with the default taxonomy (99 topics x (papers + 1 survey)).
KERNEL_PAPERS_PER_TOPIC = env_int("REPRO_BENCH_KERNEL_PAPERS_PER_TOPIC", 10)

NUM_TERMINALS = 30

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_graph_kernels.json"


def best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds for ``fn()`` (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def kernel_env():
    """Corpus, graph, cost functions and terminals for the kernel benchmarks."""
    config = CorpusConfig(
        seed=11, papers_per_topic=KERNEL_PAPERS_PER_TOPIC, surveys_per_topic=1
    )
    corpus = CorpusGenerator(config).generate()
    store = corpus.store
    graph = CitationGraph.from_papers(store.papers)
    engine = GoogleScholarEngine(store)
    terminals = [
        s for s in engine.search_ids("information retrieval", top_k=NUM_TERMINALS)
        if s in graph
    ]
    builder = WeightedGraphBuilder(store, graph)
    node_cost = builder.node_weights().as_cost_function()
    edge_cost = builder.edge_costs().as_cost_function()
    return {
        "store": store,
        "graph": graph,
        "terminals": terminals,
        "node_cost": node_cost,
        "edge_cost": edge_cost,
    }


@pytest.fixture(scope="module")
def bench_results():
    """Collected measurements, flushed to BENCH_graph_kernels.json at teardown."""
    results: dict[str, object] = {}
    yield results
    RESULTS_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {RESULTS_PATH.name}")


def test_metric_closure_speedup(kernel_env, bench_results):
    graph = kernel_env["graph"]
    terminals = kernel_env["terminals"]
    edge_cost = kernel_env["edge_cost"]
    node_cost = kernel_env["node_cost"]

    dict_seconds = best_of(
        lambda: metric_closure(graph, terminals, edge_cost, node_cost)
    )

    # The serving layer builds the snapshot once per corpus (warm-up) and pays
    # cost binding + the array search per query.
    snapshot_seconds = best_of(lambda: IndexedGraph.from_graph(graph), repeats=1)
    snapshot = IndexedGraph.from_graph(graph)
    indexed_seconds = best_of(
        lambda: indexed_metric_closure(
            snapshot, snapshot.bind_costs(edge_cost, node_cost), terminals
        )
    )

    expected = metric_closure(graph, terminals, edge_cost, node_cost)
    actual = metric_closure(graph, terminals, edge_cost, node_cost, snapshot=snapshot)
    assert actual == expected, "indexed metric closure diverged from the dict reference"

    speedup = dict_seconds / max(indexed_seconds, 1e-9)
    print_table(
        f"Graph kernels: metric closure ({graph.num_nodes} nodes, "
        f"{graph.num_edges} edges, {len(terminals)} terminals)",
        ["backend", "seconds", "speedup"],
        [
            ["dict (heap Dijkstra per terminal)", dict_seconds, 1.0],
            ["indexed (bind costs + array kernels)", indexed_seconds, speedup],
            ["indexed one-off snapshot build", snapshot_seconds, ""],
        ],
    )
    bench_results["metric_closure"] = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "terminals": len(terminals),
        "dict_seconds": dict_seconds,
        "indexed_seconds": indexed_seconds,
        "snapshot_build_seconds": snapshot_seconds,
        "speedup": speedup,
        "min_speedup": MIN_CLOSURE_SPEEDUP,
    }

    assert speedup >= MIN_CLOSURE_SPEEDUP, (
        f"indexed metric closure only {speedup:.2f}x faster "
        f"({indexed_seconds:.4f}s vs {dict_seconds:.4f}s); need "
        f">= {MIN_CLOSURE_SPEEDUP:.1f}x"
    )


def test_pagerank_speedup_and_bit_identity(kernel_env, bench_results):
    graph = kernel_env["graph"]
    snapshot = IndexedGraph.from_graph(graph)

    dict_seconds = best_of(lambda: pagerank(graph))
    indexed_seconds = best_of(lambda: indexed_pagerank(snapshot))

    expected = pagerank(graph)
    actual = indexed_pagerank(snapshot)
    assert actual == expected, "indexed PageRank is not bit-identical"

    speedup = dict_seconds / max(indexed_seconds, 1e-9)
    print_table(
        "Graph kernels: PageRank (per-corpus warm-up pass)",
        ["backend", "seconds", "speedup"],
        [
            ["dict", dict_seconds, 1.0],
            ["indexed", indexed_seconds, speedup],
        ],
    )
    bench_results["pagerank"] = {
        "dict_seconds": dict_seconds,
        "indexed_seconds": indexed_seconds,
        "speedup": speedup,
    }
    # Informational: PageRank gains are modest (the scatter loop dominates in
    # both backends); the assertion only guards against a pessimisation.
    assert speedup >= 0.8
