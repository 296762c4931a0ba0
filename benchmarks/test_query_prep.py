"""Query-preparation latency: the dict references vs the indexed runtime path.

Everything a query does *before* the NEWST solve runs on per-corpus indexes:

* **search scoring** — the reference :func:`~repro.search.engine.scan_search`
  dots the query vector against every stored paper per query; the runtime
  path scores only papers sharing a term with the query through a per-corpus
  :class:`~repro.textproc.postings.PostingsIndex`;
* **expansion + edge costs** — the reference walks the dict graph
  breadth-first, induces the candidate subgraph and re-intersects
  predecessor sets per edge per query
  (:func:`~repro.core.weights.reference_edge_relevance`); the runtime path
  (:meth:`~repro.core.subgraph.SubgraphBuilder.build`) BFSes the CSR snapshot
  and marks the candidates with a mask over it, while the costs come from a
  per-corpus edge-relevance map.

Each measurement is written to ``benchmarks/BENCH_query_prep.json`` so runs
can be compared across commits.  Thresholds and sizes honour
``REPRO_BENCH_*`` environment variables (see the CI ``bench-smoke`` job).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from bench_utils import env_float, env_int, print_table

from repro.config import CorpusConfig
from repro.core.subgraph import SubgraphBuilder
from repro.core.weights import WeightedGraphBuilder, reference_edge_relevance
from repro.corpus.generator import CorpusGenerator
from repro.graph.citation_graph import CitationGraph
from repro.graph.indexed import IndexedGraph
from repro.search.engine import scan_search
from repro.search.scholar import GoogleScholarEngine

#: Acceptance criteria: minimum speedups of the indexed query-preparation path.
MIN_SEARCH_SPEEDUP = env_float("REPRO_BENCH_MIN_SEARCH_SPEEDUP", 3.0)
MIN_PREP_SPEEDUP = env_float("REPRO_BENCH_MIN_PREP_SPEEDUP", 2.0)

#: ~1k nodes with the default taxonomy (99 topics x (papers + 1 survey)).
QP_PAPERS_PER_TOPIC = env_int("REPRO_BENCH_KERNEL_PAPERS_PER_TOPIC", 10)

SEARCH_QUERIES = (
    "information retrieval",
    "image processing",
    "machine learning",
    "hate speech detection",
    "neural networks",
)

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_query_prep.json"


def best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds for ``fn()`` (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def qp_env():
    """Corpus, graph and a warmed engine for the query-prep benchmarks."""
    config = CorpusConfig(
        seed=11, papers_per_topic=QP_PAPERS_PER_TOPIC, surveys_per_topic=1
    )
    corpus = CorpusGenerator(config).generate()
    store = corpus.store
    graph = CitationGraph.from_papers(store.papers)
    engine = GoogleScholarEngine(store)
    # Warm the per-corpus artifacts (postings index and every document vector
    # the scan reads) so the timings below measure per-query work, the way a
    # warmed serving replica pays it.
    engine.ensure_index()
    return {"store": store, "graph": graph, "engine": engine}


@pytest.fixture(scope="module")
def bench_results():
    """Collected measurements, flushed to BENCH_query_prep.json at teardown."""
    results: dict[str, object] = {}
    yield results
    RESULTS_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {RESULTS_PATH.name}")


def test_search_scoring_speedup(qp_env, bench_results):
    engine = qp_env["engine"]
    store = qp_env["store"]
    search = {
        "dict": lambda query: scan_search(engine, query, top_k=30),
        "indexed": lambda query: engine.search(query, top_k=30),
    }

    def run(backend):
        return [search[backend](query) for query in SEARCH_QUERIES]

    assert run("indexed") == run("dict"), "postings path diverged from corpus scan"

    dict_seconds = best_of(lambda: run("dict"))
    indexed_seconds = best_of(lambda: run("indexed"))
    index_build_seconds = best_of(
        lambda: GoogleScholarEngine(store).ensure_index(), repeats=1
    )

    speedup = dict_seconds / max(indexed_seconds, 1e-9)
    print_table(
        f"Query prep: search scoring ({len(store)} papers, "
        f"{len(SEARCH_QUERIES)} queries)",
        ["backend", "seconds", "speedup"],
        [
            ["dict (score every paper)", dict_seconds, 1.0],
            ["indexed (postings index)", indexed_seconds, speedup],
            ["indexed one-off index build", index_build_seconds, ""],
        ],
    )
    bench_results["search_scoring"] = {
        "papers": len(store),
        "queries": list(SEARCH_QUERIES),
        "dict_seconds": dict_seconds,
        "indexed_seconds": indexed_seconds,
        "index_build_seconds": index_build_seconds,
        "speedup": speedup,
        "min_speedup": MIN_SEARCH_SPEEDUP,
    }
    assert speedup >= MIN_SEARCH_SPEEDUP, (
        f"postings search only {speedup:.2f}x faster "
        f"({indexed_seconds:.4f}s vs {dict_seconds:.4f}s); need "
        f">= {MIN_SEARCH_SPEEDUP:.1f}x"
    )


def test_expansion_and_edge_costs_speedup(qp_env, bench_results):
    store = qp_env["store"]
    graph = qp_env["graph"]
    seeds = qp_env["engine"].search_ids("information retrieval", top_k=30)

    snapshot = IndexedGraph.from_graph(graph)
    builder = WeightedGraphBuilder(store, graph)
    dict_expander = SubgraphBuilder(graph, expansion_order=2, max_nodes=4000)
    indexed_builder = SubgraphBuilder(
        graph, expansion_order=2, max_nodes=4000, snapshot=snapshot
    )
    # Per-corpus warm-up (amortised across queries, measured separately).
    relevance_build_seconds = best_of(lambda: builder.edge_relevance(), repeats=1)

    def run_dict():
        candidates = dict_expander.expand(seeds)
        subgraph = graph.subgraph(candidates)
        return candidates, subgraph, reference_edge_relevance(graph, candidates)

    dict_candidates, subgraph, dict_relevance = run_dict()
    candidates = indexed_builder.build(seeds)
    assert candidates.hops == dict_candidates, "expansion diverged"
    assert candidates.num_edges == subgraph.num_edges, "candidate edge count diverged"
    unblocked = {
        nid for nid, absent in zip(snapshot.node_ids, candidates.blocked) if not absent
    }
    assert unblocked == set(subgraph.nodes), "candidate mask diverged"
    corpus_relevance = builder.edge_relevance()
    assert {
        key: corpus_relevance[key] for key in dict_relevance
    } == dict_relevance, "edge relevance diverged"

    dict_seconds = best_of(run_dict)
    indexed_seconds = best_of(lambda: indexed_builder.build(seeds))

    speedup = dict_seconds / max(indexed_seconds, 1e-9)
    print_table(
        f"Query prep: expansion + edge costs ({graph.num_nodes} nodes, "
        f"{graph.num_edges} edges, {len(dict_candidates)} candidates)",
        ["backend", "seconds", "speedup"],
        [
            ["dict (BFS + induce + per-edge intersections)", dict_seconds, 1.0],
            ["indexed (CSR BFS + candidate mask)", indexed_seconds, speedup],
            ["indexed one-off relevance build", relevance_build_seconds, ""],
        ],
    )
    bench_results["expansion_edge_costs"] = {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "candidates": len(dict_candidates),
        "dict_seconds": dict_seconds,
        "indexed_seconds": indexed_seconds,
        "relevance_build_seconds": relevance_build_seconds,
        "speedup": speedup,
        "min_speedup": MIN_PREP_SPEEDUP,
    }
    assert speedup >= MIN_PREP_SPEEDUP, (
        f"indexed expansion+edge-costs only {speedup:.2f}x faster "
        f"({indexed_seconds:.4f}s vs {dict_seconds:.4f}s); need "
        f">= {MIN_PREP_SPEEDUP:.1f}x"
    )
