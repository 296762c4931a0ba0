"""Serving-layer throughput: cache speedup and concurrent batch execution.

Table IV makes per-query runtime a first-class result; the serving layer's
job is to beat it for repeated and concurrent traffic.  This benchmark
measures, on the shared benchmark corpus:

* **cache speedup** — a repeated identical query must be served from the
  LRU+TTL cache at least 10× faster than the first (cold) execution;
* **batch throughput** — 8 overlapping queries through the thread-pool
  executor complete correctly and report queries/second plus latency
  percentiles from the metrics registry.
"""

from __future__ import annotations

import time

import pytest

from bench_utils import print_table

from repro.config import PipelineConfig
from repro.repager.service import RePaGerService
from repro.serving import (
    BatchExecutor,
    MetricsRegistry,
    QueryRequest,
    ResultCache,
    warm_up,
)

#: Speedup a cache hit must achieve over the cold pipeline run.
MIN_CACHE_SPEEDUP = 10.0

BENCH_QUERIES = (
    "pretrained language models",
    "machine learning",
    "deep learning",
    "neural networks",
)


@pytest.fixture(scope="module")
def serving_service(bench_store, bench_scholar, bench_graph, bench_venues):
    service = RePaGerService(
        bench_store,
        search_engine=bench_scholar,
        pipeline_config=PipelineConfig(num_seeds=20),
        venues=bench_venues,
        graph=bench_graph,
        cache=ResultCache(max_entries=128, ttl_seconds=600.0),
        metrics=MetricsRegistry(),
    )
    report = warm_up(service)
    print(
        f"\nwarm-up: {report.graph_nodes} nodes / {report.graph_edges} edges "
        f"in {report.elapsed_seconds:.3f}s"
    )
    return service


def _canonical(payload) -> dict:
    data = payload.to_dict()
    data["stats"] = {k: v for k, v in data["stats"].items() if k != "elapsed_seconds"}
    return data


def test_cache_speedup(serving_service):
    query = "pretrained language models"

    started = time.perf_counter()
    cold = serving_service.query(query)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = serving_service.query(query)
    warm_seconds = time.perf_counter() - started

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    print_table(
        "Serving: repeated-query cache speedup",
        ["path", "seconds", "speedup"],
        [
            ["cold (full pipeline)", cold_seconds, 1.0],
            ["warm (cache hit)", warm_seconds, speedup],
        ],
    )

    assert warm is cold  # the cached payload object itself is returned
    assert serving_service.cache.stats().hits >= 1
    # Acceptance criterion: a repeated identical query is served from cache
    # at least 10x faster than the first execution.
    assert speedup >= MIN_CACHE_SPEEDUP, (
        f"cache hit only {speedup:.1f}x faster ({warm_seconds:.6f}s vs "
        f"{cold_seconds:.6f}s)"
    )


def test_concurrent_batch_throughput(serving_service):
    requests = [QueryRequest(query, use_cache=False) for query in BENCH_QUERIES * 2]

    sequential_started = time.perf_counter()
    expected = {
        query: _canonical(serving_service.query(query, use_cache=False))
        for query in BENCH_QUERIES
    }
    sequential_seconds = time.perf_counter() - sequential_started

    with BatchExecutor.from_service(
        serving_service,
        max_workers=8,
        queue_depth=8,
        metrics=serving_service.metrics,
    ) as executor:
        batch_started = time.perf_counter()
        outcomes = executor.run_batch(requests)
        batch_seconds = time.perf_counter() - batch_started

    assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes]
    for outcome in outcomes:
        assert _canonical(outcome.payload) == expected[outcome.request.text]

    throughput = len(requests) / max(batch_seconds, 1e-9)
    latency = serving_service.metrics.histogram("pipeline_seconds")
    summary = latency.summary() if latency is not None else {}
    print_table(
        "Serving: concurrent batch execution (8 workers)",
        ["metric", "value"],
        [
            ["sequential (4 distinct queries), seconds", sequential_seconds],
            ["batch (8 overlapping queries), seconds", batch_seconds],
            ["batch throughput, queries/second", throughput],
            ["pipeline latency p50, seconds", summary.get("p50", 0.0)],
            ["pipeline latency p95, seconds", summary.get("p95", 0.0)],
            ["pipeline latency p99, seconds", summary.get("p99", 0.0)],
        ],
    )

    assert serving_service.metrics.gauge("in_flight") == 0.0
    assert serving_service.metrics.counter("executor_completed_total") >= len(requests)
