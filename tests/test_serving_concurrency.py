"""Concurrent serving equivalence: parallel queries match sequential runs.

The batch executor runs many queries at once against one shared, warmed
service.  These tests fire ≥8 overlapping queries through an 8-worker pool
and assert the payloads are byte-for-byte identical (modulo wall-clock
timing) to sequential execution — with the result cache disabled and again
with it enabled.
"""

from __future__ import annotations

import pytest

from repro.config import PipelineConfig
from repro.repager.service import RePaGerService
from repro.serving import BatchExecutor, MetricsRegistry, QueryRequest, ResultCache, warm_up

#: Four distinct topics, each issued twice -> 8 overlapping queries.
QUERIES = (
    "pretrained language models",
    "machine learning",
    "deep learning",
    "neural networks",
)


def canonical(payload) -> dict:
    data = payload.to_dict()
    data["stats"] = {k: v for k, v in data["stats"].items() if k != "elapsed_seconds"}
    return data


def build_service(store, scholar_engine, citation_graph, venues, with_cache: bool):
    service = RePaGerService(
        store,
        search_engine=scholar_engine,
        pipeline_config=PipelineConfig(num_seeds=10),
        venues=venues,
        graph=citation_graph,
        cache=ResultCache(max_entries=64, ttl_seconds=600.0) if with_cache else None,
        metrics=MetricsRegistry(),
    )
    warm_up(service)
    return service


@pytest.fixture(scope="module")
def sequential_payloads(store, scholar_engine, citation_graph, venues):
    """Ground truth: every query answered one at a time, no cache."""
    service = build_service(store, scholar_engine, citation_graph, venues, with_cache=False)
    return {query: canonical(service.query(query)) for query in QUERIES}


@pytest.mark.parametrize("with_cache", [False, True], ids=["cache-off", "cache-on"])
def test_concurrent_matches_sequential(store, scholar_engine, citation_graph, venues,
                                       sequential_payloads, with_cache):
    service = build_service(store, scholar_engine, citation_graph, venues, with_cache)
    requests = [QueryRequest(query) for query in QUERIES * 2]  # 8 overlapping queries
    with BatchExecutor.from_service(
        service, max_workers=8, queue_depth=8, metrics=service.metrics,
    ) as executor:
        outcomes = executor.run_batch(requests)

    assert len(outcomes) == 8
    assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes]
    for outcome in outcomes:
        assert canonical(outcome.payload) == sequential_payloads[outcome.request.text]

    assert service.metrics.counter("queries_total") == 8
    assert service.metrics.gauge("in_flight") == 0.0
    if with_cache:
        stats = service.cache.stats()
        # Each distinct query is computed at most once... plus races where two
        # identical queries start before either finishes; the cache still
        # guarantees ≥0 hits and full consistency.  With 8 workers and 4
        # distinct queries at least the counters must add up.
        assert stats.hits + stats.misses == 8
        assert stats.size <= len(QUERIES)


def test_repeated_query_is_served_from_cache(store, scholar_engine, citation_graph, venues):
    service = build_service(store, scholar_engine, citation_graph, venues, with_cache=True)
    first = service.query("machine learning")
    second = service.query("machine learning")
    assert second is first  # identity: the cached object is returned
    assert service.cache.stats().hits == 1
    # Bypassing the cache recomputes but yields an equivalent payload.
    recomputed = service.query("machine learning", use_cache=False)
    assert recomputed is not first
    assert canonical(recomputed) == canonical(first)


def test_cache_hit_echoes_callers_spelling(store, scholar_engine, citation_graph, venues):
    service = build_service(store, scholar_engine, citation_graph, venues, with_cache=True)
    first = service.query("Machine  Learning")
    respelled = service.query("machine learning")
    assert service.cache.stats().hits == 1  # same canonical key
    assert respelled.query == "machine learning"
    assert respelled.nodes == first.nodes


def test_mutating_a_response_does_not_corrupt_the_cache(store, scholar_engine,
                                                        citation_graph, venues):
    service = build_service(store, scholar_engine, citation_graph, venues, with_cache=True)
    tampered = service.query("machine learning").to_dict()
    original_title = tampered["nodes"][0]["title"]
    tampered["nodes"][0]["title"] = "TAMPERED"
    tampered["stats"]["tree_size"] = -1
    fresh = service.query("machine learning").to_dict()
    assert fresh["nodes"][0]["title"] == original_title
    assert fresh["stats"]["tree_size"] != -1
