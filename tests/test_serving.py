"""Unit tests for the serving layer: cache, metrics, warm-up, executor, HTTP API."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.config import PipelineConfig, ServingConfig
from repro.errors import (
    ExecutorOverloadedError,
    QueryTimeoutError,
    ServingError,
    SnapshotMismatchError,
    UnknownFieldsError,
)
from repro.graph.citation_graph import CitationGraph
from repro.repager.app import RePaGerApp
from repro.repager.service import RePaGerService
from repro.search.scholar import GoogleScholarEngine
from repro.serving import (
    ArtifactSnapshot,
    BatchExecutor,
    LatencyHistogram,
    MetricsRegistry,
    QueryRequest,
    ResultCache,
    create_server,
    make_query_key,
    normalize_query,
    percentile,
    start_in_background,
    warm_up,
)
from repro.serving.metrics import parse_metrics_text
from serving_stubs import StubService


def canonical_payload(payload) -> dict:
    """Payload dict with the wall-clock timing stripped (run-to-run noise)."""
    data = payload.to_dict()
    data["stats"] = {k: v for k, v in data["stats"].items() if k != "elapsed_seconds"}
    return data


@pytest.fixture(scope="module")
def serving_service(store, scholar_engine, citation_graph, venues):
    service = RePaGerService(
        store,
        search_engine=scholar_engine,
        pipeline_config=PipelineConfig(num_seeds=10),
        venues=venues,
        graph=citation_graph,
        cache=ResultCache(max_entries=32, ttl_seconds=600.0),
        metrics=MetricsRegistry(),
    )
    warm_up(service)
    return service


class TestQueryKey:
    def test_normalization_collapses_case_and_whitespace(self):
        assert normalize_query("  Deep   LEARNING ") == "deep learning"

    def test_equivalent_requests_share_a_key(self):
        a = make_query_key("Deep  Learning", 2015, ("P2", "P1"), "abc")
        b = make_query_key("deep learning", 2015, ("P1", "P2", "P1"), "abc")
        assert a == b

    def test_distinct_requests_get_distinct_keys(self):
        base = make_query_key("deep learning", None, (), "abc")
        assert make_query_key("deep learning", 2015, (), "abc") != base
        assert make_query_key("deep learning", None, ("P1",), "abc") != base
        assert make_query_key("deep learning", None, (), "other") != base
        assert make_query_key("shallow learning", None, (), "abc") != base


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_entries=4, ttl_seconds=60.0)
        key = make_query_key("q", None, (), "f")
        assert cache.get(key) is None
        cache.put(key, "value")
        assert cache.get(key) == "value"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_drops_least_recently_used(self):
        cache = ResultCache(max_entries=2, ttl_seconds=60.0)
        k1, k2, k3 = (make_query_key(q, None, (), "f") for q in ("a", "b", "c"))
        cache.put(k1, 1)
        cache.put(k2, 2)
        assert cache.get(k1) == 1  # refresh k1 -> k2 becomes LRU
        cache.put(k3, 3)
        assert cache.get(k2) is None
        assert cache.get(k1) == 1
        assert cache.get(k3) == 3
        assert cache.stats().evictions == 1

    def test_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        cache = ResultCache(max_entries=4, ttl_seconds=10.0, clock=lambda: now[0])
        key = make_query_key("q", None, (), "f")
        cache.put(key, "value")
        now[0] = 9.9
        assert cache.get(key) == "value"
        now[0] = 10.1
        assert cache.get(key) is None
        assert cache.stats().expirations == 1
        assert key not in cache

    def test_put_refreshes_existing_entry(self):
        cache = ResultCache(max_entries=2, ttl_seconds=60.0)
        key = make_query_key("q", None, (), "f")
        cache.put(key, "old")
        cache.put(key, "new")
        assert len(cache) == 1
        assert cache.get(key) == "new"

    def test_clear_preserves_counters(self):
        cache = ResultCache(max_entries=2, ttl_seconds=60.0)
        key = make_query_key("q", None, (), "f")
        cache.put(key, 1)
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_clear_and_drop_namespace_count_dropped_not_evicted(self):
        """Administrative removals must reconcile in ``dropped``, leaving the
        LRU ``evictions`` counter to mean capacity pressure only."""
        cache = ResultCache(max_entries=2, ttl_seconds=60.0)
        cache.put(make_query_key("a", None, (), "f", namespace="one"), 1)
        cache.put(make_query_key("b", None, (), "f", namespace="two"), 2)
        cache.put(make_query_key("c", None, (), "f", namespace="two"), 3)  # evicts LRU
        assert cache.stats().evictions == 1

        assert cache.drop_namespace("two") == 2
        stats = cache.stats()
        assert stats.dropped == 2
        assert stats.evictions == 1  # unchanged: no capacity pressure involved
        assert stats.size == 0

        cache.put(make_query_key("d", None, (), "f"), 4)
        cache.put(make_query_key("e", None, (), "f"), 5)
        cache.clear()
        stats = cache.stats()
        assert stats.dropped == 4
        assert stats.evictions == 1
        assert stats.to_dict()["dropped"] == 4


class TestMetrics:
    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == pytest.approx(2.5)
        assert percentile([], 0.5) == 0.0

    def test_histogram_summary(self):
        histogram = LatencyHistogram(max_samples=100)
        for value in (0.1, 0.2, 0.3, 0.4, 1.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(0.4)
        assert summary["p50"] == pytest.approx(0.3)
        assert summary["max"] == pytest.approx(1.0)
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]

    def test_histogram_window_is_bounded_but_count_is_exact(self):
        histogram = LatencyHistogram(max_samples=4)
        for index in range(10):
            histogram.observe(float(index))
        assert histogram.count == 10
        assert histogram.summary()["p50"] >= 6.0  # only recent samples remain

    def test_registry_counters_gauges_and_render(self):
        registry = MetricsRegistry()
        registry.increment("queries_total", 3)
        registry.gauge_add("in_flight", 2.0)
        registry.gauge_add("in_flight", -1.0)
        registry.observe("serve_seconds", 0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["queries_total"] == 3
        assert snapshot["gauges"]["in_flight"] == 1.0
        assert snapshot["histograms"]["serve_seconds"]["count"] == 1
        text = registry.render_text(extra_gauges={"cache_hit_rate": 0.5})
        assert "repager_queries_total 3" in text
        assert "repager_cache_hit_rate 0.5" in text
        assert 'repager_serve_seconds{quantile="p95"}' in text

    def test_percentile_boundary_fractions(self):
        # A single sample answers every fraction.
        assert percentile([7.5], 0.0) == 7.5
        assert percentile([7.5], 0.5) == 7.5
        assert percentile([7.5], 1.0) == 7.5
        # Exact endpoints never interpolate past the data.
        samples = [1.0, 5.0, 9.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 9.0
        with pytest.raises(ValueError):
            percentile(samples, 1.5)
        with pytest.raises(ValueError):
            percentile(samples, -0.1)

    def test_render_text_emits_help_and_type_per_family(self):
        registry = MetricsRegistry()
        registry.increment("queries_total")
        registry.gauge_set("in_flight", 1.0)
        registry.observe("serve_seconds", 0.25)
        lines = registry.render_text().splitlines()
        assert "# HELP repager_queries_total Monotonic counter 'queries_total'." in lines
        assert "# TYPE repager_queries_total counter" in lines
        assert "# TYPE repager_in_flight gauge" in lines
        assert "# TYPE repager_serve_seconds summary" in lines
        # The non-standard windowed mean is typed as its own gauge family.
        assert "# TYPE repager_serve_seconds_mean gauge" in lines
        # HELP/TYPE precede the family's first sample line.
        type_index = lines.index("# TYPE repager_serve_seconds summary")
        sample_index = next(
            i for i, line in enumerate(lines)
            if line.startswith("repager_serve_seconds{")
        )
        assert type_index < sample_index
        # The summary exposes quantiles, _count and _sum series.
        assert any(line.startswith("repager_serve_seconds_count ") for line in lines)
        assert any(line.startswith("repager_serve_seconds_sum ") for line in lines)

    def test_parse_metrics_round_trips_render_text(self):
        registry = MetricsRegistry()
        registry.increment("queries_total", 3)
        registry.observe("serve_seconds", 0.5)
        parsed = parse_metrics_text(registry.render_text(labels={"corpus": "c1"}))
        labels = (("corpus", "c1"),)
        assert parsed["repager_queries_total"][labels] == 3.0
        assert parsed["repager_serve_seconds_count"][labels] == 1.0
        assert parsed["repager_serve_seconds_sum"][labels] == 0.5
        quantile = (("corpus", "c1"), ("quantile", "p50"))
        assert parsed["repager_serve_seconds"][quantile] == 0.5

    def test_parse_metrics_label_values_with_commas_and_quotes(self):
        registry = MetricsRegistry()
        registry.increment("queries_total", 2)
        tricky = 'corpus, "quoted" \\ and\nnewline'
        text = registry.render_text(labels={"corpus": tricky})
        # The exposition escapes the value; parsing restores it exactly.
        assert '\\"quoted\\"' in text
        assert "\\n" in text
        parsed = parse_metrics_text(text)
        assert parsed["repager_queries_total"][(("corpus", tricky),)] == 2.0

    def test_parse_metrics_quantile_label_ordering_is_canonical(self):
        # Label order in the text must not matter: keys are sorted pairs.
        text = (
            'repager_x{quantile="p50",corpus="a"} 1\n'
            'repager_x{corpus="a",quantile="p95"} 2\n'
        )
        parsed = parse_metrics_text(text)
        assert parsed["repager_x"][(("corpus", "a"), ("quantile", "p50"))] == 1.0
        assert parsed["repager_x"][(("corpus", "a"), ("quantile", "p95"))] == 2.0

    def test_parse_metrics_skips_comments_and_garbage(self):
        text = (
            "# HELP repager_a help text with spaces\n"
            "# TYPE repager_a counter\n"
            "\n"
            "repager_a 4\n"
            "repager_broken not-a-number\n"
        )
        parsed = parse_metrics_text(text)
        assert parsed == {"repager_a": {(): 4.0}}


class TestWarmup:
    def test_warm_up_report(self, serving_service):
        report = warm_up(serving_service)
        assert report.config_fingerprint == serving_service.pipeline.config_fingerprint
        assert report.graph_nodes == serving_service.graph.num_nodes
        assert report.pagerank_entries == report.graph_nodes
        assert not report.from_snapshot

    def test_warm_up_makes_first_query_cheap(self, store, scholar_engine,
                                             citation_graph, venues):
        service = RePaGerService(
            store,
            search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=10),
            venues=venues,
            graph=citation_graph,
        )
        assert not service.readiness()["node_weights_ready"]
        warm_up(service)
        assert service.readiness()["node_weights_ready"]

    def test_snapshot_roundtrip_and_restore(self, serving_service, store,
                                            scholar_engine, citation_graph,
                                            venues, tmp_path):
        snapshot = ArtifactSnapshot.capture(serving_service)
        path = tmp_path / "artifacts.json"
        snapshot.save(path)
        loaded = ArtifactSnapshot.load(path)
        assert loaded == snapshot

        fresh = RePaGerService(
            store,
            search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=10),
            venues=venues,
            graph=citation_graph,
        )
        report = warm_up(fresh, snapshot=loaded)
        assert report.from_snapshot
        expected = canonical_payload(
            serving_service.query("pretrained language models", use_cache=False)
        )
        restored = canonical_payload(
            fresh.query("pretrained language models", use_cache=False)
        )
        assert restored == expected

    def test_snapshot_restores_query_prep_indexes(self, serving_service, store,
                                                  citation_graph, venues):
        """A v2 snapshot primes the search index and the edge-relevance map,
        so a restored replica skips the corpus tokenisation pass and the
        predecessor intersections entirely."""
        snapshot = ArtifactSnapshot.capture(serving_service)
        assert snapshot.search_index is not None
        assert snapshot.edge_relevance

        fresh_engine = GoogleScholarEngine(store, venues=venues)
        fresh = RePaGerService(
            store,
            search_engine=fresh_engine,
            pipeline_config=PipelineConfig(num_seeds=10),
            venues=venues,
            graph=citation_graph,
        )
        snapshot.restore_into(fresh)
        assert fresh_engine._fitted
        assert fresh_engine._postings is not None
        # Restored as is: the pipeline shares the snapshot's map, no copy.
        assert fresh.pipeline.weight_builder._edge_relevance is snapshot.edge_relevance
        # The restored engine ranks exactly like the capture-side engine.
        assert fresh_engine.search_ids("image processing", top_k=10) == (
            serving_service.search_engine.search_ids("image processing", top_k=10)
        )

    def test_snapshot_rejects_config_drift(self, serving_service, store,
                                           scholar_engine, citation_graph, venues):
        snapshot = ArtifactSnapshot.capture(serving_service)
        drifted = RePaGerService(
            store,
            search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=11),
            venues=venues,
            graph=citation_graph,
        )
        with pytest.raises(SnapshotMismatchError):
            warm_up(drifted, snapshot=snapshot)

    def test_snapshot_rejects_corpus_mismatch(self, serving_service, store,
                                              scholar_engine, venues):
        """Same configuration, different corpus graph: the primed maps would
        miss this graph's keys, so restore must fail fast and loudly."""
        snapshot = ArtifactSnapshot.capture(serving_service)
        small_graph = CitationGraph.from_papers(list(store)[: len(store) // 2])
        other = RePaGerService(
            store,
            search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=10),
            venues=venues,
            graph=small_graph,
        )
        with pytest.raises(ServingError):
            warm_up(other, snapshot=snapshot)


class TestQueryRequest:
    def test_from_dict_roundtrip(self):
        request = QueryRequest.from_dict(
            {"query": "q", "year_cutoff": 2015, "exclude_ids": ["P1"], "use_cache": False}
        )
        assert request == QueryRequest("q", 2015, ("P1",), False)

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"query": ""},
            {"query": 42},
            {"query": "q", "year_cutoff": "2015"},
            {"query": "q", "year_cutoff": True},
            {"query": "q", "exclude_ids": "P1"},
            {"query": "q", "exclude_ids": [1]},
            {"query": "q", "use_cache": "yes"},
        ],
    )
    def test_from_dict_rejects_bad_bodies(self, body):
        with pytest.raises(ValueError):
            QueryRequest.from_dict(body)

    def test_from_dict_rejects_unknown_fields(self):
        """A typo like 'year_cutof' must 400, not silently run a wrong query."""
        with pytest.raises(UnknownFieldsError) as excinfo:
            QueryRequest.from_dict({"query": "q", "year_cutof": 2015})
        assert excinfo.value.fields == ("year_cutof",)
        assert excinfo.value.http_status == 400
        # The taxonomy error is still a ValueError for legacy call sites.
        assert isinstance(excinfo.value, ValueError)


class TestBatchExecutor:
    def test_run_batch_collects_payloads_and_errors(self):
        def handler(request: QueryRequest):
            if request.text == "boom":
                raise RuntimeError("bad query")
            return request.text.upper()

        metrics = MetricsRegistry()
        with BatchExecutor(handler, max_workers=2, metrics=metrics) as executor:
            outcomes = executor.run_batch(
                [QueryRequest("a"), QueryRequest("boom"), QueryRequest("b")]
            )
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert outcomes[0].payload == "A"
        assert "RuntimeError" in outcomes[1].error
        assert metrics.counter("executor_errors_total") == 1
        assert metrics.counter("executor_completed_total") == 2
        assert metrics.gauge("in_flight") == 0.0

    def test_run_one_error_increments_errors_total(self):
        """Regression: handler failures on the ``run_one``/HTTP path must land
        in ``executor_errors_total``, not only ``run_batch`` failures — the
        counter is reconciled against served 500s."""

        def handler(request: QueryRequest):
            raise RuntimeError("bad query")

        metrics = MetricsRegistry()
        with BatchExecutor(handler, max_workers=1, metrics=metrics) as executor:
            with pytest.raises(RuntimeError):
                executor.run_one(QueryRequest("boom"))
            assert metrics.counter("executor_errors_total") == 1
            assert metrics.counter("executor_completed_total") == 0

    def test_submit_rejects_when_queue_full(self):
        release = threading.Event()
        started = threading.Event()

        def handler(request: QueryRequest):
            started.set()
            release.wait(timeout=10)
            return request.text

        executor = BatchExecutor(handler, max_workers=1, queue_depth=1)
        try:
            first = executor.submit(QueryRequest("running"))
            assert started.wait(timeout=5)
            executor.submit(QueryRequest("queued"))
            with pytest.raises(ExecutorOverloadedError):
                executor.submit(QueryRequest("rejected"))
            release.set()
            assert first.result(timeout=5) == "running"
            # Slots free up after completion: admission works again.
            executor.submit(QueryRequest("after")).result(timeout=5)
        finally:
            release.set()
            executor.shutdown()

    def test_per_query_timeout(self):
        """``query_timeout_seconds`` becomes the request's deadline; its
        expiry answers ``QueryTimeoutError`` and counts one timeout."""
        release = threading.Event()
        app = RePaGerApp(
            config=ServingConfig(max_workers=1, query_timeout_seconds=0.05)
        )
        try:
            app.attach_service("main", StubService(gate=release), default=True)
            with pytest.raises(QueryTimeoutError):
                app.query("slow")
            assert app.metrics.counter("executor_timeouts_total") == 1
        finally:
            release.set()
            app.close()

    def test_shutdown_rejects_new_work(self):
        executor = BatchExecutor(lambda request: request.text, max_workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError):
            executor.submit(QueryRequest("late"))


class TestHttpApi:
    @pytest.fixture(scope="class")
    def server(self, serving_service):
        server = create_server(
            serving_service,
            config=ServingConfig(port=0, max_workers=2, queue_depth=4,
                                 query_timeout_seconds=60.0),
        )
        thread = start_in_background(server)
        yield server
        server.shutdown()
        server.server_close()
        server.executor.shutdown(wait=False)
        thread.join(timeout=5)

    def _get(self, server, path: str):
        with urllib.request.urlopen(server.url + path, timeout=30) as response:
            return response.status, json.loads(response.read())

    def _post(self, server, path: str, body: bytes):
        request = urllib.request.Request(
            server.url + path, data=body, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())

    def test_healthz(self, server, serving_service):
        status, body = self._get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["papers"] == len(serving_service.store)
        assert body["config_fingerprint"] == serving_service.pipeline.config_fingerprint

    def test_query_roundtrip_matches_service(self, server, serving_service):
        status, body = self._post(
            server, "/query", json.dumps({"query": "pretrained language models"}).encode()
        )
        assert status == 200
        assert body["served_in_seconds"] >= 0.0
        direct = serving_service.query("pretrained language models").to_dict()
        assert body["nodes"] == direct["nodes"]
        assert body["edges"] == direct["edges"]

    def test_paper_details_route(self, server, serving_service):
        paper_id = serving_service.store.paper_ids[0]
        status, body = self._get(server, f"/paper/{paper_id}")
        assert status == 200
        assert body["paper_id"] == paper_id

    def test_unknown_paper_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/paper/NOPE")
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/bogus")
        assert excinfo.value.code == 404

    def test_malformed_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/query", b"not json")
        assert excinfo.value.code == 400

    def test_missing_query_field_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/query", json.dumps({"nope": 1}).encode())
        assert excinfo.value.code == 400

    def test_metrics_exposition(self, server):
        self._post(server, "/query", json.dumps({"query": "machine learning"}).encode())
        with urllib.request.urlopen(server.url + "/metrics", timeout=30) as response:
            assert response.status == 200
            text = response.read().decode()
        assert "repager_queries_total" in text
        assert "repager_cache_hit_rate" in text
        assert "repager_serve_seconds" in text
