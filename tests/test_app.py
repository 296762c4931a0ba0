"""Unit tests for the multi-tenant application layer (:mod:`repro.repager.app`).

Covers the typed request/response contract (:class:`QueryOptions` /
:class:`QueryResponse`), the corpus registry (attach/detach/default), the
machine-readable error taxonomy shared by every entry point, and per-request
pipeline-variant overrides.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.config import PipelineConfig, ServingConfig, TenantOverrides
from repro.core import weights as weights_module
from repro.core.pipeline import VARIANT_CONFIGS, make_variant_config
from repro.core.weights import WeightedGraphBuilder
from repro.errors import (
    CorpusNotFoundError,
    DuplicateCorpusError,
    RequestValidationError,
    UnknownFieldsError,
    UnknownVariantError,
    error_payload,
)
from repro.graph.indexed import IndexedGraph
from repro.repager.app import (
    CorpusRegistry,
    QueryOptions,
    QueryResponse,
    RePaGerApp,
    normalize_variant,
)
from repro.repager.service import RePaGerService
from repro.serving import ResultCache, warm_up, warm_up_registry


def canonical(payload) -> dict:
    data = payload.to_dict()
    data["stats"] = {k: v for k, v in data["stats"].items() if k != "elapsed_seconds"}
    return data


@pytest.fixture(scope="module")
def app(store, scholar_engine, citation_graph, venues):
    app = RePaGerApp(
        config=ServingConfig(port=0, max_workers=4, query_timeout_seconds=120.0),
        pipeline_config=PipelineConfig(num_seeds=10),
    )
    service = RePaGerService(
        store,
        search_engine=scholar_engine,
        pipeline_config=PipelineConfig(num_seeds=10),
        venues=venues,
        graph=citation_graph,
    )
    app.attach_service("main", service, default=True)
    warm_up_registry(app.registry)
    yield app
    app.close(wait=False)


class TestQueryOptions:
    def test_from_dict_roundtrip(self):
        options = QueryOptions.from_dict(
            {
                "query": "q",
                "year_cutoff": 2015,
                "exclude_ids": ["P1"],
                "use_cache": False,
                "variant": "newst-w",
            }
        )
        assert options == QueryOptions("q", 2015, ("P1",), "NEWST-W", False)

    def test_unknown_fields_rejected_and_listed(self):
        with pytest.raises(UnknownFieldsError) as excinfo:
            QueryOptions.from_dict({"query": "q", "year_cutof": 2015, "bogus": 1})
        assert excinfo.value.fields == ("bogus", "year_cutof")
        assert excinfo.value.code == "unknown_fields"
        assert excinfo.value.http_status == 400
        assert "year_cutof" in str(excinfo.value)

    def test_unknown_variant_rejected(self):
        with pytest.raises(UnknownVariantError) as excinfo:
            QueryOptions.from_dict({"query": "q", "variant": "NEWST-Z"})
        assert excinfo.value.code == "unknown_variant"
        assert "NEWST-W" in str(excinfo.value)

    def test_variant_is_case_insensitive(self):
        for name in VARIANT_CONFIGS:
            assert normalize_variant(name.lower()) == name

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"query": ""},
            {"query": 42},
            {"query": "q", "variant": 7},
            {"query": "q", "year_cutoff": "2015"},
            {"query": "q", "use_cache": "yes"},
        ],
    )
    def test_bad_bodies_raise_validation_errors(self, body):
        with pytest.raises(RequestValidationError):
            QueryOptions.from_dict(body)


class TestErrorTaxonomy:
    def test_every_payload_carries_a_stable_code(self):
        payload = error_payload(CorpusNotFoundError("nope", ("a",)))
        assert payload["code"] == "corpus_not_found"
        assert payload["error"] == payload["code"]
        assert payload["http_status"] == 404
        assert "nope" in payload["detail"]

    def test_plain_exceptions_map_to_internal(self):
        payload = error_payload(RuntimeError("boom"))
        assert payload["code"] == "internal"
        assert payload["http_status"] == 500
        assert "RuntimeError" in payload["detail"]

    def test_bare_value_errors_are_internal_failures(self):
        """Client-caused validation problems are always RequestValidationError;
        a bare ValueError can only come from inside the pipeline and must
        surface as a 500, not blame the client."""
        payload = error_payload(ValueError("nope"))
        assert (payload["code"], payload["http_status"]) == ("internal", 500)

    def test_request_validation_errors_stay_400(self):
        payload = error_payload(RequestValidationError("bad field"))
        assert (payload["code"], payload["http_status"]) == ("bad_request", 400)


class TestCorpusRegistry:
    def _service(self, store, scholar_engine, citation_graph, venues):
        return RePaGerService(
            store,
            search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=10),
            venues=venues,
            graph=citation_graph,
        )

    def test_first_attach_becomes_default(self, store, scholar_engine,
                                          citation_graph, venues):
        registry = CorpusRegistry()
        service = self._service(store, scholar_engine, citation_graph, venues)
        registry.attach("a", service)
        registry.attach("b", service)
        assert registry.default_name == "a"
        assert registry.names() == ("a", "b")
        assert registry.resolve(None).name == "a"
        registry.set_default("b")
        assert registry.resolve(None).name == "b"

    def test_duplicate_attach_rejected(self, store, scholar_engine,
                                       citation_graph, venues):
        registry = CorpusRegistry()
        service = self._service(store, scholar_engine, citation_graph, venues)
        registry.attach("a", service)
        with pytest.raises(DuplicateCorpusError):
            registry.attach("a", service)

    def test_invalid_names_rejected(self, store, scholar_engine,
                                    citation_graph, venues):
        registry = CorpusRegistry()
        service = self._service(store, scholar_engine, citation_graph, venues)
        for bad in ("", "has space", "a/b", ".hidden", "x" * 65):
            with pytest.raises(RequestValidationError):
                registry.attach(bad, service)

    def test_detaching_the_default_clears_it_rather_than_reassigning(
            self, store, scholar_engine, citation_graph, venues):
        """Legacy routes must never silently switch to a different corpus:
        after the default tenant is detached there IS no default until an
        operator picks one."""
        registry = CorpusRegistry()
        service = self._service(store, scholar_engine, citation_graph, venues)
        registry.attach("a", service)
        registry.attach("b", service)
        registry.detach("a")
        assert registry.default_name is None
        with pytest.raises(CorpusNotFoundError):
            registry.default()
        with pytest.raises(CorpusNotFoundError) as excinfo:
            registry.get("a")
        assert excinfo.value.attached == ("b",)
        registry.set_default("b")
        assert registry.resolve(None).name == "b"
        # A fresh attach while no default exists becomes the default again.
        registry.detach("b")
        registry.attach("c", service)
        assert registry.default_name == "c"


class TestRePaGerApp:
    def test_query_response_metadata(self, app):
        response = app.query("pretrained language models")
        assert isinstance(response, QueryResponse)
        assert response.corpus == "main"
        assert response.variant == "default"
        assert response.served_in_seconds > 0.0
        assert response.config_fingerprint
        body = response.to_dict()
        assert set(body) == {"payload", "serving"}
        assert body["serving"]["corpus"] == "main"

    def test_legacy_dict_matches_service_payload(self, app):
        response = app.query("pretrained language models", corpus="main")
        direct = app.registry.get("main").service.query("pretrained language models")
        legacy = response.to_legacy_dict()
        served = legacy.pop("served_in_seconds")
        assert served >= 0.0
        legacy["stats"] = {
            k: v for k, v in legacy["stats"].items() if k != "elapsed_seconds"
        }
        assert legacy == canonical(direct)

    def test_string_and_mapping_inputs(self, app):
        by_string = app.query("machine learning")
        by_mapping = app.query({"query": "machine learning"})
        assert canonical(by_string.payload) == canonical(by_mapping.payload)

    def test_unknown_corpus_raises_taxonomy_error(self, app):
        with pytest.raises(CorpusNotFoundError) as excinfo:
            app.query("q", corpus="nope")
        assert excinfo.value.http_status == 404

    def test_variant_override_matches_dedicated_service(self, app, store,
                                                        scholar_engine,
                                                        citation_graph, venues):
        """A per-request NEWST-W override returns byte-identical output to a
        service configured with the NEWST-W pipeline from scratch."""
        response = app.query(
            {"query": "image processing", "variant": "NEWST-W", "use_cache": False}
        )
        assert response.variant == "NEWST-W"
        dedicated = RePaGerService(
            store,
            search_engine=scholar_engine,
            pipeline_config=make_variant_config("NEWST-W", PipelineConfig(num_seeds=10)),
            venues=venues,
            graph=citation_graph,
        )
        assert canonical(response.payload) == canonical(
            dedicated.query("image processing")
        )
        assert response.config_fingerprint == dedicated.pipeline.config_fingerprint

    def test_variant_service_shares_corpus_artifacts(self, app):
        """The lazily built variant pipeline reads the base pipeline's weight
        builder — CSR snapshot, node weights, relevance map — instead of
        recomputing them."""
        service = app.registry.get("main").service
        base = service.pipeline
        variant = service.pipeline_for("NEWST-N")
        assert variant is not base
        assert variant.weight_builder is base.weight_builder
        assert variant.node_weights is base.node_weights
        assert variant.indexed_graph is base.indexed_graph
        assert "NEWST-N" in service.variants_loaded()
        # NEWST (empty override) resolves to the base pipeline itself.
        assert service.pipeline_for("NEWST") is base
        assert "NEWST" not in service.variants_loaded()

    def test_variant_builders_hold_the_base_relevance_map(
        self, app, store, scholar_engine, citation_graph, venues
    ):
        """Every variant pipeline holds the base's builder, so variant-only
        traffic warms the artifacts the base (and eviction) reads."""
        service = app.registry.get("main").service
        base = service.pipeline.weight_builder
        for variant in VARIANT_CONFIGS:
            assert service.pipeline_for(variant).weight_builder is base

        cold = RePaGerService(
            store, search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=10), venues=venues, graph=citation_graph,
        )
        assert not cold.readiness()["edge_relevance_ready"]
        cold.query_with_meta("image processing", use_cache=False, variant="NEWST-W")
        readiness = cold.readiness()
        assert readiness["node_weights_ready"] and readiness["edge_relevance_ready"]
        assert cold.pipeline_for("NEWST-W").weight_builder is cold.pipeline.weight_builder

    def test_per_corpus_health_reports_readiness(self, app):
        health = app.health("main")
        assert health["corpus"] == "main"
        assert health["default"] is True
        assert health["config_fingerprint"]
        assert health["warmed"] is True
        assert set(health["readiness"]) == {
            "node_weights_ready",
            "graph_snapshot_ready",
            "search_index_ready",
            "edge_relevance_ready",
        }
        assert all(health["readiness"].values())

    def test_cold_tenant_reports_not_warmed(self, store, scholar_engine,
                                            citation_graph, venues):
        with RePaGerApp(config=ServingConfig(port=0)) as cold_app:
            service = RePaGerService(
                store,
                search_engine=scholar_engine,
                pipeline_config=PipelineConfig(num_seeds=10),
                venues=venues,
                graph=citation_graph,
            )
            # The session-scoped engine/graph may be warm; a fresh pipeline's
            # node weights are definitely not.
            cold_app.attach_service("cold", service)
            health = cold_app.health("cold")
            assert health["readiness"]["node_weights_ready"] is False
            assert health["warmed"] is False
            warm_up(service)
            assert cold_app.health("cold")["warmed"] is True

    def test_aggregate_health_mirrors_default_tenant(self, app):
        health = app.health()
        assert health["status"] == "ok"
        assert health["num_corpora"] == len(app.registry)
        assert health["default_corpus"] == "main"
        assert "main" in health["corpora"]
        main = app.registry.get("main").service
        assert health["papers"] == len(main.store)
        assert health["config_fingerprint"] == main.pipeline.config_fingerprint

    def test_metrics_are_labelled_per_corpus(self, app):
        app.query("machine learning")
        text = app.metrics_text()
        assert 'repager_queries_total{corpus="main"}' in text

    def test_attach_store_namespaces_the_shared_cache(self, app, store):
        tenant = app.attach_store("extra", store, PipelineConfig(num_seeds=10))
        try:
            assert tenant.service.cache is app.cache
            assert tenant.service.cache_namespace == "extra"
            warm_up(tenant.service)
            app.query("machine learning", corpus="extra")
            assert any(key[0] == "extra" for key in app.cache._entries)
        finally:
            app.detach("extra")
        # Detach drops the namespaced entries eagerly.
        assert not any(key[0] == "extra" for key in app.cache._entries)

    def test_attach_directory_validates_path(self, app):
        with pytest.raises(RequestValidationError):
            app.attach_directory("ghost", "/nonexistent/corpus/dir")

    def test_attach_service_adopts_namespace_for_shared_cache(self, store,
                                                              scholar_engine,
                                                              citation_graph,
                                                              venues):
        """Two same-config tenants sharing one un-namespaced cache would serve
        each other's entries (the fingerprint encodes config, not corpus);
        attach_service must namespace them."""
        shared = ResultCache(max_entries=16, ttl_seconds=60.0)
        with RePaGerApp(config=ServingConfig(port=0)) as fresh_app:
            for name in ("a", "b"):
                service = RePaGerService(
                    store,
                    search_engine=scholar_engine,
                    pipeline_config=PipelineConfig(num_seeds=10),
                    venues=venues,
                    graph=citation_graph,
                    cache=shared,
                )
                fresh_app.attach_service(name, service)
            assert fresh_app.registry.get("a").service.cache_namespace == "a"
            assert fresh_app.registry.get("b").service.cache_namespace == "b"


def _count_artifact_builds(monkeypatch) -> Counter:
    """Count CSR snapshot, PageRank and relevance-map builds from now on."""
    builds: Counter = Counter()
    lock = threading.Lock()

    def count(name, function):
        def counted(*args, **kwargs):
            with lock:
                builds[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(IndexedGraph, "from_graph", count("csr", IndexedGraph.from_graph))
    monkeypatch.setattr(
        weights_module, "indexed_pagerank",
        count("pagerank", weights_module.indexed_pagerank),
    )
    monkeypatch.setattr(
        WeightedGraphBuilder, "_compute_edge_relevance",
        count("relevance", WeightedGraphBuilder._compute_edge_relevance),
    )
    return builds


class TestOneServicePerTenant:
    """A tenant's Table III variants are pipelines of its one service: they
    answer on the tenant's TTL and read the corpus artifacts it built."""

    def test_variant_answers_expire_on_the_tenant_ttl(self, store, tmp_path):
        clock = SimpleNamespace(now=1000.0)
        cache = ResultCache(max_entries=16, ttl_seconds=300.0, clock=lambda: clock.now)
        config = ServingConfig(port=0, cache_state_path=str(tmp_path / "l2.sqlite"))
        with RePaGerApp(
            config=config, cache=cache, pipeline_config=PipelineConfig(num_seeds=10)
        ) as ttl_app:
            ttl_app._cache_store._clock = lambda: clock.now
            ttl_app.attach_store(
                "short", store,
                overrides=TenantOverrides.from_dict({"cache_ttl_seconds": 5}),
            )
            body = {"query": "image processing", "variant": "NEWST-W"}
            assert not ttl_app.query(body, corpus="short").cached
            assert ttl_app.query(body, corpus="short").cached
            rows = ttl_app._cache_store._conn.execute(
                "SELECT expires_at FROM cache_entries WHERE namespace = 'short'"
            ).fetchall()
            assert rows == [(clock.now + 5.0,)]  # the L2 row too
            clock.now += 10.0
            assert not ttl_app.query(body, corpus="short").cached

    def test_cold_variant_query_builds_corpus_artifacts_once(self, store, monkeypatch):
        builds = _count_artifact_builds(monkeypatch)
        with RePaGerApp(
            config=ServingConfig(port=0), pipeline_config=PipelineConfig(num_seeds=10)
        ) as cold_app:
            cold_app.attach_store("cold", store)
            body = {"query": "image processing", "use_cache": False}
            cold_app.query({**body, "variant": "NEWST-W"}, corpus="cold")
            cold_app.query(body, corpus="cold")
        assert builds == {"csr": 1, "pagerank": 1, "relevance": 1}

    def test_concurrent_first_queries_share_one_pipeline_per_variant(
        self, store, scholar_engine, citation_graph, venues, monkeypatch
    ):
        """Threads racing on a cold service build each variant pipeline once
        and the corpus artifacts once, with a short switch interval."""
        builds = _count_artifact_builds(monkeypatch)
        service = RePaGerService(
            store, search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=10), venues=venues, graph=citation_graph,
        )
        variants = [None, "NEWST-W", "newst-n", "NEWST-E"] * 2
        barrier = threading.Barrier(len(variants))
        seen: list = [None] * len(variants)

        def run(index):
            barrier.wait(timeout=30)
            pipeline = service.pipeline_for(variants[index])
            pipeline.solve_costs
            seen[index] = pipeline

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(len(variants))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        half = len(variants) // 2
        assert seen[:half] == seen[half:]  # one pipeline per variant
        assert len({id(pipeline) for pipeline in seen}) == half
        assert service.variants_loaded() == ("NEWST-E", "NEWST-N", "NEWST-W")
        assert builds == {"csr": 1, "pagerank": 1, "relevance": 1}
