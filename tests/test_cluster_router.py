"""Router/replica scale-out, end to end over real sockets.

The chaos acceptance from the ROADMAP's cluster milestone: a router fronting
real ``serve`` replicas must return byte-identical query payloads to a
direct single-replica serve (on the runtime core and on the dict reference
kernels), survive a replica dying mid-fleet — its corpora re-placed onto
survivors and served *warm* from recorded snapshots — and never surface a
bare 5xx: connection-level failures become ``replica_unavailable`` taxonomy
errors with ``Retry-After``.

Replica health (:class:`ReplicaHealth`) is unit-tested here too, with an
injected clock, since the router's failover timing hangs off it.

All spawn/wait/kill plumbing lives in :mod:`tests.cluster_harness`; this
file only states cluster shapes and assertions.
"""

from __future__ import annotations

import urllib.request
from types import SimpleNamespace

import pytest

from cluster_harness import (
    ClusterFixture,
    NUM_SEEDS,
    canonical_payload,
    corpus_snapshot,
    http_request,
    make_replica,
)
from reference_core import GRAPH_CORES, graph_core
from repro.cluster import CorpusSpec, ReplicaHealth, RouterApp
from repro.config import CorpusConfig, PipelineConfig, ServingConfig
from repro.corpus.generator import CorpusGenerator
from repro.repager.app import RePaGerApp
from repro.serving import parse_metrics_text
from repro.serving.http_api import create_server, start_in_background

BETA_CORPUS_CONFIG = CorpusConfig(
    seed=13, papers_per_topic=20, surveys_per_topic=2, citations_per_paper=10.0
)


# -- fixtures: corpora on disk, snapshots, replica fleet -------------------------


@pytest.fixture(scope="module")
def alpha_dir(store, tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "alpha"
    store.save(path)
    return str(path)


@pytest.fixture(scope="module")
def beta_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "beta"
    CorpusGenerator(BETA_CORPUS_CONFIG).generate().store.save(path)
    return str(path)


@pytest.fixture(scope="module")
def alpha_snapshot(alpha_dir, tmp_path_factory):
    return corpus_snapshot(alpha_dir, tmp_path_factory.mktemp("snaps") / "alpha.snap")


@pytest.fixture(scope="module")
def beta_snapshot(beta_dir, tmp_path_factory):
    return corpus_snapshot(beta_dir, tmp_path_factory.mktemp("snaps") / "beta.snap")


@pytest.fixture()
def cluster(alpha_dir, beta_dir, alpha_snapshot, beta_snapshot):
    """Three empty replicas behind a router placing two corpora (warm)."""
    with ClusterFixture(
        replicas=3,
        corpora={
            "alpha": (alpha_dir, alpha_snapshot),
            "beta": (beta_dir, beta_snapshot),
        },
        default_corpus="alpha",
    ) as fixture:
        yield fixture


# -- replica health unit tests ---------------------------------------------------


class TestReplicaHealth:
    def test_threshold_then_cooldown_then_half_open_probe(self):
        clock = SimpleNamespace(now=0.0)
        health = ReplicaHealth(
            "r", failure_threshold=2, reset_seconds=5.0, clock=lambda: clock.now
        )
        assert health.allow() and health.is_up
        assert health.record_failure() is False  # 1 of 2
        assert health.record_failure() is True  # newly down
        assert health.state == "down"
        assert not health.allow()
        clock.now += 5.0
        assert health.allow()  # the single half-open probe
        assert health.state == "half_open"
        assert not health.allow()  # second caller told to go elsewhere
        assert health.record_success() is True  # revived
        assert health.is_up

    def test_half_open_failure_reopens_immediately(self):
        clock = SimpleNamespace(now=0.0)
        health = ReplicaHealth(
            "r", failure_threshold=3, reset_seconds=5.0, clock=lambda: clock.now
        )
        for _ in range(3):
            health.record_failure()
        clock.now += 5.0
        assert health.allow()
        assert health.record_failure() is True  # half-open probe failed
        assert health.state == "down"
        assert not health.allow()

    def test_abort_probe_releases_the_slot(self):
        clock = SimpleNamespace(now=0.0)
        health = ReplicaHealth(
            "r", failure_threshold=1, reset_seconds=1.0, clock=lambda: clock.now
        )
        health.record_failure()
        clock.now += 1.0
        assert health.allow()
        health.abort_probe()
        assert health.allow()  # slot is free again

    def test_describe_carries_retry_after(self):
        clock = SimpleNamespace(now=0.0)
        health = ReplicaHealth(
            "r", failure_threshold=1, reset_seconds=10.0, clock=lambda: clock.now
        )
        health.record_failure()
        clock.now += 4.0
        info = health.describe()
        assert info["state"] == "down"
        assert info["retry_after_seconds"] == 6
        assert info["down_count"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaHealth("r", failure_threshold=0)
        with pytest.raises(ValueError):
            ReplicaHealth("r", reset_seconds=0.0)


# -- end-to-end router behaviour -------------------------------------------------


@pytest.mark.parametrize("core", GRAPH_CORES)
def test_routed_payload_is_byte_identical_to_direct_serve(alpha_dir, core):
    """The router must be invisible: same corpus, same graph core, same bytes."""
    with graph_core(core):
        direct = RePaGerApp(
            config=ServingConfig(port=0, query_timeout_seconds=120.0),
            pipeline_config=PipelineConfig(num_seeds=NUM_SEEDS),
        )
        direct.attach_directory("alpha", alpha_dir, default=True)
        direct_server = create_server(direct, config=direct.config)
        direct_thread = start_in_background(direct_server)
        try:
            with ClusterFixture(replicas=1, corpora={"alpha": alpha_dir}) as cluster:
                body = {"query": "pretrained language models", "use_cache": False}
                status_d, direct_body, _ = http_request(
                    direct_server.url, "POST", "/v1/corpora/alpha/query", body
                )
                status_r, routed_body, headers = cluster.request(
                    "POST", "/v1/corpora/alpha/query", body
                )
                assert status_d == status_r == 200
                assert headers.get("X-Request-Id")
                assert canonical_payload(
                    routed_body["payload"]
                ) == canonical_payload(direct_body["payload"])
        finally:
            direct_server.shutdown()
            direct_server.server_close()
            direct_thread.join(timeout=5)
            direct.close(wait=False)


class TestCluster:
    def test_bootstrap_places_each_corpus_on_its_ring_replica(self, cluster):
        placement = dict(cluster.router.placement)
        assert set(placement) == {"alpha", "beta"}
        for name, url in placement.items():
            assert url == cluster.router.ring.place(name)
            status, body, _ = http_request(url, "GET", "/v1/corpora")
            assert status == 200
            assert name in {entry["name"] for entry in body["corpora"]}

    def test_router_healthz_and_metrics_surfaces(self, cluster):
        status, body, _ = cluster.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["healthy_replicas"] == 3
        assert set(body["placements"]) == {"alpha", "beta"}
        assert body["ring"]["vnodes"] == 128

        cluster.request(
            "POST", "/v1/corpora/alpha/query",
            {"query": "graph neural networks", "use_cache": False},
        )
        series = cluster.metrics()
        assert series["repager_router_requests_total"][()] >= 1
        up = series["repager_router_replica_up"]
        assert len(up) == 3 and all(value == 1.0 for value in up.values())
        # HELP/TYPE conventions: re-render parses cleanly and the latency
        # summary exposes labelled quantiles.
        latency = series.get("repager_router_replica_latency_seconds_count", {})
        assert sum(latency.values()) >= 1

    def test_unknown_corpus_is_a_taxonomy_404(self, cluster):
        status, body, _ = cluster.request(
            "POST", "/v1/corpora/nope/query", {"query": "x"}
        )
        assert status == 404
        assert body["code"] == "corpus_not_found"

    def test_replica_errors_pass_through_byte_identical(self, cluster):
        """A replica's 400 taxonomy body is the router's 400 taxonomy body."""
        direct_url = cluster.router.placement["alpha"]
        status_d, direct_body, _ = http_request(
            direct_url, "POST", "/v1/corpora/alpha/query", {"bogus": True}
        )
        status_r, routed_body, _ = cluster.request(
            "POST", "/v1/corpora/alpha/query", {"bogus": True}
        )
        assert status_d == status_r == 400
        assert routed_body == direct_body

    def test_legacy_routes_follow_the_default_corpus(self, cluster):
        status, body, headers = cluster.request(
            "POST", "/query", {"query": "machine learning", "use_cache": False}
        )
        assert status == 200
        assert headers.get("Deprecation") == "true"
        assert {"query", "navigation", "nodes", "edges", "stats"} <= set(body)

    def test_killed_replica_corpora_replaced_and_served_warm(self, cluster):
        """The chaos acceptance: kill the replica holding a corpus, expect a
        taxonomy 503 (never a bare reset), then warm failover service with a
        payload identical to the pre-kill serve."""
        victim_url = cluster.router.placement["alpha"]
        body = {"query": "pretrained language models", "use_cache": False}

        status, before, _ = cluster.request(
            "POST", "/v1/corpora/alpha/query", body
        )
        assert status == 200

        cluster.kill("alpha")  # SIGKILL-ish: sockets vanish

        # First request after the kill: connection error -> passive failure
        # marking -> evacuation -> replica_unavailable with Retry-After.
        status, error_body, headers = cluster.request(
            "POST", "/v1/corpora/alpha/query", body
        )
        assert status == 503
        assert error_body["code"] == "replica_unavailable"
        assert error_body["retryable"] is True
        assert int(headers["Retry-After"]) >= 1

        # The corpus is now on a survivor, attached warm from its snapshot:
        # the retry the 503 asked for succeeds with identical bytes.
        status, after, _ = cluster.request(
            "POST", "/v1/corpora/alpha/query", body
        )
        assert status == 200
        assert canonical_payload(after["payload"]) == canonical_payload(
            before["payload"]
        )
        new_home = cluster.router.placement["alpha"]
        assert new_home != victim_url
        # Failover respects the ring's preference order.
        preference = cluster.router.ring.preference("alpha")
        assert new_home == next(url for url in preference if url != victim_url)

        # Observability: the replacement is visible in metrics and events.
        series = cluster.metrics()
        assert series["repager_router_replaced_total"][()] >= 1
        assert (
            series["repager_router_replica_up"][(("replica", victim_url),)] == 0.0
        )
        events = [record["event"] for record in cluster.router.events.tail(50)]
        assert "replica_down" in events
        assert "corpus_replaced" in events

        status, health, _ = cluster.request("GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"  # everything re-placed on healthy homes
        assert health["replicas"][victim_url]["state"] == "down"
