"""Cluster hardening: orderly drain, router coalescing, shared result cache.

Three behaviours turn the PR-9 router from "survives crashes" into "operable":

* **Orderly drain** (``DELETE /v1/replicas/<url>``): a live replica's corpora
  re-place onto ring successors *before* the replica is forgotten — snapshot
  refreshed from the draining replica, successor attached warm, routing
  flipped, old copy detached — with zero 5xx during the handover.
* **Router-side coalescing**: identical in-flight queries to one corpus merge
  into a single upstream request; a 16-duplicate stampede is one solve.
* **Shared result cache** (``serve --cache-state``): replicas write solved
  payloads to one sqlite store, so a corpus re-placed after a crash serves
  its first repeated query as a hit, byte-identical.

All three are proven against the byte-identity contract: whatever the fleet
does internally, the payload bytes must match a direct single-process serve.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from cluster_harness import (
    ClusterFixture,
    NUM_SEEDS,
    canonical_payload,
    corpus_snapshot,
    http_request,
)
from reference_core import GRAPH_CORES, graph_core
from repro.config import PipelineConfig, ServingConfig
from repro.repager.app import RePaGerApp
from repro.serving import parse_metrics_text
from repro.serving.http_api import create_server, start_in_background

QUERY_BODY = {"query": "pretrained language models", "use_cache": False}

#: Upper bound on how long a held solve waits; only a broken test hits it.
GATE_DEADLINE_SECONDS = 60.0


@pytest.fixture(scope="module")
def alpha_dir(store, tmp_path_factory):
    path = tmp_path_factory.mktemp("hardening") / "alpha"
    store.save(path)
    return str(path)


@pytest.fixture(scope="module")
def alpha_snapshot(alpha_dir, tmp_path_factory):
    return corpus_snapshot(alpha_dir, tmp_path_factory.mktemp("snaps") / "alpha.snap")


def _coalesced(cluster) -> float:
    """The router's ``router_coalesced_total{corpus="alpha"}``."""
    series = cluster.metrics().get("repager_router_coalesced_total", {})
    return series.get((("corpus", "alpha"),), 0.0)


def _replica_metrics(url: str) -> dict:
    response = urllib.request.urlopen(url + "/v1/metrics", timeout=30)
    return parse_metrics_text(response.read().decode())


def _direct_payload(alpha_dir: str, body: dict) -> str:
    """Canonical payload bytes from a single-process serve (the golden)."""
    app = RePaGerApp(
        config=ServingConfig(port=0, query_timeout_seconds=120.0),
        pipeline_config=PipelineConfig(num_seeds=NUM_SEEDS),
    )
    app.attach_directory("alpha", alpha_dir, default=True)
    server = create_server(app, config=app.config)
    thread = start_in_background(server)
    try:
        status, response, _ = http_request(
            server.url, "POST", "/v1/corpora/alpha/query", body
        )
        assert status == 200
        return canonical_payload(response["payload"])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        app.close(wait=False)


# -- orderly drain ---------------------------------------------------------------


class TestDrain:
    def test_drain_moves_corpora_with_zero_5xx_under_flood(
        self, alpha_dir, alpha_snapshot
    ):
        """Drain the placed replica while queries flood through the router:
        every corpus re-places onto a ring successor, payloads stay
        byte-identical, and no request ever sees a bare 5xx."""
        with ClusterFixture(
            replicas=3, corpora={"alpha": (alpha_dir, alpha_snapshot)}
        ) as cluster:
            victim_url = cluster.router.placement["alpha"]
            status, before, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", QUERY_BODY
            )
            assert status == 200
            golden = canonical_payload(before["payload"])

            results: list[tuple[int, dict]] = []
            stop = threading.Event()

            def flood() -> None:
                while not stop.is_set():
                    results.append(
                        cluster.request(
                            "POST", "/v1/corpora/alpha/query",
                            {"query": "pretrained language models"},
                        )[:2]
                    )

            threads = [threading.Thread(target=flood) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                status, report, _ = cluster.drain(victim_url)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)

            assert status == 200
            assert report["drained"] == victim_url
            assert set(report["moved"]) == {"alpha"}
            new_home = report["moved"]["alpha"]
            assert new_home != victim_url
            assert report["placements"]["alpha"] == new_home
            assert victim_url not in report["remaining_replicas"]
            # The successor is the ring's next preference once the drained
            # replica's vnodes are gone.
            assert new_home == cluster.router.ring.place("alpha")

            # Zero bare 5xx during the handover; successes are byte-identical.
            assert results
            for flood_status, flood_body in results:
                assert flood_status < 500, flood_body
                if flood_status == 200:
                    assert canonical_payload(flood_body["payload"]) == golden
                else:  # any refusal must be a taxonomy body, never a reset
                    assert "code" in flood_body

            # Post-drain service from the new home, still identical bytes.
            status, after, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", QUERY_BODY
            )
            assert status == 200
            assert canonical_payload(after["payload"]) == golden

            # Observability: counter, events, and the health surface agree.
            series = cluster.metrics()
            assert series["repager_router_drained_total"][()] == 1.0
            assert (
                series["repager_router_replica_up"][(("replica", victim_url),)]
                == 0.0
            )
            events = [r["event"] for r in cluster.router.events.tail(50)]
            assert "replica_draining" in events
            assert "replica_drained" in events
            status, health, _ = cluster.request("GET", "/healthz")
            assert status == 200
            assert victim_url in health["drained_replicas"]
            assert victim_url not in health["replicas"]

    def test_drain_without_recorded_snapshot_captures_a_fresh_one(
        self, alpha_dir
    ):
        """No operator snapshot: the drain records one from the draining
        replica itself, and the successor still serves identical bytes."""
        with ClusterFixture(replicas=2, corpora={"alpha": alpha_dir}) as cluster:
            status, before, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", QUERY_BODY
            )
            assert status == 200
            victim_url = cluster.router.placement["alpha"]
            status, report, _ = cluster.drain(victim_url)
            assert status == 200
            # The refreshed snapshot is now pinned on the corpus spec.
            assert cluster.router.corpora["alpha"].snapshot is not None
            status, after, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", QUERY_BODY
            )
            assert status == 200
            assert canonical_payload(after["payload"]) == canonical_payload(
                before["payload"]
            )

    def test_drain_unknown_replica_is_a_taxonomy_404(self, alpha_dir, alpha_snapshot):
        with ClusterFixture(
            replicas=2, corpora={"alpha": (alpha_dir, alpha_snapshot)}
        ) as cluster:
            status, body, _ = cluster.drain("http://127.0.0.1:1")
            assert status == 404
            assert body["code"] == "replica_not_found"
            assert body["replica"] == "http://127.0.0.1:1"

    def test_drain_last_replica_is_refused(self, alpha_dir, alpha_snapshot):
        with ClusterFixture(
            replicas=1, corpora={"alpha": (alpha_dir, alpha_snapshot)}
        ) as cluster:
            only = cluster.replicas[0].url
            status, body, _ = cluster.drain(only)
            assert status == 400
            assert body["code"] == "bad_request"
            # The refusal changed nothing: the fleet still serves.
            status, _, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", QUERY_BODY
            )
            assert status == 200


# -- router-side coalescing ------------------------------------------------------


class TestCoalescing:
    def test_16_duplicate_stampede_is_one_upstream_solve(
        self, alpha_dir, alpha_snapshot, monkeypatch
    ):
        """16 identical in-flight queries: one reaches the replica, fifteen
        ride the leader's future, and every response is byte-identical.

        The leader's solve is held on a gate in the placed replica until the
        router has counted all fifteen followers, so no follower can arrive
        after the leader finished: the counts are exact by construction.
        """
        with ClusterFixture(
            replicas=2, corpora={"alpha": (alpha_dir, alpha_snapshot)}
        ) as cluster:
            gate = threading.Event()
            pipeline = cluster.replica_for("alpha").app.registry.get(
                "alpha"
            ).service.pipeline
            generate = pipeline.generate

            def held_generate(*args, **kwargs):
                assert gate.wait(timeout=GATE_DEADLINE_SECONDS), "gate never opened"
                return generate(*args, **kwargs)

            monkeypatch.setattr(pipeline, "generate", held_generate)

            body = {"query": "graph neural networks for citation ranking"}
            responses: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def fire() -> None:
                result = cluster.request("POST", "/v1/corpora/alpha/query", body)
                with lock:
                    responses.append(result[:2])

            threads = [threading.Thread(target=fire) for _ in range(16)]
            for thread in threads:
                thread.start()
            try:
                # Failure guard only: the loop exits as soon as the count is 15.
                deadline = time.monotonic() + GATE_DEADLINE_SECONDS
                while _coalesced(cluster) < 15.0 and time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                gate.set()
            for thread in threads:
                thread.join(timeout=180)

            assert len(responses) == 16
            assert all(status == 200 for status, _ in responses)
            canonicals = {
                canonical_payload(resp["payload"]) for _, resp in responses
            }
            assert len(canonicals) == 1  # byte-identical across the stampede

            series = cluster.metrics()
            coalesced = series["repager_router_coalesced_total"][
                (("corpus", "alpha"),)
            ]
            assert coalesced == 15.0
            assert series["repager_router_requests_total"][()] >= 16

            # The replica saw exactly one query (one solve, zero cache hits).
            replica_series = _replica_metrics(cluster.router.placement["alpha"])
            queries = replica_series["repager_queries_total"]
            assert sum(queries.values()) == 1.0
            misses = replica_series["repager_cache_misses_total"]
            assert sum(misses.values()) == 1.0

    def test_legacy_and_v1_routes_never_share_a_response(
        self, alpha_dir, alpha_snapshot, monkeypatch
    ):
        """A legacy ``POST /query`` sent while an identical ``/v1`` query is
        in flight gets its own legacy-shaped answer: the router keys on the
        route, so only the replica's executor merges the two into one solve
        and each HTTP handler renders its own shape."""
        with ClusterFixture(
            replicas=2, corpora={"alpha": (alpha_dir, alpha_snapshot)}
        ) as cluster:
            gate = threading.Event()
            entered = threading.Event()
            replica_url = cluster.router.placement["alpha"]
            pipeline = cluster.replica_for("alpha").app.registry.get(
                "alpha"
            ).service.pipeline
            generate = pipeline.generate

            def held_generate(*args, **kwargs):
                entered.set()
                assert gate.wait(timeout=GATE_DEADLINE_SECONDS), "gate never opened"
                return generate(*args, **kwargs)

            monkeypatch.setattr(pipeline, "generate", held_generate)

            body = {"query": "graph neural networks for citation ranking"}
            responses: dict[str, tuple] = {}

            def fire(route: str) -> None:
                responses[route] = cluster.request("POST", route, body)

            def coalesced_anywhere() -> float:
                executor = _replica_metrics(replica_url).get(
                    "repager_executor_coalesced_total", {}
                )
                return _coalesced(cluster) + executor.get((), 0.0)

            v1 = threading.Thread(target=fire, args=("/v1/corpora/alpha/query",))
            legacy = threading.Thread(target=fire, args=("/query",))
            v1.start()
            try:
                assert entered.wait(timeout=GATE_DEADLINE_SECONDS)
                legacy.start()
                # Failure guard only: the loop exits once one merge is counted.
                deadline = time.monotonic() + GATE_DEADLINE_SECONDS
                while coalesced_anywhere() < 1.0 and time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                gate.set()
            for thread in (v1, legacy):
                thread.join(timeout=180)
                assert not thread.is_alive()

            status, v1_body, _ = responses["/v1/corpora/alpha/query"]
            assert status == 200
            assert set(v1_body) == {"payload", "serving"}
            status, legacy_body, headers = responses["/query"]
            assert status == 200
            assert "nodes" in legacy_body
            assert "payload" not in legacy_body
            assert headers.get("Deprecation") == "true"
            assert legacy_body["nodes"] == v1_body["payload"]["nodes"]

            replica_series = _replica_metrics(replica_url)
            assert sum(replica_series["repager_queries_total"].values()) == 1.0

    def test_use_cache_false_bypasses_coalescing(self, alpha_dir, alpha_snapshot):
        """Explicit cache opt-out is a debugging tool: it must reach the
        replica every time, never ride another request's future."""
        with ClusterFixture(
            replicas=2, corpora={"alpha": (alpha_dir, alpha_snapshot)}
        ) as cluster:
            for _ in range(2):
                status, _, _ = cluster.request(
                    "POST", "/v1/corpora/alpha/query", QUERY_BODY
                )
                assert status == 200
            series = cluster.metrics()
            coalesced = series.get("repager_router_coalesced_total", {})
            assert coalesced.get((("corpus", "alpha"),), 0.0) == 0.0
            replica_series = _replica_metrics(cluster.router.placement["alpha"])
            assert sum(replica_series["repager_queries_total"].values()) == 2.0


# -- shared result cache ---------------------------------------------------------


class TestSharedCache:
    def test_failover_serves_first_repeat_as_shared_hit(
        self, alpha_dir, alpha_snapshot, tmp_path
    ):
        """Kill the replica holding a corpus; the survivor (same sqlite
        ``--cache-state``) answers the first repeated query from the shared
        store — a hit, byte-identical to the pre-kill solve."""
        cache_db = str(tmp_path / "cache.sqlite")
        with ClusterFixture(
            replicas=2,
            corpora={"alpha": (alpha_dir, alpha_snapshot)},
            cache_state=cache_db,
        ) as cluster:
            body = {"query": "pretrained language models"}
            status, before, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", body
            )
            assert status == 200
            golden = canonical_payload(before["payload"])
            victim_url = cluster.router.placement["alpha"]

            cluster.kill("alpha")
            status, error_body, headers = cluster.request(
                "POST", "/v1/corpora/alpha/query", body
            )
            assert status == 503
            assert error_body["code"] == "replica_unavailable"
            assert "Retry-After" in headers

            status, after, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", body
            )
            assert status == 200
            assert canonical_payload(after["payload"]) == golden
            new_home = cluster.router.placement["alpha"]
            assert new_home != victim_url

            # The survivor answered from the shared store, not a re-solve.
            replica_series = _replica_metrics(new_home)
            shared_hits = replica_series["repager_cache_shared_hits_total"]
            assert sum(shared_hits.values()) == 1.0
            assert sum(
                replica_series.get("repager_cache_misses_total", {}).values()
            ) == 0.0


# -- byte-identity matrix --------------------------------------------------------


@pytest.mark.parametrize("core", GRAPH_CORES)
def test_byte_identity_matrix(alpha_dir, alpha_snapshot, core, tmp_path):
    """Routed-vs-direct equivalence through every hardening path, on the
    runtime core and on the dict reference kernels: a coalesced stampede, an
    orderly drain, and a shared cache hit after SIGKILL failover all serve
    the direct-serve bytes."""
    with graph_core(core):
        body = {"query": "pretrained language models"}
        golden = _direct_payload(alpha_dir, dict(body, use_cache=False))
        cache_db = str(tmp_path / "cache.sqlite")
        with ClusterFixture(
            replicas=3,
            corpora={"alpha": (alpha_dir, alpha_snapshot)},
            cache_state=cache_db,
        ) as cluster:
            # 1. Coalesced stampede: concurrent duplicates, all the golden bytes.
            barrier = threading.Barrier(6)
            stampede: list[tuple[int, dict]] = []
            lock = threading.Lock()

            def fire() -> None:
                barrier.wait()
                result = cluster.request("POST", "/v1/corpora/alpha/query", body)
                with lock:
                    stampede.append(result[:2])

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
            assert all(status == 200 for status, _ in stampede)
            for _, resp in stampede:
                assert canonical_payload(resp["payload"]) == golden

            # 2. Orderly drain of the holder: the successor serves the bytes.
            status, _, _ = cluster.drain(cluster.router.placement["alpha"])
            assert status == 200
            status, drained_resp, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", body
            )
            assert status == 200
            assert canonical_payload(drained_resp["payload"]) == golden

            # 3. SIGKILL failover + shared cache: the re-placed corpus's first
            # repeated query is a hit with the same bytes.
            cluster.kill("alpha")
            status, _, _ = cluster.request("POST", "/v1/corpora/alpha/query", body)
            assert status == 503
            status, failover_resp, _ = cluster.request(
                "POST", "/v1/corpora/alpha/query", body
            )
            assert status == 200
            assert canonical_payload(failover_resp["payload"]) == golden
            replica_series = _replica_metrics(cluster.router.placement["alpha"])
            assert sum(
                replica_series["repager_cache_shared_hits_total"].values()
            ) >= 1.0
