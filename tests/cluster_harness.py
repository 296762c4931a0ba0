"""Reusable in-process cluster plumbing for router/replica tests.

Every cluster test used to hand-roll the same spawn/wait/kill choreography:
build N ``serve --empty`` replicas on ephemeral ports, front them with a
:class:`~repro.cluster.router.RouterApp`, bootstrap placement, and tear the
whole stack down in the right order.  This module extracts that plumbing so
tests say *what* cluster they want, not *how* to wire one::

    with ClusterFixture(replicas=3, corpora={"alpha": (alpha_dir, snap)}) as c:
        status, body, headers = c.request("POST", "/v1/corpora/alpha/query",
                                          {"query": "...", "use_cache": False})

Design points, in the order they bit us before extraction:

* **Port allocation** is delegated to the OS (``port=0``); the harness never
  picks port numbers, so parallel test runs cannot collide.
* **Readiness is polled, never slept for**: :meth:`ClusterFixture.wait_ready`
  hits every replica's and the router's ``/healthz`` until they answer 200
  (with a hard deadline), so tests start exactly when the fleet is up.
* **State capture on failure**: leaving the context manager on an exception
  dumps the router's health report and recent lifecycle events to stderr
  before teardown, so a red CI run shows *which* replica was down and what
  the router last did about it.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.parse
import urllib.request
from types import SimpleNamespace

from repro.cluster import CorpusSpec, RouterApp
from repro.cluster.router import create_router_server, start_router_in_background
from repro.config import PipelineConfig, ServingConfig
from repro.repager.app import RePaGerApp
from repro.repager.service import RePaGerService
from repro.serving import parse_metrics_text
from repro.serving.http_api import create_server, start_in_background
from repro.serving.warmup import capture_snapshot, warm_up

__all__ = [
    "ClusterFixture",
    "Replica",
    "canonical_payload",
    "corpus_snapshot",
    "http_request",
    "make_replica",
]

#: Matches the suite-wide seed count so payloads line up with goldens.
NUM_SEEDS = 10

#: Hard ceiling on readiness polling; a fleet that is not up in this long
#: is broken, not slow.
READY_DEADLINE_SECONDS = 30.0


class Replica(SimpleNamespace):
    """One in-process ``serve --empty`` replica (app + HTTP server + thread)."""

    def kill(self) -> None:
        """SIGKILL-ish: close the sockets, leave the app's threads running.

        This is what a crashed process looks like to the router — connections
        refused — without the orderly corpus detach a clean shutdown does.
        """
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)

    def stop(self) -> None:
        """Orderly shutdown: sockets closed, then the app itself."""
        self.kill()
        self.app.close(wait=False)


def make_replica(
    *,
    num_seeds: int = NUM_SEEDS,
    cache_state: str | None = None,
    max_workers: int = 2,
    queue_depth: int = 8,
) -> Replica:
    """Spawn one empty replica on an OS-assigned ephemeral port."""
    app = RePaGerApp(
        config=ServingConfig(
            port=0,
            max_workers=max_workers,
            queue_depth=queue_depth,
            query_timeout_seconds=120.0,
            cache_state_path=cache_state,
        ),
        pipeline_config=PipelineConfig(num_seeds=num_seeds),
    )
    server = create_server(app, config=app.config)
    thread = start_in_background(server)
    return Replica(app=app, server=server, thread=thread, url=server.url)


def corpus_snapshot(corpus_dir: str, path, *, num_seeds: int = NUM_SEEDS) -> str:
    """Warm a throwaway service on ``corpus_dir`` and record its artifacts."""
    from repro.corpus.storage import CorpusStore

    service = RePaGerService(
        CorpusStore.load(corpus_dir),
        pipeline_config=PipelineConfig(num_seeds=num_seeds),
    )
    warm_up(service)
    capture_snapshot(service, path)
    return str(path)


def http_request(
    url: str,
    method: str,
    path: str,
    body: dict | None = None,
    *,
    timeout: float = 120.0,
):
    """(status, parsed JSON body, headers); taxonomy error bodies parsed too."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def canonical_payload(payload: dict) -> str:
    """Payload bytes minus the one wall-clock field (the suite-wide idiom)."""
    data = dict(payload)
    data["stats"] = {
        k: v for k, v in data["stats"].items() if k != "elapsed_seconds"
    }
    return json.dumps(data)


class ClusterFixture:
    """Context manager: N replicas behind a bootstrapped router.

    Args:
        replicas: Fleet size.
        corpora: ``name -> spec`` where spec is a :class:`CorpusSpec`, a
            ``(corpus_dir, snapshot_path)`` tuple, or a bare corpus dir.
        default_corpus: Corpus the legacy single-corpus routes alias onto.
        cache_state: Path to a shared sqlite result cache; every replica
            opens the same file (the ``serve --cache-state`` story).
        failure_threshold / reset_seconds / proxy_timeout / ring_seed /
            vnodes: Forwarded to :class:`RouterApp`; the defaults make
            failover deterministic inside a test (one dropped proxy downs a
            replica, no half-open retry mid-assertion).
    """

    def __init__(
        self,
        *,
        replicas: int = 3,
        corpora: dict[str, object],
        default_corpus: str | None = None,
        cache_state: str | None = None,
        num_seeds: int = NUM_SEEDS,
        failure_threshold: int = 1,
        reset_seconds: float = 60.0,
        proxy_timeout: float = 120.0,
        ring_seed: int = 0,
        vnodes: int = 128,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._num_replicas = replicas
        self._specs = {
            name: self._as_spec(name, value) for name, value in corpora.items()
        }
        self._default_corpus = default_corpus
        self._cache_state = cache_state
        self._num_seeds = num_seeds
        self._router_kwargs = dict(
            failure_threshold=failure_threshold,
            reset_seconds=reset_seconds,
            proxy_timeout=proxy_timeout,
            ring_seed=ring_seed,
            vnodes=vnodes,
        )
        self.replicas: list[Replica] = []
        self.router: RouterApp | None = None
        self.server = None
        self.thread = None
        self.url: str | None = None

    @staticmethod
    def _as_spec(name: str, value: object) -> CorpusSpec:
        if isinstance(value, CorpusSpec):
            return value
        if isinstance(value, tuple):
            corpus_dir, snapshot = value
            return CorpusSpec(name, str(corpus_dir), None if snapshot is None else str(snapshot))
        return CorpusSpec(name, str(value), None)

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "ClusterFixture":
        try:
            self.replicas = [
                make_replica(
                    num_seeds=self._num_seeds,
                    cache_state=self._cache_state,
                )
                for _ in range(self._num_replicas)
            ]
            self.router = RouterApp(
                [replica.url for replica in self.replicas],
                self._specs,
                default_corpus=self._default_corpus,
                **self._router_kwargs,
            )
            self.router.bootstrap()
            self.server = create_router_server(self.router)
            self.thread = start_router_in_background(self.server)
            self.url = self.server.url
            self.wait_ready()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.dump_state()
        self.close()

    def wait_ready(self, deadline_seconds: float = READY_DEADLINE_SECONDS) -> None:
        """Poll every surface's ``/healthz`` until it answers 200 — no sleeps."""
        deadline = time.monotonic() + deadline_seconds
        pending = [replica.url for replica in self.replicas] + [self.url]
        while pending:
            url = pending[0]
            try:
                status, _, _ = http_request(url, "GET", "/healthz", timeout=5.0)
            except (OSError, urllib.error.URLError, json.JSONDecodeError):
                status = 0
            if status == 200:
                pending.pop(0)
                continue
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{url} not ready after {deadline_seconds:g}s")
            time.sleep(0.02)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self.thread is not None:
            self.thread.join(timeout=5)
            self.thread = None
        if self.router is not None:
            self.router.close()
            self.router = None
        for replica in self.replicas:
            try:
                replica.stop()
            except OSError:
                pass
        self.replicas = []

    def dump_state(self) -> None:
        """Print the router's view of the fleet to stderr (failure forensics)."""
        if self.router is None:
            return
        try:
            report = self.router.health_report()
            events = self.router.events.tail(30)
        except Exception as exc:  # the dump must never mask the real failure
            print(f"[cluster_harness] state dump failed: {exc!r}", file=sys.stderr)
            return
        print("[cluster_harness] router health at failure:", file=sys.stderr)
        print(json.dumps(report, indent=2, sort_keys=True, default=str), file=sys.stderr)
        print("[cluster_harness] last events:", file=sys.stderr)
        for record in events:
            print(f"  {record}", file=sys.stderr)

    # -- conveniences -----------------------------------------------------

    def request(self, method: str, path: str, body: dict | None = None, **kw):
        """HTTP round-trip against the router."""
        return http_request(self.url, method, path, body, **kw)

    def metrics(self) -> dict:
        """The router's ``/v1/metrics``, parsed into labelled series."""
        response = urllib.request.urlopen(self.url + "/v1/metrics", timeout=30)
        return parse_metrics_text(response.read().decode())

    def replica_for(self, corpus: str) -> Replica:
        """The live replica object currently holding ``corpus``."""
        url = self.router.placement[corpus]
        return next(replica for replica in self.replicas if replica.url == url)

    def kill(self, corpus_or_url: str) -> Replica:
        """Crash the replica holding a corpus (or at a URL); returns it."""
        if corpus_or_url.startswith("http"):
            victim = next(r for r in self.replicas if r.url == corpus_or_url)
        else:
            victim = self.replica_for(corpus_or_url)
        victim.kill()
        return victim

    def drain(self, url: str, *, timeout: float = 120.0):
        """Orderly drain via the public DELETE surface; (status, body, headers)."""
        quoted = urllib.parse.quote(url, safe="")
        return self.request("DELETE", f"/v1/replicas/{quoted}", timeout=timeout)
