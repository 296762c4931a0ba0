"""Shared-nothing router: consistent-hash placement over N serve replicas.

One ``repager route`` process proxies the full ``/v1`` surface to a fleet of
independent ``repager serve`` replicas.  Nothing is shared between replicas —
each hosts only the corpora the router placed on it — so the fleet scales the
paper's Fig. 7 web application horizontally without a coordination service:

* **Placement** is a pure function of the :class:`~repro.cluster.ring.
  ConsistentHashRing` (seeded, :mod:`hashlib`-based): every router instance,
  restart, or inspection tool derives the same ``corpus -> replica`` map from
  the same ``(seed, replicas)`` inputs.
* **Health** is tracked per replica by :class:`~repro.cluster.health.
  ReplicaHealth` — fed passively by proxy connection errors and actively by a
  periodic ``GET /healthz`` probe loop.
* **Failover**: when a replica goes down, its corpora are re-placed on the
  survivors next in each corpus's ring preference order and re-attached
  *warm* from their recorded :class:`~repro.serving.warmup.ArtifactSnapshot`
  files (the ``POST /v1/corpora`` runtime-attach path with ``"snapshot"``).
  When the replica comes back, corpora drift home to their ring-preferred
  replicas the same way.
* **Draining** (``DELETE /v1/replicas/<url-encoded-url>`` or ``repager route
  --drain URL``) is the orderly counterpart of failover: the router captures
  a *fresh* snapshot from the still-live replica, warm-attaches each held
  corpus on its ring successor, flips routing, detaches the old copy, and
  only then removes the replica from the ring — zero 5xx during the
  handover, ``replica_draining`` / ``replica_drained`` events and a
  ``router_drained_total`` counter around it.
* **Coalescing**: identical in-flight cacheable queries to one corpus and
  route merge at the router into a single upstream request (the executor's
  :class:`~repro.serving.coalesce.Coalescer`, keyed on the route plus the
  canonical query key the replicas' executors use), so N replicas never see
  N copies of a stampede; waiters are counted by a per-corpus
  ``router_coalesced_total``.  Requests carrying ``use_cache: false``,
  ``debug`` or any non-canonical field bypass it.
* **Errors** stay inside the shared taxonomy: a proxy that cannot reach any
  healthy replica answers :class:`~repro.errors.ReplicaUnavailableError`
  (503 + ``Retry-After``), never a bare connection reset, and replica error
  bodies pass through byte-identical.
* **Connections**: every call to a replica goes through that replica's
  keep-alive :class:`~repro.serving.transport.UpstreamPool`.  A pooled
  socket the replica closed while idle is retried once on a fresh
  connection without counting against the replica's health; a replica's
  pool is emptied when it goes down and closed when it is drained.

The router serves its own ``/healthz`` (fleet rollup: replica states, the
ring, live placements, drained members) and ``/v1/metrics``
(``router_requests_total``, ``router_replaced_total``,
``router_drained_total``, per-replica ``router_replica_up`` gauges and
``router_replica_latency_seconds`` summaries labelled ``replica="<url>"``,
per-corpus ``router_coalesced_total`` labelled ``corpus="<name>"``, in the
PR-6 exposition format).  Everything is stdlib-only.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable, Iterable, Mapping

from ..errors import (
    CorpusNotFoundError,
    ReplicaNotFoundError,
    ReplicaUnavailableError,
    RequestValidationError,
)
from ..obs.events import EventLog
from ..obs.trace import new_id
from ..serving.cache import make_query_key
from ..serving.coalesce import Coalescer
from ..serving.metrics import MetricsRegistry
from ..serving.transport import JSONHandler, JSONServer, UpstreamPool
from .health import ReplicaHealth
from .ring import ConsistentHashRing

__all__ = [
    "CorpusSpec",
    "RouterApp",
    "RouterHTTPServer",
    "create_router_server",
    "start_router_in_background",
]

#: Request headers forwarded verbatim to the replica.
_FORWARD_HEADERS = ("Content-Type", "X-Request-Deadline", "X-Tenant")
#: Response headers passed back verbatim from the replica.
_RETURN_HEADERS = ("Content-Type", "Retry-After", "Warning", "Deprecation", "Link")
_JSON_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """What the router needs to (re-)attach one corpus anywhere.

    ``snapshot`` is the path of a recorded ``ArtifactSnapshot``; when it
    exists the replica warms from it instead of recomputing artifacts, which
    is what makes failover re-placement cheap.
    """

    name: str
    corpus_dir: str
    snapshot: str | None = None

    def attach_body(self) -> dict[str, Any]:
        body: dict[str, Any] = {"name": self.name, "corpus_dir": self.corpus_dir}
        if self.snapshot is not None and Path(self.snapshot).exists():
            body["snapshot"] = self.snapshot
        return body


class RouterApp:
    """Placement, health and proxy logic behind :class:`RouterHTTPServer`.

    Args:
        replicas: Base URLs of the ``repager serve`` fleet
            (e.g. ``http://127.0.0.1:8081``), trailing slashes stripped.
        corpora: Specs of every corpus the router is responsible for.
        default_corpus: Tenant the legacy single-corpus routes alias onto
            (defaults to the lexicographically first corpus).
        ring_seed / vnodes: Ring construction inputs (placement is a pure
            function of these plus the replica set).
        probe_interval: Seconds between active ``/healthz`` probe rounds.
        failure_threshold / reset_seconds: Per-replica health knobs, matching
            :class:`~repro.cluster.health.ReplicaHealth`.
        proxy_timeout: Per-request socket timeout when proxying.
        events: Optional shared :class:`EventLog` for ``replica_up`` /
            ``replica_down`` / ``corpus_replaced`` lifecycle events.
    """

    def __init__(
        self,
        replicas: Iterable[str],
        corpora: Mapping[str, CorpusSpec],
        *,
        default_corpus: str | None = None,
        ring_seed: int = 0,
        vnodes: int = 128,
        probe_interval: float = 1.0,
        failure_threshold: int = 2,
        reset_seconds: float = 5.0,
        proxy_timeout: float = 30.0,
        events: EventLog | None = None,
    ) -> None:
        urls = [url.rstrip("/") for url in replicas]
        if not urls:
            raise ValueError("router needs at least one replica URL")
        if len(set(urls)) != len(urls):
            raise ValueError("replica URLs must be distinct")
        self.corpora: dict[str, CorpusSpec] = dict(corpora)
        if default_corpus is None and self.corpora:
            default_corpus = sorted(self.corpora)[0]
        if default_corpus is not None and default_corpus not in self.corpora:
            raise ValueError(
                f"default corpus {default_corpus!r} is not among "
                f"{sorted(self.corpora)}"
            )
        self.default_corpus = default_corpus
        self.ring = ConsistentHashRing(urls, vnodes=vnodes, seed=ring_seed)
        self.health: dict[str, ReplicaHealth] = {
            url: ReplicaHealth(
                url,
                failure_threshold=failure_threshold,
                reset_seconds=reset_seconds,
            )
            for url in urls
        }
        #: Keep-alive connections to each replica, shared by proxying,
        #: probes and placement calls.
        self._pools: dict[str, UpstreamPool] = {url: UpstreamPool(url) for url in urls}
        self.probe_interval = probe_interval
        self.proxy_timeout = proxy_timeout
        self.events = events if events is not None else EventLog()
        self.metrics = MetricsRegistry()
        #: Per-replica registries rendered with ``labels={"replica": url}``.
        self._replica_metrics: dict[str, MetricsRegistry] = {
            url: MetricsRegistry() for url in urls
        }
        for url in urls:
            self._replica_metrics[url].gauge_set("router_replica_up", 1.0)
        #: Per-corpus registries rendered with ``labels={"corpus": name}``;
        #: seeded so the coalescing series is visible before the first merge.
        self._corpus_metrics: dict[str, MetricsRegistry] = {
            name: MetricsRegistry() for name in self.corpora
        }
        for name in self.corpora:
            self._corpus_metrics[name].increment("router_coalesced_total", 0)
        self.metrics.increment("router_drained_total", 0)
        #: Replicas removed by an orderly drain (kept for the health rollup).
        self.drained: list[str] = []
        self._coalescer = Coalescer()
        #: Live ``corpus -> replica`` map; mutations happen under the lock.
        self.placement: dict[str, str] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self.started_at = time.monotonic()

    # -- placement ---------------------------------------------------------------

    def _healthy(self, url: str) -> bool:
        # ``.get``: a drained replica vanishes from ``health`` while probe
        # threads and in-flight placements may still name it.
        health = self.health.get(url)
        return health is not None and health.is_up

    def _preferred_healthy(self, corpus: str) -> str | None:
        for url in self.ring.preference(corpus):
            if self._healthy(url):
                return url
        return None

    def bootstrap(self, *, attach: bool = True) -> dict[str, str]:
        """Probe every replica once, then place (and attach) every corpus.

        Placement walks each corpus's ring preference to the first healthy
        replica, so a fleet that starts with a dead member still comes up
        serving everything.  Returns the resulting placement map.
        """
        for url in sorted(self.health):
            self._probe_replica(url)
        with self._lock:
            for name in sorted(self.corpora):
                target = self._preferred_healthy(name)
                if target is None:
                    raise ReplicaUnavailableError(name)
                if attach:
                    self._attach(target, self.corpora[name])
                self.placement[name] = target
        return dict(self.placement)

    def route(self, corpus: str) -> str:
        """The replica URL currently serving ``corpus`` (re-placing if needed)."""
        with self._lock:
            if corpus not in self.corpora:
                raise CorpusNotFoundError(corpus)
            url = self.placement.get(corpus)
            if url is not None and self._healthy(url):
                return url
            return self._replace_corpus(corpus, reason="unhealthy_placement")

    def _replace_corpus(self, corpus: str, *, reason: str) -> str:
        """Move ``corpus`` to its preferred healthy replica (lock held).

        Attaches warm (snapshot when recorded), updates the placement map,
        bumps ``router_replaced_total`` and emits ``corpus_replaced``.
        """
        previous = self.placement.get(corpus)
        target = self._preferred_healthy(corpus)
        if target is None:
            raise ReplicaUnavailableError(corpus, replica=previous)
        if target == previous:
            return target
        self._attach(target, self.corpora[corpus])
        self.placement[corpus] = target
        self.metrics.increment("router_replaced_total")
        self.events.emit(
            "corpus_replaced",
            corpus=corpus,
            from_replica=previous,
            to_replica=target,
            reason=reason,
        )
        if previous is not None and self._healthy(previous):
            # Rebalance case: the old holder is alive, drop its copy so the
            # fleet stays shared-nothing.  Best-effort — a failed detach only
            # leaves a cold spare.
            try:
                self._request("DELETE", previous, f"/v1/corpora/{corpus}")
            except OSError:
                pass
        return target

    def _attach(self, url: str, spec: CorpusSpec) -> None:
        """``POST /v1/corpora`` on a replica; an existing attach is fine.

        409 is ambiguous on this surface: ``corpus_exists`` (the replica
        already holds it, warm — done) but also ``snapshot_mismatch`` (the
        recorded snapshot's config fingerprint is not this fleet's).
        Swallowing the latter would leave the placement map claiming a
        corpus no replica actually has, so a mismatched snapshot retries
        the attach cold instead — slower warm-up, correct service.
        """
        attach = spec.attach_body()
        if spec.name == self.default_corpus:
            # The replica hosting the router's default corpus also answers
            # the legacy single-corpus routes, which need a default tenant.
            attach["default"] = True
        code = self._post_attach(url, spec.name, attach)
        if code in ("snapshot_mismatch", "snapshot_corrupt") and "snapshot" in attach:
            cold = dict(attach)
            cold.pop("snapshot")
            code = self._post_attach(url, spec.name, cold)
        if code not in ("", "corpus_exists"):
            raise ReplicaUnavailableError(spec.name, replica=url)

    def _post_attach(self, url: str, name: str, attach: dict[str, Any]) -> str | None:
        """One attach call: ``""`` on success, else the error body's ``code``."""
        try:
            status, payload, _ = self._request(
                "POST",
                url,
                "/v1/corpora",
                body=json.dumps(attach).encode("utf-8"),
                headers=_JSON_HEADERS,
            )
        except OSError as exc:
            self._note_failure(url)
            raise ReplicaUnavailableError(name, replica=url) from exc
        if 200 <= status < 300:
            return ""
        try:
            return json.loads(payload).get("code")
        except (ValueError, AttributeError):  # not a taxonomy body
            return None

    def _request(
        self,
        method: str,
        url: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
        timeout: float | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """One exchange with a replica: ``(status, body, headers)`` for every status.

        Raises:
            OSError: The replica could not be reached or the exchange broke.
        """
        return self._pools[url].request(
            method, path, body=body, headers=headers, timeout=timeout or self.proxy_timeout
        )

    # -- health ------------------------------------------------------------------

    def start_probes(self) -> None:
        """Start the background ``/healthz`` probe loop (daemon thread)."""
        if self._probe_thread is not None:
            return
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="router-probe", daemon=True
        )
        self._probe_thread.start()

    def close(self) -> None:
        self._stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=self.probe_interval + 1.0)
            self._probe_thread = None
        for pool in self._pools.values():
            pool.close()

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval):
            for url in list(self.health):
                if self._stop.is_set():
                    return
                self._probe_replica(url)

    def _probe_replica(self, url: str) -> None:
        health = self.health.get(url)
        if health is None:
            return  # drained between the loop snapshot and this probe
        if not health.allow():
            return  # down and still cooling off
        try:
            status = self._request(
                "GET", url, "/healthz", timeout=min(self.proxy_timeout, 2.0)
            )[0]
        except Exception:  # noqa: BLE001 - any failed probe counts against the replica
            status = None
        if status == 200:
            self._note_success(url)
        else:
            self._note_failure(url)

    def _note_success(self, url: str) -> None:
        health = self.health.get(url)
        if health is not None and health.record_success():
            self._replica_metrics[url].gauge_set("router_replica_up", 1.0)
            self.events.emit("replica_up", replica=url)
            self._rebalance()

    def _note_failure(self, url: str) -> None:
        health = self.health.get(url)
        if health is not None and health.record_failure():
            self._replica_metrics[url].gauge_set("router_replica_up", 0.0)
            self._pools[url].clear()
            with self._lock:
                stranded = sorted(
                    name for name, holder in self.placement.items() if holder == url
                )
            self.events.emit("replica_down", replica=url, corpora=stranded)
            self._evacuate(url)

    def _evacuate(self, dead: str) -> None:
        """Re-place every corpus the dead replica held onto survivors."""
        with self._lock:
            stranded = sorted(
                name for name, holder in self.placement.items() if holder == dead
            )
            for name in stranded:
                try:
                    self._replace_corpus(name, reason="replica_down")
                except ReplicaUnavailableError:
                    # No healthy candidate right now; route() retries later.
                    continue

    def _rebalance(self) -> None:
        """Drift corpora back toward their ring-preferred healthy replicas."""
        with self._lock:
            for name in sorted(self.corpora):
                preferred = self._preferred_healthy(name)
                if preferred is not None and preferred != self.placement.get(name):
                    try:
                        self._replace_corpus(name, reason="rebalance")
                    except ReplicaUnavailableError:
                        continue

    # -- draining ----------------------------------------------------------------

    def drain(self, url: str) -> dict[str, Any]:
        """Orderly removal of a live replica: re-place first, forget second.

        The inverse ordering of failover.  For every corpus the replica
        holds: capture a fresh snapshot *from the draining replica* (it has
        the warmest artifacts), remove the replica from the ring so
        preference order already excludes it, warm-attach each corpus on its
        ring successor, flip routing, then detach the old copy.  Requests
        keep routing to the old holder until the flip (it is still attached
        and healthy), so the handover serves zero 5xx.

        Returns a JSON-ready report of what moved where.

        Raises:
            ReplicaNotFoundError: ``url`` is not a live fleet member.
            RequestValidationError: Draining would leave no healthy replica.
        """
        url = url.rstrip("/")
        if url not in self.health:
            raise ReplicaNotFoundError(url, sorted(self.health))
        with self._lock:
            survivors = [
                other for other in self.health
                if other != url and self._healthy(other)
            ]
            if not survivors:
                raise RequestValidationError(
                    f"cannot drain {url!r}: it is the last healthy replica"
                )
            held = sorted(
                name for name, holder in self.placement.items() if holder == url
            )
            self.events.emit("replica_draining", replica=url, corpora=held)
            for name in held:
                self.corpora[name] = self._refresh_snapshot(
                    url, self.corpora[name]
                )
            self.ring.remove_replica(url)
            moved: dict[str, str] = {}
            for name in held:
                moved[name] = self._replace_corpus(name, reason="drain")
            del self.health[url]
            self._pools[url].close()
            self._replica_metrics[url].gauge_set("router_replica_up", 0.0)
            self.drained.append(url)
            self.metrics.increment("router_drained_total")
            self.events.emit(
                "replica_drained", replica=url, corpora=held, moved=moved
            )
            return {
                "drained": url,
                "moved": moved,
                "placements": dict(self.placement),
                "remaining_replicas": sorted(self.health),
            }

    def _refresh_snapshot(self, url: str, spec: CorpusSpec) -> CorpusSpec:
        """Ask a live replica to record a fresh snapshot of one corpus.

        The draining replica's artifacts are the warmest copy in the fleet,
        so the successor should attach from them, not from whatever file the
        operator recorded at bootstrap.  Best-effort: any failure (cold
        tenant, unreachable replica) keeps the previously recorded spec.
        """
        path = spec.snapshot
        if path is None:
            path = str(
                Path(tempfile.gettempdir())
                / f"repager-drain-{spec.name}-{new_id()}.snapshot.json"
            )
        body = json.dumps({"path": path}).encode("utf-8")
        try:
            status = self._request(
                "POST",
                url,
                f"/v1/corpora/{spec.name}/snapshot",
                body=body,
                headers=_JSON_HEADERS,
            )[0]
        except OSError:
            return spec
        if status != 200 or spec.snapshot == path:
            return spec
        return CorpusSpec(
            name=spec.name, corpus_dir=spec.corpus_dir, snapshot=path
        )

    # -- proxying ----------------------------------------------------------------

    #: Body fields a router-coalescable query may carry.  Anything else
    #: (``debug`` traces, ``variant`` overrides, unknown fields destined for
    #: the replica's own validation) opts the request out of merging.
    _COALESCE_FIELDS = ("query", "year_cutoff", "exclude_ids", "use_cache")

    def _coalesce_key(
        self, corpus: str, method: str, path: str, body: bytes | None
    ) -> Hashable | None:
        """The canonical merge key for a query request, or ``None``.

        Validates the body with the replicas' own
        :func:`~repro.serving.executor.validate_query_body` and keys on
        :func:`~repro.serving.cache.make_query_key` — the canonicalisation
        the replicas' executors coalesce on — minus the pipeline fingerprint
        (one corpus has one configuration fleet-wide), namespaced by corpus
        and prefixed by the route: the legacy ``/query`` alias and
        ``/v1/corpora/<name>/query`` answer in different shapes, so they
        never share a response.  ``use_cache: false`` is an explicit
        freshness demand and never merges; a body the replica would reject
        runs alone and gets the replica's own 400.
        """
        # Runtime import: serving.executor imports cluster.state, whose
        # package import loads this module.
        from ..serving.executor import validate_query_body

        route = path.partition("?")[0].rstrip("/")
        if method != "POST" or not body or not route.endswith("/query"):
            return None
        try:
            doc = json.loads(body)
            if not isinstance(doc, dict):
                return None
            doc = validate_query_body(doc, self._COALESCE_FIELDS)
        except ValueError:  # malformed JSON and RequestValidationError alike
            return None
        if not doc["use_cache"]:
            return None
        return route, make_query_key(
            doc["query"], doc["year_cutoff"], doc["exclude_ids"], "", namespace=corpus
        )

    def proxy(
        self,
        corpus: str,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """Forward one request to ``corpus``'s replica, merging duplicates.

        Identical in-flight cacheable queries (same route, canonical key and
        corpus) collapse onto one upstream request: the first caller leads,
        the rest wait on its future and share the outcome byte-for-byte —
        taxonomy errors included — each counted by the corpus's
        ``router_coalesced_total``.  Everything else proxies directly.
        """
        key = self._coalesce_key(corpus, method, path, body)
        if key is None:
            return self._proxy_upstream(
                corpus, method, path, body=body, headers=headers
            )
        future, leads = self._coalescer.join(key)
        if not leads:
            self.metrics.increment("router_requests_total")
            corpus_metrics = self._corpus_metrics.get(corpus)
            if corpus_metrics is not None:
                corpus_metrics.increment("router_coalesced_total")
            return future.result()
        try:
            outcome = self._proxy_upstream(
                corpus, method, path, body=body, headers=headers
            )
        except BaseException as exc:
            future.set_exception(exc)
            raise
        future.set_result(outcome)
        return outcome

    def _proxy_upstream(
        self,
        corpus: str,
        method: str,
        path: str,
        *,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """Forward one request to ``corpus``'s replica, passing bytes through.

        Replica HTTP errors (4xx/5xx taxonomy bodies) come back unchanged —
        status, body and ``Retry-After`` are the replica's own, preserving
        byte-identity with a direct single-replica serve; any answer counts
        as the replica being alive.  Connection-level failures count against
        the replica's health (possibly triggering evacuation) and surface as
        :class:`ReplicaUnavailableError`.
        """
        url = self.route(corpus)
        self.metrics.increment("router_requests_total")
        started = time.monotonic()
        try:
            status, payload, response_headers = self._request(
                method, url, path, body=body, headers=headers
            )
        except OSError as exc:
            self._note_failure(url)
            raise ReplicaUnavailableError(corpus, replica=url) from exc
        self._replica_metrics[url].observe(
            "router_replica_latency_seconds", time.monotonic() - started
        )
        self._note_success_quiet(url)
        return status, payload, response_headers

    def _note_success_quiet(self, url: str) -> None:
        # Proxy successes reset failure runs but only a real revival emits.
        health = self.health.get(url)
        if health is not None and health.record_success():
            self._replica_metrics[url].gauge_set("router_replica_up", 1.0)
            self.events.emit("replica_up", replica=url)

    # -- surfaces ----------------------------------------------------------------

    def health_report(self) -> dict[str, Any]:
        """The router's own ``/healthz`` body: fleet rollup + placements."""
        with self._lock:
            placements = dict(self.placement)
        replicas = {url: self.health[url].describe() for url in sorted(self.health)}
        healthy = sum(1 for url in self.health if self._healthy(url))
        placed = sum(
            1
            for name, url in placements.items()
            if url is not None and self._healthy(url)
        )
        status = "ok" if placed == len(self.corpora) and healthy > 0 else "degraded"
        return {
            "status": status,
            "role": "router",
            "replicas": replicas,
            "healthy_replicas": healthy,
            "num_replicas": len(self.health),
            "placements": placements,
            "drained_replicas": list(self.drained),
            "default_corpus": self.default_corpus,
            "ring": self.ring.describe(),
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    def metrics_text(self) -> str:
        """Router exposition: own series + per-replica labelled series.

        Concatenated renders repeat each family's HELP/TYPE preamble; keep
        only the first occurrence of every comment line (the PR-6 idiom the
        app's multi-tenant ``/metrics`` uses).
        """
        parts = [self.metrics.render_text()]
        for url in sorted(self._replica_metrics):
            parts.append(
                self._replica_metrics[url].render_text(labels={"replica": url})
            )
        for name in sorted(self._corpus_metrics):
            parts.append(
                self._corpus_metrics[name].render_text(labels={"corpus": name})
            )
        lines: list[str] = []
        seen_comments: set[str] = set()
        for part in parts:
            for line in part.splitlines():
                if not line:
                    continue
                if line.startswith("#"):
                    if line in seen_comments:
                        continue
                    seen_comments.add(line)
                lines.append(line)
        return "\n".join(lines) + "\n"


class RouterHTTPServer(JSONServer):
    """Threading HTTP front door over one :class:`RouterApp`."""

    def __init__(
        self,
        address: tuple[str, int],
        router: RouterApp,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _RouterHandler, quiet=quiet)
        self.router = router


def create_router_server(
    router: RouterApp,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> RouterHTTPServer:
    """Build (but do not start) the router's HTTP server."""
    return RouterHTTPServer((host, port), router, quiet=quiet)


def start_router_in_background(server: RouterHTTPServer) -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests and embedding)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repager-router", daemon=True
    )
    thread.start()
    return thread


#: Body-size cap for proxied requests; mirrors ServingConfig.max_body_bytes'
#: default so the router rejects floods before buffering them.
_MAX_BODY_BYTES = 1 << 20


class _RouterHandler(JSONHandler):
    """Route dispatch: router-local surfaces + pass-through proxying."""

    server: RouterHTTPServer  # narrowed type
    server_version = "RePaGerRouter/1.0"

    def _route(self, method: str, segments: list[str]) -> None:
        router = self.server.router
        versioned = segments[:1] == ["v1"]
        tail = segments[1:] if versioned else segments

        if method == "GET" and tail == ["healthz"]:
            self._send_json(200, router.health_report())
            return
        if method == "GET" and tail == ["metrics"]:
            self._send_text(200, router.metrics_text())
            return

        # Router-local admin: orderly drain of one replica.  The URL arrives
        # url-encoded so it survives path splitting as a single segment.
        if (
            versioned
            and method == "DELETE"
            and len(tail) == 2
            and tail[0] == "replicas"
        ):
            self._send_json(200, router.drain(urllib.parse.unquote(tail[1])))
            return

        # Corpus-bearing /v1 routes proxy to the placed replica.
        if versioned and len(tail) >= 2 and tail[0] == "corpora":
            self._proxy(tail[1], method)
            return

        # Corpus-less surfaces (corpora listing, traces, events, legacy
        # /query and /paper) follow the default corpus's replica.
        default = router.default_corpus
        if default is not None:
            if versioned and tail[:1] in (["corpora"], ["traces"], ["events"]):
                self._proxy(default, method)
                return
            if not versioned and segments[:1] in (["query"], ["paper"]):
                self._proxy(default, method)
                return

        self._not_found(method)

    def _proxy(self, corpus: str, method: str) -> None:
        body = self._read_body(_MAX_BODY_BYTES) if method == "POST" else b""
        headers = {"X-Request-Id": self.request_id}
        for name in _FORWARD_HEADERS:
            value = self.headers.get(name)
            if value is not None:
                headers[name] = value
        status, payload, response_headers = self.server.router.proxy(
            corpus, method, self.path, body=body or None, headers=headers
        )
        passthrough = {
            name: response_headers[name]
            for name in _RETURN_HEADERS
            if name in response_headers
        }
        content_type = passthrough.pop("Content-Type", "application/json")
        self._send_bytes(status, payload, content_type, passthrough)
