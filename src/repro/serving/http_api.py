"""Dependency-free, versioned HTTP JSON API over a :class:`RePaGerApp`.

This is the server half of the paper's Fig. 7 web application, built entirely
on :mod:`http.server` so the serving layer stays stdlib-only.  Since the
multi-tenant application layer (:mod:`repro.repager.app`) one process hosts N
named corpora behind a versioned ``/v1`` surface:

=========================================  ===================================
``GET /v1/corpora``                        List attached corpora (resident
                                           and evicted, with ``resident``
                                           state flags).
``POST /v1/corpora``                       Attach a corpus at runtime.  Body:
                                           ``{"name": str, "corpus_dir": str,
                                           "default": bool, "warm_up": bool,
                                           "snapshot": str path for warm
                                           attach, "overrides": per-tenant
                                           cache-TTL/timeout/quota/weight
                                           object}``.
``DELETE /v1/corpora/<name>``              Detach a corpus (evicted ones
                                           too).
``POST /v1/corpora/<name>/query``          Generate (or serve from cache) a
                                           reading path.  Body:
                                           :meth:`QueryOptions.from_dict`;
                                           response: ``{"payload": ...,
                                           "serving": ...}``.
``POST /v1/corpora/<name>/snapshot``       Record a fresh ``ArtifactSnapshot``
                                           of a resident corpus to ``{"path":
                                           str}`` (the router's orderly-drain
                                           handover).
``GET /v1/corpora/<name>/paper/<id>``      Detail record for one paper.
``GET /v1/corpora/<name>``                 Per-corpus detail (same body as
                                           ``.../healthz``): sizes, config
                                           fingerprint, readiness flags,
                                           ``quota_usage``, and the
                                           ``scheduler`` section — the
                                           tenant's fair-share ``weight``,
                                           live ``queue_depth`` and
                                           ``coalesced_total``.
``GET /v1/corpora/<name>/healthz``         Per-corpus health: sizes, config
                                           fingerprint, warm-up/index
                                           readiness flags.
``GET /healthz`` (also ``/v1/healthz``)    Aggregate health across corpora.
``GET /metrics`` (also ``/v1/metrics``)    Prometheus-style text metrics,
                                           per-corpus series labelled
                                           ``corpus="<name>"``.
``GET /v1/traces``                         Recent and slow query traces
                                           (summaries), filterable with
                                           ``?corpus=`` / ``?limit=``.
``GET /v1/traces/<trace_id>``              Full span tree of one stored
                                           trace (404 ``trace_not_found``
                                           once it rolls off the buffer).
``GET /v1/events``                         Recent structured lifecycle
                                           events (attach/detach/evict/
                                           re-attach/quota-reject),
                                           filterable with ``?event=`` /
                                           ``?corpus=`` / ``?limit=``.
``GET/POST/DELETE /v1/faults``             Test-only fault-injection surface
                                           (inspect / arm / disarm a plan of
                                           ``STAGE=ACTION[:ARG[:TRIGGER]]``
                                           rules).  Hidden behind
                                           ``ServingConfig.
                                           allow_fault_injection`` — 404
                                           otherwise.
=========================================  ===================================

Resilience semantics: queries accept an ``X-Request-Deadline: <seconds>``
header (the remaining client budget).  A request's one time budget is the
earlier of that and the tenant's ``query_timeout_seconds``; it is shed with
504 before consuming a worker when it can be, and a solve that runs past it
stops at its next checkpoint — ``deadline_exceeded`` when the client's
deadline ran out, ``timeout`` when the tenant's did.  Degraded stale-cache
responses carry a ``Warning: 110`` header plus ``serving.degraded`` markers,
and every 5xx or backpressure response carries a ``Retry-After`` derived
from the live scheduler queue depth (or the circuit breaker's remaining
cooldown).

Every response carries an ``X-Request-Id`` header — the caller's own header
value when one was sent, a freshly minted id otherwise — and query responses
repeat it in ``serving.request_id`` so clients can correlate a payload with
its trace on ``/v1/traces/<trace_id>``.

The pre-``/v1`` single-corpus routes are kept as thin aliases onto the
registry's default tenant and answer with a ``Deprecation`` header plus a
``Link`` to the successor route:

* ``POST /query``      → ``POST /v1/corpora/<default>/query`` (response body
  stays in the legacy top-level shape);
* ``GET /paper/<id>``  → ``GET /v1/corpora/<default>/paper/<id>``.

Failures are mapped through the shared error taxonomy of
:mod:`repro.errors`: every error body carries a stable machine-readable
``code`` (mirrored in ``error`` for pre-``/v1`` clients), the ``http_status``
it was served with and a human-readable ``detail``.  Oversized request bodies
are rejected with 413 before buffering (``ServingConfig.max_body_bytes``);
executor overload and spent per-tenant quotas yield 429 with ``Retry-After``;
an expired request budget yields 504.

Requests are handled by the shared transport of
:mod:`repro.serving.transport` (one thread per keep-alive connection, one
write per response on a ``TCP_NODELAY`` socket); admission control and
deadline enforcement come from the app's single bounded
:class:`~repro.serving.executor.BatchExecutor` shared across all tenants, so
overload behaviour is identical for HTTP and programmatic batch clients.
"""

from __future__ import annotations

import json
import math
import threading
import time
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs

from ..config import ServingConfig, TenantOverrides
from ..errors import RequestValidationError, UnknownFieldsError
from .metrics import MetricsRegistry
from .transport import JSONHandler, JSONServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..repager.app import RePaGerApp
    from ..repager.service import RePaGerService

__all__ = ["RePaGerHTTPServer", "create_server", "start_in_background"]


class RePaGerHTTPServer(JSONServer):
    """Threading HTTP server over one multi-tenant :class:`RePaGerApp`."""

    def __init__(
        self,
        address: tuple[str, int],
        app: "RePaGerApp",
        quiet: bool = True,
    ) -> None:
        super().__init__(address, _Handler, quiet=quiet)
        self.app = app
        self.started_at = time.monotonic()

    @property
    def executor(self):
        """The app's shared executor.

        Note the contract change from the pre-``/v1`` server: this executor's
        ``run_one``/``run_batch`` return
        :class:`~repro.repager.app.QueryResponse` objects (payload + serving
        metadata), not bare ``PathPayload`` values — embedders that consumed
        ``run_one(...).to_dict()`` directly should read ``.payload`` first or
        migrate to :meth:`RePaGerApp.query`.
        """
        return self.app.executor

    @property
    def metrics(self) -> MetricsRegistry:
        return self.app.metrics

    @property
    def service(self) -> "RePaGerService":
        """The default tenant's service (kept for pre-``/v1`` embedders)."""
        return self.app.registry.default().service


def create_server(
    service: "RePaGerService | RePaGerApp",
    config: ServingConfig | None = None,
    metrics: MetricsRegistry | None = None,
    quiet: bool = True,
) -> RePaGerHTTPServer:
    """Build (but do not start) the HTTP server.

    Accepts either a ready :class:`RePaGerApp` (the multi-tenant path) or a
    bare :class:`RePaGerService`, which is wrapped into a single-tenant app
    under ``config.default_corpus`` — the pre-``/v1`` embedding API keeps
    working unchanged.  When wrapping a service, its own metrics registry is
    reused so cache and pipeline timings land in the same registry the
    ``/metrics`` endpoint renders.
    """
    from ..repager.app import RePaGerApp  # runtime import: avoids module cycle

    config = config or ServingConfig()
    if isinstance(service, RePaGerApp):
        if metrics is not None:
            raise ValueError(
                "metrics cannot be overridden for a ready RePaGerApp; "
                "pass them to the RePaGerApp constructor instead"
            )
        app = service
    else:
        if metrics is None:
            metrics = getattr(service, "metrics", None) or MetricsRegistry(
                config.max_latency_samples
            )
        app = RePaGerApp(config=config, metrics=metrics)
        app.attach_service(config.default_corpus, service, default=True)
    return RePaGerHTTPServer((config.host, config.port), app, quiet=quiet)


def start_in_background(server: RePaGerHTTPServer) -> threading.Thread:
    """Run ``serve_forever`` on a daemon thread (tests and embedding)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repager-http", daemon=True
    )
    thread.start()
    return thread


class _Handler(JSONHandler):
    """Route dispatch for the JSON API."""

    server: RePaGerHTTPServer  # narrowed type
    server_version = "RePaGerServing/1.0"

    # -- dispatch ----------------------------------------------------------------

    def _route(self, method: str, segments: list[str]) -> None:
        app = self.server.app
        versioned = segments[:1] == ["v1"]
        tail = segments[1:] if versioned else segments

        if method == "GET":
            if tail == ["healthz"]:
                self._send_json(200, self._aggregate_health())
                return
            if tail == ["metrics"]:
                self._send_text(200, app.metrics_text())
                return
            if versioned and tail == ["corpora"]:
                self._send_json(200, {"corpora": app.corpora()})
                return
            if versioned and tail == ["traces"]:
                self._traces()
                return
            if versioned and len(tail) == 2 and tail[0] == "traces":
                self._trace_detail(tail[1])
                return
            if versioned and tail == ["events"]:
                self._events()
                return
            if versioned and tail == ["faults"]:
                if self._fault_surface_allowed(method):
                    self._send_json(200, app.fault_status())
                return
            if versioned and len(tail) == 2 and tail[0] == "corpora":
                self._send_json(200, app.health(tail[1]))
                return
            if (
                versioned
                and len(tail) == 3
                and tail[0] == "corpora"
                and tail[2] == "healthz"
            ):
                self._send_json(200, app.health(tail[1]))
                return
            if (
                versioned
                and len(tail) == 4
                and tail[0] == "corpora"
                and tail[2] == "paper"
            ):
                self._send_json(200, app.paper_details(tail[3], corpus=tail[1]))
                return
            if not versioned and len(segments) == 2 and segments[0] == "paper":
                details = app.paper_details(segments[1])
                self._send_json(
                    200,
                    details,
                    extra_headers=self._deprecation_headers(f"paper/{segments[1]}"),
                )
                return

        elif method == "POST":
            if versioned and tail == ["corpora"]:
                self._attach()
                return
            if (
                versioned
                and len(tail) == 3
                and tail[0] == "corpora"
                and tail[2] == "query"
            ):
                self._query(tail[1])
                return
            if (
                versioned
                and len(tail) == 3
                and tail[0] == "corpora"
                and tail[2] == "snapshot"
            ):
                self._snapshot_corpus(tail[1])
                return
            if versioned and tail == ["faults"]:
                if self._fault_surface_allowed(method):
                    self._arm_faults()
                return
            if not versioned and segments == ["query"]:
                self._legacy_query()
                return

        elif method == "DELETE":
            if versioned and tail == ["faults"]:
                if self._fault_surface_allowed(method):
                    self._send_json(200, app.disarm_faults())
                return
            if versioned and len(tail) == 2 and tail[0] == "corpora":
                self._detach(tail[1])
                return

        self._not_found(method)

    # -- handlers ----------------------------------------------------------------

    def _aggregate_health(self) -> dict[str, Any]:
        body = self.server.app.health()
        body["uptime_seconds"] = time.monotonic() - self.server.started_at
        return body

    def _request_deadline(self) -> float | None:
        """Absolute monotonic deadline from ``X-Request-Deadline`` (seconds).

        The header carries the client's remaining budget in seconds (e.g.
        ``X-Request-Deadline: 2.5``); a malformed or non-positive value is a
        400 rather than a silently ignored deadline.
        """
        raw = self.headers.get("X-Request-Deadline")
        if raw is None:
            return None
        try:
            budget = float(raw.strip())
        except ValueError:
            raise RequestValidationError(
                "X-Request-Deadline must be a number of seconds"
            ) from None
        if not budget > 0 or math.isinf(budget) or math.isnan(budget):
            raise RequestValidationError(
                "X-Request-Deadline must be a positive, finite number of seconds"
            )
        return time.monotonic() + budget

    def _degraded_headers(self, response: Any) -> dict[str, str] | None:
        """``Warning: 110`` (RFC 9111 "response is stale") on degraded serves."""
        if not getattr(response, "degraded", False):
            return None
        reason = getattr(response, "degraded_reason", None) or "solve_failed"
        return {"Warning": f'110 repager "stale payload served: {reason}"'}

    def _query(self, corpus: str) -> None:
        from ..repager.app import QueryOptions  # runtime import: module cycle

        deadline = self._request_deadline()
        options = QueryOptions.from_dict(self._read_json())
        response = self.server.app.query(
            options, corpus=corpus, request_id=self.request_id, deadline=deadline
        )
        self._send_json(
            200, response.to_dict(), extra_headers=self._degraded_headers(response)
        )

    def _legacy_query(self) -> None:
        from ..repager.app import QueryOptions  # runtime import: module cycle

        deadline = self._request_deadline()
        options = QueryOptions.from_dict(self._read_json())
        response = self.server.app.query(
            options, request_id=self.request_id, deadline=deadline
        )
        headers = self._deprecation_headers("query")
        headers.update(self._degraded_headers(response) or {})
        self._send_json(200, response.to_legacy_dict(), extra_headers=headers)

    def _traces(self) -> None:
        app = self.server.app
        corpus = self._param("corpus")
        limit = self._int_param("limit", 50)
        body = {
            "traces": app.traces(corpus=corpus, limit=limit),
            "slow": app.traces(corpus=corpus, limit=limit, slow=True),
            "slow_threshold_seconds": app.tracer.slow_threshold_seconds,
        }
        self._send_json(200, body)

    def _trace_detail(self, trace_id: str) -> None:
        detail = self.server.app.trace_detail(trace_id)
        if detail is None:
            self._send_json(
                404,
                {
                    "error": "trace_not_found",
                    "code": "trace_not_found",
                    "http_status": 404,
                    "detail": f"no stored trace with id {trace_id!r}",
                    "trace_id": trace_id,
                },
            )
            return
        self._send_json(200, detail)

    def _events(self) -> None:
        events = self.server.app.events
        body = {
            "events": events.tail(
                self._int_param("limit", 100),
                event=self._param("event"),
                corpus=self._param("corpus"),
            ),
            "last_seq": events.last_seq,
        }
        self._send_json(200, body)

    def _attach(self) -> None:
        from ..serving.warmup import ArtifactSnapshot, warm_up

        body = self._read_json()
        allowed = ("name", "corpus_dir", "default", "warm_up", "snapshot", "overrides")
        unknown = tuple(key for key in body if key not in allowed)
        if unknown:
            raise UnknownFieldsError(unknown, allowed)
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise RequestValidationError("'name' must be a non-empty string")
        corpus_dir = body.get("corpus_dir")
        if not isinstance(corpus_dir, str) or not corpus_dir:
            raise RequestValidationError("'corpus_dir' must be a non-empty string")
        default = body.get("default", False)
        if not isinstance(default, bool):
            raise RequestValidationError("'default' must be a boolean")
        warm = body.get("warm_up", True)
        if not isinstance(warm, bool):
            raise RequestValidationError("'warm_up' must be a boolean")
        snapshot_path = body.get("snapshot")
        if snapshot_path is not None and (
            not isinstance(snapshot_path, str) or not snapshot_path
        ):
            raise RequestValidationError("'snapshot' must be a non-empty string or null")
        raw_overrides = body.get("overrides")
        overrides = None
        if raw_overrides is not None:
            if not isinstance(raw_overrides, dict):
                raise RequestValidationError("'overrides' must be an object or null")
            overrides = TenantOverrides.from_dict(raw_overrides)
        # Attach without touching the default yet: if warm-up fails the
        # registry must be exactly as it was, and while warm-up runs legacy
        # traffic must keep hitting the previous (warm) default.
        self.server.app.attach_directory(
            name, corpus_dir, overrides=overrides, snapshot_path=snapshot_path
        )
        tenant = self.server.app.registry.get(name)
        try:
            if warm:
                # warm_up accepts the snapshot path directly (warm attach).
                warm_up(tenant.service, snapshot=snapshot_path)
            elif snapshot_path is not None:
                # An explicitly shipped snapshot must never be silently
                # dropped, even without eager warm-up.
                ArtifactSnapshot.load(snapshot_path).restore_into(tenant.service)
        except Exception:
            # Never leave a half-warmed tenant attached: queries would
            # route to it and a retried attach would 409.
            self.server.app.detach(name)
            raise
        if default:
            self.server.app.registry.set_default(name)
        self._send_json(201, self.server.app.health(name))

    def _snapshot_corpus(self, name: str) -> None:
        """Record a fresh ``ArtifactSnapshot`` of one resident corpus.

        Backs the router's orderly drain: the draining replica holds the
        warmest artifacts in the fleet, so the router asks *it* — not the
        bootstrap-era file — for the snapshot its successor warms from.
        Body: ``{"path": str}`` (where to write the snapshot file).
        """
        from ..serving.warmup import capture_snapshot  # runtime import: cycle

        body = self._read_json()
        allowed = ("path",)
        unknown = tuple(key for key in body if key not in allowed)
        if unknown:
            raise UnknownFieldsError(unknown, allowed)
        path = body.get("path")
        if not isinstance(path, str) or not path:
            raise RequestValidationError("'path' must be a non-empty string")
        tenant = self.server.app.registry.get(name)
        snapshot = capture_snapshot(tenant.service, path)
        self._send_json(
            200,
            {
                "corpus": name,
                "snapshot": path,
                "config_fingerprint": snapshot.config_fingerprint,
            },
        )

    def _detach(self, name: str) -> None:
        self.server.app.detach(name)
        registry = self.server.app.registry
        self._send_json(
            200,
            {
                "detached": name,
                "remaining": list(registry.names()),
                "default_corpus": registry.default_name,
            },
        )

    def _fault_surface_allowed(self, method: str) -> bool:
        """Gate on ``ServingConfig.allow_fault_injection``.

        When fault injection is off the surface is indistinguishable from a
        missing route (404) — production deployments must not even reveal
        that a chaos API exists.
        """
        if self.server.app.config.allow_fault_injection:
            return True
        self._not_found(method)
        return False

    def _arm_faults(self) -> None:
        """``POST /v1/faults`` — arm a plan: ``{"faults": [...], "seed": N}``."""
        body = self._read_json()
        allowed = ("faults", "seed")
        unknown = tuple(key for key in body if key not in allowed)
        if unknown:
            raise UnknownFieldsError(unknown, allowed)
        specs = body.get("faults")
        if (
            not isinstance(specs, list)
            or not specs
            or not all(isinstance(item, str) for item in specs)
        ):
            raise RequestValidationError(
                "'faults' must be a non-empty list of STAGE=ACTION[:ARG[:TRIGGER]] strings"
            )
        seed = body.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise RequestValidationError("'seed' must be an integer or null")
        self._send_json(200, self.server.app.arm_faults(specs, seed=seed))

    def _deprecation_headers(self, successor_path: str) -> dict[str, str]:
        """``Deprecation`` plus a ``Link`` to the complete successor route."""
        headers = {"Deprecation": "true"}
        default = self.server.app.registry.default_name
        if default is not None:
            headers["Link"] = (
                f"</v1/corpora/{default}/{successor_path}>; rel=\"successor-version\""
            )
        return headers

    # -- plumbing ----------------------------------------------------------------

    def _param(self, name: str) -> str | None:
        values = parse_qs(self.path.partition("?")[2]).get(name)
        return values[-1] if values else None

    def _int_param(self, name: str, default: int) -> int:
        raw = self._param(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise RequestValidationError(
                f"query parameter {name!r} must be an integer"
            ) from None
        if value < 1:
            raise RequestValidationError(f"query parameter {name!r} must be >= 1")
        return value

    def _read_json(self) -> dict[str, Any]:
        raw = self._read_body(self.server.app.config.max_body_bytes)
        if not raw:
            # A negative Content-Length may still be followed by body bytes.
            self.close_connection = True
            raise RequestValidationError("request body is required")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RequestValidationError(
                f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise RequestValidationError("request body must be a JSON object")
        return payload

    def _retry_after(self) -> str:
        """A live backoff hint: how long until queued work likely drains.

        Derived from the scheduler's current queue depth and worker count —
        an empty queue suggests retrying in a second; a deep queue pushes the
        hint out proportionally so retries do not pile onto the backlog.
        """
        app = self.server.app
        depth = app.metrics.gauge("scheduler_queue_depth")
        workers = max(1, app.config.max_workers)
        return str(max(1, math.ceil((depth + 1) / workers)))
