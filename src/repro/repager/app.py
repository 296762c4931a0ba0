"""Multi-tenant application layer: many corpora behind one typed contract.

The paper ships RePaGer as one web application over one corpus; a production
deployment hosts *many* — one per research domain, per customer, per corpus
snapshot generation — behind a single process and a single stable API.  This
module is that layer:

* :class:`CorpusRegistry` owns N named tenants.  Each :class:`Tenant` wraps a
  :class:`~repro.repager.service.RePaGerService` with its own store, graph
  snapshot and indexes, a *namespaced* slice of the shared result cache, and
  its own labelled metrics registry;
* :class:`RePaGerApp` is the facade every front end goes through — the
  programmatic API, :class:`~repro.serving.executor.BatchExecutor` batches and
  the ``/v1`` HTTP surface all speak the same typed contract:
  :class:`QueryOptions` in, :class:`QueryResponse` out, and failures carry the
  machine-readable taxonomy of :mod:`repro.errors` (``code``, ``http_status``,
  ``detail``);
* one **bounded executor is shared across tenants**, so admission control and
  per-request deadlines bound the whole process no matter how many corpora
  are attached;
* **per-tenant fairness and lifecycle**: each tenant may carry
  :class:`~repro.config.TenantOverrides` (cache TTL, query timeout, a
  :class:`~repro.config.TenantQuota` admission policy) resolved at attach
  time, and the registry tracks per-tenant idleness so that — past a
  configurable resident limit — the least recently used corpus is *evicted*:
  its artifacts are snapshotted to disk, its memory, cache namespace and
  metrics label dropped, and the next request transparently re-attaches it
  from the recorded :class:`~repro.serving.warmup.ArtifactSnapshot`;
* per-request **pipeline-variant overrides**: a query may name any Table III
  variant (``"NEWST-W"``, ``"NEWST-C"``, ...) and the tenant's service lazily
  builds a variant pipeline over the base pipeline's weight builder (CSR
  snapshot, node weights, edge relevance) and search index — only the
  Steiner-stage configuration differs.
"""

from __future__ import annotations

import random
import re
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Hashable, Mapping, Sequence

from ..cluster.cache import SqliteCacheStore
from ..cluster.state import SqliteQuotaStore
from ..config import PipelineConfig, ServingConfig, TenantOverrides
from ..corpus.storage import CorpusStore
from ..errors import (
    CircuitOpenError,
    CorpusNotFoundError,
    DeadlineExceededError,
    DuplicateCorpusError,
    QueryTimeoutError,
    ReproError,
    RequestValidationError,
    ServingError,
    SnapshotCorruptError,
)
from ..obs.events import EventLog
from ..obs.trace import Trace, Tracer
from ..resilience.circuit import CircuitBreaker
from ..resilience.faults import FaultPlan, active_plan, arm, disarm
from ..serving.cache import ResultCache, make_query_key
from ..serving.executor import BatchExecutor, QueryRequest, validate_query_body
from ..serving.metrics import MetricsRegistry
from .service import PathPayload, RePaGerService, normalize_variant

__all__ = [
    "CorpusRegistry",
    "EvictedTenant",
    "QueryOptions",
    "QueryResponse",
    "RePaGerApp",
    "Tenant",
    "normalize_variant",
]

#: Label used for a query answered by the tenant's configured base pipeline
#: (no per-request variant override).
DEFAULT_VARIANT = "default"

#: Corpus names must be URL- and metric-label-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


@dataclass(frozen=True, slots=True)
class QueryOptions:
    """Typed request contract shared by every front end.

    Attributes:
        query: Free-text topic query.
        year_cutoff: Only consider papers published up to this year.
        exclude_ids: Paper ids the reading path must not contain.
        variant: Optional per-request pipeline-variant override (a Table III
            name, case-insensitive).  ``None`` runs the tenant's configured
            base pipeline.
        use_cache: Cache policy — ``False`` bypasses the result cache for
            this request (lookup *and* store).
        debug: When true, the response carries the query's full span tree
            (per-stage timing breakdown) inline in its serving metadata.
    """

    query: str
    year_cutoff: int | None = None
    exclude_ids: tuple[str, ...] = ()
    variant: str | None = None
    use_cache: bool = True
    debug: bool = False

    _FIELDS = ("query", "year_cutoff", "exclude_ids", "use_cache", "variant", "debug")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryOptions":
        """Validate a JSON body into options, rejecting unknown fields.

        Unknown keys raise :class:`~repro.errors.UnknownFieldsError` naming
        each offender (HTTP 400), so client typos fail loudly instead of
        silently running a different query.
        """
        body = validate_query_body(dict(payload), cls._FIELDS)
        variant = body.get("variant")
        if variant is not None:
            if not isinstance(variant, str):
                raise RequestValidationError("'variant' must be a string or null")
            variant = normalize_variant(variant)
        debug = body.get("debug", False)
        if not isinstance(debug, bool):
            raise RequestValidationError("'debug' must be a boolean")
        return cls(
            query=body["query"],
            year_cutoff=body["year_cutoff"],
            exclude_ids=body["exclude_ids"],
            variant=variant,
            use_cache=body["use_cache"],
            debug=debug,
        )

    def to_request(
        self, corpus: str | None = None, deadline: float | None = None
    ) -> QueryRequest:
        """The executor-level request carrying the routing fields.

        ``deadline`` is an absolute ``time.monotonic()`` instant; the
        executor sheds the request at admission, dispatch and solve-loop
        checkpoints once it has passed.
        """
        return QueryRequest(
            text=self.query,
            year_cutoff=self.year_cutoff,
            exclude_ids=self.exclude_ids,
            use_cache=self.use_cache,
            corpus=corpus,
            variant=self.variant,
            debug=self.debug,
            deadline=deadline,
        )


@dataclass(frozen=True, slots=True)
class QueryResponse:
    """Typed response contract: the payload plus serving metadata.

    ``request_id`` correlates the response with the ``X-Request-Id`` header
    and the trace store; ``trace`` carries the full span tree (per-stage
    timing breakdown) when the request asked for ``debug: true``.
    ``degraded`` marks a stale cache entry served after a solve failure —
    the marker keys are *absent* on normal responses so the golden contract
    stays byte-identical.
    """

    payload: PathPayload
    corpus: str
    variant: str
    cached: bool
    config_fingerprint: str
    served_in_seconds: float = 0.0
    request_id: str | None = None
    trace: Mapping[str, Any] | None = None
    degraded: bool = False
    degraded_reason: str | None = None

    def serving_meta(self) -> dict[str, Any]:
        meta: dict[str, Any] = {
            "corpus": self.corpus,
            "variant": self.variant,
            "cached": self.cached,
            "config_fingerprint": self.config_fingerprint,
            "served_in_seconds": self.served_in_seconds,
        }
        if self.request_id is not None:
            meta["request_id"] = self.request_id
        if self.degraded:
            meta["degraded"] = True
            if self.degraded_reason is not None:
                meta["degraded_reason"] = self.degraded_reason
        if self.trace is not None:
            meta["trace"] = dict(self.trace)
        return meta

    def to_dict(self) -> dict[str, Any]:
        """The ``/v1`` response body: ``{"payload": ..., "serving": ...}``."""
        return {"payload": self.payload.to_dict(), "serving": self.serving_meta()}

    def to_legacy_dict(self) -> dict[str, Any]:
        """The pre-``/v1`` body shape (payload fields at the top level)."""
        body = self.payload.to_dict()
        body["served_in_seconds"] = self.served_in_seconds
        return body


class Tenant:
    """One named corpus and its service (base pipeline + lazy variants).

    Args:
        name: Registry name (URL- and metric-label-safe).
        service: The tenant's service (every pipeline variant answers through it).
        source: Human-readable origin label (``"store"``, a directory, ...).
        overrides: Per-tenant serving overrides resolved at attach time.
        corpus_dir: The on-disk corpus this tenant was loaded from; only
            tenants with a ``corpus_dir`` are *evictable* (an in-memory store
            could not be re-attached).
        snapshot_path: Recorded :class:`ArtifactSnapshot` path used for warm
            attach and for the eviction/re-attach round trip.
    """

    def __init__(
        self,
        name: str,
        service: RePaGerService,
        source: str = "",
        overrides: TenantOverrides | None = None,
        corpus_dir: str | None = None,
        snapshot_path: str | None = None,
    ) -> None:
        self.name = name
        self.service = service
        self.source = source
        self.overrides = overrides
        self.corpus_dir = corpus_dir
        self.snapshot_path = snapshot_path
        self.attached_at = time.monotonic()
        self.last_used = self.attached_at
        # Per-variant serving counters (queries answered, cache hits), keyed
        # by the canonical variant label ("default" = no override).  Variant
        # pipelines answer through the one service's cache and metrics
        # registry, so these are the only per-variant numbers available.
        self._variant_stats: dict[str, dict[str, int]] = {}
        self._lock = threading.Lock()

    def touch(self) -> None:
        """Record one use for the registry's LRU idle tracking."""
        self.last_used = time.monotonic()

    @property
    def evictable(self) -> bool:
        """Whether this tenant can be dropped and re-attached from disk."""
        return self.corpus_dir is not None

    def record_query(self, variant: str, cached: bool) -> None:
        """Count one answered query against its variant label."""
        with self._lock:
            stats = self._variant_stats.setdefault(
                variant, {"queries": 0, "cache_hits": 0}
            )
            stats["queries"] += 1
            if cached:
                stats["cache_hits"] += 1

    def variant_report(self) -> dict[str, dict[str, Any]]:
        """Per-variant serving detail: counters, fingerprint, cache entries.

        Covers the base pipeline (``"default"``), every lazily built variant
        pipeline, and any variant label that was queried but aliases the
        base configuration (e.g. requesting ``"NEWST"`` on a NEWST-configured
        tenant never builds a separate pipeline).
        """
        service = self.service
        with self._lock:
            stats = {label: dict(counts) for label, counts in self._variant_stats.items()}
        labels = {DEFAULT_VARIANT, *service.variants_loaded(), *stats}
        report: dict[str, dict[str, Any]] = {}
        for label in sorted(labels):
            counts = stats.get(label, {})
            variant = None if label == DEFAULT_VARIANT else label
            fingerprint = service.pipeline_for(variant).config_fingerprint
            entry: dict[str, Any] = {
                "config_fingerprint": fingerprint,
                "queries": counts.get("queries", 0),
                "cache_hits": counts.get("cache_hits", 0),
            }
            if service.cache is not None:
                entry["cache_entries"] = service.cache.entry_count(
                    service.cache_namespace, fingerprint
                )
            report[label] = entry
        return report

    def health(self) -> dict[str, Any]:
        """Per-tenant health: sizes, config fingerprint and readiness flags."""
        service = self.service
        readiness = service.readiness()
        return {
            "status": "ok",
            "corpus": self.name,
            "resident": True,
            "evicted": False,
            "source": self.source,
            "papers": len(service.store),
            "graph_nodes": service.graph.num_nodes,
            "graph_edges": service.graph.num_edges,
            "config_fingerprint": service.pipeline.config_fingerprint,
            "warmed": all(readiness.values()),
            "readiness": readiness,
            "variants_loaded": list(service.variants_loaded()),
            "variants": self.variant_report(),
            "overrides": self.overrides.to_dict() if self.overrides else None,
            "snapshot_path": self.snapshot_path,
            "idle_seconds": max(0.0, time.monotonic() - self.last_used),
        }


@dataclass(frozen=True, slots=True)
class EvictedTenant:
    """Everything needed to transparently re-attach an evicted tenant.

    The record is deliberately tiny — names, paths and configuration only.
    The corpus store, graph snapshot, search index and caches are *gone*;
    re-attach reloads the store from ``corpus_dir`` and restores the shared
    artifacts from the snapshot at ``snapshot_path``, reproducing the evicted
    service byte for byte (the snapshot round trip preserves the golden
    contract).
    """

    name: str
    corpus_dir: str
    snapshot_path: str | None
    source: str
    pipeline_config: PipelineConfig | None
    overrides: TenantOverrides | None
    default: bool
    evicted_at: float

    def descriptor(self) -> dict[str, Any]:
        """The ``GET /v1/corpora`` / health entry for an evicted tenant."""
        return {
            "status": "evicted",
            "corpus": self.name,
            "resident": False,
            "evicted": True,
            "source": self.source,
            "snapshot_path": self.snapshot_path,
            "overrides": self.overrides.to_dict() if self.overrides else None,
            "evicted_seconds_ago": max(0.0, time.monotonic() - self.evicted_at),
        }


class CorpusRegistry:
    """Thread-safe mapping of corpus name → :class:`Tenant`.

    The first attached tenant becomes the default unless a later attach (or
    :meth:`set_default`) overrides it; legacy single-corpus entry points
    resolve to the default tenant.

    The registry is also the **idle tracker** behind lazy eviction: every
    query touches its tenant's ``last_used`` stamp, :meth:`eviction_candidate`
    names the least recently used evictable tenant, and :meth:`evict` swaps a
    resident :class:`Tenant` for a tiny :class:`EvictedTenant` record that
    the application layer re-attaches on demand.  Evicting the default
    tenant keeps the default *name* pointing at it, so legacy routes
    transparently re-attach instead of 404ing.
    """

    def __init__(self) -> None:
        self._tenants: dict[str, Tenant] = {}
        self._evicted: dict[str, EvictedTenant] = {}
        self._default: str | None = None
        self._lock = threading.RLock()

    def attach(
        self,
        name: str,
        service: RePaGerService,
        default: bool = False,
        source: str = "",
        overrides: TenantOverrides | None = None,
        corpus_dir: str | None = None,
        snapshot_path: str | None = None,
    ) -> Tenant:
        """Register a service under ``name``.

        Raises:
            RequestValidationError: The name is not URL/label-safe.
            DuplicateCorpusError: The name is already attached (resident or
                evicted — an evicted tenant still owns its name until it is
                detached for good).
        """
        if not _NAME_RE.match(name):
            raise RequestValidationError(
                f"invalid corpus name {name!r}: must match {_NAME_RE.pattern}"
            )
        with self._lock:
            if name in self._tenants or name in self._evicted:
                raise DuplicateCorpusError(name)
            tenant = Tenant(
                name,
                service,
                source=source,
                overrides=overrides,
                corpus_dir=corpus_dir,
                snapshot_path=snapshot_path,
            )
            self._tenants[name] = tenant
            if default or self._default is None:
                self._default = name
            return tenant

    def detach(self, name: str) -> Tenant:
        """Remove and return a tenant; detaching the default clears the default.

        The default is deliberately *not* reassigned to some surviving tenant:
        legacy single-corpus clients would silently start receiving another
        corpus's reading paths.  They get an explicit
        :class:`CorpusNotFoundError` (404) until an operator attaches a new
        default or calls :meth:`set_default`.
        """
        with self._lock:
            tenant = self._tenants.pop(name, None)
            if tenant is None:
                raise CorpusNotFoundError(name, tuple(self._tenants))
            if self._default == name:
                self._default = None
            return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise CorpusNotFoundError(name, tuple(self._tenants))
            return tenant

    def default(self) -> Tenant:
        """The default tenant (legacy single-corpus routes resolve here)."""
        with self._lock:
            if self._default is None:
                raise CorpusNotFoundError("<default>", tuple(self._tenants))
            tenant = self._tenants.get(self._default)
            if tenant is None:
                # The default tenant is evicted (the name survives eviction so
                # legacy routes can transparently re-attach): raise with the
                # real name so the caller can find the eviction record.
                raise CorpusNotFoundError(self._default, tuple(self._tenants))
            return tenant

    # -- idle tracking and eviction ----------------------------------------------

    def mark_used(self, name: str) -> None:
        """Touch a tenant's LRU stamp (no-op if it is not resident)."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                tenant.touch()

    def eviction_candidate(self, protect: frozenset[str] = frozenset()) -> Tenant | None:
        """The least recently used evictable tenant, or ``None``.

        ``protect`` names tenants that must stay resident (typically the one
        whose attach triggered the resident-limit check — evicting what was
        just attached would thrash).
        """
        with self._lock:
            candidates = [
                tenant
                for name, tenant in self._tenants.items()
                if tenant.evictable and name not in protect
            ]
        if not candidates:
            return None
        return min(candidates, key=lambda tenant: tenant.last_used)

    def evict(self, name: str, snapshot_path: str | None) -> EvictedTenant:
        """Swap a resident tenant for its :class:`EvictedTenant` record.

        The default *name* is preserved: an evicted default stays the default
        and is re-attached on the next legacy-route request.

        Raises:
            CorpusNotFoundError: ``name`` is not resident.
            ServingError: The tenant has no ``corpus_dir`` to re-attach from.
        """
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                raise CorpusNotFoundError(name, tuple(self._tenants))
            if not tenant.evictable:
                raise ServingError(
                    f"corpus {name!r} was attached from an in-memory store and "
                    "cannot be evicted (no corpus_dir to re-attach from)"
                )
            record = EvictedTenant(
                name=name,
                corpus_dir=tenant.corpus_dir,
                snapshot_path=snapshot_path,
                source=tenant.source,
                pipeline_config=tenant.service.pipeline.config,
                overrides=tenant.overrides,
                default=self._default == name,
                evicted_at=time.monotonic(),
            )
            del self._tenants[name]
            self._evicted[name] = record
            return record

    def evicted_record(self, name: str) -> EvictedTenant | None:
        with self._lock:
            return self._evicted.get(name)

    def pop_evicted(self, name: str) -> EvictedTenant:
        """Remove and return an eviction record (the re-attach handshake).

        Raises:
            CorpusNotFoundError: ``name`` has no eviction record.
        """
        with self._lock:
            record = self._evicted.pop(name, None)
            if record is None:
                raise CorpusNotFoundError(name, tuple(self._tenants))
            return record

    def discard_evicted(self, name: str) -> EvictedTenant | None:
        """Drop an eviction record for good (full detach of an evicted tenant)."""
        with self._lock:
            record = self._evicted.pop(name, None)
            if record is not None and self._default == name:
                self._default = None
            return record

    def evicted_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._evicted)

    def evicted_items(self) -> list[tuple[str, EvictedTenant]]:
        """Point-in-time snapshot of (name, record) pairs."""
        with self._lock:
            return list(self._evicted.items())

    def known_names(self) -> tuple[str, ...]:
        """Resident and evicted names (every name the registry owns)."""
        with self._lock:
            return tuple(self._tenants) + tuple(self._evicted)

    def resolve(self, name: str | None) -> Tenant:
        """``name`` → its tenant; ``None`` → the default tenant."""
        return self.get(name) if name is not None else self.default()

    def set_default(self, name: str) -> None:
        with self._lock:
            if name not in self._tenants:
                raise CorpusNotFoundError(name, tuple(self._tenants))
            self._default = name

    @property
    def default_name(self) -> str | None:
        with self._lock:
            return self._default

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._tenants)

    def items(self) -> list[tuple[str, Tenant]]:
        """Point-in-time snapshot of (name, tenant) pairs."""
        with self._lock:
            return list(self._tenants.items())

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)


class RePaGerApp:
    """Application facade: N corpora, one executor, one typed contract.

    Args:
        config: Serving parameters (executor sizing, cache bounds, body cap,
            default-corpus name).
        registry: Pre-populated registry (one is created when omitted).
        metrics: App-level registry receiving executor counters; per-tenant
            query metrics live in each tenant's own registry and are rendered
            with a ``corpus="<name>"`` label.
        cache: The shared result cache handed to tenants attached via
            :meth:`attach_store` / :meth:`attach_directory`; entries are
            namespaced per tenant.
    """

    def __init__(
        self,
        config: ServingConfig | None = None,
        registry: CorpusRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        cache: ResultCache | None = None,
        pipeline_config: PipelineConfig | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        # `is None` rather than `or`: an *empty* registry/cache is falsy
        # (both define __len__), and silently replacing a caller's injected
        # empty cache would detach it from the caller's clock and counters.
        self.registry = registry if registry is not None else CorpusRegistry()
        #: Pipeline configuration used for tenants attached without an
        #: explicit one (including runtime HTTP attaches).
        self.pipeline_config = pipeline_config
        self.metrics = metrics or MetricsRegistry(self.config.max_latency_samples)
        self.cache = cache if cache is not None else ResultCache(
            max_entries=self.config.cache_max_entries,
            ttl_seconds=self.config.cache_ttl_seconds,
            stale_grace_seconds=self.config.stale_grace_seconds,
        )
        obs = self.config.obs
        #: Lifecycle event log (attach/detach/evict/re-attach/quota-reject).
        #: Created before the executor so ``BatchExecutor.from_app`` can wire
        #: quota rejections into it.
        self.events = EventLog(obs.event_log_path, capacity=obs.event_log_capacity)
        #: Bounded trace store behind ``GET /v1/traces``; finished traces
        #: also feed the per-stage latency histograms on ``/v1/metrics``.
        self.tracer = Tracer(
            capacity=obs.trace_capacity,
            per_tenant_capacity=obs.trace_per_tenant,
            slow_threshold_seconds=obs.slow_trace_seconds,
            slow_capacity=obs.slow_trace_capacity,
            on_finish=self._observe_trace,
        )
        if obs.slow_trace_persist_path is not None:
            # Best-effort reload of the previous process's slow-trace buffer;
            # a missing or torn file restores nothing and never fails startup.
            self.tracer.load_slow(obs.slow_trace_persist_path)
        #: Durable token-bucket store (``quota_state_path``).
        self._quota_store: SqliteQuotaStore | None = None
        if self.config.quota_state_path is not None:
            self._quota_store = SqliteQuotaStore(self.config.quota_state_path)
        #: Durable shared result cache (``cache_state_path``); handed to every
        #: tenant service as its L2, so payloads solved before a failover are
        #: served warm by whichever replica the corpus lands on next.
        self._cache_store: SqliteCacheStore | None = None
        if self.config.cache_state_path is not None:
            self._cache_store = SqliteCacheStore(self.config.cache_state_path)
        self.executor = BatchExecutor.from_app(
            self,
            max_workers=self.config.max_workers,
            queue_depth=self.config.queue_depth,
            metrics=self.metrics,
            hang_seconds=self.config.worker_hang_seconds,
            quota_store=self._quota_store,
        )
        self.started_at = time.monotonic()
        #: Serialises evict / re-attach transitions (queries themselves never
        #: take this lock once their tenant is resident).
        self._lifecycle_lock = threading.Lock()
        self._snapshot_dir: str | None = None
        #: Per-tenant circuit breakers, created lazily when a threshold is
        #: configured (``circuit_failure_threshold=None`` disables them).
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        #: The fault plan this app armed from its config (fault injection is
        #: process-global; the app disarms its own plan on close).
        self._fault_plan: FaultPlan | None = None
        if self.config.fault_plan:
            self._fault_plan = FaultPlan.from_specs(
                self.config.fault_plan,
                seed=self.config.fault_seed,
                on_fire=self._on_fault_fired,
            )
            arm(self._fault_plan)
            self.events.emit(
                "fault_armed",
                rules=list(self.config.fault_plan),
                seed=self.config.fault_seed,
            )

    # -- tenant management -------------------------------------------------------

    def attach_service(
        self,
        name: str,
        service: RePaGerService,
        default: bool = False,
        source: str = "attached",
        overrides: TenantOverrides | None = None,
        corpus_dir: str | None = None,
        snapshot_path: str | None = None,
        lifecycle_event: str | None = "corpus_attach",
    ) -> Tenant:
        """Attach a pre-built service as a tenant.

        A service without a metrics registry gets a fresh one so every tenant
        exports labelled metrics, and a cached service without a cache
        namespace adopts the tenant name — its cache may be shared with other
        tenants, and an empty namespace would let two same-config tenants
        serve each other's entries (the fingerprint encodes configuration,
        not the corpus).

        ``overrides`` is resolved here, at attach time: the cache-TTL
        override lands on the service, and the quota and weight overrides
        are installed into the shared executor under this tenant's
        namespace.

        ``lifecycle_event`` names the event-log entry the attach emits
        (``None`` suppresses it — the re-attach path emits its own
        ``corpus_reattach`` instead).
        """
        if service.metrics is None:
            service.metrics = MetricsRegistry(self.config.max_latency_samples)
        if service.cache is not None and not service.cache_namespace:
            service.cache_namespace = name
        if overrides is not None and overrides.cache_ttl_seconds is not None:
            service.cache_ttl_seconds = overrides.cache_ttl_seconds
        tenant = self.registry.attach(
            name,
            service,
            default=default,
            source=source,
            overrides=overrides,
            corpus_dir=corpus_dir,
            snapshot_path=snapshot_path,
        )
        self.executor.configure_tenant(
            name,
            quota=overrides.quota if overrides is not None else None,
            metrics=service.metrics,
            weight=overrides.weight if overrides is not None else 1,
        )
        if lifecycle_event is not None:
            # Stub services in tests may not carry a corpus store.
            store = getattr(service, "store", None)
            self.events.emit(
                lifecycle_event,
                corpus=name,
                source=source,
                default=default,
                papers=len(store) if store is not None else None,
            )
        return tenant

    def attach_store(
        self,
        name: str,
        store: CorpusStore,
        pipeline_config: PipelineConfig | None = None,
        default: bool = False,
        source: str = "store",
        overrides: TenantOverrides | None = None,
        corpus_dir: str | None = None,
        snapshot_path: str | None = None,
    ) -> Tenant:
        """Build a tenant service over ``store`` and attach it."""
        return self.attach_service(
            name,
            self._tenant_service(name, store, pipeline_config),
            default=default,
            source=source,
            overrides=overrides,
            corpus_dir=corpus_dir,
            snapshot_path=snapshot_path,
        )

    def _tenant_service(
        self, name: str, store: CorpusStore, pipeline_config: PipelineConfig | None
    ) -> RePaGerService:
        """A tenant service over ``store`` with app-owned serving state: the
        shared namespaced cache and L2, and a per-tenant metrics registry."""
        return RePaGerService(
            store,
            pipeline_config=pipeline_config or self.pipeline_config,
            cache=self.cache,
            metrics=MetricsRegistry(self.config.max_latency_samples),
            cache_namespace=name,
            shared_cache=self._cache_store,
        )

    def attach_directory(
        self,
        name: str,
        corpus_dir: str,
        pipeline_config: PipelineConfig | None = None,
        default: bool = False,
        overrides: TenantOverrides | None = None,
        snapshot_path: str | None = None,
    ) -> Tenant:
        """Load a corpus from disk and attach it (the HTTP attach path).

        Directory-backed tenants are *evictable*: past the configured
        resident limit the registry snapshots the least recently used one to
        disk and re-attaches it on demand.  ``snapshot_path`` warm-attaches
        from a pre-captured :class:`ArtifactSnapshot` and is recorded for the
        eviction round trip.

        Raises:
            RequestValidationError: The directory does not hold a loadable
                corpus (mapped to HTTP 400).
        """
        try:
            store = CorpusStore.load(corpus_dir)
        except Exception as exc:  # noqa: BLE001 - any load failure is a client error
            raise RequestValidationError(
                f"cannot load a corpus from {corpus_dir!r}: {exc}"
            ) from exc
        tenant = self.attach_store(
            name,
            store,
            pipeline_config=pipeline_config,
            default=default,
            source=corpus_dir,
            overrides=overrides,
            corpus_dir=corpus_dir,
            snapshot_path=snapshot_path,
        )
        self.enforce_resident_limit(protect=name)
        return tenant

    def detach(self, name: str) -> Tenant | None:
        """Detach a tenant for good and drop every trace of it.

        Works on resident *and* evicted tenants (an evicted tenant still owns
        its name until detached); returns the resident :class:`Tenant` or
        ``None`` when only an eviction record existed.
        """
        try:
            tenant = self.registry.detach(name)
        except CorpusNotFoundError:
            record = self.registry.discard_evicted(name)
            if record is None:
                raise
            # Evicted tenants already dropped their cache namespace; the
            # executor accounting goes with the final detach.
            self.executor.drop_tenant(name)
            if self._cache_store is not None:
                self._cache_store.drop_namespace(name)
            self.events.emit("corpus_detach", corpus=name, resident=False)
            return None
        # The tenant's cache entries can never be hit again (the namespace is
        # gone), so free them eagerly when the cache is the app-shared one.
        if tenant.service.cache is self.cache:
            self.cache.drop_namespace(name)
        # Shared-store rows likewise: detach is permanent (unlike evict, which
        # keeps them so a re-attach serves warm).
        if self._cache_store is not None:
            self._cache_store.drop_namespace(name)
        self.executor.drop_tenant(name)
        with self._breaker_lock:
            self._breakers.pop(name, None)
        self.events.emit("corpus_detach", corpus=name, resident=True)
        return tenant

    # -- eviction and re-attach --------------------------------------------------

    def evict(self, name: str) -> EvictedTenant:
        """Evict one resident tenant: snapshot its artifacts, drop its memory.

        The tenant's shared artifacts (PageRank/venue scores, search index,
        edge relevance) are captured to the tenant's recorded snapshot path —
        or to an app-owned temporary file when none was recorded — its cache
        namespace is dropped, and its metrics label disappears from
        ``/metrics``.  The next request for this corpus transparently
        re-attaches from the snapshot with byte-identical results.

        Raises:
            CorpusNotFoundError: ``name`` is not resident.
            ServingError: The tenant has no corpus directory to reload from.
        """
        with self._lifecycle_lock:
            tenant = self.registry.get(name)
            if not tenant.evictable:
                raise ServingError(
                    f"corpus {name!r} was attached from an in-memory store and "
                    "cannot be evicted (no corpus_dir to re-attach from)"
                )
            from ..serving.warmup import capture_snapshot  # runtime: module cycle

            snapshot_path = tenant.snapshot_path
            if (
                snapshot_path is None
                and tenant.service.readiness()["node_weights_ready"]
            ):
                # Snapshot only artifacts that already exist.  A cold tenant
                # (never queried, never warmed) has nothing worth capturing —
                # forcing a full PageRank pass just to evict it would be the
                # exact work eviction is meant to shed; re-attach recomputes
                # lazily and deterministically instead.
                snapshot_path = str(
                    Path(self._snapshot_directory()) / f"{name}.snapshot.json"
                )
                capture_snapshot(tenant.service, snapshot_path)
            record = self.registry.evict(name, snapshot_path)
            if tenant.service.cache is self.cache:
                self.cache.drop_namespace(name)
            self.events.emit(
                "corpus_evict",
                corpus=name,
                snapshot_path=snapshot_path,
                was_default=record.default,
            )
            return record

    def _snapshot_directory(self) -> str:
        if self._snapshot_dir is None:
            self._snapshot_dir = tempfile.mkdtemp(prefix="repager-evicted-")
        return self._snapshot_dir

    def _reattach(self, name: str) -> Tenant:
        """Re-attach an evicted tenant from its recorded snapshot path."""
        with self._lifecycle_lock:
            # Double-check under the lock: another request may have already
            # re-attached (or an operator re-attached a fresh corpus).
            if name in self.registry:
                return self.registry.get(name)
            record = self.registry.evicted_record(name)
            if record is None:
                raise CorpusNotFoundError(name, self.registry.names())
            try:
                store = CorpusStore.load(record.corpus_dir)
            except Exception as exc:  # noqa: BLE001 - surfaced as a serving error
                raise ServingError(
                    f"cannot re-attach evicted corpus {name!r} from "
                    f"{record.corpus_dir!r}: {exc}"
                ) from exc
            service = self._tenant_service(name, store, record.pipeline_config)
            if record.snapshot_path is not None:
                from ..serving.warmup import ArtifactSnapshot  # runtime: cycle

                try:
                    snapshot = ArtifactSnapshot.load(record.snapshot_path)
                except SnapshotCorruptError as exc:
                    # Checksum/parse failure: the loader already quarantined
                    # the bad file to `<path>.corrupt`; record the incident
                    # and fall back to a cold re-attach.
                    self.events.emit(
                        "snapshot_quarantine",
                        corpus=name,
                        path=record.snapshot_path,
                        quarantine_path=exc.quarantine_path,
                        reason=str(exc),
                    )
                    snapshot = None
                except ServingError:
                    # A vanished or corrupted snapshot (tmp cleaner, operator
                    # mishap) must not brick the tenant: a cold re-attach
                    # recomputes the same artifacts deterministically, it is
                    # merely slower.  Fingerprint drift in a *loadable*
                    # snapshot still raises below — that is a real
                    # inconsistency, not a degraded cache.
                    snapshot = None
                if snapshot is not None:
                    snapshot.restore_into(service)
            self.registry.pop_evicted(name)
            tenant = self.attach_service(
                name,
                service,
                default=record.default,
                source=record.source,
                overrides=record.overrides,
                corpus_dir=record.corpus_dir,
                snapshot_path=record.snapshot_path,
                lifecycle_event=None,
            )
            self.events.emit(
                "corpus_reattach",
                corpus=name,
                from_snapshot=record.snapshot_path is not None,
                snapshot_path=record.snapshot_path,
            )
        # Re-attaching may itself push the process past the resident limit.
        self.enforce_resident_limit(protect=name)
        return tenant

    def enforce_resident_limit(self, protect: str | None = None) -> list[str]:
        """Evict LRU evictable tenants until the resident limit holds.

        Returns the names evicted (empty when no limit is configured, the
        limit already holds, or nothing is evictable).
        """
        limit = self.config.max_resident_corpora
        if limit is None:
            return []
        protected = frozenset((protect,)) if protect is not None else frozenset()
        evicted: list[str] = []
        while len(self.registry) > limit:
            candidate = self.registry.eviction_candidate(protect=protected)
            if candidate is None:
                break
            try:
                self.evict(candidate.name)
            except CorpusNotFoundError:
                continue  # raced with a detach; re-check the limit
            evicted.append(candidate.name)
        return evicted

    def _resolve_tenant(self, name: str | None) -> Tenant:
        """``registry.resolve`` plus transparent re-attach of evicted tenants."""
        try:
            tenant = self.registry.resolve(name)
        except CorpusNotFoundError as exc:
            # exc.name is the actual default name when ``name`` was None and
            # the (still-default) tenant is currently evicted.
            if self.registry.evicted_record(exc.name) is None:
                raise
            tenant = self._reattach(exc.name)
        tenant.touch()
        return tenant

    # -- queries -----------------------------------------------------------------

    def query(
        self,
        options: "QueryOptions | Mapping[str, Any] | str",
        corpus: str | None = None,
        request_id: str | None = None,
        deadline: float | None = None,
    ) -> QueryResponse:
        """Answer one query through the shared bounded executor.

        ``options`` may be a :class:`QueryOptions`, a raw JSON-style mapping
        (validated strictly) or a bare query string.  ``corpus`` selects the
        tenant (``None`` = default).  ``request_id`` correlates the trace
        with a caller-supplied id (the HTTP layer's ``X-Request-Id``); when
        omitted the trace id doubles as the request id.  ``deadline`` is the
        client's absolute ``time.monotonic()`` deadline (the HTTP layer
        derives it from ``X-Request-Deadline``).  The request's one time
        budget is the earlier of it and now + the tenant's
        ``query_timeout_seconds``; admission, the scheduler, the solve's
        checkpoints and every retry share it.

        The resilience ladder wraps the solve: an open per-tenant circuit
        rejects up front (503 + ``Retry-After``); retryable failures are
        retried with jittered exponential backoff inside the budget; a
        server-side failure falls back to a stale-but-marked cache entry
        within the grace window before the error is surfaced.

        Raises errors from the shared taxonomy: :class:`CorpusNotFoundError`,
        :class:`~repro.errors.RequestValidationError`,
        :class:`~repro.errors.ExecutorOverloadedError`,
        :class:`~repro.errors.QueryTimeoutError`,
        :class:`~repro.errors.CircuitOpenError`,
        :class:`~repro.errors.DeadlineExceededError`, ...
        """
        if isinstance(options, str):
            options = QueryOptions(query=options)
        elif not isinstance(options, QueryOptions):
            options = QueryOptions.from_dict(options)
        tenant = self._resolve_tenant(corpus)
        overrides = tenant.overrides
        timeout = self.config.query_timeout_seconds
        if overrides is not None and overrides.query_timeout_seconds is not None:
            timeout = overrides.query_timeout_seconds
        budget = time.monotonic() + timeout
        if deadline is not None and deadline < budget:
            timeout = None  # the client's deadline binds, not the tenant's
        else:
            deadline = budget
        # Validate/build the request *before* circuit admission: once check()
        # admits a half-open probe, every exit path must reach
        # _record_outcome or the probe slot would leak and wedge the breaker.
        request = options.to_request(tenant.name, deadline=deadline)
        breaker = self._breaker(tenant.name)
        if breaker is not None:
            breaker.check()
        sample_rate = self.config.obs.trace_sample_rate
        if overrides is not None and overrides.trace_sample_rate is not None:
            sample_rate = overrides.trace_sample_rate
        started = time.perf_counter()
        trace_obj: Trace | None = None
        with self.tracer.trace(
            "query",
            corpus=tenant.name,
            request_id=request_id,
            sample_rate=sample_rate,
        ) as trace:
            trace_obj = trace
            if trace is not None:
                trace.tags["query"] = options.query
            try:
                response = self._run_with_retry(tenant, request, timeout)
            except BaseException as exc:
                self._record_outcome(tenant, breaker, exc)
                if not isinstance(exc, Exception):
                    raise  # KeyboardInterrupt & co: probe released, no fallback
                stale = self._stale_response(tenant, options, exc)
                if stale is None:
                    raise
                response = stale
                if trace is not None:
                    trace.tags["degraded"] = True
            else:
                self._record_outcome(tenant, breaker, None)
            if trace is not None:
                trace.tags["variant"] = response.variant
                trace.tags["cached"] = response.cached
        updates: dict[str, Any] = {
            "served_in_seconds": time.perf_counter() - started
        }
        if trace_obj is not None:
            updates["request_id"] = trace_obj.request_id
            if options.debug:
                updates["trace"] = trace_obj.to_dict()
        elif request_id is not None:
            updates["request_id"] = request_id
        return replace(response, **updates)

    # -- resilience --------------------------------------------------------------

    def _breaker(self, name: str) -> CircuitBreaker | None:
        """The tenant's circuit breaker (created lazily), or ``None`` when
        breakers are disabled via ``circuit_failure_threshold=None``."""
        threshold = self.config.circuit_failure_threshold
        if threshold is None:
            return None
        with self._breaker_lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    name,
                    failure_threshold=threshold,
                    reset_seconds=self.config.circuit_reset_seconds,
                )
                self._breakers[name] = breaker
            return breaker

    @staticmethod
    def _is_server_failure(exc: BaseException) -> bool:
        """Whether ``exc`` says something about *our* health, not the client's.

        4xx taxonomy errors (validation, quota, overload backpressure) never
        trip the breaker or trigger degradation; 5xx serving errors, solve
        timeouts and unexpected exceptions do.
        """
        if isinstance(exc, CircuitOpenError):
            return False
        if isinstance(exc, ReproError):
            return exc.http_status >= 500
        return True

    def _tenant_metrics(self, tenant: Tenant) -> MetricsRegistry:
        return tenant.service.metrics or self.metrics

    def _run_with_retry(
        self, tenant: Tenant, request: QueryRequest, timeout: float | None
    ) -> QueryResponse:
        """Run one request, retrying *retryable* taxonomy errors.

        ``retry_attempts`` counts *retries*, so total attempts are
        ``retry_attempts + 1`` and 0 disables retrying entirely.  Backoff is
        exponential with multiplicative jitter; a retry that could not finish
        before ``request.deadline`` is not attempted — the original error
        surfaces instead of a guaranteed second failure.  ``timeout`` is set
        when the tenant's timeout fixed the deadline: its expiry then
        answers :class:`~repro.errors.QueryTimeoutError`.  ``run_one``
        raises ``DeadlineExceededError`` only once *this* request's deadline
        has passed (a coalesced waiter whose leader is shed first runs
        again), so no request answers for another's budget.
        """
        attempts = 1 + self.config.retry_attempts
        attempt = 1
        while True:
            try:
                return self.executor.run_one(request)
            except DeadlineExceededError:
                if timeout is None:
                    raise
                self.metrics.increment("executor_timeouts_total")
                raise QueryTimeoutError(request.text, timeout) from None
            except ReproError as exc:
                if not exc.retryable or attempt >= attempts:
                    raise
                backoff = self.config.retry_backoff_seconds * (2 ** (attempt - 1))
                backoff *= 0.5 + random.random()  # jitter in [0.5x, 1.5x)
                if time.monotonic() + backoff >= request.deadline:
                    raise
                self._tenant_metrics(tenant).increment("retries_total")
                time.sleep(backoff)
                attempt += 1

    def _record_outcome(
        self,
        tenant: Tenant,
        breaker: CircuitBreaker | None,
        exc: BaseException | None,
    ) -> None:
        """Feed one solve outcome into the tenant's circuit breaker.

        Deadline sheds and client errors are excluded: they measure the
        *client's* patience or the request's validity, not the tenant's
        health, and must not open the circuit for everyone.  An excluded
        outcome still releases the half-open probe slot (``abort_probe``)
        so an admitted probe that gets shed cannot wedge the breaker
        half-open forever.  ``CircuitOpenError`` is the one exception: it
        means *this* request was rejected at admission and never held the
        probe slot, so releasing would steal another request's probe.
        """
        if breaker is None:
            return
        if exc is None:
            if breaker.record_success():
                self.events.emit("circuit_close", corpus=tenant.name)
            return
        if isinstance(exc, CircuitOpenError):
            return
        if (
            not isinstance(exc, Exception)
            or not self._is_server_failure(exc)
            or isinstance(exc, DeadlineExceededError)
        ):
            breaker.abort_probe()
            return
        if breaker.record_failure():
            self._tenant_metrics(tenant).increment("circuit_open_total")
            self.events.emit(
                "circuit_open",
                corpus=tenant.name,
                failure_threshold=breaker.failure_threshold,
                reset_seconds=breaker.reset_seconds,
                error=getattr(exc, "code", type(exc).__name__),
            )

    def _stale_response(
        self,
        tenant: Tenant,
        options: QueryOptions,
        exc: BaseException,
    ) -> "QueryResponse | None":
        """Degraded fallback: the query's last cached payload, marked stale.

        Only server-side failures qualify, only when the request allowed the
        cache, and only within the cache's ``stale_grace_seconds`` window —
        otherwise ``None`` and the original error surfaces.
        """
        if not options.use_cache or not self._is_server_failure(exc):
            return None
        try:
            pipeline = tenant.service.pipeline_for(options.variant)
        except Exception:  # noqa: BLE001 - fall through to the original error
            return None
        payload = tenant.service.stale_payload(
            options.query,
            year_cutoff=options.year_cutoff,
            exclude_ids=options.exclude_ids,
            variant=options.variant,
        )
        if payload is None:
            return None
        reason = getattr(exc, "code", None) or type(exc).__name__
        self._tenant_metrics(tenant).increment("degraded_served_total")
        self.events.emit(
            "degraded_serve", corpus=tenant.name, reason=reason, query=options.query
        )
        variant = (
            normalize_variant(options.variant) if options.variant else DEFAULT_VARIANT
        )
        return QueryResponse(
            payload=payload,
            corpus=tenant.name,
            variant=variant,
            cached=True,
            config_fingerprint=pipeline.config_fingerprint,
            degraded=True,
            degraded_reason=reason,
        )

    # -- fault administration (test-only surface) --------------------------------

    def _on_fault_fired(self, point: str) -> None:
        """Count one fired injection into ``faults_injected_total``.

        Installed as the plan's ``on_fire`` hook for plans this app arms, so
        the advertised metric moves with the plan's internal counters.
        """
        self.metrics.increment("faults_injected_total")

    def fault_status(self) -> dict[str, Any]:
        """The armed fault plan (rules, calls, fired injections), if any."""
        plan = active_plan()
        status: dict[str, Any] = {
            "armed": plan is not None,
            "allow_fault_injection": self.config.allow_fault_injection,
        }
        if plan is not None:
            status["plan"] = plan.describe()
        return status

    def arm_faults(
        self, specs: Sequence[str], seed: int | None = None
    ) -> dict[str, Any]:
        """Arm a fault plan from ``STAGE=ACTION[:ARG[:TRIGGER]]`` specs.

        Raises:
            RequestValidationError: A spec is malformed or names an unknown
                point/action (mapped to HTTP 400).
        """
        try:
            plan = FaultPlan.from_specs(
                tuple(specs), seed=seed, on_fire=self._on_fault_fired
            )
        except ValueError as exc:
            raise RequestValidationError(str(exc)) from exc
        arm(plan)
        self._fault_plan = plan
        self.events.emit(
            "fault_armed", rules=[rule.spec() for rule in plan.rules], seed=seed
        )
        return self.fault_status()

    def disarm_faults(self) -> dict[str, Any]:
        """Disarm any armed plan; every fault point reverts to the no-op."""
        plan = active_plan()
        disarm()
        self._fault_plan = None
        self.events.emit(
            "fault_disarmed",
            injected=plan.describe()["injected"] if plan is not None else {},
        )
        return self.fault_status()

    def handle_request(self, request: QueryRequest) -> QueryResponse:
        """Executor handler: route a request to its tenant (and variant).

        An evicted tenant is transparently re-attached here too — batch
        clients submit requests directly to the executor without passing
        through :meth:`query`.
        """
        tenant = self._resolve_tenant(request.corpus)
        pipeline = tenant.service.pipeline_for(request.variant)
        payload, cached = tenant.service.query_with_meta(
            request.text,
            year_cutoff=request.year_cutoff,
            exclude_ids=request.exclude_ids,
            use_cache=request.use_cache,
            variant=request.variant,
        )
        variant = (
            normalize_variant(request.variant) if request.variant else DEFAULT_VARIANT
        )
        tenant.record_query(variant, cached)
        return QueryResponse(
            payload=payload,
            corpus=tenant.name,
            variant=variant,
            cached=cached,
            config_fingerprint=pipeline.config_fingerprint,
        )

    def coalesce_key(self, request: QueryRequest) -> Hashable:
        """The canonical cache key of ``request`` — the executor's coalescing key.

        Two requests coalesce iff they would hit the same result-cache entry:
        same tenant namespace, normalised text, year cutoff, exclusion set
        and pipeline-configuration fingerprint (so different variants never
        coalesce).  Runs on the submitting thread, so it must stay cheap and
        must not trigger lifecycle work: an evicted or unknown corpus raises
        (``CorpusNotFoundError``), which the executor treats as "do not
        coalesce" — the worker then re-attaches or errors through the normal
        taxonomy path.
        """
        service = self.registry.resolve(request.corpus).service
        return make_query_key(
            request.text,
            request.year_cutoff,
            request.exclude_ids,
            service.pipeline_for(request.variant).config_fingerprint,
            namespace=service.cache_namespace or (request.corpus or ""),
        )

    def paper_details(self, paper_id: str, corpus: str | None = None) -> dict[str, Any]:
        """Detail record for one paper of one tenant."""
        return self._resolve_tenant(corpus).service.paper_details(paper_id)

    # -- observability -----------------------------------------------------------

    def _observe_trace(self, trace: Trace) -> None:
        """Feed a finished trace's spans into per-stage latency histograms.

        Runs as the tracer's ``on_finish`` hook.  Observations land in the
        owning tenant's metrics registry (so ``/v1/metrics`` labels them with
        ``corpus="<name>"``); traces whose tenant is gone (detached/evicted
        mid-flight) fall back to the app registry rather than resurrecting a
        dropped label.
        """
        registry = self.metrics
        if trace.corpus is not None:
            try:
                tenant_metrics = self.registry.get(trace.corpus).service.metrics
            except CorpusNotFoundError:
                tenant_metrics = None
            if tenant_metrics is not None:
                registry = tenant_metrics
        for span in trace.spans():
            registry.observe(f"stage_{span.name}_seconds", span.duration_seconds)

    def traces(
        self,
        corpus: str | None = None,
        limit: int = 50,
        slow: bool = False,
    ) -> list[dict[str, Any]]:
        """Trace summaries for ``GET /v1/traces`` (newest first).

        ``slow=True`` reads the dedicated slow-query buffer instead of the
        recent ring.
        """
        source = self.tracer.slow if slow else self.tracer.recent
        return [trace.summary() for trace in source(corpus=corpus, limit=limit)]

    def trace_detail(self, trace_id: str) -> dict[str, Any] | None:
        """Full span tree of one stored trace, or ``None`` if unknown."""
        trace = self.tracer.get(trace_id)
        return trace.to_dict() if trace is not None else None

    def corpora(self) -> list[dict[str, Any]]:
        """Descriptor list for ``GET /v1/corpora`` (resident *and* evicted)."""
        default = self.registry.default_name
        entries = [
            {
                "name": name,
                "default": name == default,
                "resident": True,
                "papers": len(tenant.service.store),
                "config_fingerprint": tenant.service.pipeline.config_fingerprint,
                "source": tenant.source,
            }
            for name, tenant in self.registry.items()
        ]
        entries.extend(
            {
                "name": name,
                "default": name == default,
                "resident": False,
                "source": record.source,
                "snapshot_path": record.snapshot_path,
            }
            for name, record in self.registry.evicted_items()
        )
        return entries

    def health(self, corpus: str | None = None) -> dict[str, Any]:
        """Per-corpus health (``corpus`` given) or the aggregate rollup.

        Health checks are observational: asking after an evicted tenant
        reports its eviction record instead of re-attaching it (monitoring
        must never defeat the eviction policy).
        """
        if corpus is not None:
            try:
                tenant = self.registry.get(corpus)
            except CorpusNotFoundError:
                record = self.registry.evicted_record(corpus)
                if record is None:
                    raise
                report = record.descriptor()
                report["default"] = corpus == self.registry.default_name
                return report
            report = tenant.health()
            report["default"] = corpus == self.registry.default_name
            usage = self.executor.tenant_usage(corpus)
            if usage is not None:
                report["quota_usage"] = usage
            sched = self.executor.scheduler_info(corpus)
            if sched is not None:
                report["scheduler"] = sched
            breaker = self._breaker(corpus)
            if breaker is not None:
                report["circuit"] = breaker.describe()
            return report
        per_corpus = {name: tenant.health() for name, tenant in self.registry.items()}
        default = self.registry.default_name
        body: dict[str, Any] = {
            "status": "ok",
            "corpora": per_corpus,
            "default_corpus": default,
            "num_corpora": len(per_corpus),
            "evicted_corpora": sorted(self.registry.evicted_names()),
            "uptime_seconds": time.monotonic() - self.started_at,
        }
        # Legacy mirror: pre-/v1 /healthz consumers read these at the top
        # level, so the default tenant's sizes stay where they were.  .get():
        # a concurrent attach-with-default may have changed the default after
        # the per-corpus snapshot above was taken.
        summary = per_corpus.get(default) if default is not None else None
        if summary is not None:
            for key in ("papers", "graph_nodes", "graph_edges", "config_fingerprint"):
                body[key] = summary[key]
        return body

    def metrics_text(self) -> str:
        """One ``/metrics`` exposition: labelled per-tenant series + app series.

        A tenant's ``cache_*`` gauges are emitted under its ``corpus`` label
        only when the cache is the tenant's own; the app-shared cache holds
        whole-process numbers and is rendered once, unlabelled, with the app
        registry (per-tenant hit/miss *counters* already live in each
        tenant's registry as ``cache_hits_total``/``cache_misses_total``).
        """
        parts: list[str] = []
        seen_registries: set[int] = set()
        for name, tenant in self.registry.items():
            registry = tenant.service.metrics
            if registry is None:
                continue
            cache = tenant.service.cache
            extra = (
                {f"cache_{k}": float(v) for k, v in cache.stats().to_dict().items()}
                if cache is not None and cache is not self.cache
                else None
            )
            parts.append(registry.render_text(extra_gauges=extra, labels={"corpus": name}))
            seen_registries.add(id(registry))
        if id(self.metrics) not in seen_registries:
            shared = {
                f"cache_{k}": float(v)
                for k, v in self.cache.stats().to_dict().items()
            }
            parts.append(self.metrics.render_text(extra_gauges=shared))
        # Concatenated per-tenant renders repeat each family's HELP/TYPE
        # preamble; keep only the first occurrence of every comment line.
        seen_comments: set[str] = set()
        lines: list[str] = []
        for line in "".join(parts).splitlines():
            if line.startswith("#"):
                if line in seen_comments:
                    continue
                seen_comments.add(line)
            lines.append(line)
        return "\n".join(lines) + "\n" if lines else ""

    # -- lifecycle ---------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut down the shared executor and drop any eviction snapshots."""
        self.executor.shutdown(wait=wait)
        persist = self.config.obs.slow_trace_persist_path
        if persist is not None:
            try:
                self.tracer.dump_slow(persist)
            except OSError:
                pass  # persistence is best-effort; shutdown must not fail
        if self._quota_store is not None:
            self._quota_store.close()
            self._quota_store = None
        if self._cache_store is not None:
            self._cache_store.close()
            self._cache_store = None
        if self._fault_plan is not None and active_plan() is self._fault_plan:
            # Fault injection is process-global; disarm only what we armed so
            # a test that armed its own plan keeps it.
            disarm()
        self._fault_plan = None
        self.events.close()
        if self._snapshot_dir is not None:
            shutil.rmtree(self._snapshot_dir, ignore_errors=True)
            self._snapshot_dir = None

    def __enter__(self) -> "RePaGerApp":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
