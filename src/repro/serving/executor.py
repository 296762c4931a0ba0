"""Concurrent batch executor for reading-path queries.

A worker pool runs many queries at once against one shared service.  This is
safe because, after warm-up, every per-corpus artifact (citation graph,
PageRank node weights, venue scores, TF-IDF index) is read-only; each query
builds its own subgraph, reallocation and Steiner tree from scratch.

The executor adds the behaviours a production front door needs that a bare
thread pool lacks:

* a **bounded queue** — at most ``max_workers + queue_depth`` queries may be
  admitted; beyond that :meth:`BatchExecutor.submit` raises
  :class:`~repro.errors.ExecutorOverloadedError` so overload turns into fast
  HTTP 429 rejections instead of unbounded memory growth;
* **one time budget** — each request carries its own ``deadline``, the only
  bound the executor knows: admission and the scheduler shed an expired
  request, the solve's checkpoints stop it, and the caller's wait ends with
  :class:`~repro.errors.DeadlineExceededError`;
* **graceful batch semantics** — :meth:`BatchExecutor.run_batch` applies
  backpressure (blocking admission) instead of rejecting, and returns one
  :class:`BatchOutcome` per request with either a payload or an error, never
  raising halfway through a batch;
* **per-tenant admission quotas** — when one executor is shared across a
  corpus registry, :meth:`BatchExecutor.configure_tenant` installs a
  :class:`~repro.config.TenantQuota` per namespace (the ``corpus`` routing
  field of each request): an in-flight/queued capacity and an optional
  token-bucket rate.  Over-quota submissions fail fast with
  :class:`~repro.errors.TenantQuotaExceededError` (HTTP 429 with
  ``Retry-After``) while every other tenant keeps its full share of the
  worker pool;
* **weighted fair scheduling** — admitted requests land in per-namespace
  queues and a deficit-round-robin dispatcher feeds the worker pool: a
  weight-``W`` tenant (see :class:`~repro.config.TenantOverrides`) is
  dispatched ``W`` requests per scheduling round for every one request of a
  weight-1 tenant.  Quotas bound *admission*; weights shape *service order*,
  so a flooding tenant that stays under quota still cannot starve anyone —
  its backlog waits its turn instead of monopolising the FIFO;
* **in-flight request coalescing** — identical concurrent queries (same
  canonical cache key) run the pipeline once: the first arrival is the
  *leader*, duplicates attach as waiters to the leader's future and receive
  the same result.  Each waiter is still charged against its own tenant
  quota and metrics (plus a ``coalesced_total`` counter); only the solve is
  shared.  A leader shed on its own deadline sends every waiter that still
  has budget back through admission, so no waiter answers for a deadline
  that is not its own.  This closes the thundering-herd window the result
  cache cannot — the cache only helps *after* the first completion.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from ..cluster.state import InMemoryQuotaStore, QuotaStore
from ..errors import (
    DeadlineExceededError,
    ExecutorOverloadedError,
    RequestValidationError,
    TenantQuotaExceededError,
    UnknownFieldsError,
    WorkerHungError,
    error_payload,
)
from ..obs.trace import handoff, stage
from ..resilience.deadline import deadline_scope, remaining_seconds
from ..resilience.faults import fault_point
from .coalesce import Coalescer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..config import TenantQuota
    from ..obs.events import EventLog
    from ..obs.trace import TraceContext
    from .metrics import MetricsRegistry

__all__ = [
    "BatchExecutor",
    "BatchOutcome",
    "QueryRequest",
    "validate_query_body",
]


def validate_query_body(
    payload: dict[str, Any], allowed: tuple[str, ...]
) -> dict[str, Any]:
    """Validate the common query-body fields, rejecting unknown keys.

    Returns the validated values for ``query``/``year_cutoff``/``exclude_ids``/
    ``use_cache`` (plus any extra allowed keys verbatim).  Unknown keys raise
    :class:`UnknownFieldsError` naming each one, so a typo like
    ``"year_cutof"`` becomes a 400 instead of silently running the wrong
    query.
    """
    unknown = tuple(key for key in payload if key not in allowed)
    if unknown:
        raise UnknownFieldsError(unknown, allowed)
    text = payload.get("query")
    if not isinstance(text, str) or not text.strip():
        raise RequestValidationError("'query' must be a non-empty string")
    year_cutoff = payload.get("year_cutoff")
    if year_cutoff is not None and (
        not isinstance(year_cutoff, int) or isinstance(year_cutoff, bool)
    ):
        raise RequestValidationError("'year_cutoff' must be an integer or null")
    exclude_ids = payload.get("exclude_ids", ())
    if not isinstance(exclude_ids, (list, tuple)) or not all(
        isinstance(pid, str) for pid in exclude_ids
    ):
        raise RequestValidationError("'exclude_ids' must be a list of paper ids")
    use_cache = payload.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise RequestValidationError("'use_cache' must be a boolean")
    validated = dict(payload)
    validated.update(
        query=text,
        year_cutoff=year_cutoff,
        exclude_ids=tuple(exclude_ids),
        use_cache=use_cache,
    )
    return validated


@dataclass(frozen=True, slots=True)
class QueryRequest:
    """One query to run through the service.

    ``corpus`` and ``variant`` are routing fields used by the multi-tenant
    application layer (:class:`~repro.repager.app.RePaGerApp`): ``corpus``
    names the tenant the query runs against (``None`` = the default tenant)
    and ``variant`` optionally overrides the pipeline variant (a Table III
    name such as ``"NEWST-W"``) for this request only.  Single-service
    executors built with :meth:`BatchExecutor.from_service` ignore both.
    """

    text: str
    year_cutoff: int | None = None
    exclude_ids: tuple[str, ...] = ()
    use_cache: bool = True
    corpus: str | None = None
    variant: str | None = None
    debug: bool = False
    #: Absolute ``time.monotonic()`` end-to-end deadline, fixed at ingress:
    #: the request's only time budget (``None`` = unbounded).  The scheduler
    #: sheds an expired request, and the solve loop checks it cooperatively.
    deadline: float | None = None

    _FIELDS = ("query", "year_cutoff", "exclude_ids", "use_cache", "debug")

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "QueryRequest":
        """Build a request from a JSON body, rejecting unknown fields."""
        body = validate_query_body(payload, cls._FIELDS)
        debug = body.get("debug", False)
        if not isinstance(debug, bool):
            raise RequestValidationError("'debug' must be a boolean")
        return cls(
            text=body["query"],
            year_cutoff=body["year_cutoff"],
            exclude_ids=body["exclude_ids"],
            use_cache=body["use_cache"],
            debug=debug,
        )


def _expired(request: QueryRequest) -> bool:
    """Whether ``request``'s deadline has passed."""
    remaining = remaining_seconds(request.deadline)
    return remaining is not None and remaining <= 0


@dataclass(slots=True)
class BatchOutcome:
    """Result of one request in a batch: a payload or an error, plus timing.

    ``error_code``/``error_status`` carry the same machine-readable taxonomy
    the HTTP layer serves (:func:`repro.errors.error_payload`), so batch
    clients can switch on stable codes instead of parsing message strings.
    """

    request: QueryRequest
    payload: Any | None = None
    error: str | None = None
    error_code: str | None = None
    error_status: int | None = None
    elapsed_seconds: float = field(default=0.0)

    @property
    def ok(self) -> bool:
        return self.error is None


class _TenantState:
    """Mutable per-namespace accounting shared by all of a tenant's requests.

    The state object outlives quota reconfiguration and tenant eviction:
    in-flight requests hold a reference and decrement *this* object on
    completion, so counters never go negative when a tenant is evicted and
    re-attached while its last requests are still draining.
    """

    __slots__ = (
        "namespace",
        "quota",
        "metrics",
        "weight",
        "admitted",
        "executing",
        "queued",
        "rejected",
        "coalesced",
    )

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self.quota: "TenantQuota | None" = None
        self.metrics: "MetricsRegistry | None" = None
        self.weight = 1
        self.admitted = 0
        self.executing = 0
        #: Requests holding a *post-admission* scheduler-queue slot.  A
        #: request parked on the global semaphore (``run_batch`` backpressure)
        #: is ``admitted`` but not ``queued`` — it holds no executor slot yet.
        self.queued = 0
        self.rejected = 0
        self.coalesced = 0


@dataclass(slots=True)
class _WorkItem:
    """One admitted request parked in a scheduler queue."""

    request: QueryRequest
    state: _TenantState | None
    trace_ctx: "TraceContext | None"
    enqueued: float
    future: Future


class BatchExecutor:
    """Run queries concurrently through one handler with admission control.

    Args:
        handler: Callable invoked as ``handler(request)`` → payload.  Use
            :meth:`from_service` to wrap a :class:`RePaGerService`.
        max_workers: Concurrent worker threads.
        queue_depth: Admitted-but-waiting queries allowed beyond the workers.
        metrics: Optional :class:`MetricsRegistry` receiving executor counters
            (submitted/completed/errors/rejected/deadline sheds/coalesced), the
            queue-wait and scheduler-wait histograms, the in-flight gauge and
            the scheduler queue-depth gauge.
        clock: Monotonic time source for token-bucket quotas (injectable for
            deterministic tests).
        events: Optional :class:`~repro.obs.events.EventLog` receiving
            ``quota_reject`` lifecycle events.
        key_for: Optional coalescing-key hook, called as ``key_for(request)``
            → hashable key (or ``None`` to opt this request out).  When two
            requests map to the same key while the first is still in flight,
            the second attaches to the first's future instead of running the
            handler again.  ``None`` disables coalescing entirely.
        hang_seconds: Worker-watchdog threshold: a worker stuck on one
            request longer than this is abandoned (its request fails with
            :class:`~repro.errors.WorkerHungError`, releasing the waiter and
            every held slot) and a replacement thread is started so pool
            capacity is never silently lost.  ``None`` disables the watchdog.
        watchdog_interval: How often the watchdog scans (defaults to a
            quarter of ``hang_seconds``).
        quota_store: Where per-tenant token buckets live.  Defaults to a
            process-local :class:`~repro.cluster.state.InMemoryQuotaStore`
            driven by ``clock``; pass a
            :class:`~repro.cluster.state.SqliteQuotaStore` to make 429
            decisions survive restarts and agree across replicas.
    """

    def __init__(
        self,
        handler: Callable[[QueryRequest], Any],
        max_workers: int = 4,
        queue_depth: int = 16,
        metrics: "MetricsRegistry | None" = None,
        clock: Callable[[], float] = time.monotonic,
        events: "EventLog | None" = None,
        key_for: Callable[[QueryRequest], Hashable | None] | None = None,
        hang_seconds: float | None = None,
        watchdog_interval: float | None = None,
        quota_store: QuotaStore | None = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if hang_seconds is not None and hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive or None")
        self.handler = handler
        self.max_workers = max_workers
        self.queue_depth = queue_depth
        self.hang_seconds = hang_seconds
        self.metrics = metrics
        self.events = events
        self.key_for = key_for
        self._clock = clock
        self.quota_store: QuotaStore = (
            quota_store if quota_store is not None else InMemoryQuotaStore(clock=clock)
        )
        self._slots = threading.BoundedSemaphore(max_workers + queue_depth)
        self._shutdown = False
        self._tenants: dict[str, _TenantState] = {}
        self._tenant_lock = threading.Lock()
        # -- worker-watchdog state (guarded by _running_lock) ----------------
        #: What each worker thread is executing right now and since when.
        self._running: dict[threading.Thread, tuple[_WorkItem, float]] = {}
        self._running_lock = threading.Lock()
        #: Threads the watchdog gave up on; they exit their loop on return.
        self._abandoned: set[threading.Thread] = set()
        self._replaced_total = 0
        self._worker_seq = max_workers
        self._watchdog_stop = threading.Event()
        self._watchdog: threading.Thread | None = None
        # -- deficit-round-robin scheduler state (all guarded by _sched) -----
        #: Per-namespace FIFO of admitted-but-undispatched work.
        self._queues: dict[str, deque[_WorkItem]] = {}
        #: Round-robin ring of namespaces with pending work (head = next up).
        self._ring: deque[str] = deque()
        #: Unspent dispatch credit per namespace within the current round.
        self._credits: dict[str, float] = {}
        self._queued_total = 0
        self._sched = threading.Condition(threading.Lock())
        self._coalescer = Coalescer()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repager-serve_{index}",
                daemon=True,
            )
            for index in range(max_workers)
        ]
        for worker in self._workers:
            worker.start()
        if hang_seconds is not None:
            interval = (
                watchdog_interval
                if watchdog_interval is not None
                else max(0.05, hang_seconds / 4.0)
            )
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                args=(interval,),
                name="repager-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    @classmethod
    def from_service(
        cls,
        service: Any,
        max_workers: int = 4,
        queue_depth: int = 16,
        metrics: "MetricsRegistry | None" = None,
    ) -> "BatchExecutor":
        """Executor whose handler is ``service.query`` (cache-aware).

        Coalescing is not wired here: the single-service path promises
        exactly one ``service.query`` call per admitted request (its metrics
        count per-request), and the service's own result cache already
        deduplicates completed work.
        """

        def handler(request: QueryRequest) -> Any:
            return service.query(
                request.text,
                year_cutoff=request.year_cutoff,
                exclude_ids=request.exclude_ids,
                use_cache=request.use_cache,
            )

        return cls(
            handler,
            max_workers=max_workers,
            queue_depth=queue_depth,
            metrics=metrics,
        )

    @classmethod
    def from_app(
        cls,
        app: Any,
        max_workers: int = 4,
        queue_depth: int = 16,
        metrics: "MetricsRegistry | None" = None,
        hang_seconds: float | None = None,
        quota_store: QuotaStore | None = None,
    ) -> "BatchExecutor":
        """One bounded executor shared by every tenant of a ``RePaGerApp``.

        The handler routes each request to the tenant named by
        ``request.corpus`` (falling back to the app's default tenant), so a
        single worker pool and admission queue bound the whole process no
        matter how many corpora are attached.  The app's canonical cache key
        doubles as the coalescing key, so identical concurrent queries
        against one tenant run the pipeline once.
        """
        return cls(
            app.handle_request,
            max_workers=max_workers,
            queue_depth=queue_depth,
            metrics=metrics,
            events=getattr(app, "events", None),
            key_for=getattr(app, "coalesce_key", None),
            hang_seconds=hang_seconds,
            quota_store=quota_store,
        )

    # -- per-tenant quotas -------------------------------------------------------

    def configure_tenant(
        self,
        namespace: str,
        quota: "TenantQuota | None" = None,
        metrics: "MetricsRegistry | None" = None,
        weight: int = 1,
    ) -> None:
        """Install (or replace) one namespace's quota, metrics and weight.

        ``namespace`` is matched against each request's ``corpus`` field.  The
        accounting counters survive reconfiguration, so re-attaching an
        evicted tenant does not reset its in-flight bookkeeping while old
        requests are still draining; only the token bucket refills to a full
        ``burst``.  ``weight`` (>= 1) is this namespace's fair-share weight in
        the deficit-round-robin dispatcher and takes effect immediately,
        including for already-queued requests.
        """
        if weight < 1:
            raise ValueError("weight must be >= 1")
        with self._tenant_lock:
            state = self._tenants.get(namespace)
            if state is None:
                state = self._tenants[namespace] = _TenantState(namespace)
            state.quota = quota
            state.metrics = metrics
            state.weight = weight
            if quota is not None and quota.rate_per_second is not None:
                self.quota_store.configure(namespace, quota.burst)

    def drop_tenant(self, namespace: str) -> None:
        """Forget a namespace's quota and accounting (tenant fully detached)."""
        with self._tenant_lock:
            self._tenants.pop(namespace, None)
        self.quota_store.drop(namespace)

    def tenant_usage(self, namespace: str) -> dict[str, int] | None:
        """Point-in-time admission counters for one namespace (None if unknown).

        ``queued`` counts only requests holding a post-admission scheduler
        slot; a ``run_batch`` request parked on the *global* semaphore is
        ``admitted`` (it holds its tenant charge) but not yet ``queued``.
        """
        with self._tenant_lock:
            state = self._tenants.get(namespace)
            if state is None:
                return None
            return {
                "admitted": state.admitted,
                "executing": state.executing,
                "queued": state.queued,
                "rejected_total": state.rejected,
            }

    def scheduler_info(self, namespace: str) -> dict[str, int] | None:
        """Scheduling policy + live counters for one namespace (None if unknown).

        Surfaced by ``GET /v1/corpora/<name>``: the tenant's DRR ``weight``,
        its current scheduler ``queue_depth`` and how many of its requests
        were answered by attaching to an identical in-flight solve
        (``coalesced_total``).
        """
        with self._tenant_lock:
            state = self._tenants.get(namespace)
            if state is None:
                return None
            return {
                "weight": state.weight,
                "queue_depth": state.queued,
                "coalesced_total": state.coalesced,
            }

    def _admit_tenant(self, request: QueryRequest) -> _TenantState | None:
        """Charge one admission against the request's tenant quota.

        Returns the tenant state holding the charge (``None`` when the
        namespace has no configured state).  The caller must balance every
        successful admission with :meth:`_release_tenant`.

        Raises:
            TenantQuotaExceededError: Capacity or token-bucket rejection.
        """
        namespace = request.corpus or ""
        with self._tenant_lock:
            state = self._tenants.get(namespace)
            if state is None:
                return None
            quota = state.quota
            if quota is not None:
                capacity = quota.capacity()
                if capacity is not None and state.admitted >= capacity:
                    raise self._reject_tenant(
                        state,
                        namespace,
                        f"{state.admitted} requests in flight "
                        f"(max_in_flight={quota.max_in_flight}, "
                        f"max_queued={quota.max_queued or 0})",
                        retry_after=1.0,
                    )
                if quota.rate_per_second is not None:
                    retry_after = self.quota_store.try_consume(
                        namespace, quota.rate_per_second, quota.burst
                    )
                    if retry_after > 0.0:
                        raise self._reject_tenant(
                            state,
                            namespace,
                            f"rate limit of {quota.rate_per_second:g} "
                            "requests/second exhausted",
                            retry_after=retry_after,
                        )
            state.admitted += 1
        return state

    def _reject_tenant(
        self, state: _TenantState, namespace: str, reason: str, retry_after: float
    ) -> TenantQuotaExceededError:
        # Called with _tenant_lock held; returns the error for `raise` clarity.
        state.rejected += 1
        if state.metrics is not None:
            state.metrics.increment("quota_rejected_total")
        self._count("executor_quota_rejected_total")
        if self.events is not None:
            self.events.emit(
                "quota_reject",
                corpus=namespace or None,
                reason=reason,
                retry_after_seconds=round(retry_after, 3),
            )
        return TenantQuotaExceededError(namespace, reason, retry_after)

    def _release_tenant(
        self, state: _TenantState | None, refund_token: bool = False
    ) -> None:
        """Balance one :meth:`_admit_tenant` charge.

        ``refund_token`` returns the consumed rate-limit token too — only
        when the request never ran (a *global* queue rejection after tenant
        admission must not double-penalise a rate-limited tenant).
        """
        if state is None:
            return
        refund_burst: int | None = None
        with self._tenant_lock:
            state.admitted -= 1
            if (
                refund_token
                and state.quota is not None
                and state.quota.rate_per_second is not None
            ):
                refund_burst = state.quota.burst
        if refund_burst is not None:
            self.quota_store.refund(state.namespace, refund_burst)

    # -- coalescing --------------------------------------------------------------

    def _join(
        self, request: QueryRequest, state: _TenantState | None
    ) -> tuple[Future | None, bool]:
        """The coalescing step shared by :meth:`submit` and :meth:`run_batch`.

        Returns ``(future, True)`` when the caller must run the request:
        ``future`` is the leader future to resolve, or ``None`` when the
        request runs alone.  Returns ``(waiter, False)`` when an identical
        request is in flight; ``waiter`` resolves with its outcome.

        ``use_cache=False`` is an explicit freshness demand (the caller wants
        its own pipeline run, and others must not piggyback on a run that may
        race a configuration change), and ``debug`` requests carry their own
        trace — neither coalesces.  A ``key_for`` hook that raises opts the
        request out too: an unknown corpus/variant will produce its proper
        taxonomy error inside the worker, not here.
        """
        if self.key_for is None or not request.use_cache or request.debug:
            return None, True
        try:
            key = self.key_for(request)
        except Exception:  # noqa: BLE001 - the handler re-raises properly
            return None, True
        if key is None:
            return None, True
        future, leads = self._coalescer.join(key)
        if leads:
            return future, True
        return self._attach_waiter(future, state), False

    def _attach_waiter(
        self, leader: Future, state: _TenantState | None
    ) -> Future:
        """Chain a duplicate request onto an identical in-flight solve.

        The waiter gets its own future (its caller keeps its own deadline
        and error accounting), resolved from the leader's outcome.  The
        waiter holds no worker or queue slot — only its tenant admission
        charge, released when the shared solve completes.
        """
        self._count("executor_submitted_total")
        self._count("executor_coalesced_total")
        if state is not None:
            with self._tenant_lock:
                state.coalesced += 1
            if state.metrics is not None:
                state.metrics.increment("quota_admitted_total")
                state.metrics.increment("coalesced_total")
        waiter: Future = Future()
        waiter.add_done_callback(lambda _f: self._release_tenant(state))

        def propagate(done: Future) -> None:
            if waiter.cancelled():
                return
            if done.cancelled():
                waiter.cancel()
                return
            exc = done.exception()
            if exc is not None:
                waiter.set_exception(exc)
            else:
                waiter.set_result(done.result())

        leader.add_done_callback(propagate)
        return waiter

    # -- admission ---------------------------------------------------------------

    def submit(self, request: QueryRequest) -> Future:
        """Admit one query, rejecting immediately when the queue is full.

        Identical concurrent queries (same canonical cache key) coalesce:
        the duplicate is admitted and charged normally but attaches to the
        in-flight leader's future instead of consuming a queue slot.

        Raises:
            TenantQuotaExceededError: The tenant's admission quota is spent
                (checked before the shared queue so one tenant's flood is
                rejected without consuming global slots).
            ExecutorOverloadedError: All worker and queue slots are taken.
            DeadlineExceededError: The request arrived with its end-to-end
                deadline already spent.
            RuntimeError: The executor has been shut down.
        """
        if self._shutdown:
            raise RuntimeError("executor has been shut down")
        if _expired(request):
            self._count("deadline_shed_total")
            raise DeadlineExceededError(stage="admission")
        with stage("quota_admission"):
            state = self._admit_tenant(request)
        future, runs = self._join(request, state)
        if not runs:
            return future
        if not self._slots.acquire(blocking=False):
            self._release_tenant(state, refund_token=True)
            self._count("executor_rejected_total")
            error = ExecutorOverloadedError(
                f"serving queue full ({self.max_workers} workers, "
                f"{self.queue_depth} waiting slots)"
            )
            if future is not None:
                # Resolve the leader future so any waiter that attached in
                # the race window gets the same 429 (and the key is freed).
                future.set_exception(error)
            raise error
        return self._submit_admitted(request, state, future)

    def _submit_admitted(
        self,
        request: QueryRequest,
        state: _TenantState | None,
        future: Future | None = None,
    ) -> Future:
        self._count("executor_submitted_total")
        # Counted here — after both the tenant charge and the global slot
        # held — so quota_admitted_total reconciles exactly with requests
        # that actually entered the pool.
        if state is not None and state.metrics is not None:
            state.metrics.increment("quota_admitted_total")
        # Worker threads do not inherit contextvars; capture the active trace
        # here (the submitting thread) and re-activate it inside the worker.
        trace_ctx = handoff()
        enqueued = time.perf_counter()
        if future is None:
            future = Future()
        item = _WorkItem(
            request=request,
            state=state,
            trace_ctx=trace_ctx,
            enqueued=enqueued,
            future=future,
        )
        try:
            self._enqueue(item)
        except BaseException as exc:
            self._slots.release()
            self._release_tenant(state, refund_token=True)
            future.set_exception(exc)  # waiters on a leader future fail too
            raise
        future.add_done_callback(
            lambda _: (self._slots.release(), self._release_tenant(state))
        )
        return future

    # -- deficit-round-robin scheduling ------------------------------------------

    def _enqueue(self, item: _WorkItem) -> None:
        """Park an admitted request in its namespace's scheduler queue."""
        namespace = item.request.corpus or ""
        with self._sched:
            if self._shutdown:
                raise RuntimeError("executor has been shut down")
            queue = self._queues.get(namespace)
            if queue is None:
                queue = self._queues[namespace] = deque()
                self._ring.append(namespace)
            queue.append(item)
            self._queued_total += 1
            self._sched.notify()
        state = item.state
        if state is not None:
            with self._tenant_lock:
                state.queued += 1
        if self.metrics is not None:
            self.metrics.gauge_add("scheduler_queue_depth", 1.0)
        if state is not None and state.metrics is not None:
            state.metrics.gauge_add("scheduler_queue_depth", 1.0)

    def _weight_of(self, namespace: str) -> int:
        # Benign unlocked dict read: weights change only via configure_tenant
        # and a stale read merely delays the new weight by one dispatch.
        state = self._tenants.get(namespace)
        return state.weight if state is not None else 1

    def _pop_next(self) -> _WorkItem | None:
        """Pop the next request in deficit-round-robin order.

        Called with ``_sched`` held.  The namespace at the ring head earns
        ``weight`` credits when its turn starts and pays one credit per
        dispatched request; once its credit is spent (or its queue drains)
        the turn passes.  With unit-cost requests this serves each backlogged
        namespace in proportion to its weight, one round at a time, so a
        deep backlog can never starve a light tenant for more than one
        round.
        """
        while self._ring:
            namespace = self._ring[0]
            queue = self._queues.get(namespace)
            if not queue:  # pragma: no cover - defensive: drained entries leave
                self._ring.popleft()
                self._credits.pop(namespace, None)
                self._queues.pop(namespace, None)
                continue
            credit = self._credits.get(namespace, 0.0)
            if credit < 1.0:
                credit += self._weight_of(namespace)
            item = queue.popleft()
            credit -= 1.0
            self._queued_total -= 1
            if not queue:
                # Drained: leave the ring and forget round state, so the
                # namespace rejoins fresh (at the tail) on its next request.
                del self._queues[namespace]
                self._ring.popleft()
                self._credits.pop(namespace, None)
            else:
                self._credits[namespace] = credit
                if credit < 1.0:
                    self._ring.rotate(-1)  # turn spent; head moves to tail
            return item
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._sched:
                while self._queued_total == 0 and not self._shutdown:
                    self._sched.wait()
                item = self._pop_next()
                if item is None:
                    if self._shutdown:
                        return
                    continue  # pragma: no cover - spurious wakeup race
            self._dispatch(item)
            with self._running_lock:
                abandoned = threading.current_thread() in self._abandoned
                self._abandoned.discard(threading.current_thread())
            if abandoned:
                # The watchdog replaced this worker while it was stuck in the
                # handler above; its request was already failed and a fresh
                # thread holds its seat — exit instead of double-staffing.
                return

    def _dispatch(self, item: _WorkItem) -> None:
        dispatched = time.perf_counter()
        state = item.state
        if state is not None:
            with self._tenant_lock:
                state.queued -= 1
        if self.metrics is not None:
            self.metrics.gauge_add("scheduler_queue_depth", -1.0)
        if state is not None and state.metrics is not None:
            state.metrics.gauge_add("scheduler_queue_depth", -1.0)
        future = item.future
        if not future.set_running_or_notify_cancel():
            return  # cancelled while queued; done callbacks already ran
        worker = threading.current_thread()
        with self._running_lock:
            self._running[worker] = (item, time.monotonic())
        try:
            # A request whose deadline expired while queueing is shed here —
            # cheaper than solving, and the worker moves straight on to work
            # that can still meet its budget.  Its caller counts the shed.
            if _expired(item.request):
                raise DeadlineExceededError(stage="scheduler")
            result = self._run(
                item.request, state, item.trace_ctx, item.enqueued, dispatched
            )
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            self._resolve(future, error=exc)
        else:
            self._resolve(future, result=result)
        finally:
            with self._running_lock:
                self._running.pop(worker, None)

    @staticmethod
    def _resolve(
        future: Future, result: Any = None, error: BaseException | None = None
    ) -> None:
        """Complete a future, tolerating a watchdog that beat us to it.

        When the watchdog declares a worker hung it fails the future itself;
        if the abandoned worker eventually finishes anyway, its late outcome
        has nowhere to go and is dropped here instead of raising
        ``InvalidStateError`` inside the worker loop.
        """
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except Exception:
            pass

    def _run(
        self,
        request: QueryRequest,
        state: _TenantState | None = None,
        trace_ctx: "TraceContext | None" = None,
        enqueued: float | None = None,
        dispatched: float | None = None,
    ) -> Any:
        entered = time.perf_counter()
        if enqueued is not None:
            wait = max(0.0, entered - enqueued)
            sched_wait = max(0.0, (dispatched or entered) - enqueued)
            if self.metrics is not None:
                self.metrics.observe("queue_wait_seconds", wait)
                self.metrics.observe("scheduler_wait_seconds", sched_wait)
            if state is not None and state.metrics is not None:
                state.metrics.observe("queue_wait_seconds", wait)
                state.metrics.observe("scheduler_wait_seconds", sched_wait)
        if self.metrics is not None:
            self.metrics.gauge_add("in_flight", 1.0)
        tenant_metrics = state.metrics if state is not None else None
        if state is not None:
            with self._tenant_lock:
                state.executing += 1
        if tenant_metrics is not None:
            tenant_metrics.gauge_add("in_flight", 1.0)
        try:
            if trace_ctx is not None:
                with trace_ctx as trace:
                    if enqueued is not None:
                        trace.add_span(
                            "scheduler_wait",
                            start=enqueued,
                            end=dispatched or entered,
                            parent_id=trace_ctx.span_id,
                        )
                        trace.add_span(
                            "queue_wait",
                            start=enqueued,
                            end=entered,
                            parent_id=trace_ctx.span_id,
                        )
                    return self._invoke(request)
            return self._invoke(request)
        finally:
            if state is not None:
                with self._tenant_lock:
                    state.executing -= 1
            if tenant_metrics is not None:
                tenant_metrics.gauge_add("in_flight", -1.0)
            if self.metrics is not None:
                self.metrics.gauge_add("in_flight", -1.0)

    def _invoke(self, request: QueryRequest) -> Any:
        """Run the handler with the request's deadline on the context.

        The ``worker`` fault point sits right before the handler — a
        ``delay`` rule here is the canonical way to simulate a hung worker
        for the watchdog, and a ``fail`` rule a crashed one.
        """
        fault_point("worker")
        with deadline_scope(request.deadline):
            return self.handler(request)

    # -- worker watchdog ---------------------------------------------------------

    def _watchdog_loop(self, interval: float) -> None:
        assert self.hang_seconds is not None
        while not self._watchdog_stop.wait(interval):
            now = time.monotonic()
            hung: list[tuple[threading.Thread, _WorkItem]] = []
            with self._running_lock:
                for worker, (item, started) in self._running.items():
                    if (
                        now - started > self.hang_seconds
                        and worker not in self._abandoned
                    ):
                        self._abandoned.add(worker)
                        hung.append((worker, item))
            for worker, item in hung:
                self._replace_worker(worker, item)

    def _replace_worker(self, worker: threading.Thread, item: _WorkItem) -> None:
        """Abandon a hung worker: seat a replacement, fail its request.

        The counters and the replacement are in place *before* the future is
        failed: a waiter that observes the ``WorkerHungError`` must also see
        ``worker_replaced_total`` moved and the pool back at full capacity.
        The stuck thread keeps running until whatever wedged it lets go, then
        exits its loop harmlessly.
        """
        assert self.hang_seconds is not None
        replacement = threading.Thread(
            target=self._worker_loop,
            name=f"repager-serve_{self._worker_seq}",
            daemon=True,
        )
        self._worker_seq += 1
        try:
            self._workers.remove(worker)
        except ValueError:  # pragma: no cover - defensive
            pass
        self._workers.append(replacement)
        replacement.start()
        self._replaced_total += 1
        self._count("worker_replaced_total")
        self._resolve(
            item.future,
            error=WorkerHungError(item.request.text, self.hang_seconds),
        )
        if self.events is not None:
            self.events.emit(
                "worker_replaced",
                corpus=item.request.corpus,
                worker=worker.name,
                replacement=replacement.name,
                query=item.request.text,
                hang_seconds=self.hang_seconds,
            )

    def pool_info(self) -> dict[str, Any]:
        """Live worker-pool capacity for health surfaces and tests."""
        with self._running_lock:
            busy = len(self._running)
            abandoned = len(self._abandoned)
        return {
            "max_workers": self.max_workers,
            "alive": sum(1 for worker in self._workers if worker.is_alive()),
            "busy": busy,
            "abandoned": abandoned,
            "replaced_total": self._replaced_total,
            "watchdog_enabled": self._watchdog is not None,
            "hang_seconds": self.hang_seconds,
        }

    # -- completion --------------------------------------------------------------

    def result(self, request: QueryRequest, future: Future) -> Any:
        """Wait for one admitted query until its deadline.

        Every terminal outcome is counted here — completions, deadline sheds
        and handler errors — so ``executor_errors_total`` covers the
        ``run_one``/HTTP path, not just batches.  A shed counts once in
        ``deadline_shed_total`` whichever thread noticed it: this wait, the
        scheduler, or a checkpoint inside the solve.

        A shed whose request still has budget was a coalesced leader's,
        shed on the leader's earlier deadline: the request is submitted
        again and waited for within what is left of its own budget.  So a
        ``DeadlineExceededError`` from here always means *this* request's
        deadline passed.

        Raises:
            DeadlineExceededError: The request's deadline passed.  A wait
                that runs out leaves the worker to stop at its next
                checkpoint; its slot is released when it does.
        """
        while True:
            remaining = remaining_seconds(request.deadline)
            try:
                value = future.result(
                    timeout=None if remaining is None else max(0.0, remaining)
                )
            except FutureTimeoutError:
                self._count("deadline_shed_total")
                raise DeadlineExceededError(stage="result_wait") from None
            except DeadlineExceededError:
                if _expired(request):
                    self._count("deadline_shed_total")
                    raise
            except Exception:
                self._count("executor_errors_total")
                raise
            else:
                self._count("executor_completed_total")
                return value
            future = self.submit(request)  # the leader's shed, not ours

    def run_one(self, request: QueryRequest) -> Any:
        """Admit + wait for a single query (the HTTP API's code path)."""
        future = self.submit(request)
        return self.result(request, future)

    def run_batch(self, requests: Sequence[QueryRequest]) -> list[BatchOutcome]:
        """Run a whole batch with backpressure; one outcome per request.

        Admission blocks (instead of rejecting) when the shared queue is
        full, so arbitrarily large batches complete with bounded concurrency.
        Per-tenant quotas still apply and fail fast — blocking a whole batch
        on one tenant's spent quota would defeat the fairness policy — so an
        over-quota request becomes an error outcome instead of backpressure.
        Failures and deadline sheds are captured per-request; the batch
        itself never raises.
        """
        admitted: list[tuple[QueryRequest, Future | None, float, BatchOutcome]] = []
        for request in requests:
            outcome = BatchOutcome(request=request)
            started = time.perf_counter()
            try:
                state = self._admit_tenant(request)
            except TenantQuotaExceededError as exc:
                taxonomy = error_payload(exc)
                outcome.error = str(exc)
                outcome.error_code = taxonomy["code"]
                outcome.error_status = taxonomy["http_status"]
                outcome.elapsed_seconds = time.perf_counter() - started
                admitted.append((request, None, started, outcome))
                continue
            future, runs = self._join(request, state)
            if runs:
                # Blocking global admission: the tenant charge is already
                # held, but the request counts as tenant-`queued` only once
                # it takes a post-admission slot inside _submit_admitted.
                self._slots.acquire()
                future = self._submit_admitted(request, state, future)
            admitted.append((request, future, started, outcome))

        outcomes: list[BatchOutcome] = []
        for request, future, started, outcome in admitted:
            if future is not None:
                try:
                    outcome.payload = self.result(request, future)
                except Exception as exc:  # noqa: BLE001 - batch reports, never raises
                    taxonomy = error_payload(exc)
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    outcome.error_code = taxonomy["code"]
                    outcome.error_status = taxonomy["http_status"]
                outcome.elapsed_seconds = time.perf_counter() - started
            outcomes.append(outcome)
        return outcomes

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting queries and optionally wait for in-flight work.

        Already-queued work still runs (parity with
        ``ThreadPoolExecutor.shutdown``): workers drain the scheduler queues
        before exiting.
        """
        with self._sched:
            self._shutdown = True
            self._sched.notify_all()
        self._watchdog_stop.set()
        if wait:
            for worker in list(self._workers):
                worker.join()
            if self._watchdog is not None:
                self._watchdog.join()

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(wait=True)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.increment(name)

