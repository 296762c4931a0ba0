"""Weighted fair scheduling + in-flight coalescing in :class:`BatchExecutor`.

Two serving-layer defects under the paper's interactive-web-app load model
are covered here:

* **FIFO starvation** — one flooding tenant used to monopolise the worker
  pool's single FIFO.  The deficit-round-robin dispatcher must interleave a
  quiet tenant's requests within one scheduling round of the pool, no matter
  how deep the flooder's backlog is, and a ``weight=W`` tenant must receive
  ``W`` dispatches per round for each dispatch of a weight-1 tenant.
* **duplicate-solve stampede** — N identical concurrent queries used to run
  N full pipeline solves (the result cache only helps after the first
  completion).  With coalescing, concurrent duplicates attach to the
  in-flight leader's future: exactly one solve, N successful responses, and
  per-tenant ``coalesced_total`` accounting.

The deterministic tests gate the handler so scheduling arithmetic — not
thread timing — decides every ordering assertion.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.config import ServingConfig, TenantOverrides, TenantQuota
from repro.serving import BatchExecutor, MetricsRegistry, QueryRequest, parse_metrics_text
from repro.repager.app import RePaGerApp
from serving_stubs import poll


class StubService:
    """Instant (or gated) canned answers; records handler-entry order."""

    def __init__(self, gate=None, log=None, label=""):
        self.gate = gate
        self.log = log
        self.label = label
        self.metrics = None  # assigned by attach_service
        self.cache = None
        self.cache_namespace = ""
        self.cache_ttl_seconds = None
        self.pipeline = SimpleNamespace(config_fingerprint="stub-fingerprint")
        self.store = ()
        self.graph = SimpleNamespace(num_nodes=0, num_edges=0)
        self.calls: list[str] = []
        self.entered = threading.Event()
        self._call_lock = threading.Lock()

    def readiness(self):
        return {"stub_ready": True}

    def pipeline_for(self, variant=None):
        return self.pipeline

    def variants_loaded(self):
        return ()

    def query_with_meta(
        self, text, year_cutoff=None, exclude_ids=(), use_cache=True, variant=None
    ):
        with self._call_lock:
            self.calls.append(text)
        if self.log is not None:
            self.log.append(self.label)
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0), "test gate never opened"
        return {"query": text}, False


class _AppendLog:
    """Thread-safe append-only list shared by several stub services."""

    def __init__(self):
        self._items: list[str] = []
        self._lock = threading.Lock()

    def append(self, item: str) -> None:
        with self._lock:
            self._items.append(item)

    def items(self) -> list[str]:
        with self._lock:
            return list(self._items)


def _spawn(target, count):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    return threads


def _join_all(threads, timeout=30.0):
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "worker thread leaked"


class TestDeficitRoundRobin:
    def test_weighted_dispatch_order_is_deterministic(self):
        """One worker, backlog built while it is blocked: a weight-3 tenant
        gets exactly 3 consecutive dispatches per round against a weight-1
        tenant — the literal DRR schedule, observed via handler entry order."""
        order: list[str] = []
        started = threading.Event()
        release = threading.Event()

        def handler(request):
            if request.text == "blocker":
                started.set()
                assert release.wait(timeout=30)
                return "ok"
            order.append(request.corpus)
            return "ok"

        executor = BatchExecutor(handler, max_workers=1, queue_depth=16)
        try:
            executor.configure_tenant("heavy", weight=3)
            executor.configure_tenant("light", weight=1)
            futures = [executor.submit(QueryRequest(text="blocker", corpus="heavy"))]
            assert started.wait(timeout=10)
            # Backlog built in submission order while the worker is blocked.
            for index in range(6):
                futures.append(
                    executor.submit(QueryRequest(text=f"h{index}", corpus="heavy"))
                )
            for index in range(2):
                futures.append(
                    executor.submit(QueryRequest(text=f"l{index}", corpus="light"))
                )
            release.set()
            for future in futures:
                assert future.result(timeout=30) == "ok"
        finally:
            release.set()
            executor.shutdown(wait=True)
        # Round 1: heavy spends 3 credits, light 1; round 2: the same.
        assert order == [
            "heavy", "heavy", "heavy", "light",
            "heavy", "heavy", "heavy", "light",
        ]

    def test_default_weights_alternate_fairly(self):
        """Equal weights degrade to plain round-robin across namespaces."""
        order: list[str] = []
        started = threading.Event()
        release = threading.Event()

        def handler(request):
            if request.text == "blocker":
                started.set()
                assert release.wait(timeout=30)
                return "ok"
            order.append(request.corpus)
            return "ok"

        executor = BatchExecutor(handler, max_workers=1, queue_depth=16)
        try:
            futures = [executor.submit(QueryRequest(text="blocker", corpus="a"))]
            assert started.wait(timeout=10)
            for index in range(3):
                futures.append(executor.submit(QueryRequest(text=f"a{index}", corpus="a")))
            for index in range(3):
                futures.append(executor.submit(QueryRequest(text=f"b{index}", corpus="b")))
            release.set()
            for future in futures:
                assert future.result(timeout=30) == "ok"
        finally:
            release.set()
            executor.shutdown(wait=True)
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_configure_tenant_rejects_bad_weight(self):
        executor = BatchExecutor(lambda request: "ok", max_workers=1)
        try:
            with pytest.raises(ValueError):
                executor.configure_tenant("t", weight=0)
        finally:
            executor.shutdown(wait=True)

    def test_quiet_tenant_interleaves_under_eight_worker_flood(self):
        """The tenant-stress scenario: 8 workers saturated by a flooding
        tenant with a 40-deep backlog.  A quiet tenant's two requests must be
        dispatched on the very next scheduling round — not behind the backlog
        as the old FIFO did (they would have been the last two dispatches).

        Dispatch order is observed by wrapping ``_pop_next``, which runs with
        the scheduler lock held, so the recorded order *is* the DRR schedule —
        exact, with no worker-thread racing between pop and record."""
        flood_gate = threading.Event()
        log = _AppendLog()
        app = RePaGerApp(
            config=ServingConfig(
                port=0, max_workers=8, queue_depth=64, query_timeout_seconds=60.0
            )
        )
        pops: list[str] = []
        original_pop = app.executor._pop_next

        def recording_pop():
            item = original_pop()
            if item is not None:
                pops.append(item.request.corpus)
            return item

        app.executor._pop_next = recording_pop
        try:
            app.attach_service(
                "flood", StubService(gate=flood_gate, log=log, label="flood"),
                default=True,
            )
            app.attach_service("quiet", StubService(log=log, label="quiet"))

            flood_threads = _spawn(
                lambda i: app.query(f"flood query {i}", corpus="flood"), 48
            )
            # 8 floods occupy every worker; 40 wait in the scheduler queue.
            assert poll(
                lambda: app.executor.tenant_usage("flood")["executing"] == 8
            )
            assert poll(
                lambda: app.executor.scheduler_info("flood")["queue_depth"] == 40
            )
            quiet_threads = _spawn(
                lambda i: app.query(f"quiet query {i}", corpus="quiet"), 2
            )
            assert poll(
                lambda: app.executor.scheduler_info("quiet")["queue_depth"] == 2
            )
            flood_gate.set()
            _join_all(flood_threads + quiet_threads)

            assert log.items().count("quiet") == 2  # both actually answered
            assert len(pops) == 50
            # Pops 0-7 are the floods that seized the idle workers.  From
            # there the ring alternates flood/quiet until quiet's two-deep
            # queue drains: quiet is dispatched 2nd and 4th among the 42
            # backlogged requests, 38 flooded dispatches ahead of where the
            # old FIFO would have put it.
            quiet_dispatches = [i for i, c in enumerate(pops) if c == "quiet"]
            assert quiet_dispatches == [9, 11], quiet_dispatches
            assert app.executor.tenant_usage("quiet")["rejected_total"] == 0
        finally:
            flood_gate.set()
            app.close(wait=False)


class TestCoalescing:
    def test_sixteen_identical_concurrent_queries_run_one_solve(self):
        """16 identical concurrent queries → exactly 1 pipeline solve, 16
        successful responses, 15 coalesced waiters charged to the tenant."""
        gate = threading.Event()
        spy = StubService(gate=gate)
        app = RePaGerApp(
            config=ServingConfig(
                port=0, max_workers=8, queue_depth=32, query_timeout_seconds=60.0
            )
        )
        try:
            app.attach_service("x", spy, default=True)
            responses: list = []
            lock = threading.Lock()

            def worker(index):
                response = app.query("Reading Path Generation", corpus="x")
                with lock:
                    responses.append(response)

            leader = _spawn(worker, 1)
            # The leader is inside the handler (blocked on the gate) before
            # any duplicate is submitted, so every follower must coalesce.
            assert spy.entered.wait(timeout=10)
            followers = _spawn(lambda i: worker(i + 1), 15)
            assert poll(
                lambda: app.executor.scheduler_info("x")["coalesced_total"] == 15
            )
            gate.set()
            _join_all(leader + followers)

            assert len(spy.calls) == 1  # one solve for all sixteen callers
            assert len(responses) == 16
            assert all(r.payload == {"query": "Reading Path Generation"} for r in responses)
            assert all(r.corpus == "x" for r in responses)

            info = app.executor.scheduler_info("x")
            assert info == {"weight": 1, "queue_depth": 0, "coalesced_total": 15}
            assert app.metrics.counter("executor_coalesced_total") == 15
            assert app.metrics.counter("executor_submitted_total") == 16
            assert app.metrics.counter("executor_completed_total") == 16
            series = parse_metrics_text(app.metrics_text())
            label = (("corpus", "x"),)
            assert series["repager_coalesced_total"][label] == 15
            assert series["repager_quota_admitted_total"][label] == 16
            assert series["repager_scheduler_queue_depth"][label] == 0
            assert series["repager_scheduler_queue_depth"][()] == 0
            # All tenant admission charges drained with the shared solve.
            assert app.executor.tenant_usage("x")["admitted"] == 0
        finally:
            gate.set()
            app.close(wait=False)

    def test_coalescing_respects_cache_key_boundaries(self):
        """Different tenants, texts, cutoffs or cache opt-outs never coalesce;
        case/whitespace variants of one query do (canonical cache key)."""
        gate = threading.Event()
        spy_x = StubService(gate=gate)
        spy_y = StubService(gate=gate)
        app = RePaGerApp(
            config=ServingConfig(
                port=0, max_workers=8, queue_depth=32, query_timeout_seconds=60.0
            )
        )
        try:
            app.attach_service("x", spy_x, default=True)
            app.attach_service("y", spy_y)
            threads = []
            threads += _spawn(lambda i: app.query("graph mining", corpus="x"), 1)
            assert spy_x.entered.wait(timeout=10)
            # Canonicalised duplicate of the in-flight query: coalesces.
            threads += _spawn(lambda i: app.query("Graph  MINING", corpus="x"), 1)
            assert poll(
                lambda: app.executor.scheduler_info("x")["coalesced_total"] == 1
            )
            # Same text, different tenant: its own solve.
            threads += _spawn(lambda i: app.query("graph mining", corpus="y"), 1)
            # Different cutoff: its own solve.
            threads += _spawn(
                lambda i: app.query(
                    {"query": "graph mining", "year_cutoff": 2015}, corpus="x"
                ),
                1,
            )
            # use_cache=False demands a fresh run: never coalesces.
            threads += _spawn(
                lambda i: app.query(
                    {"query": "graph mining", "use_cache": False}, corpus="x"
                ),
                1,
            )
            assert poll(lambda: len(spy_x.calls) + len(spy_y.calls) == 4)
            gate.set()
            _join_all(threads)
            assert len(spy_x.calls) == 3  # leader + cutoff + no-cache
            assert len(spy_y.calls) == 1
            assert app.executor.scheduler_info("x")["coalesced_total"] == 1
            assert app.executor.scheduler_info("y")["coalesced_total"] == 0
        finally:
            gate.set()
            app.close(wait=False)

    def test_leader_failure_propagates_to_every_waiter(self):
        """A failed shared solve fails every coalesced caller, and each
        failure is counted where ``result()`` observes it."""
        gate = threading.Event()
        entered = threading.Event()
        calls: list[str] = []

        def handler(request):
            calls.append(request.text)
            entered.set()
            assert gate.wait(timeout=30)
            raise RuntimeError("solver exploded")

        metrics = MetricsRegistry()
        executor = BatchExecutor(
            handler,
            max_workers=2,
            metrics=metrics,
            key_for=lambda request: (request.corpus, request.text.lower()),
        )
        try:
            leader = executor.submit(QueryRequest(text="Topic", corpus="t"))
            assert entered.wait(timeout=10)
            follower = executor.submit(QueryRequest(text="topic", corpus="t"))
            gate.set()
            for future in (leader, follower):
                with pytest.raises(RuntimeError):
                    executor.result(QueryRequest(text="topic", corpus="t"), future)
            assert calls == ["Topic"]
            assert metrics.counter("executor_submitted_total") == 2
            assert metrics.counter("executor_coalesced_total") == 1
            assert metrics.counter("executor_errors_total") == 2
            assert metrics.counter("executor_completed_total") == 0
        finally:
            gate.set()
            executor.shutdown(wait=True)

    def test_completed_solves_do_not_coalesce_later_requests(self):
        """Coalescing is strictly *in-flight*: once the leader resolves, a
        new identical request runs its own solve (freshness is the cache's
        job, and these executors have no cache)."""
        calls: list[str] = []
        executor = BatchExecutor(
            lambda request: calls.append(request.text) or "ok",
            max_workers=2,
            key_for=lambda request: (request.corpus, request.text),
        )
        try:
            assert executor.run_one(QueryRequest(text="q", corpus="t")) == "ok"
            assert executor.run_one(QueryRequest(text="q", corpus="t")) == "ok"
            assert calls == ["q", "q"]
        finally:
            executor.shutdown(wait=True)

    def test_run_batch_coalesces_against_inflight_leader(self):
        """Batch members also attach to an identical in-flight solve instead
        of consuming global queue slots."""
        gate = threading.Event()
        entered = threading.Event()
        calls: list[str] = []

        def handler(request):
            calls.append(request.text)
            entered.set()
            assert gate.wait(timeout=30)
            return request.text

        metrics = MetricsRegistry()
        executor = BatchExecutor(
            handler,
            max_workers=1,
            queue_depth=0,  # one slot total: duplicates must not need one
            metrics=metrics,
            key_for=lambda request: (request.corpus, request.text),
        )
        try:
            leader = executor.submit(QueryRequest(text="q", corpus="t"))
            assert entered.wait(timeout=10)
            threading.Timer(0.1, gate.set).start()
            outcomes = executor.run_batch(
                [QueryRequest(text="q", corpus="t"), QueryRequest(text="q", corpus="t")]
            )
            assert [outcome.ok for outcome in outcomes] == [True, True]
            assert all(outcome.payload == "q" for outcome in outcomes)
            assert executor.result(QueryRequest(text="q", corpus="t"), leader) == "q"
            assert calls == ["q"]
            assert metrics.counter("executor_coalesced_total") == 2
        finally:
            gate.set()
            executor.shutdown(wait=True)


class TestSchedulerExposure:
    def test_health_reports_weight_and_coalescing(self):
        app = RePaGerApp(
            config=ServingConfig(port=0, max_workers=2, query_timeout_seconds=60.0)
        )
        try:
            app.attach_service(
                "vip",
                StubService(),
                default=True,
                overrides=TenantOverrides(
                    weight=4, quota=TenantQuota(max_in_flight=8)
                ),
            )
            app.query("hello", corpus="vip")
            report = app.health("vip")
            assert report["scheduler"] == {
                "weight": 4,
                "queue_depth": 0,
                "coalesced_total": 0,
            }
            assert report["overrides"]["weight"] == 4
            assert report["quota_usage"]["queued"] == 0
        finally:
            app.close(wait=False)

    def test_scheduler_series_render_with_help_text(self):
        app = RePaGerApp(
            config=ServingConfig(port=0, max_workers=2, query_timeout_seconds=60.0)
        )
        try:
            app.attach_service("x", StubService(), default=True)
            app.query("hello", corpus="x")
            text = app.metrics_text()
            assert 'repager_scheduler_queue_depth{corpus="x"}' in text
            assert "# HELP repager_scheduler_queue_depth Admitted requests" in text
            series = parse_metrics_text(text)
            assert series["repager_scheduler_wait_seconds_count"][(("corpus", "x"),)] == 1
        finally:
            app.close(wait=False)

    def test_scheduler_wait_span_is_recorded(self):
        app = RePaGerApp(
            config=ServingConfig(port=0, max_workers=2, query_timeout_seconds=60.0)
        )
        try:
            app.attach_service("x", StubService(), default=True)
            response = app.query({"query": "hello", "debug": True}, corpus="x")
            spans = {span["name"] for span in response.trace["spans"]}
            assert "scheduler_wait" in spans
            assert "queue_wait" in spans
        finally:
            app.close(wait=False)
