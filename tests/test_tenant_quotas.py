"""Per-tenant admission quotas: fairness under a flooding tenant.

The multi-tenant stress scenario of the ROADMAP: two tenants behind one
8-worker executor, one of them flooding the queue.  With a
:class:`~repro.config.TenantQuota` on the flooder, the quiet tenant's
latency and success rate must be unaffected, the flooder must receive
*deterministic* 429s carrying the ``tenant_quota_exceeded`` taxonomy and a
``Retry-After`` hint, and the quota counters exposed on ``/v1/metrics`` must
reconcile exactly with the observed outcomes.

The tenants here are stub services with controllable latency (an event gate),
so admission arithmetic — not pipeline timing — decides every outcome and the
assertions are exact.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.config import ServingConfig, TenantOverrides, TenantQuota
from repro.errors import (
    ConfigurationError,
    QueryTimeoutError,
    TenantQuotaExceededError,
    error_payload,
)
from repro.repager.app import RePaGerApp
from repro.serving import BatchExecutor, MetricsRegistry, QueryRequest, parse_metrics_text
from serving_stubs import StubService, poll

FLOOD_CAPACITY = 3  # max_in_flight=2 + max_queued=1
FLOOD_REQUESTS = 20
QUIET_REQUESTS = 25


@pytest.fixture()
def app():
    app = RePaGerApp(
        config=ServingConfig(
            port=0, max_workers=8, queue_depth=32, query_timeout_seconds=60.0
        )
    )
    yield app
    app.close(wait=False)


@pytest.fixture()
def gate():
    return threading.Event()


@pytest.fixture()
def flooded_app(app, gate):
    """``flood`` (gated, quota-capped) and ``quiet`` (instant, unlimited)."""
    app.attach_service(
        "flood",
        StubService(gate=gate),
        default=True,
        overrides=TenantOverrides(quota=TenantQuota(max_in_flight=2, max_queued=1)),
    )
    app.attach_service("quiet", StubService())
    return app


def _flood(app, results, done):
    def worker(index: int) -> None:
        try:
            app.query(f"flood query {index}", corpus="flood")
            outcome = "ok"
        except TenantQuotaExceededError as exc:
            assert exc.retry_after_seconds > 0
            assert error_payload(exc)["code"] == "tenant_quota_exceeded"
            assert error_payload(exc)["http_status"] == 429
            outcome = "rejected"
        with results["lock"]:
            results[outcome] += 1
            if results["ok"] + results["rejected"] == FLOOD_REQUESTS:
                done.set()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(FLOOD_REQUESTS)
    ]
    for thread in threads:
        thread.start()
    return threads


class TestFloodingTenant:
    def test_quiet_tenant_unaffected_and_flooder_429s_deterministically(
        self, flooded_app, gate
    ):
        app = flooded_app
        results = {"ok": 0, "rejected": 0, "lock": threading.Lock()}
        done = threading.Event()
        threads = _flood(app, results, done)
        try:
            # Exactly FLOOD_CAPACITY requests are admitted (and now block on
            # the gate); every other submission is rejected synchronously.
            assert poll(
                lambda: results["rejected"] == FLOOD_REQUESTS - FLOOD_CAPACITY
            ), results
            usage = app.executor.tenant_usage("flood")
            assert usage["admitted"] == FLOOD_CAPACITY
            assert usage["rejected_total"] == FLOOD_REQUESTS - FLOOD_CAPACITY

            # The quiet tenant, queried *while* the flood is parked in the
            # pool, never fails admission and stays fast: the flooder holds
            # at most its quota's worth of the 8 workers.
            latencies = []
            for index in range(QUIET_REQUESTS):
                started = time.perf_counter()
                response = app.query(f"quiet query {index}", corpus="quiet")
                latencies.append(time.perf_counter() - started)
                assert response.corpus == "quiet"
            latencies.sort()
            p95 = latencies[int(0.95 * (len(latencies) - 1))]
            assert p95 < 1.0, f"quiet tenant p95 degraded to {p95:.3f}s"
            assert app.executor.tenant_usage("quiet")["rejected_total"] == 0
        finally:
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
        # The admitted flood requests complete once released: quota
        # rejections hit only the overflow, never the admitted work.
        assert results["ok"] == FLOOD_CAPACITY
        assert results["rejected"] == FLOOD_REQUESTS - FLOOD_CAPACITY
        assert app.executor.tenant_usage("flood")["admitted"] == 0

    def test_metrics_reconcile_with_observed_outcomes(self, flooded_app, gate):
        """The ``/v1/metrics`` exposition (rendered by ``metrics_text``) must
        agree exactly with what the clients saw."""
        app = flooded_app
        results = {"ok": 0, "rejected": 0, "lock": threading.Lock()}
        done = threading.Event()
        threads = _flood(app, results, done)
        assert poll(
            lambda: results["rejected"] == FLOOD_REQUESTS - FLOOD_CAPACITY
        ), results
        for index in range(5):
            app.query(f"quiet {index}", corpus="quiet")
        gate.set()
        assert done.wait(timeout=30)
        for thread in threads:
            thread.join(timeout=30)

        series = parse_metrics_text(app.metrics_text())
        flood = (("corpus", "flood"),)
        quiet = (("corpus", "quiet"),)
        assert series["repager_quota_admitted_total"][flood] == results["ok"]
        assert series["repager_quota_rejected_total"][flood] == results["rejected"]
        assert series["repager_quota_admitted_total"][quiet] == 5
        assert quiet not in series.get("repager_quota_rejected_total", {})
        # The executor's aggregate counter matches the per-tenant sum.
        assert series["repager_executor_quota_rejected_total"][()] == results["rejected"]
        # Everything admitted has drained: no in-flight gauge residue.
        assert series["repager_in_flight"][flood] == 0
        assert series["repager_in_flight"][quiet] == 0


class TestQuotaMechanics:
    def test_token_bucket_is_deterministic_under_injected_clock(self):
        clock = SimpleNamespace(now=100.0)
        registry = MetricsRegistry()
        executor = BatchExecutor(
            lambda request: "ok", max_workers=2, clock=lambda: clock.now
        )
        try:
            executor.configure_tenant(
                "t",
                quota=TenantQuota(rate_per_second=2.0, burst=2),
                metrics=registry,
            )
            request = QueryRequest(text="q", corpus="t")
            assert executor.run_one(request) == "ok"
            assert executor.run_one(request) == "ok"
            with pytest.raises(TenantQuotaExceededError) as excinfo:
                executor.run_one(request)
            # Bucket empty: the next token arrives in exactly 1/rate seconds.
            assert excinfo.value.retry_after_seconds == pytest.approx(0.5)
            clock.now += 0.5
            assert executor.run_one(request) == "ok"
            assert registry.counter("quota_admitted_total") == 3
            assert registry.counter("quota_rejected_total") == 1
        finally:
            executor.shutdown(wait=True)

    def test_run_batch_reports_quota_rejections_as_outcomes(self):
        gate = threading.Event()

        def handler(request):
            assert gate.wait(timeout=30)
            return request.text

        executor = BatchExecutor(handler, max_workers=4)
        try:
            executor.configure_tenant(
                "capped", quota=TenantQuota(max_in_flight=1, max_queued=0)
            )
            requests = [QueryRequest(text=f"q{i}", corpus="capped") for i in range(3)]
            requests.append(QueryRequest(text="free", corpus="open"))
            # The gate stays closed through admission (so the capped tenant's
            # first request still holds its slot when the next two arrive)
            # and opens before the batch starts waiting on results.
            threading.Timer(0.25, gate.set).start()
            outcomes = executor.run_batch(requests)
            assert [outcome.ok for outcome in outcomes] == [True, False, False, True]
            for outcome in outcomes[1:3]:
                assert outcome.error_code == "tenant_quota_exceeded"
                assert outcome.error_status == 429
        finally:
            executor.shutdown(wait=True)

    def test_per_tenant_timeout_override(self, app, gate):
        """A tenant's ``query_timeout_seconds`` replaces the shared budget
        for its requests only."""
        app.attach_service(
            "slow",
            StubService(gate=gate),
            overrides=TenantOverrides(query_timeout_seconds=0.05),
        )
        app.attach_service("fast", StubService())
        try:
            with pytest.raises(QueryTimeoutError):
                app.query("q", corpus="slow")
            assert app.metrics.counter("executor_timeouts_total") == 1
            assert app.query("q", corpus="fast").payload == {"query": "q"}
        finally:
            gate.set()

    def test_global_overload_releases_the_tenant_charge(self):
        gate = threading.Event()

        def handler(request):
            assert gate.wait(timeout=30)
            return "ok"

        executor = BatchExecutor(handler, max_workers=1, queue_depth=0)
        try:
            executor.configure_tenant("t", quota=TenantQuota(max_in_flight=8))
            future = executor.submit(QueryRequest(text="q1", corpus="t"))
            from repro.errors import ExecutorOverloadedError

            with pytest.raises(ExecutorOverloadedError):
                executor.submit(QueryRequest(text="q2", corpus="t"))
            # The global rejection must refund the tenant's admission charge.
            assert executor.tenant_usage("t")["admitted"] == 1
            gate.set()
            assert future.result(timeout=30) == "ok"
        finally:
            executor.shutdown(wait=True)

    def test_global_overload_refunds_the_rate_token(self):
        """A globally rejected request never ran: its rate-limit token must
        come back, or a compliant retry gets a bogus tenant 429."""
        clock = SimpleNamespace(now=0.0)
        gate = threading.Event()

        def handler(request):
            assert gate.wait(timeout=30)
            return "ok"

        executor = BatchExecutor(
            handler, max_workers=1, queue_depth=0, clock=lambda: clock.now
        )
        try:
            executor.configure_tenant(
                "t", quota=TenantQuota(rate_per_second=1.0, burst=2)
            )
            from repro.errors import ExecutorOverloadedError

            future = executor.submit(QueryRequest(text="q1", corpus="t"))
            # q2 passes the tenant check (one token left, now consumed) and
            # only then hits the full global queue.
            with pytest.raises(ExecutorOverloadedError):
                executor.submit(QueryRequest(text="q2", corpus="t"))
            gate.set()
            assert future.result(timeout=30) == "ok"
            # Same clock instant: only the refunded token can admit this.
            assert executor.run_one(QueryRequest(text="q3", corpus="t")) == "ok"
        finally:
            executor.shutdown(wait=True)

    def test_global_queue_parking_is_not_tenant_queued(self):
        """Regression: a ``run_batch`` request parked on the *global*
        semaphore holds only its tenant admission charge — it must not be
        reported by ``tenant_usage()`` as holding a tenant ``queued`` slot."""
        gate = threading.Event()

        def handler(request):
            assert gate.wait(timeout=30)
            return request.text

        executor = BatchExecutor(handler, max_workers=1, queue_depth=0)
        try:
            executor.configure_tenant("t", quota=TenantQuota(max_in_flight=8))
            requests = [QueryRequest(text=f"q{i}", corpus="t") for i in range(3)]
            batch: dict = {}

            def run():
                batch["outcomes"] = executor.run_batch(requests)

            thread = threading.Thread(target=run)
            thread.start()
            # q0 executes (blocked on the gate); q1 is parked on the global
            # semaphore: admitted (it holds its tenant charge) but not queued.
            assert poll(
                lambda: executor.tenant_usage("t")["executing"] == 1
            )
            assert poll(
                lambda: executor.tenant_usage("t")["admitted"] >= 2
            )
            usage = executor.tenant_usage("t")
            assert usage["queued"] == 0, usage
            gate.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert [outcome.ok for outcome in batch["outcomes"]] == [True] * 3
            assert executor.tenant_usage("t")["admitted"] == 0
            assert executor.tenant_usage("t")["queued"] == 0
        finally:
            gate.set()
            executor.shutdown(wait=True)

    def test_quota_validation(self):
        with pytest.raises(ConfigurationError):
            TenantQuota(max_in_flight=0)
        with pytest.raises(ConfigurationError):
            TenantQuota(max_queued=1)  # requires max_in_flight
        with pytest.raises(ConfigurationError):
            TenantQuota(rate_per_second=0.0)
        with pytest.raises(ConfigurationError):
            TenantQuota(max_in_flight=1, burst=0)
        assert TenantQuota(max_in_flight=2, max_queued=3).capacity() == 5
        assert TenantQuota(rate_per_second=1.0).capacity() is None

    def test_quota_from_dict_rejects_malformed_bodies_as_client_errors(self):
        """Malformed quota JSON must map to the 400 taxonomy, never a 500."""
        from repro.errors import ReproError

        assert TenantQuota.from_dict({"burst": None}).burst == 1
        assert TenantQuota.from_dict({"max_in_flight": None}).max_in_flight is None
        for body in (
            {"rate_per_second": True},
            {"max_in_flight": "2"},
            {"max_in_flight": 2.5},
            {"burst": False},
            {"max_inflight": 2},
            {"max_in_flight": 0},
        ):
            with pytest.raises(ReproError) as excinfo:
                TenantQuota.from_dict(body)
            assert excinfo.value.http_status == 400, body
