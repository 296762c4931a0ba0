"""One time budget per request.

``RePaGerApp.query`` fixes a request's deadline once, at ingress: the earlier
of the client's deadline and now + the tenant's ``query_timeout_seconds``.
Everything downstream knows only that deadline, so:

* a solve that runs past the tenant's timeout stops at its next checkpoint
  and frees its worker, instead of running on after its caller got a 504;
* retries share the one budget instead of each getting a fresh timeout;
* a coalesced waiter answers for its own budget, never its leader's;
* an expired request counts once in ``deadline_shed_total``, wherever it
  was shed.

Every assertion is on a count or a counter; background work is awaited by
polling with a deadline, never by sleeping a fixed time.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import wait

import pytest

from repro.config import PipelineConfig, ServingConfig, TenantOverrides
from repro.core.pipeline import RePaGerPipeline
from repro.errors import (
    DeadlineExceededError,
    FaultInjectedError,
    QueryTimeoutError,
    UnknownFieldsError,
)
from repro.repager.app import QueryOptions, RePaGerApp
from repro.resilience import FaultPlan, armed
from repro.serving import BatchExecutor, MetricsRegistry, QueryRequest, warm_up_registry
from serving_stubs import poll

QUERY = "machine learning"


def _app(store, timeout: float, **config) -> RePaGerApp:
    app = RePaGerApp(
        config=ServingConfig(port=0, **config),
        pipeline_config=PipelineConfig(num_seeds=10),
    )
    app.attach_store(
        "main",
        store,
        default=True,
        overrides=TenantOverrides(query_timeout_seconds=timeout),
    )
    warm_up_registry(app.registry)
    return app


def _record_generate(monkeypatch, gate: threading.Event | None = None) -> list[str]:
    """Record how each ``generate`` call ends: its shed stage or "finished".

    With ``gate``, the first call waits for it before solving.
    """
    ends: list[str] = []
    calls = itertools.count()
    generate = RePaGerPipeline.generate

    def recording(self, *args, **kwargs):
        if gate is not None and next(calls) == 0:
            assert gate.wait(timeout=30), "test gate never opened"
        try:
            result = generate(self, *args, **kwargs)
        except DeadlineExceededError as exc:
            ends.append(exc.stage)
            raise
        ends.append("finished")
        return result

    monkeypatch.setattr(RePaGerPipeline, "generate", recording)
    return ends


def test_timed_out_solve_stops_and_frees_its_worker(small_store, monkeypatch):
    ends = _record_generate(monkeypatch)
    app = _app(small_store, timeout=0.1, max_workers=1)
    try:
        with armed(FaultPlan.from_specs(["postings_search=delay:0.3:@1"])):
            with pytest.raises(QueryTimeoutError):
                app.query(QueryOptions(query=QUERY, use_cache=False))
            assert poll(lambda: ends)
        # The solve stopped at the first checkpoint past its budget.
        assert ends == ["k_hop_expand"]
        assert poll(lambda: app.executor.tenant_usage("main")["admitted"] == 0)
        assert app.metrics.counter("executor_timeouts_total") == 1
        assert app.metrics.counter("deadline_shed_total") == 1
        assert app.metrics.counter("executor_errors_total") == 0
    finally:
        app.close()


def test_retries_share_the_budget(small_store):
    # Every backoff is at least 0.4 * 0.5 = 0.2 s, the whole budget, so no
    # retry can start before the deadline and the first failure surfaces.
    app = _app(
        small_store,
        timeout=0.2,
        retry_attempts=2,
        retry_backoff_seconds=0.4,
        circuit_failure_threshold=None,
    )
    try:
        with armed(FaultPlan.from_specs(["steiner_solve=fail"])):
            with pytest.raises(FaultInjectedError):
                app.query(QueryOptions(query=QUERY, use_cache=False))
        metrics = app.registry.get("main").service.metrics
        assert metrics.counter("retries_total") == 0
    finally:
        app.close()


def test_a_coalesced_waiter_keeps_its_own_budget(small_store, monkeypatch):
    gate = threading.Event()
    ends = _record_generate(monkeypatch, gate)
    app = _app(small_store, timeout=30.0)
    answers = []

    def ask() -> None:
        try:
            answers.append(app.query(QUERY))
        except Exception as exc:  # noqa: BLE001 - asserted below
            answers.append(exc)

    try:
        # The leader's client deadline runs out while its solve waits at the
        # gate, so the solve is shed at its first checkpoint once it opens.
        with pytest.raises(DeadlineExceededError):
            app.query(QUERY, deadline=time.monotonic() + 0.5)
        assert app.executor.tenant_usage("main")["executing"] == 1
        waiter = threading.Thread(target=ask)
        waiter.start()
        assert poll(lambda: app.executor.scheduler_info("main")["coalesced_total"] == 1)
        gate.set()
        waiter.join(timeout=30)
        # The waiter, with budget left, ran again instead of answering for
        # the leader's deadline: no timeout, and nothing for the breaker.
        assert len(answers) == 1
        assert not isinstance(answers[0], Exception) and not answers[0].degraded
        assert ends == ["postings_search", "finished"]
        assert app.metrics.counter("executor_timeouts_total") == 0
        assert app.metrics.counter("deadline_shed_total") == 1
        assert app.health("main")["circuit"]["consecutive_failures"] == 0
    finally:
        gate.set()
        app.close()


def test_request_shed_in_the_queue_counts_once():
    gate = threading.Event()
    started = threading.Event()

    def handler(request):
        started.set()
        assert gate.wait(timeout=30)
        return request.text

    metrics = MetricsRegistry()
    executor = BatchExecutor(handler, max_workers=1, queue_depth=2, metrics=metrics)
    try:
        held = executor.submit(QueryRequest("held"))
        assert started.wait(timeout=30)
        late = QueryRequest("late", deadline=time.monotonic() + 0.05)
        future = executor.submit(late)
        with pytest.raises(DeadlineExceededError) as err:
            executor.result(late, future)
        assert err.value.stage == "result_wait"
        gate.set()
        # The worker reaches the queued request only now, and sheds it.
        done, _ = wait([held, future], timeout=30)
        assert len(done) == 2
        assert future.exception().stage == "scheduler"
        assert metrics.counter("deadline_shed_total") == 1
    finally:
        gate.set()
        executor.shutdown()


def test_tenant_overrides_have_one_budget_knob():
    with pytest.raises(UnknownFieldsError):
        TenantOverrides.from_dict({"deadline_seconds": 1.0})
    overrides = TenantOverrides.from_dict({"query_timeout_seconds": 1.0})
    assert "deadline_seconds" not in overrides.to_dict()
