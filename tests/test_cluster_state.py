"""Durable admission state: the QuotaStore contract and its two backends.

The acceptance scenario from the ROADMAP's cluster milestone: a tenant that
exhausted its token bucket must still be rejected (429 + ``Retry-After``)
immediately after a replica restart, and two replicas sharing one sqlite
store must agree on admission — reconciled exactly through the metrics
exposition (``parse_metrics_text``), not by trusting internal state.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.cluster.cache import SqliteCacheStore
from repro.cluster.state import InMemoryQuotaStore, SqliteQuotaStore
from repro.config import TenantQuota
from repro.errors import TenantQuotaExceededError, error_payload
from repro.serving import (
    BatchExecutor,
    MetricsRegistry,
    QueryRequest,
    parse_metrics_text,
)


@pytest.fixture()
def clock():
    return SimpleNamespace(now=1_000.0)


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "quota.sqlite")


class TestInMemoryStore:
    def test_consume_refill_and_retry_after(self, clock):
        store = InMemoryQuotaStore(clock=lambda: clock.now)
        store.configure("t", burst=2)
        assert store.try_consume("t", rate=2.0, burst=2) == 0.0
        assert store.try_consume("t", rate=2.0, burst=2) == 0.0
        # Bucket empty: the next token arrives in exactly 1/rate seconds.
        assert store.try_consume("t", rate=2.0, burst=2) == pytest.approx(0.5)
        clock.now += 0.5
        assert store.try_consume("t", rate=2.0, burst=2) == 0.0

    def test_refund_caps_at_burst_and_drop_forgets(self, clock):
        store = InMemoryQuotaStore(clock=lambda: clock.now)
        store.configure("t", burst=1)
        store.refund("t", burst=1)  # already full: stays at burst
        assert store.try_consume("t", rate=0.001, burst=1) == 0.0
        assert store.try_consume("t", rate=0.001, burst=1) > 0.0
        store.refund("t", burst=1)
        assert store.try_consume("t", rate=0.001, burst=1) == 0.0
        store.drop("t")
        # A fresh configure after drop starts from a full burst again.
        store.configure("t", burst=1)
        assert store.try_consume("t", rate=0.001, burst=1) == 0.0


class TestSqliteStore:
    def test_same_arithmetic_as_in_memory(self, clock, db_path):
        store = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        try:
            store.configure("t", burst=2)
            assert store.try_consume("t", rate=2.0, burst=2) == 0.0
            assert store.try_consume("t", rate=2.0, burst=2) == 0.0
            assert store.try_consume("t", rate=2.0, burst=2) == pytest.approx(0.5)
            clock.now += 0.5
            assert store.try_consume("t", rate=2.0, burst=2) == 0.0
        finally:
            store.close()

    def test_exhausted_bucket_survives_restart(self, clock, db_path):
        """The durability acceptance: a restart must not refill the bucket."""
        store = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        store.configure("t", burst=3)
        for _ in range(3):
            assert store.try_consume("t", rate=0.001, burst=3) == 0.0
        retry_after = store.try_consume("t", rate=0.001, burst=3)
        assert retry_after > 0.0
        store.close()

        reopened = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        try:
            # The replica restart path calls configure again; INSERT OR
            # IGNORE must keep the exhausted row, not reset it.
            reopened.configure("t", burst=3)
            assert reopened.try_consume("t", rate=0.001, burst=3) == pytest.approx(
                retry_after
            )
        finally:
            reopened.close()

    def test_refund_and_drop(self, clock, db_path):
        store = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        try:
            store.configure("t", burst=1)
            assert store.try_consume("t", rate=0.001, burst=1) == 0.0
            store.refund("t", burst=1)
            store.refund("t", burst=1)  # capped: still just one token
            assert store.try_consume("t", rate=0.001, burst=1) == 0.0
            assert store.try_consume("t", rate=0.001, burst=1) > 0.0
            store.drop("t")
            store.refund("t", burst=1)  # unknown tenant: a no-op
            store.configure("t", burst=1)
            assert store.try_consume("t", rate=0.001, burst=1) == 0.0
        finally:
            store.close()

    def test_consume_before_configure_is_defensive(self, clock, db_path):
        store = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        try:
            assert store.try_consume("ghost", rate=1.0, burst=2) == 0.0
        finally:
            store.close()

    def test_describe_names_backend_and_path(self, db_path):
        store = SqliteQuotaStore(db_path)
        try:
            description = store.describe()
            assert description["backend"] == "SqliteQuotaStore"
            assert description["path"] == db_path
        finally:
            store.close()

    def test_concurrent_stores_never_double_spend(self, clock, db_path):
        """CAS correctness: many threads over two store handles on one file
        admit exactly ``burst`` requests, no matter how the races land."""
        burst = 20
        stores = [
            SqliteQuotaStore(db_path, clock=lambda: clock.now) for _ in range(2)
        ]
        stores[0].configure("t", burst=burst)
        admitted = []
        lock = threading.Lock()

        def hammer(store: SqliteQuotaStore) -> None:
            for _ in range(10):
                if store.try_consume("t", rate=0.0001, burst=burst) == 0.0:
                    with lock:
                        admitted.append(1)

        threads = [
            threading.Thread(target=hammer, args=(store,))
            for store in stores
            for _ in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(admitted) == burst
        finally:
            for store in stores:
                store.close()


@pytest.mark.parametrize("store_class", [SqliteQuotaStore, SqliteCacheStore])
def test_sqlite_stores_open_in_wal_mode_with_a_busy_timeout(store_class, tmp_path):
    """Replicas share these files: WAL lets readers run beside a writer, and
    the busy timeout makes a writer wait out another replica's write."""
    store = store_class(str(tmp_path / "store.sqlite"))
    try:
        execute = store._conn.execute
        assert execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert execute("PRAGMA busy_timeout").fetchone() == (5000,)
        assert execute("PRAGMA synchronous").fetchone() == (1,)  # NORMAL
    finally:
        store.close()


class TestExecutorIntegration:
    """The store plugged into ``BatchExecutor``'s real admission path."""

    def _executor(self, store, clock) -> tuple[BatchExecutor, MetricsRegistry]:
        registry = MetricsRegistry()
        executor = BatchExecutor(
            lambda request: "ok",
            max_workers=2,
            clock=lambda: clock.now,
            quota_store=store,
        )
        executor.configure_tenant(
            "t", quota=TenantQuota(rate_per_second=0.001, burst=5), metrics=registry
        )
        return executor, registry

    def test_429_survives_executor_restart(self, clock, db_path):
        store = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        executor, _ = self._executor(store, clock)
        request = QueryRequest(text="q", corpus="t")
        try:
            for _ in range(5):
                assert executor.run_one(request) == "ok"
            with pytest.raises(TenantQuotaExceededError):
                executor.run_one(request)
        finally:
            executor.shutdown(wait=True)
            store.close()

        # "Restart": a brand-new executor over a brand-new store handle on
        # the same file.  The very first request must still be a 429 with a
        # Retry-After, because the exhausted bucket is on disk.
        store = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        executor, _ = self._executor(store, clock)
        try:
            with pytest.raises(TenantQuotaExceededError) as excinfo:
                executor.run_one(request)
            assert excinfo.value.retry_after_seconds > 0
            payload = error_payload(excinfo.value)
            assert payload["code"] == "tenant_quota_exceeded"
            assert payload["http_status"] == 429
        finally:
            executor.shutdown(wait=True)
            store.close()

    def test_two_replicas_sharing_the_store_agree(self, clock, db_path):
        """Replica A spends the whole burst; replica B — its own process-local
        executor, its own metrics registry — must reject the very next
        request.  Admission counts reconcile via ``parse_metrics_text``."""
        store_a = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        store_b = SqliteQuotaStore(db_path, clock=lambda: clock.now)
        executor_a, registry_a = self._executor(store_a, clock)
        executor_b, registry_b = self._executor(store_b, clock)
        request = QueryRequest(text="q", corpus="t")
        try:
            for _ in range(5):
                assert executor_a.run_one(request) == "ok"
            with pytest.raises(TenantQuotaExceededError):
                executor_b.run_one(request)

            label = (("corpus", "t"),)
            series_a = parse_metrics_text(registry_a.render_text(labels={"corpus": "t"}))
            series_b = parse_metrics_text(registry_b.render_text(labels={"corpus": "t"}))
            assert series_a["repager_quota_admitted_total"][label] == 5
            assert label not in series_a.get("repager_quota_rejected_total", {})
            assert series_b["repager_quota_rejected_total"][label] == 1
            assert label not in series_b.get("repager_quota_admitted_total", {})
            # Fleet-wide: admissions + rejections cover every submission.
            total = (
                series_a["repager_quota_admitted_total"][label]
                + series_b["repager_quota_rejected_total"][label]
            )
            assert total == 6
        finally:
            executor_a.shutdown(wait=True)
            executor_b.shutdown(wait=True)
            store_a.close()
            store_b.close()
