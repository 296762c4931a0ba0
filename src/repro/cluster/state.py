"""Durable tenant admission state: token buckets behind a store interface.

PR 8 left a gap the cluster tier exposes: :class:`~repro.serving.executor.
BatchExecutor` kept each tenant's token bucket in interpreter memory, so a
replica restart silently refilled every exhausted bucket (a flooding client
rewarded with a fresh burst) and two replicas serving the same tenant would
each grant a full, independent rate.  This module externalises exactly the
*rate* half of admission behind :class:`QuotaStore`:

* :class:`InMemoryQuotaStore` — the default; bit-for-bit the executor's old
  arithmetic (same refill, same retry-after), with the executor's injected
  monotonic clock so deterministic tests keep working unchanged.
* :class:`SqliteQuotaStore` — a WAL-mode sqlite file with **one row per
  tenant** and **compare-and-swap refill**: each consume reads
  ``(tokens, stamp, version)``, computes the refill, and commits with
  ``UPDATE ... WHERE version = ?`` — a lost race simply re-reads, so
  concurrent replicas never double-spend a token.  Because rows are shared
  across processes, refill uses wall-clock time (``time.time``), not the
  per-process monotonic clock.  ``configure`` is ``INSERT OR IGNORE``: an
  existing bucket survives replica restarts, which is precisely what keeps
  an exhausted tenant rejected (429 + ``Retry-After``) after a bounce.

Capacity counters (in-flight / queued) stay process-local in the executor:
worker slots are a per-process resource, so sharing them would be wrong, not
just unnecessary.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .sqlite import SqliteFile

__all__ = ["InMemoryQuotaStore", "QuotaStore", "SqliteQuotaStore"]


class QuotaStore:
    """Interface the executor's admission path programs against.

    All methods are thread-safe.  ``try_consume`` returns ``0.0`` when a
    token was consumed (admit) and otherwise the suggested ``Retry-After``
    in seconds (reject); the caller owns turning that into a 429.
    """

    def configure(self, tenant: str, burst: int) -> None:
        """Ensure a bucket exists for ``tenant`` with capacity ``burst``."""
        raise NotImplementedError

    def try_consume(self, tenant: str, rate: float, burst: int) -> float:
        """Refill then take one token; ``0.0`` on admit, retry-after on reject."""
        raise NotImplementedError

    def refund(self, tenant: str, burst: int) -> None:
        """Return one token (capped at ``burst``) for a request that never ran."""
        raise NotImplementedError

    def drop(self, tenant: str) -> None:
        """Forget a tenant's bucket (tenant fully detached)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources; further calls are undefined."""

    def describe(self) -> dict[str, object]:
        """JSON-ready store identity for health surfaces."""
        return {"backend": type(self).__name__}


class InMemoryQuotaStore(QuotaStore):
    """Process-local buckets; the executor's historical behaviour, extracted.

    ``configure`` resets the bucket to a full ``burst`` — matching the old
    ``configure_tenant`` contract ("only the token bucket refills to a full
    burst" on re-attach) — and the refill clock is injectable so tests drive
    it deterministically.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        #: tenant -> [tokens, stamp]
        self._buckets: dict[str, list[float]] = {}

    def configure(self, tenant: str, burst: int) -> None:
        with self._lock:
            self._buckets[tenant] = [float(burst), self._clock()]

    def try_consume(self, tenant: str, rate: float, burst: int) -> float:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:  # defensive: consume before configure
                bucket = self._buckets[tenant] = [float(burst), self._clock()]
            now = self._clock()
            tokens = min(float(burst), bucket[0] + (now - bucket[1]) * rate)
            bucket[0] = tokens
            bucket[1] = now
            if tokens < 1.0:
                return (1.0 - tokens) / rate
            bucket[0] = tokens - 1.0
            return 0.0

    def refund(self, tenant: str, burst: int) -> None:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                bucket[0] = min(float(burst), bucket[0] + 1.0)

    def drop(self, tenant: str) -> None:
        with self._lock:
            self._buckets.pop(tenant, None)


class SqliteQuotaStore(SqliteFile, QuotaStore):
    """File-backed buckets shared across replicas and across restarts.

    One row per tenant in a :class:`~repro.cluster.sqlite.SqliteFile`
    (``path``, ``clock``); every mutation is a compare-and-swap on a
    ``version`` column so two replicas racing on one tenant serialise
    without ever holding a long transaction.
    """

    _CAS_ATTEMPTS = 1000  # far above any plausible contention

    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS quota_buckets ("
        " tenant TEXT PRIMARY KEY,"
        " tokens REAL NOT NULL,"
        " stamp REAL NOT NULL,"
        " version INTEGER NOT NULL DEFAULT 0)"
    )

    def configure(self, tenant: str, burst: int) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO quota_buckets (tenant, tokens, stamp, version)"
                " VALUES (?, ?, ?, 0)",
                (tenant, float(burst), self._clock()),
            )

    def _read(self, tenant: str) -> tuple[float, float, int] | None:
        row = self._conn.execute(
            "SELECT tokens, stamp, version FROM quota_buckets WHERE tenant = ?",
            (tenant,),
        ).fetchone()
        if row is None:
            return None
        return float(row[0]), float(row[1]), int(row[2])

    def _cas(
        self, tenant: str, version: int, tokens: float, stamp: float
    ) -> bool:
        cursor = self._conn.execute(
            "UPDATE quota_buckets SET tokens = ?, stamp = ?, version = version + 1"
            " WHERE tenant = ? AND version = ?",
            (tokens, stamp, tenant, version),
        )
        return cursor.rowcount == 1

    def try_consume(self, tenant: str, rate: float, burst: int) -> float:
        with self._lock:
            for _ in range(self._CAS_ATTEMPTS):
                row = self._read(tenant)
                if row is None:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO quota_buckets"
                        " (tenant, tokens, stamp, version) VALUES (?, ?, ?, 0)",
                        (tenant, float(burst), self._clock()),
                    )
                    continue
                tokens, stamp, version = row
                now = self._clock()
                tokens = min(float(burst), tokens + max(0.0, now - stamp) * rate)
                if tokens < 1.0:
                    # Reject without writing: the refill is a pure function
                    # of the stored stamp, so the next reader recomputes the
                    # same value — no write contention on a flooded tenant.
                    return (1.0 - tokens) / rate
                if self._cas(tenant, version, tokens - 1.0, now):
                    return 0.0
            raise RuntimeError(
                f"quota CAS for tenant {tenant!r} failed "
                f"{self._CAS_ATTEMPTS} times"
            )  # pragma: no cover - requires pathological contention

    def refund(self, tenant: str, burst: int) -> None:
        with self._lock:
            for _ in range(self._CAS_ATTEMPTS):
                row = self._read(tenant)
                if row is None:
                    return
                tokens, stamp, version = row
                if self._cas(tenant, version, min(float(burst), tokens + 1.0), stamp):
                    return
            raise RuntimeError(
                f"quota refund CAS for tenant {tenant!r} failed "
                f"{self._CAS_ATTEMPTS} times"
            )  # pragma: no cover - requires pathological contention

    def drop(self, tenant: str) -> None:
        with self._lock:
            self._conn.execute(
                "DELETE FROM quota_buckets WHERE tenant = ?", (tenant,)
            )
