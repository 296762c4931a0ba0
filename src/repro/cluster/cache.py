"""Shared result-cache backends: canonical-key payload bytes behind a store.

The per-tenant :class:`~repro.serving.cache.ResultCache` lives in interpreter
memory, so a corpus re-placed on another replica after a failover starts cold:
the first repeated query pays a full pipeline solve even though an identical
one just ran elsewhere.  This module externalises the *result* half of caching
the same way :mod:`repro.cluster.state` externalised admission:

* :class:`CacheStore` — the interface :class:`~repro.repager.service.
  RePaGerService` programs against: namespaced ``get``/``put`` of opaque
  payload bytes with a per-entry TTL.  The service owns serialisation (the
  wire form round-trips a :class:`~repro.repager.service.PathPayload`
  byte-identically), the store owns durability.
* :class:`SqliteCacheStore` — a WAL-mode sqlite file shared across replicas
  (``serve --cache-state PATH``), one row per ``(namespace, key)`` with an
  absolute wall-clock expiry.  Expired rows are deleted lazily on read;
  ``put`` is ``INSERT OR REPLACE``, so the last writer wins — all writers
  computed the same canonical payload for the same canonical key, so any
  winner is correct.

The local :class:`~repro.serving.cache.ResultCache` stays in front as an L1:
a shared-store hit is promoted into it, so the sqlite file is only consulted
once per (replica, key) per TTL window.  Without ``--cache-state`` there is
no shared store at all (``RePaGerService.shared_cache`` is ``None``): each
replica caches in its own L1 only.
"""

from __future__ import annotations

from .sqlite import SqliteFile

__all__ = ["CacheStore", "SqliteCacheStore"]


class CacheStore:
    """Interface the serving layer's shared-cache path programs against.

    All methods are thread-safe.  Values are opaque bytes: the caller owns
    (de)serialisation and key canonicalisation; namespaces isolate tenants so
    a detach can drop one corpus's entries without touching its neighbours.
    """

    def get(self, namespace: str, key: str) -> bytes | None:
        """The stored payload for ``key``, or ``None`` if absent or expired."""
        raise NotImplementedError

    def put(
        self, namespace: str, key: str, value: bytes, ttl_seconds: float
    ) -> None:
        """Store ``value`` under ``key``, expiring ``ttl_seconds`` from now."""
        raise NotImplementedError

    def drop_namespace(self, namespace: str) -> int:
        """Remove every entry in ``namespace``; returns the number removed."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources; further calls are undefined."""

    def describe(self) -> dict[str, object]:
        """JSON-ready store identity for health surfaces."""
        return {"backend": type(self).__name__}


class SqliteCacheStore(SqliteFile, CacheStore):
    """File-backed shared cache surviving restarts and spanning replicas.

    One row per ``(namespace, key)`` in a
    :class:`~repro.cluster.sqlite.SqliteFile` (``path``, ``clock``).  Unlike
    the quota store there is no CAS: cache writes are idempotent (every
    writer computed the same canonical payload for the same canonical key),
    so ``INSERT OR REPLACE`` is safe.
    """

    SCHEMA = (
        "CREATE TABLE IF NOT EXISTS cache_entries ("
        " namespace TEXT NOT NULL,"
        " key TEXT NOT NULL,"
        " value BLOB NOT NULL,"
        " expires_at REAL NOT NULL,"
        " PRIMARY KEY (namespace, key))"
    )

    def get(self, namespace: str, key: str) -> bytes | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT value, expires_at FROM cache_entries"
                " WHERE namespace = ? AND key = ?",
                (namespace, key),
            ).fetchone()
            if row is None:
                return None
            if self._clock() >= float(row[1]):
                self._conn.execute(
                    "DELETE FROM cache_entries WHERE namespace = ? AND key = ?",
                    (namespace, key),
                )
                return None
            return bytes(row[0])

    def put(
        self, namespace: str, key: str, value: bytes, ttl_seconds: float
    ) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO cache_entries"
                " (namespace, key, value, expires_at) VALUES (?, ?, ?, ?)",
                (namespace, key, value, self._clock() + ttl_seconds),
            )

    def drop_namespace(self, namespace: str) -> int:
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM cache_entries WHERE namespace = ?", (namespace,)
            )
            return cursor.rowcount
