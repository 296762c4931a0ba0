"""The shared result cache: canonical-key payload bytes in a sqlite file.

The per-tenant :class:`~repro.serving.cache.ResultCache` lives in interpreter
memory, so a corpus re-placed on another replica after a failover starts cold:
the first repeated query pays a full pipeline solve even though an identical
one just ran elsewhere.  This module externalises the *result* half of caching
the same way :mod:`repro.cluster.state` externalised admission.

:class:`SqliteCacheStore` is a WAL-mode sqlite file shared across replicas
(``serve --cache-state PATH``): namespaced ``get``/``put`` of opaque payload
bytes, one row per ``(namespace, key)`` with an absolute wall-clock expiry.
:class:`~repro.repager.service.RePaGerService` owns serialisation (the wire
form round-trips a :class:`~repro.repager.service.PathPayload`
byte-identically), the store owns durability.  Expired rows are deleted
lazily on read; ``put`` is ``INSERT OR REPLACE``, so the last writer wins —
all writers computed the same canonical payload for the same canonical key,
so any winner is correct.  Namespaces isolate tenants, so a detach can drop
one corpus's entries without touching its neighbours.

The local :class:`~repro.serving.cache.ResultCache` stays in front as an L1:
a shared-store hit is promoted into it, so the sqlite file is only consulted
once per (replica, key) per TTL window.  Without ``--cache-state`` there is
no shared store at all (``RePaGerService.shared_cache`` is ``None``): each
replica caches in its own L1 only.
"""

from __future__ import annotations

from .sqlite import SqliteFile

__all__ = ["SqliteCacheStore"]


class SqliteCacheStore(SqliteFile):
    """File-backed shared cache surviving restarts and spanning replicas.

    One row per ``(namespace, key)`` in a
    :class:`~repro.cluster.sqlite.SqliteFile` (``path``, ``clock``).  All
    methods are thread-safe.  Unlike the quota store there is no CAS: cache
    writes are idempotent (every writer computed the same canonical payload
    for the same canonical key), so ``INSERT OR REPLACE`` is safe.
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
        """The stored payload for ``key``, or ``None`` if absent or expired."""
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
        """Store ``value`` under ``key``, expiring ``ttl_seconds`` from now."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO cache_entries"
                " (namespace, key, value, expires_at) VALUES (?, ?, ?, ?)",
                (namespace, key, value, self._clock() + ttl_seconds),
            )

    def drop_namespace(self, namespace: str) -> int:
        """Remove every entry in ``namespace``; returns the number removed."""
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM cache_entries WHERE namespace = ?", (namespace,)
            )
            return cursor.rowcount
