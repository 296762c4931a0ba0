"""LRU + TTL cache for query results.

The paper presents RePaGer as a web application whose users issue free-text
topic queries.  Popular topics repeat, and the pipeline is deterministic given
``(query, year_cutoff, exclude_ids, configuration)``, so an in-process result
cache turns repeated queries into dictionary lookups.

Keys are *canonical*: the query text is case- and whitespace-normalised and
the exclusion list is order-insensitive, so ``"Deep  Learning"`` and
``"deep learning"`` hit the same entry.  The pipeline-configuration
fingerprint is part of the key, which makes a configuration change (e.g.
switching to a Table III ablation variant) an automatic cache invalidation.

The cache is thread-safe and O(1) per operation; eviction is least-recently-
used and entries expire after a time-to-live.  Hit/miss/eviction/expiration
counters feed the ``/metrics`` endpoint.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["CacheStats", "QueryKey", "ResultCache", "make_query_key", "normalize_query"]

#: Canonical cache-key type:
#: (namespace, normalized_query, year_cutoff, exclude_ids, fingerprint).
QueryKey = tuple[str, str, int | None, tuple[str, ...], str]


def normalize_query(text: str) -> str:
    """Canonical form of a query: lower-cased, whitespace collapsed."""
    return " ".join(text.lower().split())


def make_query_key(
    query: str,
    year_cutoff: int | None,
    exclude_ids: Sequence[str],
    config_fingerprint: str,
    namespace: str = "",
) -> QueryKey:
    """Build the canonical cache key for one query.

    Two requests map to the same key iff they are guaranteed to produce the
    same reading path: same namespace (the tenant name when one
    :class:`ResultCache` is shared across a corpus registry), same normalised
    query text, same year cutoff, same set of excluded papers and same
    pipeline-configuration fingerprint.
    """
    return (
        namespace,
        normalize_query(query),
        year_cutoff,
        tuple(sorted(set(exclude_ids))),
        config_fingerprint,
    )


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Point-in-time counters of a :class:`ResultCache`.

    ``evictions`` counts capacity (LRU) evictions only; ``dropped`` counts
    entries removed administratively by :meth:`ResultCache.clear` or
    :meth:`ResultCache.drop_namespace` (tenant detach/evict).  Keeping the
    two apart lets the sizes reconcile: every entry ever inserted is still
    resident, expired, LRU-evicted or dropped.  ``stale_hits`` counts
    degraded serves via :meth:`ResultCache.get_stale` — they are deliberately
    outside ``hit_rate`` (a stale serve is a *failure* outcome, not cache
    efficiency).
    """

    hits: int
    misses: int
    evictions: int
    expirations: int
    size: int
    max_entries: int
    dropped: int = 0
    stale_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "dropped": self.dropped,
            "stale_hits": self.stale_hits,
            "size": self.size,
            "max_entries": self.max_entries,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Thread-safe LRU cache with per-entry TTL and observability counters.

    Args:
        max_entries: Upper bound on stored entries; the least recently used
            entry is evicted when the bound is exceeded.
        ttl_seconds: Entries older than this are treated as misses and
            dropped on access.
        clock: Monotonic time source (injectable for deterministic tests).
        stale_grace_seconds: How long past its TTL an entry stays resident
            for :meth:`get_stale` (degraded serving after a solve failure).
            0 keeps the original semantics: expiry deletes on access.
    """

    def __init__(
        self,
        max_entries: int = 256,
        ttl_seconds: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        stale_grace_seconds: float = 0.0,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive")
        if stale_grace_seconds < 0:
            raise ValueError("stale_grace_seconds must be non-negative")
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self.stale_grace_seconds = stale_grace_seconds
        self._clock = clock
        self._entries: OrderedDict[QueryKey, tuple[Any, float]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._dropped = 0
        self._stale_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: QueryKey) -> bool:
        """Non-mutating membership test (does not refresh LRU order)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[1] > self._clock()

    def get(self, key: QueryKey) -> Any | None:
        """Return the cached value for ``key`` or ``None`` on miss/expiry.

        Expired entries count as misses either way; with a stale grace they
        stay resident (for :meth:`get_stale`) until the grace also runs out,
        and only then are deleted and counted as expirations.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            value, expires_at = entry
            now = self._clock()
            if expires_at <= now:
                if expires_at + self.stale_grace_seconds <= now:
                    del self._entries[key]
                    self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def get_stale(self, key: QueryKey) -> Any | None:
        """Return the value for ``key`` even if expired, within the grace.

        The degraded-serving path: when a fresh solve fails, an entry that is
        at most ``stale_grace_seconds`` past its TTL is better than an error.
        Does not refresh LRU order or touch hit/miss counters — a stale serve
        is an incident signal (the ``stale_hits`` stat), not cache traffic.
        Returns ``None`` when the entry is missing or past the grace window.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            value, expires_at = entry
            if expires_at + self.stale_grace_seconds <= self._clock():
                return None
            self._stale_hits += 1
            return value

    def put(self, key: QueryKey, value: Any, ttl_seconds: float | None = None) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full.

        ``ttl_seconds`` overrides the cache-wide TTL for this entry only —
        per-tenant TTL overrides store tenant entries with the tenant's own
        freshness bound while sharing one cache across the registry.
        """
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive or None")
        with self._lock:
            expires_at = self._clock() + (
                ttl_seconds if ttl_seconds is not None else self.ttl_seconds
            )
            if key in self._entries:
                self._entries[key] = (value, expires_at)
                self._entries.move_to_end(key)
                return
            self._entries[key] = (value, expires_at)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved; drops are counted).

        Administrative removals land in the ``dropped`` counter, not
        ``evictions`` — LRU pressure and operator/lifecycle removals are
        different signals and :class:`CacheStats` must keep reconciling.
        """
        with self._lock:
            self._dropped += len(self._entries)
            self._entries.clear()

    def drop_namespace(self, namespace: str) -> int:
        """Drop every entry of one namespace (tenant detach); returns the count.

        Namespaced keys are how one cache serves a whole corpus registry, so
        detaching a tenant must not leave its unreachable entries squatting on
        LRU capacity.  Removed entries are counted as ``dropped`` (distinct
        from LRU ``evictions``).
        """
        with self._lock:
            doomed = [key for key in self._entries if key[0] == namespace]
            for key in doomed:
                del self._entries[key]
            self._dropped += len(doomed)
            return len(doomed)

    def entry_count(self, namespace: str, fingerprint: str | None = None) -> int:
        """Live (unexpired) entries of one namespace, optionally one config.

        ``fingerprint`` narrows the count to entries stored under one
        pipeline-configuration fingerprint — the per-variant cache occupancy
        surfaced by ``GET /v1/corpora/<name>`` (variant pipelines share the
        tenant's namespace but key entries under their own fingerprint).
        Non-mutating: expired entries are skipped, not dropped.
        """
        with self._lock:
            now = self._clock()
            return sum(
                1
                for key, (_, expires_at) in self._entries.items()
                if key[0] == namespace
                and expires_at > now
                and (fingerprint is None or key[4] == fingerprint)
            )

    def stats(self) -> CacheStats:
        """Consistent snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._entries),
                max_entries=self.max_entries,
                dropped=self._dropped,
                stale_hits=self._stale_hits,
            )
