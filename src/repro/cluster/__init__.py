"""Cluster layer: consistent-hash placement, replica health and routing.

A single ``repager serve`` process tops out at one interpreter's worth of
corpora and workers.  This package adds the horizontal path: a shared-nothing
router (:mod:`repro.cluster.router`) that proxies the ``/v1`` surface to N
replicas, placing corpora with a deterministic consistent-hash ring
(:mod:`repro.cluster.ring`), tracking per-replica health with the circuit
semantics from :mod:`repro.resilience.circuit`
(:mod:`repro.cluster.health`), externalising tenant token buckets behind a
store interface (:mod:`repro.cluster.state`) so 429 decisions survive
restarts and agree across replicas, and externalising the result cache the
same way (:mod:`repro.cluster.cache`) so a corpus re-placed after failover
serves repeated queries warm.
"""

from .cache import SqliteCacheStore
from .health import ReplicaHealth
from .ring import ConsistentHashRing
from .router import (
    CorpusSpec,
    RouterApp,
    RouterHTTPServer,
    create_router_server,
    start_router_in_background,
)
from .state import InMemoryQuotaStore, QuotaStore, SqliteQuotaStore

__all__ = [
    "ConsistentHashRing",
    "CorpusSpec",
    "InMemoryQuotaStore",
    "QuotaStore",
    "ReplicaHealth",
    "RouterApp",
    "RouterHTTPServer",
    "SqliteCacheStore",
    "SqliteQuotaStore",
    "create_router_server",
    "start_router_in_background",
]
