"""Production serving layer for the RePaGer pipeline.

The paper ships RePaGer as a web application (Fig. 7) and reports per-query
runtime as a first-class result (Table IV); this package turns the
reproduction's pipeline into a servable system using only the standard
library:

* :mod:`repro.serving.cache` — LRU+TTL result cache with canonical keys and
  hit/miss/eviction counters;
* :mod:`repro.serving.warmup` — eager precomputation of shared per-corpus
  artifacts plus a serialisable :class:`ArtifactSnapshot`;
* :mod:`repro.serving.executor` — thread-pool batch executor with a bounded
  queue, per-request deadlines and graceful overload rejection;
* :mod:`repro.serving.coalesce` — the in-flight coalescer the executor and
  the cluster router share;
* :mod:`repro.serving.http_api` — ``http.server``-based JSON API
  (``POST /query``, ``GET /paper/<id>``, ``GET /healthz``, ``GET /metrics``);
* :mod:`repro.serving.transport` — the HTTP handler and server bases the
  API and the cluster router share, and the router's keep-alive upstream
  pool;
* :mod:`repro.serving.metrics` — latency histograms (p50/p95/p99), counters
  and gauges rendered as JSON or Prometheus-style text.
"""

from .cache import CacheStats, QueryKey, ResultCache, make_query_key, normalize_query
from .executor import BatchExecutor, BatchOutcome, QueryRequest, validate_query_body
from .metrics import LatencyHistogram, MetricsRegistry, parse_metrics_text, percentile
from .warmup import (
    ArtifactSnapshot,
    WarmupReport,
    capture_snapshot,
    load_snapshots,
    warm_up,
    warm_up_registry,
)
from .http_api import RePaGerHTTPServer, create_server, start_in_background

__all__ = [
    "ArtifactSnapshot",
    "BatchExecutor",
    "BatchOutcome",
    "CacheStats",
    "LatencyHistogram",
    "MetricsRegistry",
    "QueryKey",
    "QueryRequest",
    "RePaGerHTTPServer",
    "ResultCache",
    "WarmupReport",
    "capture_snapshot",
    "create_server",
    "load_snapshots",
    "make_query_key",
    "normalize_query",
    "parse_metrics_text",
    "percentile",
    "start_in_background",
    "validate_query_body",
    "warm_up",
    "warm_up_registry",
]
