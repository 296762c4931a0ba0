"""Configuration objects for corpus generation, NEWST and evaluation.

All tunable parameters of the reproduction live here so that experiments are
driven by explicit, validated configuration values rather than scattered
constants.  The default values follow the paper: the NEWST parameters
``{alpha, beta, gamma, a, b} = {3, 2, 5, 0.7, 0.3}`` (Sec. VI-A) and 30 initial
seed papers from the search engine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from .errors import ConfigurationError, RequestValidationError, UnknownFieldsError

__all__ = [
    "CorpusConfig",
    "NewstConfig",
    "PipelineConfig",
    "EvaluationConfig",
    "ObsConfig",
    "ServingConfig",
    "TenantOverrides",
    "TenantQuota",
    "config_fingerprint",
]


def config_fingerprint(config: object) -> str:
    """Stable 16-hex-digit fingerprint of a (possibly nested) config dataclass.

    The fingerprint is a SHA-256 digest of the canonical JSON encoding of the
    dataclass fields, so two configs compare equal iff every tunable value is
    identical.  It is used to key query caches and to detect configuration
    drift between an artifact snapshot and the pipeline it is restored into.
    """
    payload = asdict(config)  # type: ignore[call-overload]
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class CorpusConfig:
    """Parameters of the synthetic scholarly-corpus generator.

    The generator builds a topic DAG with prerequisite edges, populates each
    topic with papers, wires citations by preferential attachment (respecting
    publication time and topic prerequisites) and finally writes survey papers
    whose reference lists mix on-topic and prerequisite papers.

    Attributes:
        seed: Random seed; the corpus is fully deterministic given the seed.
        papers_per_topic: Number of regular (non-survey) papers per topic.
        surveys_per_topic: Number of survey papers written per topic.
        start_year / end_year: Publication-year range for regular papers.
        citations_per_paper: Mean number of outbound citations of a regular paper.
        prerequisite_citation_fraction: Fraction of a paper's citations that go
            to papers in prerequisite topics rather than its own topic.
        survey_reference_count: Mean number of references in a survey
            (the paper reports ~58 references per survey on average).
        survey_prerequisite_fraction: Fraction of a survey's references drawn
            from *related* topics — prerequisite topics ("how to understand"
            papers) and direct sub-topics — rather than the survey's own topic.
            This is the lever behind the paper's Observation I: these papers do
            not mention the query phrase, so keyword search engines miss them.
        noise_reference_fraction: Fraction of survey references drawn from
            unrelated topics (real surveys cite some tangential work).
        preferential_attachment: Strength of the rich-get-richer effect when
            selecting citation targets (0 = uniform, 1 = proportional to
            in-degree + 1).
    """

    seed: int = 7
    papers_per_topic: int = 80
    surveys_per_topic: int = 3
    start_year: int = 1995
    end_year: int = 2020
    citations_per_paper: float = 16.0
    prerequisite_citation_fraction: float = 0.30
    survey_reference_count: float = 58.0
    survey_prerequisite_fraction: float = 0.55
    noise_reference_fraction: float = 0.10
    preferential_attachment: float = 0.8

    def __post_init__(self) -> None:
        if self.papers_per_topic < 5:
            raise ConfigurationError("papers_per_topic must be >= 5")
        if self.surveys_per_topic < 1:
            raise ConfigurationError("surveys_per_topic must be >= 1")
        if self.start_year >= self.end_year:
            raise ConfigurationError("start_year must be < end_year")
        if self.citations_per_paper <= 0:
            raise ConfigurationError("citations_per_paper must be positive")
        for name in (
            "prerequisite_citation_fraction",
            "survey_prerequisite_fraction",
            "noise_reference_fraction",
            "preferential_attachment",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.survey_reference_count < 10:
            raise ConfigurationError("survey_reference_count must be >= 10")


@dataclass(frozen=True, slots=True)
class NewstConfig:
    """Parameters of the NEWST model (Eq. 2 and Eq. 3 of the paper).

    Edge cost:   ``c(i, j) = alpha / con(i, j) ** beta``
    Node weight: ``w(i)    = gamma / (a * pagerank(i) + b * venue(i))``

    The defaults are the values reported in the paper's experiment setup.
    """

    alpha: float = 3.0
    beta: float = 2.0
    gamma: float = 5.0
    a: float = 0.7
    b: float = 0.3
    pagerank_damping: float = 0.85
    pagerank_max_iterations: int = 100
    pagerank_tolerance: float = 1.0e-9

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "a", "b"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"NewstConfig.{name} must be positive")
        if not 0.0 < self.pagerank_damping < 1.0:
            raise ConfigurationError("pagerank_damping must be in (0, 1)")
        if self.pagerank_max_iterations < 1:
            raise ConfigurationError("pagerank_max_iterations must be >= 1")
        if self.pagerank_tolerance <= 0:
            raise ConfigurationError("pagerank_tolerance must be positive")

    def fingerprint(self) -> str:
        """Stable fingerprint of every NEWST parameter."""
        return config_fingerprint(self)


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Parameters of the end-to-end RePaGer pipeline (Sec. IV-A steps 1-5).

    Attributes:
        num_seeds: Number of initial seed papers from the search engine (top-K).
        expansion_order: How many citation hops to expand around the seeds when
            building the sub-citation graph (the paper uses 2).
        cooccurrence_threshold: Minimum number of distinct seed papers that
            must cite a candidate for it to be promoted to a new seed during
            seed reallocation.
        max_expanded_nodes: Safety cap on the size of the expanded sub-graph.
        newst: Parameters for the NEWST cost functions.
        seed_strategy: Which set of compulsory terminals the Steiner tree must
            span: ``"reallocated"`` (NEWST), ``"initial"`` (NEWST-W),
            ``"union"`` (NEWST-U) or ``"intersection"`` (NEWST-I).
        use_node_weights / use_edge_weights: Ablation switches (NEWST-N drops
            node weights, NEWST-E drops edge weights).
        steiner_only: If False the pipeline stops after seed reallocation and
            returns the reallocated papers directly (NEWST-C).
    """

    num_seeds: int = 30
    expansion_order: int = 2
    cooccurrence_threshold: int = 2
    max_expanded_nodes: int = 4000
    newst: NewstConfig = field(default_factory=NewstConfig)
    seed_strategy: str = "reallocated"
    use_node_weights: bool = True
    use_edge_weights: bool = True
    steiner_only: bool = True

    _VALID_SEED_STRATEGIES = ("reallocated", "initial", "union", "intersection")

    def __post_init__(self) -> None:
        if self.num_seeds < 1:
            raise ConfigurationError("num_seeds must be >= 1")
        if self.expansion_order not in (1, 2, 3):
            raise ConfigurationError("expansion_order must be 1, 2 or 3")
        if self.cooccurrence_threshold < 1:
            raise ConfigurationError("cooccurrence_threshold must be >= 1")
        if self.max_expanded_nodes < self.num_seeds:
            raise ConfigurationError("max_expanded_nodes must be >= num_seeds")
        if self.seed_strategy not in self._VALID_SEED_STRATEGIES:
            raise ConfigurationError(
                f"seed_strategy must be one of {self._VALID_SEED_STRATEGIES}, "
                f"got {self.seed_strategy!r}"
            )

    def fingerprint(self) -> str:
        """Stable fingerprint of the pipeline configuration (nested NEWST included).

        Cache keys and artifact snapshots embed this value so that any change
        to a tunable parameter — including a Table III ablation switch —
        invalidates previously cached results instead of serving stale paths.
        """
        return config_fingerprint(self)


def _check_fields(payload: Mapping[str, Any], allowed: tuple[str, ...]) -> None:
    unknown = tuple(key for key in payload if key not in allowed)
    if unknown:
        raise UnknownFieldsError(unknown, allowed)


@dataclass(frozen=True, slots=True)
class TenantQuota:
    """Per-tenant admission policy enforced by the shared batch executor.

    A quota bounds how much of the shared worker pool one tenant may occupy,
    so a flooding tenant turns into fast, deterministic 429s for *itself*
    instead of queue starvation for everyone else.

    Attributes:
        max_in_flight: Requests of this tenant allowed to occupy worker slots
            at once (``None`` disables the concurrency cap).
        max_queued: Admitted-but-waiting requests allowed beyond
            ``max_in_flight``; requires ``max_in_flight``.  The tenant's total
            admission capacity is ``max_in_flight + max_queued``.
        rate_per_second: Optional token-bucket refill rate; each admission
            consumes one token and an empty bucket rejects with a computed
            ``Retry-After``.
        burst: Token-bucket capacity (how many requests may arrive
            back-to-back before the rate limit bites).
    """

    max_in_flight: int | None = None
    max_queued: int | None = None
    rate_per_second: float | None = None
    burst: int = 1

    _FIELDS = ("max_in_flight", "max_queued", "rate_per_second", "burst")

    def __post_init__(self) -> None:
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1 or None")
        if self.max_queued is not None:
            if self.max_queued < 0:
                raise ConfigurationError("max_queued must be non-negative or None")
            if self.max_in_flight is None:
                raise ConfigurationError("max_queued requires max_in_flight")
        if self.rate_per_second is not None and self.rate_per_second <= 0:
            raise ConfigurationError("rate_per_second must be positive or None")
        if self.burst < 1:
            raise ConfigurationError("burst must be >= 1")

    def capacity(self) -> int | None:
        """Total admitted requests allowed at once (``None`` = unbounded)."""
        if self.max_in_flight is None:
            return None
        return self.max_in_flight + (self.max_queued or 0)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TenantQuota":
        """Validate a JSON object into a quota, rejecting unknown fields."""
        _check_fields(payload, cls._FIELDS)
        for key in ("max_in_flight", "max_queued", "burst"):
            value = payload.get(key)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise RequestValidationError(f"quota {key!r} must be an integer or null")
        rate = payload.get("rate_per_second")
        if rate is not None and (
            not isinstance(rate, (int, float)) or isinstance(rate, bool)
        ):
            raise RequestValidationError(
                "quota 'rate_per_second' must be a number or null"
            )
        burst = payload.get("burst")
        return cls(
            max_in_flight=payload.get("max_in_flight"),
            max_queued=payload.get("max_queued"),
            rate_per_second=float(rate) if rate is not None else None,
            burst=burst if burst is not None else 1,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_in_flight": self.max_in_flight,
            "max_queued": self.max_queued,
            "rate_per_second": self.rate_per_second,
            "burst": self.burst,
        }


@dataclass(frozen=True, slots=True)
class TenantOverrides:
    """Per-tenant overrides of the process-wide :class:`ServingConfig`.

    Resolved once at attach time and surfaced in ``GET /v1/corpora/<name>``;
    ``None`` fields inherit the shared serving configuration.

    Attributes:
        cache_ttl_seconds: Freshness bound of this tenant's entries in the
            shared result cache.
        query_timeout_seconds: This tenant's time budget per request (see
            :attr:`ServingConfig.query_timeout_seconds`, which ``None``
            inherits).
        quota: Admission policy (see :class:`TenantQuota`).
        weight: Fair-share weight of this tenant in the executor's deficit-
            round-robin dispatcher: a weight-``W`` tenant is dispatched ``W``
            requests per scheduling round for every one request of a
            weight-1 tenant.  Weights shape *priority* under contention;
            quotas shape *admission* — the two compose.
        trace_sample_rate: Fraction of this tenant's successful fast queries
            whose traces are retained in the ring buffer (slow and failed
            queries are always kept).  ``None`` inherits
            :attr:`ObsConfig.trace_sample_rate`.
    """

    cache_ttl_seconds: float | None = None
    query_timeout_seconds: float | None = None
    quota: TenantQuota | None = None
    weight: int = 1
    trace_sample_rate: float | None = None

    _FIELDS = (
        "cache_ttl_seconds",
        "query_timeout_seconds",
        "quota",
        "weight",
        "trace_sample_rate",
    )

    def __post_init__(self) -> None:
        if self.cache_ttl_seconds is not None and self.cache_ttl_seconds <= 0:
            raise ConfigurationError("cache_ttl_seconds must be positive or None")
        if self.query_timeout_seconds is not None and self.query_timeout_seconds <= 0:
            raise ConfigurationError("query_timeout_seconds must be positive or None")
        if not isinstance(self.weight, int) or isinstance(self.weight, bool):
            raise ConfigurationError("weight must be an integer")
        if self.weight < 1:
            raise ConfigurationError("weight must be >= 1")
        if self.trace_sample_rate is not None and not (
            0.0 <= self.trace_sample_rate <= 1.0
        ):
            raise ConfigurationError("trace_sample_rate must be in [0, 1] or None")

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TenantOverrides":
        """Validate a JSON object into overrides, rejecting unknown fields."""
        _check_fields(payload, cls._FIELDS)
        for key in (
            "cache_ttl_seconds",
            "query_timeout_seconds",
            "trace_sample_rate",
        ):
            value = payload.get(key)
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                raise RequestValidationError(f"{key!r} must be a number or null")
        quota = payload.get("quota")
        if quota is not None and not isinstance(quota, Mapping):
            raise RequestValidationError("'quota' must be an object or null")
        weight = payload.get("weight", 1)
        if weight is None:
            weight = 1
        if not isinstance(weight, int) or isinstance(weight, bool):
            raise RequestValidationError("'weight' must be an integer")
        if weight < 1:
            raise RequestValidationError("'weight' must be >= 1")
        ttl = payload.get("cache_ttl_seconds")
        timeout = payload.get("query_timeout_seconds")
        sample_rate = payload.get("trace_sample_rate")
        return cls(
            cache_ttl_seconds=float(ttl) if ttl is not None else None,
            query_timeout_seconds=float(timeout) if timeout is not None else None,
            quota=TenantQuota.from_dict(quota) if quota is not None else None,
            weight=weight,
            trace_sample_rate=(
                float(sample_rate) if sample_rate is not None else None
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "cache_ttl_seconds": self.cache_ttl_seconds,
            "query_timeout_seconds": self.query_timeout_seconds,
            "quota": self.quota.to_dict() if self.quota is not None else None,
            "weight": self.weight,
            "trace_sample_rate": self.trace_sample_rate,
        }


@dataclass(frozen=True, slots=True)
class ObsConfig:
    """Parameters of the observability layer (:mod:`repro.obs`).

    Attributes:
        trace_capacity: Finished traces retained in the in-memory ring buffer.
        trace_per_tenant: Per-tenant cap within the ring buffer, so one chatty
            corpus cannot evict every other tenant's recent traces.
        slow_trace_seconds: Queries at least this slow keep their full span
            tree in the dedicated slow-trace buffer.
        slow_trace_capacity: Size of the slow-trace buffer (0 disables slow
            capture).
        event_log_capacity: Lifecycle events kept in memory for ``/v1/events``
            and the ``repager tail`` CLI.
        event_log_path: Optional JSONL file every lifecycle event is appended
            to (one JSON object per line; ``None`` keeps events in memory
            only).
        trace_sample_rate: Fraction of successful fast queries whose traces
            are retained in the ring buffer.  High-QPS tenants at rate 1.0
            evict everything else within seconds of a flood, so operators dial
            this down per deployment (or per tenant via
            ``TenantOverrides.trace_sample_rate``); slow and failed queries
            are *always* retained regardless of the rate, and stage-latency
            histograms observe every query either way.
        slow_trace_persist_path: Optional JSONL file the slow-trace buffer is
            flushed to on shutdown and reloaded from on startup (``serve
            --trace-persist``), so the most valuable debugging artifacts —
            the slowest queries — survive a restart.  ``None`` keeps the
            buffer memory-only.
    """

    trace_capacity: int = 256
    trace_per_tenant: int = 64
    slow_trace_seconds: float = 2.0
    slow_trace_capacity: int = 64
    event_log_capacity: int = 2048
    event_log_path: str | None = None
    trace_sample_rate: float = 1.0
    slow_trace_persist_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError("trace_sample_rate must be in [0, 1]")
        if self.trace_capacity < 1:
            raise ConfigurationError("trace_capacity must be >= 1")
        if self.trace_per_tenant < 1:
            raise ConfigurationError("trace_per_tenant must be >= 1")
        if self.slow_trace_seconds < 0:
            raise ConfigurationError("slow_trace_seconds must be non-negative")
        if self.slow_trace_capacity < 0:
            raise ConfigurationError("slow_trace_capacity must be non-negative")
        if self.event_log_capacity < 1:
            raise ConfigurationError("event_log_capacity must be >= 1")


@dataclass(frozen=True, slots=True)
class ServingConfig:
    """Parameters of the production serving layer (:mod:`repro.serving`).

    Attributes:
        host / port: Bind address of the HTTP JSON API (port 0 lets the OS
            pick an ephemeral port — useful for tests).
        max_workers: Worker threads in the batch executor.
        queue_depth: Queries allowed to wait beyond the in-flight workers
            before the executor starts rejecting with HTTP 429.
        cache_max_entries / cache_ttl_seconds: Size and freshness bounds of
            the LRU+TTL query-result cache.
        query_timeout_seconds: Time budget of one request: it becomes the
            request's deadline at ingress (unless the client's is earlier),
            and a solve past it stops and answers 504 ``timeout``.
        max_latency_samples: Reservoir size of each latency histogram.
        max_body_bytes: Upper bound on an HTTP request body; larger bodies
            are rejected with 413 instead of being buffered.
        default_corpus: Tenant name the legacy single-corpus routes
            (``POST /query``, ``GET /paper/<id>``) alias onto.
        max_resident_corpora: Resident-tenant limit of the lazy eviction
            policy — when more corpora than this are attached, the least
            recently used evictable tenant is detached (its artifacts are
            snapshotted to disk) and transparently re-attached on its next
            request.  ``None`` disables eviction.
        obs: Observability settings (:class:`ObsConfig`): trace-store bounds,
            the slow-query threshold and the lifecycle event log.
        stale_grace_seconds: How long past its TTL a cached result remains
            eligible for *degraded* serving when a fresh solve fails or times
            out (``ResultCache.get_stale``).  0 disables stale-serve: failures
            surface as errors, never as stale data.
        retry_attempts: Bounded in-worker retries (with jittered backoff) of
            a solve that failed with a *retryable* error before the failure
            escalates to degradation — total attempts are ``retry_attempts
            + 1``.  0 disables retries.
        retry_backoff_seconds: Base backoff between retry attempts; the
            N-th retry waits ``base * 2**(N-1)`` scaled by jitter in
            ``[0.5, 1.5)``.
        circuit_failure_threshold: Consecutive server-side solve failures
            that open a tenant's circuit breaker (fast 503 + ``Retry-After``
            until the cooldown elapses).  ``None`` disables the breaker.
        circuit_reset_seconds: Breaker cooldown before a half-open probe.
        worker_hang_seconds: Watchdog threshold — a worker stuck on one
            request longer than this is abandoned and replaced so pool
            capacity is never silently lost.  ``None`` disables the watchdog.
        fault_plan: Fault-injection specs (``STAGE=ACTION[:ARG[:TRIGGER]]``,
            see :mod:`repro.resilience.faults`) armed at start-up.  A
            non-empty plan implies ``allow_fault_injection``.
        fault_seed: RNG seed for probabilistic fault triggers, so chaos runs
            are reproducible.
        allow_fault_injection: Enables the test-only ``/v1/faults`` endpoint
            (arm/inspect/disarm plans at runtime).  Never enable in a real
            deployment: any client can then make the service fail on purpose.
        quota_state_path: Optional sqlite file backing per-tenant token
            buckets (:class:`~repro.cluster.state.SqliteQuotaStore`).  When
            set, rate-limit 429 decisions survive process restarts and are
            shared by every replica pointing at the same file; ``None`` keeps
            buckets in process memory.
        cache_state_path: Optional sqlite file backing a shared result cache
            (:class:`~repro.cluster.cache.SqliteCacheStore`).  When set,
            solved payloads are written through to the file and looked up
            after a local-cache miss, so a corpus re-placed on another
            replica after failover serves repeated queries warm; ``None``
            keeps results purely in the per-process cache.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_workers: int = 4
    queue_depth: int = 16
    cache_max_entries: int = 256
    cache_ttl_seconds: float = 300.0
    query_timeout_seconds: float = 30.0
    max_latency_samples: int = 2048
    max_body_bytes: int = 1 << 20
    default_corpus: str = "default"
    max_resident_corpora: int | None = None
    obs: ObsConfig = field(default_factory=ObsConfig)
    stale_grace_seconds: float = 0.0
    retry_attempts: int = 1
    retry_backoff_seconds: float = 0.05
    circuit_failure_threshold: int | None = 5
    circuit_reset_seconds: float = 30.0
    worker_hang_seconds: float | None = None
    fault_plan: tuple[str, ...] = ()
    fault_seed: int | None = None
    allow_fault_injection: bool = False
    quota_state_path: str | None = None
    cache_state_path: str | None = None

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        if self.queue_depth < 0:
            raise ConfigurationError("queue_depth must be non-negative")
        if self.cache_max_entries < 1:
            raise ConfigurationError("cache_max_entries must be >= 1")
        if self.cache_ttl_seconds <= 0:
            raise ConfigurationError("cache_ttl_seconds must be positive")
        if self.query_timeout_seconds <= 0:
            raise ConfigurationError("query_timeout_seconds must be positive")
        if self.max_latency_samples < 16:
            raise ConfigurationError("max_latency_samples must be >= 16")
        if self.max_body_bytes < 1024:
            raise ConfigurationError("max_body_bytes must be >= 1024")
        if not self.default_corpus:
            raise ConfigurationError("default_corpus must be non-empty")
        if self.max_resident_corpora is not None and self.max_resident_corpora < 1:
            raise ConfigurationError("max_resident_corpora must be >= 1 or None")
        if self.stale_grace_seconds < 0:
            raise ConfigurationError("stale_grace_seconds must be non-negative")
        if self.retry_attempts < 0:
            raise ConfigurationError("retry_attempts must be non-negative")
        if self.retry_backoff_seconds < 0:
            raise ConfigurationError("retry_backoff_seconds must be non-negative")
        if (
            self.circuit_failure_threshold is not None
            and self.circuit_failure_threshold < 1
        ):
            raise ConfigurationError("circuit_failure_threshold must be >= 1 or None")
        if self.circuit_reset_seconds <= 0:
            raise ConfigurationError("circuit_reset_seconds must be positive")
        if self.worker_hang_seconds is not None and self.worker_hang_seconds <= 0:
            raise ConfigurationError("worker_hang_seconds must be positive or None")
        if self.fault_plan:
            # Import here: config is imported everywhere, resilience only on use.
            from .resilience.faults import parse_fault_spec

            for spec in self.fault_plan:
                try:
                    parse_fault_spec(spec)
                except ValueError as exc:
                    raise ConfigurationError(str(exc)) from None

    def fingerprint(self) -> str:
        """Stable fingerprint of the serving configuration."""
        return config_fingerprint(self)


@dataclass(frozen=True, slots=True)
class EvaluationConfig:
    """Parameters of the overlap-metric evaluation (Sec. VI-A/B).

    Attributes:
        k_values: The values of K at which P@K / F1@K are reported (Fig. 8).
        occurrence_levels: Ground-truth strata to evaluate against (L1/L2/L3).
        max_surveys: Number of benchmark surveys to evaluate (None = all).
        min_references: Surveys with fewer references are skipped (the paper
            only evaluates surveys citing at least 20 papers).
        publication_cutoff: Whether to restrict candidate papers to those
            published no later than the survey (avoids "future" papers).
    """

    k_values: tuple[int, ...] = (20, 25, 30, 35, 40, 45, 50)
    occurrence_levels: tuple[int, ...] = (1, 2, 3)
    max_surveys: int | None = None
    min_references: int = 20
    publication_cutoff: bool = True

    def __post_init__(self) -> None:
        if not self.k_values:
            raise ConfigurationError("k_values must not be empty")
        if any(k < 1 for k in self.k_values):
            raise ConfigurationError("all k_values must be >= 1")
        if any(level < 1 for level in self.occurrence_levels):
            raise ConfigurationError("occurrence_levels must all be >= 1")
        if self.max_surveys is not None and self.max_surveys < 1:
            raise ConfigurationError("max_surveys must be >= 1 or None")
        if self.min_references < 0:
            raise ConfigurationError("min_references must be non-negative")
