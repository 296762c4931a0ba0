"""Exception hierarchy and error taxonomy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the individual failure modes.

Each class additionally carries a machine-readable taxonomy — a stable
``code`` string and the ``http_status`` the HTTP layer maps it to — so the
programmatic API, the batch executor and the ``/v1`` HTTP surface all report
failures with one vocabulary.  :func:`error_payload` renders the canonical
JSON error body.
"""

from __future__ import annotations

import math
from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Class attributes:
        code: Stable machine-readable error identifier.  Part of the public
            API contract — clients switch on it, so values never change once
            released.
        http_status: The HTTP status the serving layer maps this error to.
        retryable: Whether an immediate in-process retry of the same request
            can plausibly succeed (transient faults).  Drives the serving
            layer's bounded retry-with-backoff; client errors are never
            retryable.
        retry_after_seconds: When a retry can succeed, if the error knows
            (a quota refill, a breaker cooldown, a re-placement); ``None``
            leaves the ``Retry-After`` hint to the server.
        http_fields: Fields an HTTP error body carries beyond
            :func:`error_payload`'s, as ``body key -> attribute name``.
    """

    code: str = "internal"
    http_status: int = 500
    retryable: bool = False
    retry_after_seconds: float | None = None
    http_fields: dict[str, str] = {}

    def http_extras(self) -> dict[str, Any]:
        """This error's :attr:`http_fields`, ready for a JSON body."""
        return {key: getattr(self, name) for key, name in self.http_fields.items()}

    def retry_after(self) -> str | None:
        """This error's own ``Retry-After`` header value (whole seconds, >= 1)."""
        if self.retry_after_seconds is None:
            return None
        return str(max(1, math.ceil(self.retry_after_seconds)))


class ConfigurationError(ReproError):
    """A configuration object contains an invalid or inconsistent value."""

    code = "invalid_config"
    http_status = 400


class CorpusError(ReproError):
    """A problem with the scholarly corpus (missing paper, bad record, ...)."""

    code = "corpus_error"


class PaperNotFoundError(CorpusError):
    """A paper id was requested that does not exist in the corpus or graph."""

    code = "paper_not_found"
    http_status = 404
    http_fields = {"paper_id": "paper_id"}

    def __init__(self, paper_id: str) -> None:
        super().__init__(f"paper not found: {paper_id!r}")
        self.paper_id = paper_id


class GraphError(ReproError):
    """A problem with the citation graph (missing node, disconnected seeds, ...)."""


class NodeNotFoundError(GraphError):
    """A node id was requested that is not present in the graph."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"node not found in graph: {node_id!r}")
        self.node_id = node_id


class EdgeNotFoundError(GraphError):
    """An edge was requested that is not present in the graph."""

    def __init__(self, source: str, target: str) -> None:
        super().__init__(f"edge not found in graph: {source!r} -> {target!r}")
        self.source = source
        self.target = target


class DisconnectedTerminalsError(GraphError):
    """Steiner-tree terminals do not all lie in one connected component."""


class SearchError(ReproError):
    """A search-engine query failed or was malformed."""

    code = "search_error"


class EmptyQueryError(SearchError):
    """The search query contained no usable terms."""

    code = "empty_query"
    http_status = 400


class DatasetError(ReproError):
    """A problem while constructing or loading the SurveyBank dataset."""


class DocumentParseError(DatasetError):
    """The (simulated) GROBID parser could not process a document."""


class EvaluationError(ReproError):
    """A problem while evaluating generated reading paths."""


class PipelineError(ReproError):
    """The RePaGer pipeline could not produce a reading path."""

    code = "pipeline_error"


class ServingError(ReproError):
    """A problem in the serving layer (cache, executor, warm-up, HTTP API)."""

    code = "serving_error"


class ExecutorOverloadedError(ServingError):
    """The batch executor's bounded queue is full; the query was rejected."""

    code = "overloaded"
    http_status = 429


class TenantQuotaExceededError(ServingError):
    """A tenant's admission quota rejected the request.

    Unlike :class:`ExecutorOverloadedError` (the whole process is saturated),
    this rejection is scoped to one tenant: the shared executor still has
    capacity, but this corpus has exhausted its configured in-flight/queued
    allowance or token-bucket rate.  ``retry_after_seconds`` is the caller's
    earliest useful retry time, served as the HTTP ``Retry-After`` header.
    """

    code = "tenant_quota_exceeded"
    http_status = 429
    http_fields = {"corpus": "corpus", "retry_after_seconds": "retry_after_seconds"}

    def __init__(
        self, corpus: str, reason: str, retry_after_seconds: float = 1.0
    ) -> None:
        super().__init__(f"tenant quota exceeded for corpus {corpus!r}: {reason}")
        self.corpus = corpus
        self.reason = reason
        self.retry_after_seconds = retry_after_seconds


class QueryTimeoutError(ServingError):
    """A query ran past its tenant's ``query_timeout_seconds`` budget."""

    code = "timeout"
    http_status = 504

    def __init__(self, query: str, timeout_seconds: float) -> None:
        super().__init__(
            f"query {query!r} exceeded the {timeout_seconds:g}s timeout"
        )
        self.query = query
        self.timeout_seconds = timeout_seconds


class DeadlineExceededError(ServingError):
    """A request ran past its end-to-end deadline and was shed.

    The deadline travels with the request, so the scheduler can shed it
    before a worker is consumed and the solve loop can abort cooperatively
    mid-stage.  ``stage`` names where the budget ran out.  The application
    layer answers :class:`QueryTimeoutError` instead when the tenant's
    timeout, not the client's ``X-Request-Deadline``, set the deadline.
    """

    code = "deadline_exceeded"
    http_status = 504
    http_fields = {"stage": "stage"}

    def __init__(self, stage: str = "solve") -> None:
        super().__init__(f"request deadline exceeded during {stage!r}")
        self.stage = stage


class FaultInjectedError(ServingError):
    """A fault-injection rule fired at a named injection point.

    Only raised while a :class:`~repro.resilience.faults.FaultPlan` is armed
    (chaos tests, ``serve --fault``).  Marked retryable: injected faults model
    transient infrastructure failures, so the degradation machinery treats
    them exactly like one.
    """

    code = "fault_injected"
    http_status = 500
    retryable = True

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at point {point!r}")
        self.point = point


class CircuitOpenError(ServingError):
    """A tenant's circuit breaker is open; the request was rejected fast.

    ``retry_after_seconds`` is the remaining cooldown before a half-open
    probe will be admitted, served as the HTTP ``Retry-After`` header.
    """

    code = "circuit_open"
    http_status = 503
    http_fields = {"corpus": "corpus", "retry_after_seconds": "retry_after_seconds"}

    def __init__(self, corpus: str, retry_after_seconds: float = 1.0) -> None:
        super().__init__(
            f"circuit breaker open for corpus {corpus!r}; "
            f"retry in {retry_after_seconds:g}s"
        )
        self.corpus = corpus
        self.retry_after_seconds = retry_after_seconds


class ReplicaUnavailableError(ServingError):
    """The router could not reach any replica able to serve the request.

    Raised by the cluster router when the placed replica (and every ring
    fallback) is down or the proxied connection died mid-request.  Marked
    retryable — re-placement is already underway, so a client that honours
    ``Retry-After`` lands on a survivor.
    """

    code = "replica_unavailable"
    http_status = 503
    retryable = True
    http_fields = {
        "corpus": "corpus",
        "replica": "replica",
        "retry_after_seconds": "retry_after_seconds",
    }

    def __init__(
        self,
        corpus: str | None,
        replica: str | None = None,
        retry_after_seconds: float = 1.0,
    ) -> None:
        where = f"for corpus {corpus!r}" if corpus else "for request"
        via = f" (last tried {replica})" if replica else ""
        super().__init__(
            f"no healthy replica {where}{via}; retry in {retry_after_seconds:g}s"
        )
        self.corpus = corpus
        self.replica = replica
        self.retry_after_seconds = retry_after_seconds


class ReplicaNotFoundError(ServingError):
    """An admin operation named a replica the router does not know.

    Raised by the drain endpoint (``DELETE /v1/replicas/<url>``) when the
    URL is not a live fleet member — already drained, already dead-and-
    forgotten, or simply mistyped.  ``known`` lists the current members so
    the caller can self-correct.
    """

    code = "replica_not_found"
    http_status = 404
    http_fields = {"replica": "replica"}

    def __init__(self, replica: str, known: tuple[str, ...] | list[str] = ()) -> None:
        known_tuple = tuple(known)
        hint = f"; known replicas: {list(known_tuple)}" if known_tuple else ""
        super().__init__(f"no such replica {replica!r}{hint}")
        self.replica = replica
        self.known = known_tuple


class WorkerHungError(ServingError):
    """The watchdog declared the worker running this request hung.

    The stuck thread was abandoned and replaced; the request it held is
    failed with this error so its waiter (and its queue slot) are released
    instead of leaking until process restart.
    """

    code = "worker_hung"
    http_status = 503

    def __init__(self, query: str, hang_seconds: float) -> None:
        super().__init__(
            f"worker running query {query!r} exceeded the "
            f"{hang_seconds:g}s hang threshold and was replaced"
        )
        self.query = query
        self.hang_seconds = hang_seconds


class SnapshotCorruptError(ServingError):
    """An artifact snapshot failed its integrity check (torn or tampered).

    The file is quarantined to ``<path>.corrupt`` by the loader so the next
    attach degrades to a cold build instead of tripping over the same bytes.
    """

    code = "snapshot_corrupt"
    http_status = 500

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"artifact snapshot {path!r} is corrupt: {reason}")
        self.path = path
        self.reason = reason
        self.quarantine_path: str | None = None


class SnapshotMismatchError(ServingError):
    """An artifact snapshot was built under a different pipeline configuration."""

    code = "snapshot_mismatch"
    http_status = 409

    def __init__(self, expected: str, found: str) -> None:
        super().__init__(
            f"artifact snapshot fingerprint {found!r} does not match the "
            f"pipeline configuration fingerprint {expected!r}"
        )
        self.expected = expected
        self.found = found


class RequestValidationError(ReproError, ValueError):
    """A request body or parameter failed validation.

    Subclasses :class:`ValueError` so call sites that predate the taxonomy
    (``except ValueError`` around ``QueryRequest.from_dict``) keep working.
    """

    code = "bad_request"
    http_status = 400


class UnknownFieldsError(RequestValidationError):
    """A request body contained fields the endpoint does not define.

    Silently ignoring unknown keys turns a typo (``"year_cutof"``) into a
    silently-wrong query, so the validator rejects them and names each one.
    """

    code = "unknown_fields"
    http_fields = {"unknown_fields": "fields"}

    def __init__(self, fields: tuple[str, ...], allowed: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown field(s) {sorted(fields)}; allowed fields are {sorted(allowed)}"
        )
        self.fields = tuple(sorted(fields))
        self.allowed = tuple(sorted(allowed))


class UnknownVariantError(RequestValidationError):
    """A request asked for a pipeline variant that is not registered."""

    code = "unknown_variant"

    def __init__(self, variant: str, known: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown pipeline variant {variant!r}; choose from {sorted(known)}"
        )
        self.variant = variant
        self.known = tuple(sorted(known))


class RequestTooLargeError(RequestValidationError):
    """A request body exceeded the configured size cap."""

    code = "payload_too_large"
    http_status = 413
    http_fields = {"limit_bytes": "limit"}

    def __init__(self, length: int, limit: int) -> None:
        super().__init__(
            f"request body of {length} bytes exceeds the {limit}-byte limit"
        )
        self.length = length
        self.limit = limit


class CorpusNotFoundError(ServingError):
    """A corpus name was requested that is not attached to the registry."""

    code = "corpus_not_found"
    http_status = 404
    http_fields = {"corpus": "name"}

    def __init__(self, name: str, attached: tuple[str, ...] = ()) -> None:
        detail = f"corpus not attached: {name!r}"
        if attached:
            detail += f"; attached corpora: {sorted(attached)}"
        super().__init__(detail)
        self.name = name
        self.attached = tuple(sorted(attached))


class DuplicateCorpusError(ServingError):
    """A corpus was attached under a name that is already taken."""

    code = "corpus_exists"
    http_status = 409

    def __init__(self, name: str) -> None:
        super().__init__(f"a corpus named {name!r} is already attached")
        self.name = name


def error_payload(exc: BaseException) -> dict[str, Any]:
    """Canonical machine-readable JSON body for an exception.

    The shape is shared verbatim by the HTTP layer, the batch executor and
    programmatic callers: ``error`` duplicates ``code`` for compatibility with
    the pre-``/v1`` body format (clients read ``body["error"]``).  HTTP
    bodies add the error's :meth:`ReproError.http_extras`.
    """
    if isinstance(exc, ReproError):
        code, status = exc.code, exc.http_status
        detail = str(exc) or type(exc).__name__
        if exc.retryable:
            return {
                "error": code,
                "code": code,
                "http_status": status,
                "detail": detail,
                "retryable": True,
            }
    else:
        # Anything outside the taxonomy — including bare ValueErrors from
        # deep inside the pipeline — is an *internal* failure: client-caused
        # validation problems are always raised as RequestValidationError.
        code, status = ReproError.code, ReproError.http_status
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
    return {
        "error": code,
        "code": code,
        "http_status": status,
        "detail": detail,
    }
