"""Per-tenant circuit breaker: fail fast when a corpus keeps failing.

When a tenant's solves fail repeatedly (a poisoned snapshot, a pathological
query mix, an injected fault plan), letting every new request march into a
worker just burns pool capacity on work that is going to fail anyway — and
starves the tenants that are healthy.  The breaker converts that state into
fast rejections with an honest ``Retry-After``:

- **closed** — normal operation; consecutive solve failures are counted and
  any success resets the count.
- **open** — entered after ``failure_threshold`` consecutive failures; every
  request is rejected immediately with
  :class:`~repro.errors.CircuitOpenError` (HTTP 503 + ``Retry-After`` set to
  the remaining cooldown) until ``reset_seconds`` have passed.
- **half-open** — after the cooldown, exactly one probe request is allowed
  through; its success closes the circuit, its failure re-opens it for
  another full cooldown.  Concurrent requests during the probe are rejected
  as if open.  A probe whose outcome is *excluded* (a deadline shed, a
  client error) releases the slot via :meth:`CircuitBreaker.abort_probe`
  so the next request becomes the new probe — otherwise the breaker would
  stay half-open rejecting everyone forever.

Only *server-side* solve failures count — client errors (bad request, unknown
paper) say nothing about the tenant's health and never trip the breaker.

The router's per-replica health (:class:`~repro.cluster.health.ReplicaHealth`)
is this state machine with the states renamed ``up``/``down``; it asks
:meth:`CircuitBreaker.allow` (a bool) where a tenant asks
:meth:`CircuitBreaker.check` (which raises).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable

from ..errors import CircuitOpenError

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Thread-safe closed → open → half-open breaker for one tenant.

    Args:
        corpus: Tenant name carried into rejection errors and descriptions.
        failure_threshold: Consecutive failures that open the circuit.
        reset_seconds: Cooldown before a half-open probe is allowed.
        clock: Monotonic time source (injectable for deterministic tests).
    """

    #: State names and :meth:`describe` keys; a subclass may rename them.
    CLOSED, OPEN = "closed", "open"
    OPEN_COUNT_KEY, OPENED_AGO_KEY = "open_count", "opened_seconds_ago"

    def __init__(
        self,
        corpus: str,
        failure_threshold: int = 5,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_seconds <= 0:
            raise ValueError("reset_seconds must be positive")
        self.corpus = corpus
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_in_flight = False
        self._open_count = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _admit(self) -> int | None:
        """The admission step: ``None`` admits, otherwise the rejection's
        ``Retry-After`` seconds.

        Transitions open → half-open once the cooldown has elapsed and lets
        exactly one probe through; everyone else is rejected.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return None
            if self._state == self.OPEN:
                assert self._opened_at is not None
                remaining = self.reset_seconds - (self._clock() - self._opened_at)
                if remaining > 0:
                    return max(1, math.ceil(remaining))
                self._state = "half_open"
            elif self._probe_in_flight:  # half-open: one probe at a time
                return 1
            self._probe_in_flight = True
            return None

    def check(self) -> None:
        """Admission gate; raises :class:`CircuitOpenError` when rejecting."""
        retry_after = self._admit()
        if retry_after is not None:
            raise CircuitOpenError(self.corpus, retry_after_seconds=retry_after)

    def allow(self) -> bool:
        """Admission gate as a bool: may a request (or probe) go through?"""
        return self._admit() is None

    def record_success(self) -> bool:
        """A solve completed; close the circuit and reset the failure run.

        Returns True when this success actually *closed* a non-closed circuit
        (a successful half-open probe), so the caller can log the recovery.
        """
        with self._lock:
            closed_now = self._state != self.CLOSED
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None
            self._probe_in_flight = False
            return closed_now

    def record_failure(self) -> bool:
        """Count one server-side solve failure; returns True on a new open.

        A failure in half-open re-opens immediately (the probe answered the
        question); in closed the circuit opens once the consecutive run
        reaches the threshold.
        """
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            should_open = (
                self._state == "half_open"
                or self._consecutive_failures >= self.failure_threshold
            )
            if should_open and self._state != self.OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self._open_count += 1
                return True
            if should_open:
                # Already open (late failures from in-flight solves).
                self._opened_at = self._clock()
            return False

    def abort_probe(self) -> None:
        """Release the half-open probe slot without counting an outcome.

        For admitted requests that ended in a way saying nothing about the
        tenant's health — a deadline shed, a client-side validation error,
        an interrupt.  The breaker stays half-open (or wherever it was) and
        the next request may probe; idempotent, so callers can invoke it as
        a safety net after ``record_success``/``record_failure`` already ran.
        """
        with self._lock:
            self._probe_in_flight = False

    def describe(self) -> dict[str, Any]:
        """JSON-ready state for ``GET /v1/corpora/<name>``."""
        with self._lock:
            info: dict[str, Any] = {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_seconds": self.reset_seconds,
                self.OPEN_COUNT_KEY: self._open_count,
            }
            if self._opened_at is not None:
                elapsed = self._clock() - self._opened_at
                info[self.OPENED_AGO_KEY] = round(elapsed, 3)
                info["retry_after_seconds"] = max(
                    0, math.ceil(self.reset_seconds - elapsed)
                )
            return info
