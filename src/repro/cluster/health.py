"""Per-replica health tracking: the tenant circuit breaker under up/down names.

The router learns about replica failure two ways: *passively*, when proxying
a request dies on a connection error, and *actively*, from a periodic
``GET /healthz`` probe loop.  Both feed a :class:`ReplicaHealth` per replica,
which is :class:`~repro.resilience.circuit.CircuitBreaker` with its states
renamed:

- **up** (closed) — requests route normally; consecutive failures are
  counted and any success resets the run.
- **down** (open) — entered after ``failure_threshold`` consecutive
  failures; the router stops routing here and re-places the replica's
  corpora on survivors.  After ``reset_seconds`` the next :meth:`allow`
  admits exactly one probe.
- **half_open** — one probe in flight; success brings the replica back up
  (the router re-places corpora toward their ring-preferred homes), failure
  re-opens for another full cooldown.

The router asks :meth:`allow` (a bool) rather than ``check`` (which raises):
a down replica is not an error, it is a routing decision — the caller walks
the ring's preference order to the next healthy candidate.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..resilience.circuit import CircuitBreaker

__all__ = ["ReplicaHealth"]


class ReplicaHealth(CircuitBreaker):
    """Thread-safe up → down → half-open tracker for one replica.

    Args:
        replica: Replica base URL (or name) carried into descriptions; it is
            held in the breaker's ``corpus`` attribute.
        failure_threshold: Consecutive failures that mark the replica down.
        reset_seconds: Cooldown before a half-open probe is allowed.
        clock: Monotonic time source (injectable for deterministic tests).
    """

    CLOSED, OPEN = "up", "down"
    OPEN_COUNT_KEY, OPENED_AGO_KEY = "down_count", "down_seconds_ago"

    def __init__(
        self,
        replica: str,
        failure_threshold: int = 2,
        reset_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(replica, failure_threshold, reset_seconds, clock)

    @property
    def is_up(self) -> bool:
        return self.state == self.CLOSED

    def describe(self) -> dict[str, Any]:
        """JSON-ready state for the router's ``/healthz``."""
        return {"replica": self.corpus, **super().describe()}
