"""End-to-end request deadlines with cooperative solve-loop checkpoints.

A request's deadline is its one time budget: an absolute point on the
monotonic clock, fixed at ingress to the earlier of the client's
``X-Request-Deadline: <seconds>`` and now + the tenant's
``query_timeout_seconds``, and carried with the request through the
scheduler queue and into the worker thread.

Enforcement happens at three places, each strictly cheaper than the work it
avoids:

1. Admission and the scheduler shed a request whose deadline already passed
   *before* handing it to a worker (it spent its budget queueing).
2. :func:`deadline_scope` publishes the deadline on a context variable for
   the duration of the handler call, and :func:`check_deadline` — called at
   stage boundaries in the pipeline and inside the metric-closure loop —
   aborts the solve cooperatively once the budget is gone, so it frees its
   worker.
3. The caller's result wait ends when the budget does.

When no deadline is set, :func:`check_deadline` is one ContextVar read and a
``None`` comparison — safe to call from the hot loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from ..errors import DeadlineExceededError

__all__ = [
    "check_deadline",
    "deadline_scope",
    "remaining_seconds",
]

#: Absolute ``time.monotonic()`` deadline of the request being solved on this
#: thread/context, or ``None`` when the request is unbounded.
_DEADLINE: ContextVar[float | None] = ContextVar("repro_request_deadline", default=None)


def remaining_seconds(deadline: float | None = None) -> float | None:
    """Seconds left before ``deadline`` (the active one when omitted).

    Returns ``None`` when no deadline is set; may be negative once expired.
    """
    if deadline is None:
        deadline = _DEADLINE.get()
    if deadline is None:
        return None
    return deadline - time.monotonic()


def check_deadline(stage: str = "solve") -> None:
    """Cooperative checkpoint: abort once the active deadline has passed.

    Raises :class:`~repro.errors.DeadlineExceededError` tagged with the stage
    that noticed, so traces and error bodies show *where* the budget ran out.
    """
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceededError(stage=stage)


@contextmanager
def deadline_scope(deadline: float | None) -> Iterator[None]:
    """Publish ``deadline`` on the context for the duration of the block."""
    token = _DEADLINE.set(deadline)
    try:
        yield
    finally:
        _DEADLINE.reset(token)
