"""Resilience primitives for the serving stack.

Production traffic meets failures the test suite never wrote down: a solver
that hangs, a snapshot file torn by a crash mid-write, a worker thread lost to
a stuck syscall.  This package gives every one of those failure modes a
*defined* semantics — and a way to provoke it on purpose:

- :mod:`repro.resilience.faults` — a fault-injection registry.  Named
  injection points threaded through the pipeline stages can fail, delay or
  corrupt on demand, armed from config / CLI / a test-only HTTP endpoint and
  compiled to a shared no-op when disarmed.
- :mod:`repro.resilience.deadline` — end-to-end request deadlines carried on
  a context variable, with cooperative checkpoints inside the solve loop so a
  request that can no longer make its deadline is shed early.
- :mod:`repro.resilience.circuit` — a per-tenant circuit breaker (closed →
  open after K consecutive failures → half-open probe) that converts a
  persistent downstream failure into fast, `Retry-After`-carrying rejections.
"""

from __future__ import annotations

from .circuit import CircuitBreaker
from .deadline import check_deadline, deadline_scope, remaining_seconds
from .faults import (
    FaultPlan,
    FaultRule,
    active_plan,
    arm,
    armed,
    disarm,
    fault_point,
    injection_counts,
    parse_fault_spec,
)

__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "arm",
    "armed",
    "check_deadline",
    "deadline_scope",
    "disarm",
    "fault_point",
    "injection_counts",
    "parse_fault_spec",
    "remaining_seconds",
]
