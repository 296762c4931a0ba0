"""Tracing overhead on the uninstrumented path must stay under 5%.

The observability spans (:func:`repro.obs.stage`) are compiled into the
pipeline unconditionally; when no trace is active they reduce to a single
``ContextVar`` read returning a shared no-op handle.  This benchmark holds
that bargain to account:

* **end-to-end** — interleaved rounds of uncached queries with tracing
  globally enabled (but no active trace — the plain ``service.query`` path)
  versus globally disabled via :func:`repro.obs.set_enabled`.  Each round
  starts from a fresh ``gc.collect()``, so both modes pay the same garbage
  collections.  The best-of-N round times must agree within 5% (plus a small
  absolute epsilon for timer noise).
* **micro** — the cost of one idle ``stage()`` enter/exit, multiplied by the
  span count of a real query, must itself be under 5% of the measured query
  time, which pins the overhead bound to the instrumentation rather than to
  run-to-run luck.
"""

from __future__ import annotations

import gc
import time

import pytest

from bench_utils import env_float, env_int, print_table

from repro.config import PipelineConfig
from repro.obs import set_enabled, stage, tracing_enabled
from repro.repager.service import RePaGerService
from repro.serving import warm_up

#: Maximum tolerated slowdown of the enabled-but-untraced path (fractional).
MAX_OVERHEAD = env_float("REPRO_BENCH_OBS_OVERHEAD", 0.05)

#: Absolute epsilon (seconds) so near-zero round times do not amplify noise.
OVERHEAD_EPSILON_SECONDS = 0.005

#: Interleaved measurement rounds per mode.
ROUNDS = env_int("REPRO_BENCH_OBS_ROUNDS", 5)

#: Idle stage() enter/exits in the micro measurement.
MICRO_ITERATIONS = env_int("REPRO_BENCH_OBS_MICRO_ITERATIONS", 50_000)

BENCH_QUERIES = ("pretrained language models", "machine learning")

#: Spans a fresh query opens end to end (pipeline stages + serving spans);
#: keep a margin above the instrumented count (~13) so the micro bound stays
#: honest if more stages are added.
SPANS_PER_QUERY = 20


@pytest.fixture(scope="module")
def obs_service(bench_store, bench_scholar, bench_graph, bench_venues):
    service = RePaGerService(
        bench_store,
        search_engine=bench_scholar,
        pipeline_config=PipelineConfig(num_seeds=20),
        venues=bench_venues,
        graph=bench_graph,
    )
    warm_up(service)
    return service


def _round_seconds(service) -> float:
    # Start every round from an empty collector so each one triggers the
    # same collections at the same points.  A full collection walks every
    # corpus artifact; whether a round caught one or two of them otherwise
    # moved round times by more than the 5% being measured.
    gc.collect()
    started = time.perf_counter()
    for query in BENCH_QUERIES:
        service.query(query, use_cache=False)
    return time.perf_counter() - started


def test_idle_tracing_overhead_is_under_five_percent(obs_service):
    enabled_rounds: list[float] = []
    disabled_rounds: list[float] = []
    assert tracing_enabled()
    try:
        obs_service.query(BENCH_QUERIES[0], use_cache=False)  # warm the artifacts
        # Interleave the two modes, alternating which goes first each round,
        # so drift (cache warmth, frequency scaling) lands on both sides
        # equally.
        for index in range(ROUNDS):
            order = (False, True) if index % 2 == 0 else (True, False)
            for enabled in order:
                set_enabled(enabled)
                bucket = enabled_rounds if enabled else disabled_rounds
                bucket.append(_round_seconds(obs_service))
    finally:
        set_enabled(True)

    # Best-of-N: scheduler/GC spikes only ever add time, so the minima are
    # the cleanest estimate of each mode's true cost.
    best_enabled = min(enabled_rounds)
    best_disabled = min(disabled_rounds)
    overhead = best_enabled / best_disabled - 1.0

    # Micro bound: one idle stage() is a ContextVar read + shared no-op.
    started = time.perf_counter()
    for _ in range(MICRO_ITERATIONS):
        with stage("bench_idle"):
            pass
    per_span = (time.perf_counter() - started) / MICRO_ITERATIONS
    micro_per_query = per_span * SPANS_PER_QUERY
    micro_fraction = micro_per_query / (best_enabled / len(BENCH_QUERIES))

    print_table(
        "Observability: idle tracing overhead",
        ["measure", "value"],
        [
            ["best round, tracing disabled (s)", best_disabled],
            ["best round, tracing enabled (s)", best_enabled],
            ["end-to-end overhead", overhead],
            ["idle stage() enter/exit (us)", per_span * 1e6],
            ["micro bound per query (s)", micro_per_query],
            ["micro bound / query time", micro_fraction],
        ],
    )

    # Acceptance criterion: instrumentation on the uninstrumented (untraced)
    # path costs < 5%.
    assert best_enabled <= best_disabled * (1.0 + MAX_OVERHEAD) + (
        OVERHEAD_EPSILON_SECONDS
    ), (
        f"idle tracing overhead {overhead:+.1%} exceeds {MAX_OVERHEAD:.0%} "
        f"({best_enabled:.4f}s vs {best_disabled:.4f}s)"
    )
    assert micro_fraction < MAX_OVERHEAD, (
        f"per-span micro cost implies {micro_fraction:.2%} of a query "
        f"(> {MAX_OVERHEAD:.0%})"
    )
