"""Tracing overhead on the uninstrumented path must stay under 5%.

The observability spans (:func:`repro.obs.stage`) are compiled into the
pipeline unconditionally; when no trace is active they reduce to a single
``ContextVar`` read returning a shared no-op handle.  This benchmark holds
that bargain to account:

* **end-to-end** — adjacent pairs of rounds of uncached queries, one round
  with tracing globally enabled (but no active trace — the plain
  ``service.query`` path) and one with it globally disabled via
  :func:`repro.obs.set_enabled`, the order alternating from pair to pair.
  Each round starts from a fresh ``gc.collect()``, so both modes pay the
  same garbage collections.  The median of the per-pair enabled/disabled
  ratios must stay within 5% (plus a small absolute epsilon for timer
  noise).  A pair's two rounds run back to back, so slow drift in the
  vCPU's speed moves both alike, where each mode's fastest round could come
  from a different stretch of the run.
* **micro** — the cost of one idle ``stage()`` enter/exit, multiplied by the
  span count of a real query, must itself be under 5% of the measured query
  time, which pins the overhead bound to the instrumentation rather than to
  run-to-run luck.
"""

from __future__ import annotations

import gc
import statistics
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

#: Adjacent (enabled, disabled) round pairs; the gate reads their median ratio.
#: On a shared 2-vCPU VM one pair's ratio scattered with a standard deviation
#: of 9-18%, so ten pairs left the median a few percent from the bound; thirty
#: keep it about three of its standard deviations away.
PAIRS = env_int("REPRO_BENCH_OBS_PAIRS", 30)

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
    pairs: list[dict[bool, float]] = []
    assert tracing_enabled()
    try:
        obs_service.query(BENCH_QUERIES[0], use_cache=False)  # warm the artifacts
        for index in range(PAIRS):
            pair = {}
            for enabled in (False, True) if index % 2 == 0 else (True, False):
                set_enabled(enabled)
                pair[enabled] = _round_seconds(obs_service)
            pairs.append(pair)
    finally:
        set_enabled(True)

    ratio = statistics.median(pair[True] / pair[False] for pair in pairs)
    overhead = ratio - 1.0
    typical_disabled = statistics.median(pair[False] for pair in pairs)
    best_enabled = min(pair[True] for pair in pairs)

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
            ["pairs", len(pairs)],
            ["median round, tracing disabled (s)", typical_disabled],
            ["best round, tracing enabled (s)", best_enabled],
            ["median paired overhead", overhead],
            ["idle stage() enter/exit (us)", per_span * 1e6],
            ["micro bound per query (s)", micro_per_query],
            ["micro bound / query time", micro_fraction],
        ],
    )

    # Acceptance criterion: instrumentation on the uninstrumented (untraced)
    # path costs < 5%.
    assert ratio * typical_disabled <= typical_disabled * (1.0 + MAX_OVERHEAD) + (
        OVERHEAD_EPSILON_SECONDS
    ), (
        f"idle tracing overhead {overhead:+.1%} (median of {len(pairs)} paired "
        f"ratios) exceeds {MAX_OVERHEAD:.0%} on {typical_disabled:.4f}s rounds"
    )
    assert micro_fraction < MAX_OVERHEAD, (
        f"per-span micro cost implies {micro_fraction:.2%} of a query "
        f"(> {MAX_OVERHEAD:.0%})"
    )
