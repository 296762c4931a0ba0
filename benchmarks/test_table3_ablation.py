"""Experiment E6 — Table III: ablation study of the NEWST components.

Two ablation families are evaluated at K = 30 against the occurrence ≥ 1
ground truth:

* seed-selection variants — NEWST (reallocated seeds), NEWST-W (initial
  seeds), NEWST-I (intersection), NEWST-U (union);
* weight/structure variants — NEWST-C (no Steiner step), NEWST-N (no node
  weights), NEWST-E (no edge weights).

Paper shape to reproduce: NEWST beats NEWST-W (seed reallocation helps),
NEWST-I is on par with NEWST, NEWST-U trades precision for F1/recall, and
NEWST-C attains the highest precision but cannot produce a reading order
(and loses F1 versus the full model).
"""

from __future__ import annotations

import pytest

from repro.config import EvaluationConfig, PipelineConfig
from repro.core.pipeline import RePaGerPipeline, VARIANT_CONFIGS, make_variant_config
from repro.eval.evaluator import OverlapEvaluator, PipelineMethodAdapter

from bench_utils import BENCH_SURVEYS, print_table

EVAL_K = 30


@pytest.fixture(scope="module")
def ablation_scores(bench_store, bench_scholar, bench_graph, bench_bank):
    evaluator = OverlapEvaluator(
        bench_bank,
        EvaluationConfig(k_values=(EVAL_K,), occurrence_levels=(1,), max_surveys=BENCH_SURVEYS),
    )
    scores = {}
    # The variants differ only in the Steiner stage: one weight builder
    # serves all seven, so PageRank and the relevance map are built once.
    builder = RePaGerPipeline(bench_store, bench_scholar, graph=bench_graph).weight_builder
    for variant in VARIANT_CONFIGS:
        config = make_variant_config(variant, PipelineConfig())
        pipeline = RePaGerPipeline(
            bench_store, bench_scholar, config=config, weight_builder=builder
        )
        scores[variant] = evaluator.evaluate(PipelineMethodAdapter(pipeline, variant))
    return scores


def test_table3_ablations(benchmark, ablation_scores):
    scores = benchmark.pedantic(lambda: ablation_scores, rounds=1, iterations=1)

    rows = [
        [name, method_scores.f1(1, EVAL_K), method_scores.precision(1, EVAL_K)]
        for name, method_scores in scores.items()
    ]
    print_table("Table III: NEWST ablation study (K=30, occurrences >= 1)",
                ["Method", "F1 score", "Precision"], rows)

    newst = scores["NEWST"]

    # Seed reallocation helps: NEWST >= NEWST-W on F1.
    assert newst.f1(1, EVAL_K) >= scores["NEWST-W"].f1(1, EVAL_K) - 0.01

    # NEWST-I is comparable with NEWST (paper: 0.2345 vs 0.2343).
    assert abs(scores["NEWST-I"].f1(1, EVAL_K) - newst.f1(1, EVAL_K)) < 0.05

    # NEWST-U trades precision for coverage: precision no better than NEWST.
    assert scores["NEWST-U"].precision(1, EVAL_K) <= newst.precision(1, EVAL_K) + 0.02

    # NEWST-C (no Steiner tree) keeps precision high but it cannot express a
    # reading order; its precision must be at least on par with NEWST.
    assert scores["NEWST-C"].precision(1, EVAL_K) >= newst.precision(1, EVAL_K) - 0.03

    # Dropping node or edge weights must not help.
    assert scores["NEWST-N"].f1(1, EVAL_K) <= newst.f1(1, EVAL_K) + 0.02
    assert scores["NEWST-E"].f1(1, EVAL_K) <= newst.f1(1, EVAL_K) + 0.02
