"""Small-scale version of the paper's evaluation (Fig. 8 and Table III).

Evaluates NEWST, the three search engines, PageRank re-ranking and the offline
SciBERT-style matcher on a handful of SurveyBank queries, then runs the
seed-strategy ablations.  The full parameter sweep lives in ``benchmarks/``;
this example keeps everything small enough to finish in about a minute.

Run with::

    python examples/evaluate_methods.py
"""

from __future__ import annotations

from repro import CorpusConfig, EvaluationConfig, PipelineConfig
from repro.baselines import PageRankBaseline, SciBertMatcherBaseline, SearchTopKBaseline
from repro.core.pipeline import RePaGerPipeline, make_variant_config
from repro.corpus.generator import CorpusGenerator
from repro.dataset.surveybank import SurveyBank
from repro.eval.evaluator import OverlapEvaluator, PipelineMethodAdapter
from repro.graph.citation_graph import CitationGraph
from repro.search import AMinerEngine, GoogleScholarEngine, MicrosoftAcademicEngine


def main() -> None:
    print("Generating the synthetic scholarly corpus...")
    corpus = CorpusGenerator(CorpusConfig(seed=7, papers_per_topic=60, surveys_per_topic=2)).generate()
    store = corpus.store
    graph = CitationGraph.from_papers(store.papers)
    bank = SurveyBank.from_corpus(store).filter(min_references=20)
    print(f"  {len(store)} papers, {len(bank)} benchmark surveys\n")

    scholar = GoogleScholarEngine(store)
    evaluator = OverlapEvaluator(
        bank, EvaluationConfig(k_values=(20, 30, 50), occurrence_levels=(1,), max_surveys=8)
    )

    print("Evaluating NEWST and the baselines (F1@K / P@K, occurrences >= 1)...")
    pipeline = RePaGerPipeline(store, scholar, graph=graph)
    scibert = SciBertMatcherBaseline(scholar, graph, store).train(store.surveys[:20])
    methods = [
        PipelineMethodAdapter(pipeline, "NEWST"),
        SearchTopKBaseline(scholar, "Google Scholar"),
        SearchTopKBaseline(MicrosoftAcademicEngine(store), "Microsoft Academic"),
        SearchTopKBaseline(AMinerEngine(store), "AMiner"),
        PageRankBaseline(scholar, graph),
        scibert,
    ]
    results = evaluator.evaluate_all(methods)
    print(f"\n{'method':<20s} {'F1@20':>7s} {'F1@30':>7s} {'F1@50':>7s} {'P@30':>7s}")
    for name, scores in results.items():
        print(f"{name:<20s} {scores.f1(1, 20):7.3f} {scores.f1(1, 30):7.3f} "
              f"{scores.f1(1, 50):7.3f} {scores.precision(1, 30):7.3f}")

    print("\nSeed-strategy ablations (Table III, K=30)...")
    print(f"{'variant':<10s} {'F1@30':>7s} {'P@30':>7s}")
    for variant in ("NEWST", "NEWST-W", "NEWST-I", "NEWST-U", "NEWST-C"):
        config = make_variant_config(variant, PipelineConfig())
        variant_pipeline = RePaGerPipeline(
            store, scholar, config=config, weight_builder=pipeline.weight_builder
        )
        scores = evaluator.evaluate(PipelineMethodAdapter(variant_pipeline, variant))
        print(f"{variant:<10s} {scores.f1(1, 30):7.3f} {scores.precision(1, 30):7.3f}")

    print("\nExpected shape: NEWST leads the baselines on F1, PageRank is the "
          "worst method, NEWST-C trades the reading order for a small precision "
          "gain, and NEWST-U trades precision for coverage.")


if __name__ == "__main__":
    main()
