"""Integration-level tests for the full RePaGer pipeline and its variants."""

from __future__ import annotations

import dataclasses

import pytest

from reference_core import dict_reference_core
from repro.config import PipelineConfig
from repro.core import newst as newst_module
from repro.core.pipeline import VARIANT_CONFIGS, RePaGerPipeline, make_variant_config
from repro.errors import PipelineError
from repro.graph.citation_graph import CitationGraph
from repro.graph.indexed import IndexedGraph
from repro.graph.steiner import node_edge_weighted_steiner_tree
from repro.repager.service import RePaGerService
from repro.serving.warmup import warm_up


@pytest.fixture(scope="module")
def pipeline_result(pipeline):
    return pipeline.generate("pretrained language models")


class TestPipelineGeneration:
    def test_result_has_all_stages(self, pipeline_result):
        assert len(pipeline_result.initial_seeds) > 0
        assert len(pipeline_result.reallocated_seeds) > 0
        assert len(pipeline_result.terminals) > 0
        assert pipeline_result.subgraph_nodes > len(pipeline_result.initial_seeds)
        assert pipeline_result.tree is not None
        assert pipeline_result.elapsed_seconds > 0

    def test_reading_path_contains_the_tree(self, pipeline_result):
        assert set(pipeline_result.tree.nodes) <= pipeline_result.reading_path.paper_set

    def test_ranked_papers_truncation(self, pipeline_result):
        assert len(pipeline_result.ranked_papers(10)) == 10
        assert pipeline_result.ranked_papers(10) == pipeline_result.ranked_papers()[:10]

    def test_padding_guarantees_requested_length(self, pipeline):
        result = pipeline.generate("hate speech detection", pad_to=55)
        assert len(result.ranked_papers()) >= 55

    def test_excluded_ids_never_appear(self, pipeline, sample_instance):
        result = pipeline.generate(
            sample_instance.query,
            year_cutoff=sample_instance.year,
            exclude_ids=(sample_instance.survey_id,),
        )
        assert sample_instance.survey_id not in result.reading_path.paper_set

    def test_year_cutoff_respected_for_expanded_papers(self, pipeline, store):
        result = pipeline.generate("deep learning", year_cutoff=2012)
        for paper_id in result.reading_path.papers:
            if paper_id in store and paper_id not in set(result.initial_seeds):
                assert store.get_paper(paper_id).year <= 2012

    def test_reading_path_includes_papers_outside_seed_list(self, pipeline_result, store):
        """The path must contain prerequisite papers that the search engine
        did not return (the paper's Fig. 9 observation)."""
        seeds = set(pipeline_result.initial_seeds)
        extra = [p for p in pipeline_result.tree.nodes if p not in seeds]
        assert extra

    def test_reading_path_spans_multiple_topics(self, pipeline_result, store):
        topics = {store.get_paper(p).topic for p in pipeline_result.tree.nodes if p in store}
        assert len(topics) > 1

    def test_unknown_query_raises(self, pipeline):
        with pytest.raises(PipelineError):
            pipeline.generate("zzzz gibberish nonsense")

    def test_determinism(self, pipeline):
        first = pipeline.generate("graph neural networks")
        second = pipeline.generate("graph neural networks")
        assert first.reading_path.papers == second.reading_path.papers


    def test_finished_solve_releases_its_induced_snapshot(
        self, store, scholar_engine, citation_graph, venues, monkeypatch
    ):
        """A warmed solve copies nothing out of the corpus: no Table III
        variant's ``generate`` induces a dict subgraph, snapshots a graph or
        binds costs — each query is a mask over the per-corpus snapshot."""
        service = RePaGerService(
            store, search_engine=scholar_engine,
            pipeline_config=PipelineConfig(num_seeds=10), venues=venues, graph=citation_graph,
        )
        warm_up(service)
        pipelines = [service.pipeline_for(variant) for variant in VARIANT_CONFIGS]
        for pipeline in pipelines:
            assert pipeline.weight_builder is service.pipeline.weight_builder
            pipeline.solve_costs  # each variant binds its own costs once

        def copy(*args, **kwargs):
            raise AssertionError("generate copied the corpus graph")

        monkeypatch.setattr(CitationGraph, "subgraph", copy)
        monkeypatch.setattr(IndexedGraph, "from_graph", copy)
        monkeypatch.setattr(IndexedGraph, "bind_costs", copy)
        for pipeline in pipelines:
            assert pipeline.generate("information retrieval").reading_path.papers


def _unmasked_steiner_tree(*args, blocked=None, **kwargs):
    """The Steiner solve with the candidate mask dropped: a restriction bug."""
    return node_edge_weighted_steiner_tree(*args, **kwargs)


class TestCandidateMask:
    """The solve runs on the corpus snapshot, so only the candidate mask keeps
    excluded and post-cutoff papers out of the tree."""

    @pytest.mark.parametrize(
        "query,year,survey_id",
        [
            # Unmasked, the tree runs through the excluded survey itself ...
            ("privacy preserving computation", 2017, "P003012"),
            # ... or through a paper published after the cutoff.
            ("information visualization", 2017, "P003015"),
        ],
    )
    def test_tree_stays_inside_the_candidate_set(
        self, pipeline, store, scholar_engine, citation_graph, monkeypatch,
        query, year, survey_id,
    ):
        def generate():
            fresh = RePaGerPipeline(
                store, scholar_engine, weight_builder=pipeline.weight_builder
            )
            return fresh.generate(query, year_cutoff=year, exclude_ids=(survey_id,))

        def leaked(papers):
            return [
                paper for paper in papers
                if paper == survey_id or citation_graph.get_node_attr(paper, "year") > year
            ]

        result = generate()
        with monkeypatch.context() as patch:
            patch.setattr(
                newst_module, "node_edge_weighted_steiner_tree", _unmasked_steiner_tree
            )
            unmasked = generate()
        # The case detects a solve that ignores the mask ...
        assert unmasked.tree.nodes != result.tree.nodes
        assert leaked(unmasked.tree.nodes)

        # ... the masked solve equals the dict solve on the induced subgraph ...
        with dict_reference_core():
            reference = generate()
        assert result.tree.nodes == reference.tree.nodes
        assert result.tree.edges == reference.tree.edges
        assert result.reading_path == reference.reading_path

        # ... and neither the tree nor its padding leaves the candidate set.
        assert not leaked(result.reading_path.papers)
        assert set(result.reading_path.papers) <= set(result.candidate_hops)


class TestVariants:
    def test_all_table3_variants_are_defined(self):
        assert set(VARIANT_CONFIGS) == {
            "NEWST", "NEWST-W", "NEWST-U", "NEWST-I", "NEWST-C", "NEWST-N", "NEWST-E",
        }

    def test_unknown_variant_rejected(self):
        with pytest.raises(PipelineError):
            make_variant_config("NEWST-X")

    def test_variant_configs_set_expected_fields(self):
        assert make_variant_config("NEWST-W").seed_strategy == "initial"
        assert make_variant_config("NEWST-U").seed_strategy == "union"
        assert make_variant_config("NEWST-I").seed_strategy == "intersection"
        assert make_variant_config("NEWST-C").steiner_only is False
        assert make_variant_config("NEWST-N").use_node_weights is False
        assert make_variant_config("NEWST-E").use_edge_weights is False

    @pytest.mark.parametrize("variant", ["NEWST-W", "NEWST-U", "NEWST-I", "NEWST-N", "NEWST-E"])
    def test_variants_generate_paths(self, store, scholar_engine, citation_graph, variant):
        config = make_variant_config(variant, PipelineConfig(num_seeds=15))
        variant_pipeline = RePaGerPipeline(store, scholar_engine, graph=citation_graph,
                                           config=config)
        result = variant_pipeline.generate("hate speech detection")
        assert len(result.ranked_papers(20)) == 20
        assert result.tree is not None

    def test_newst_c_has_no_tree(self, store, scholar_engine, citation_graph):
        config = make_variant_config("NEWST-C", PipelineConfig(num_seeds=15))
        variant_pipeline = RePaGerPipeline(store, scholar_engine, graph=citation_graph,
                                           config=config)
        result = variant_pipeline.generate("hate speech detection")
        assert result.tree is None
        assert result.reading_path.edges == ()
        assert len(result.ranked_papers(20)) == 20

    def test_newst_w_terminals_are_initial_seeds(self, store, scholar_engine, citation_graph):
        config = make_variant_config("NEWST-W", PipelineConfig(num_seeds=15))
        variant_pipeline = RePaGerPipeline(store, scholar_engine, graph=citation_graph,
                                           config=config)
        result = variant_pipeline.generate("hate speech detection")
        assert set(result.terminals) <= set(result.initial_seeds)

    def test_newst_u_terminals_superset_of_both(self, store, scholar_engine, citation_graph):
        config = make_variant_config("NEWST-U", PipelineConfig(num_seeds=15))
        variant_pipeline = RePaGerPipeline(store, scholar_engine, graph=citation_graph,
                                           config=config)
        result = variant_pipeline.generate("hate speech detection")
        in_graph_seeds = {s for s in result.initial_seeds if s in citation_graph}
        assert in_graph_seeds <= set(result.terminals)
        assert set(result.reallocated_seeds) <= set(result.terminals)

    def test_seed_count_changes_subgraph_size(self, store, scholar_engine, citation_graph):
        small = RePaGerPipeline(store, scholar_engine, graph=citation_graph,
                                config=PipelineConfig(num_seeds=5))
        large = RePaGerPipeline(store, scholar_engine, graph=citation_graph,
                                config=PipelineConfig(num_seeds=25))
        query = "machine learning"
        assert small.generate(query).subgraph_nodes <= large.generate(query).subgraph_nodes

    def test_variant_override_preserves_other_fields(self):
        base = PipelineConfig(num_seeds=17)
        variant = make_variant_config("NEWST-N", base)
        assert variant.num_seeds == 17
        assert dataclasses.asdict(variant.newst) == dataclasses.asdict(base.newst)
