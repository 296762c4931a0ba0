"""Unit tests for the individual RePaGer pipeline components (Sec. IV-A steps)."""

from __future__ import annotations

import pytest

from repro.config import NewstConfig
from repro.core.newst import NewstModel
from repro.core.reading_path import build_reading_path, order_tree_edges, rank_path_papers
from repro.core.reallocation import cooccurrence_counts, reallocate_seeds
from repro.core.seeds import SeedSelector
from repro.core.subgraph import SubgraphBuilder
from repro.core.weights import WeightedGraphBuilder
from repro.errors import PipelineError
from repro.graph.citation_graph import CitationGraph
from repro.graph.indexed import IndexedGraph
from repro.search.serapi import SerApiClient


@pytest.fixture(scope="module")
def weight_builder(store, citation_graph, venues):
    return WeightedGraphBuilder(store, citation_graph, venues=venues)


@pytest.fixture(scope="module")
def node_weights(weight_builder):
    return weight_builder.node_weights()


class TestSeedSelector:
    def test_selects_top_k(self, scholar_engine):
        seeds = SeedSelector(scholar_engine).select("deep learning", num_seeds=10)
        assert len(seeds) == 10

    def test_works_through_serapi_client(self, scholar_engine):
        client = SerApiClient(scholar_engine)
        seeds = SeedSelector(client).select("deep learning", num_seeds=5)
        assert seeds == scholar_engine.search_ids("deep learning", top_k=5)

    def test_no_results_raises(self, scholar_engine):
        with pytest.raises(PipelineError):
            SeedSelector(scholar_engine).select("zzzz gibberish nonsense", num_seeds=5)


class TestWeights:
    def test_node_weight_formula(self, node_weights):
        config = node_weights.config
        some_paper = next(iter(node_weights.pagerank_scores))
        expected = config.gamma / (
            config.a * node_weights.pagerank_scores[some_paper]
            + config.b * node_weights.venue_scores[some_paper]
        )
        assert node_weights.weight(some_paper) == pytest.approx(expected)

    def test_important_papers_have_lower_weight(self, node_weights):
        scores = node_weights.pagerank_scores
        best = max(scores, key=lambda pid: node_weights.importance(pid))
        worst = min(scores, key=lambda pid: node_weights.importance(pid))
        assert node_weights.weight(best) < node_weights.weight(worst)

    def test_unknown_paper_gets_finite_weight(self, node_weights):
        assert node_weights.weight("UNKNOWN") < float("inf")
        assert node_weights.weight("UNKNOWN") > 0

    def test_edge_cost_formula(self, weight_builder, citation_graph):
        some_edge = next(iter(citation_graph.edges()))
        edge_costs = weight_builder.edge_costs()
        config = weight_builder.config
        relevance = edge_costs.con(*some_edge)
        assert relevance >= 1.0
        assert edge_costs.cost(*some_edge) == pytest.approx(
            config.alpha / relevance ** config.beta
        )

    def test_edge_cost_is_symmetric(self, weight_builder, citation_graph):
        u, v = next(iter(citation_graph.edges()))
        edge_costs = weight_builder.edge_costs()
        assert edge_costs.cost(u, v) == pytest.approx(edge_costs.cost(v, u))

    def test_stronger_relevance_means_cheaper_edge(self, weight_builder):
        cheap = weight_builder.config.alpha / (3.0 ** weight_builder.config.beta)
        assert cheap < weight_builder.config.alpha

    def test_pagerank_scores_are_normalised(self, weight_builder):
        scores = weight_builder.pagerank_scores()
        assert min(scores.values()) == pytest.approx(0.0)
        assert max(scores.values()) == pytest.approx(1.0)


class TestSubgraphBuilder:
    def test_expansion_includes_seeds_and_neighbors(self, citation_graph, scholar_engine):
        seeds = scholar_engine.search_ids("deep learning", top_k=10)
        builder = SubgraphBuilder(citation_graph, expansion_order=2, max_nodes=800)
        candidates = builder.expand(seeds)
        assert all(candidates[s] == 0 for s in seeds if s in citation_graph)
        assert max(candidates.values()) <= 2
        assert len(candidates) > len(seeds)

    def test_year_cutoff_drops_new_candidates(self, citation_graph, scholar_engine):
        seeds = scholar_engine.search_ids("deep learning", top_k=10, year_cutoff=2015)
        builder = SubgraphBuilder(citation_graph, expansion_order=2, max_nodes=800)
        candidates = builder.expand(seeds, year_cutoff=2015)
        for candidate, distance in candidates.items():
            if distance > 0:
                assert citation_graph.get_node_attr(candidate, "year", 0) <= 2015

    def test_max_nodes_cap_keeps_closest(self, citation_graph, scholar_engine):
        seeds = scholar_engine.search_ids("deep learning", top_k=10)
        builder = SubgraphBuilder(citation_graph, expansion_order=2, max_nodes=50)
        candidates = builder.expand(seeds)
        assert len(candidates) <= 50 + len(seeds)

    def test_unknown_seeds_rejected(self, citation_graph):
        builder = SubgraphBuilder(citation_graph)
        with pytest.raises(PipelineError):
            builder.expand(["NOT-A-PAPER"])

    def test_induced_subgraph_contains_candidates(self, citation_graph, scholar_engine):
        """``build`` marks exactly the candidates on the snapshot and counts
        the edges of the subgraph they induce, without building it."""
        seeds = scholar_engine.search_ids("deep learning", top_k=5)
        snapshot = IndexedGraph.from_graph(citation_graph)
        builder = SubgraphBuilder(
            citation_graph, expansion_order=1, max_nodes=400, snapshot=snapshot
        )
        candidates = builder.build(seeds)
        assert candidates.hops == builder.expand(seeds)
        unblocked = {
            node for node, absent in zip(snapshot.node_ids, candidates.blocked) if not absent
        }
        assert unblocked == set(candidates.hops)
        assert candidates.num_edges == citation_graph.subgraph(candidates.hops).num_edges

    def test_build_needs_the_snapshot(self, citation_graph, scholar_engine):
        seeds = scholar_engine.search_ids("deep learning", top_k=5)
        with pytest.raises(PipelineError):
            SubgraphBuilder(citation_graph).build(seeds)


class TestReallocation:
    def test_cooccurrence_counts_distinct_seeds(self):
        graph = CitationGraph()
        graph.add_edge("s1", "p")
        graph.add_edge("s2", "p")
        graph.add_edge("s1", "q")
        counts = cooccurrence_counts(graph, ["s1", "s2"])
        assert counts == {"p": 2, "q": 1}

    def test_threshold_promotes_cocited_papers_only(self):
        graph = CitationGraph()
        graph.add_edge("s1", "p")
        graph.add_edge("s2", "p")
        graph.add_edge("s1", "q")
        promoted = reallocate_seeds(graph, ["s1", "s2"], threshold=2)
        assert promoted == ["p"]

    def test_falls_back_to_initial_seeds(self):
        graph = CitationGraph()
        graph.add_edge("s1", "a")
        graph.add_edge("s2", "b")
        promoted = reallocate_seeds(graph, ["s1", "s2"], threshold=2)
        assert promoted == ["s1", "s2"]

    def test_keep_initial_unions_seeds(self):
        graph = CitationGraph()
        graph.add_edge("s1", "p")
        graph.add_edge("s2", "p")
        merged = reallocate_seeds(graph, ["s1", "s2"], threshold=2, keep_initial=True)
        assert merged == ["s1", "s2", "p"]

    def test_max_new_seeds_cap(self):
        graph = CitationGraph()
        for seed in ("s1", "s2", "s3"):
            for target in ("p", "q", "r"):
                graph.add_edge(seed, target)
        promoted = reallocate_seeds(graph, ["s1", "s2", "s3"], threshold=2, max_new_seeds=2)
        assert len(promoted) == 2

    def test_invalid_threshold_rejected(self):
        with pytest.raises(PipelineError):
            reallocate_seeds(CitationGraph(), ["s1"], threshold=0)

    def test_candidate_restriction(self):
        graph = CitationGraph()
        graph.add_edge("s1", "inside")
        graph.add_edge("s2", "inside")
        graph.add_edge("s1", "outside")
        graph.add_edge("s2", "outside")
        counts = cooccurrence_counts(graph, ["s1", "s2"], candidates={"inside": 1})
        assert counts == {"inside": 2}

    def test_real_corpus_promotes_prerequisite_papers(self, citation_graph, scholar_engine, store):
        """On the shared corpus, reallocation must surface papers from other topics
        than the query topic (the prerequisite papers of Sec. IV-A step 4)."""
        seeds = scholar_engine.search_ids("pretrained language models", top_k=30)
        promoted = reallocate_seeds(citation_graph, seeds, threshold=2)
        topics = {store.get_paper(pid).topic for pid in promoted if pid in store}
        assert len(topics) > 1


class TestNewstModelAndReadingPath:
    def _small_setup(self, citation_graph, scholar_engine, weight_builder):
        seeds = scholar_engine.search_ids("hate speech detection", top_k=15)
        builder = SubgraphBuilder(citation_graph, expansion_order=2, max_nodes=600)
        candidates = builder.expand(seeds)
        subgraph = citation_graph.subgraph(candidates)
        terminals = reallocate_seeds(subgraph, seeds, candidates=candidates, threshold=2)
        return subgraph, terminals, weight_builder.edge_costs()

    def test_tree_spans_present_terminals(self, citation_graph, scholar_engine,
                                          weight_builder, node_weights):
        subgraph, terminals, edge_costs = self._small_setup(
            citation_graph, scholar_engine, weight_builder
        )
        model = NewstModel(config=NewstConfig())
        tree = model.solve(subgraph, terminals, node_weights, edge_costs)
        assert tree.terminals <= tree.nodes
        assert tree.is_tree()

    def test_no_terminals_in_subgraph_raises(self, citation_graph, scholar_engine,
                                             weight_builder, node_weights):
        subgraph, _, edge_costs = self._small_setup(
            citation_graph, scholar_engine, weight_builder
        )
        model = NewstModel(config=NewstConfig())
        with pytest.raises(PipelineError):
            model.solve(subgraph, ["NOT-PRESENT"], node_weights, edge_costs)

    def test_reading_path_edges_follow_citation_direction(self, citation_graph, scholar_engine,
                                                          weight_builder, node_weights, store):
        subgraph, terminals, edge_costs = self._small_setup(
            citation_graph, scholar_engine, weight_builder
        )
        model = NewstModel(config=NewstConfig())
        tree = model.solve(subgraph, terminals, node_weights, edge_costs)
        oriented = order_tree_edges(tree, subgraph)
        for source, target in oriented:
            if subgraph.has_edge(target, source) and not subgraph.has_edge(source, target):
                # target cites source: source (the cited paper) must be read first — OK.
                continue
            if subgraph.has_edge(source, target) and not subgraph.has_edge(target, source):
                pytest.fail(f"edge {source}->{target} puts the citing paper first")

    def test_reading_path_contains_tree_and_padding(self, citation_graph, scholar_engine,
                                                    weight_builder, node_weights):
        subgraph, terminals, edge_costs = self._small_setup(
            citation_graph, scholar_engine, weight_builder
        )
        tree = NewstModel(config=NewstConfig()).solve(
            subgraph, terminals, node_weights, edge_costs
        )
        extras = [n for n in subgraph.nodes if n not in tree.nodes][:5]
        path = build_reading_path(
            "hate speech detection", tree, subgraph, node_weights,
            edge_costs=edge_costs, seeds=terminals, extra_papers=extras,
        )
        assert set(tree.nodes) <= path.paper_set
        assert set(extras) <= path.paper_set
        assert len(path.papers) == len(tree.nodes) + len(extras)

    def test_rank_path_papers_puts_seeds_first(self, node_weights):
        ranked = rank_path_papers(["a", "b", "c"], node_weights, seeds=["c"])
        assert ranked[0] == "c"

    def test_rank_path_papers_uses_relevance(self, node_weights):
        ranked = rank_path_papers(
            ["a", "b"], node_weights, relevance={"a": 1.0, "b": 5.0}
        )
        assert ranked[0] == "b"
