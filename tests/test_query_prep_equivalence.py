"""Reference equivalence of the query-preparation stages.

The per-query stages that run *before* the NEWST solve read per-corpus
indexes: postings-based search scoring and CSR k-hop expansion, and the solve
reads a per-corpus edge-relevance map.  Each promises *identical* output to its
reference implementation — :func:`~repro.search.engine.scan_search`,
:func:`~repro.graph.traversal.k_hop_neighborhood` and
:func:`~repro.core.weights.reference_edge_relevance` — identical search scores
and tie-breaks, identical hop distances and ``max_nodes`` truncation,
bit-identical relevance values.  These tests enforce those promises on the
shared corpus and on seeded random graphs, so future index rewrites cannot
silently drift.
"""

from __future__ import annotations

import random

import pytest

from repro.config import CorpusConfig
from repro.core.subgraph import SubgraphBuilder
from repro.core.weights import WeightedGraphBuilder, reference_edge_relevance
from repro.corpus.generator import CorpusGenerator
from repro.corpus.storage import CorpusStore
from repro.errors import GraphError
from repro.graph.citation_graph import CitationGraph
from repro.graph.indexed import IndexedGraph
from repro.graph.kernels import indexed_k_hop
from repro.graph.traversal import k_hop_neighborhood
from repro.search.engine import scan_search
from repro.search.scholar import GoogleScholarEngine
from repro.types import Paper


# ---------------------------------------------------------------------------
# Search scoring: postings index vs full corpus scan
# ---------------------------------------------------------------------------

SEARCH_QUERIES = (
    "information retrieval",
    "image processing",
    "hate speech detection",
    "neural networks, graph",
    "learning",
    "zzz gibberish nonsense",
)


@pytest.fixture(scope="module")
def engine(store, venues):
    return GoogleScholarEngine(store, venues=venues)


class TestSearchEquivalence:
    @pytest.mark.parametrize("query", SEARCH_QUERIES)
    def test_results_identical(self, engine, query):
        expected = scan_search(engine, query, top_k=40)
        actual = engine.search(query, top_k=40)
        assert actual == expected  # scores, ranks and tie-breaks, exactly

    def test_filters_identical(self, engine):
        exclude = scan_search(engine, "information retrieval", top_k=3)
        exclude_ids = [result.paper_id for result in exclude]
        for kwargs in (
            {"year_cutoff": 2008},
            {"exclude_ids": exclude_ids},
            {"year_cutoff": 2015, "exclude_ids": exclude_ids},
        ):
            expected = scan_search(engine, "information retrieval", top_k=30, **kwargs)
            actual = engine.search("information retrieval", top_k=30, **kwargs)
            assert actual == expected

    def test_exclude_surveys_identical(self, store, venues):
        engine = GoogleScholarEngine(store, venues=venues, exclude_surveys=True)
        query = "image processing"
        assert engine.search(query, top_k=30) == scan_search(engine, query, top_k=30)

    def test_query_longer_than_document(self):
        """Documents with fewer terms than the query hit ``dot``'s swapped
        accumulation order; the postings index must re-score them exactly."""
        papers = [
            Paper(paper_id="P1", title="graph", year=2000),
            Paper(paper_id="P2", title="graph neural networks survey text", year=2001),
            Paper(paper_id="P3", title="unrelated topic entirely", year=2002),
        ]
        store = CorpusStore(papers=papers)
        query = "graph neural networks for large scale citation analysis"
        engine = GoogleScholarEngine(store)
        assert engine.search(query, top_k=3) == scan_search(engine, query, top_k=3)

    def test_construction_is_lazy(self, store):
        engine = GoogleScholarEngine(store)
        assert not engine._fitted
        assert not engine._vector_cache
        assert engine._postings is None
        engine.search("information retrieval", top_k=5)
        assert engine._fitted
        assert engine._postings is not None

    def test_randomized_corpora_identical(self):
        for seed in (3, 19):
            corpus = CorpusGenerator(
                CorpusConfig(seed=seed, papers_per_topic=8, surveys_per_topic=1)
            ).generate()
            engine = GoogleScholarEngine(corpus.store)
            rng = random.Random(seed)
            topics = ["retrieval", "networks", "learning models", "speech", "graph data"]
            for query in rng.sample(topics, 3):
                assert engine.search(query, top_k=25) == scan_search(
                    engine, query, top_k=25
                )


# ---------------------------------------------------------------------------
# k-hop expansion: CSR BFS vs dict BFS
# ---------------------------------------------------------------------------

def make_source_major_graph(seed: int, num_nodes: int, edge_factor: float) -> CitationGraph:
    """A seeded random graph whose edges are inserted source-major.

    Node ids are inserted in shuffled order (so insertion order disagrees with
    lexicographic order), but each node's out-edges are added while visiting
    that node in insertion order — the edge layout of
    :meth:`CitationGraph.from_papers`, under which the snapshot's adjacency
    blocks reproduce the dict graph's neighbour iteration order exactly (the
    regime where ``max_nodes`` truncation must agree).
    """
    rng = random.Random(seed)
    names = [f"N{i:03d}" for i in range(num_nodes)]
    insertion = names[:]
    rng.shuffle(insertion)
    graph = CitationGraph()
    for name in insertion:
        graph.add_node(name)
    for name in insertion:
        for target in rng.sample(names, min(len(names), max(1, int(edge_factor)))):
            if target != name:
                graph.add_edge(name, target)
    return graph


KHOP_CASES = [(1, 20, 2), (2, 40, 3), (3, 60, 4), (4, 25, 1), (5, 50, 6)]


class TestKHopEquivalence:
    @pytest.mark.parametrize("seed,n,factor", KHOP_CASES)
    def test_distances_identical_all_directions(self, seed, n, factor):
        graph = make_source_major_graph(seed, n, factor)
        snapshot = IndexedGraph.from_graph(graph)
        rng = random.Random(seed)
        seeds = rng.sample(sorted(graph.nodes), 3) + ["MISSING-SEED"]
        for direction in ("out", "in", "both"):
            for order in (0, 1, 2, 3):
                expected = k_hop_neighborhood(graph, seeds, order, direction=direction)
                actual = indexed_k_hop(snapshot, seeds, order, direction=direction)
                assert actual == expected

    @pytest.mark.parametrize("seed,n,factor", KHOP_CASES)
    def test_max_nodes_truncation_identical(self, seed, n, factor):
        graph = make_source_major_graph(seed, n, factor)
        snapshot = IndexedGraph.from_graph(graph)
        rng = random.Random(seed + 100)
        seeds = rng.sample(sorted(graph.nodes), 2)
        for max_nodes in (1, 3, 7, 15, n):
            expected = k_hop_neighborhood(graph, seeds, 3, max_nodes=max_nodes)
            actual = indexed_k_hop(snapshot, seeds, 3, max_nodes=max_nodes)
            # Same truncated *set* and same discovery order.
            assert list(actual.items()) == list(expected.items())

    def test_corpus_graph_truncation_and_directions(self, citation_graph, scholar_engine):
        """Satellite coverage on the real corpus graph, both backends."""
        snapshot = IndexedGraph.from_graph(citation_graph)
        seeds = scholar_engine.search_ids("information retrieval", top_k=10)
        for direction in ("out", "in", "both"):
            expected = k_hop_neighborhood(citation_graph, seeds, 2, direction=direction)
            actual = indexed_k_hop(snapshot, seeds, 2, direction=direction)
            assert actual == expected
        for max_nodes in (5, 50, 500):
            expected = k_hop_neighborhood(citation_graph, seeds, 2, max_nodes=max_nodes)
            actual = indexed_k_hop(snapshot, seeds, 2, max_nodes=max_nodes)
            assert list(actual.items()) == list(expected.items())
            # Seeds are always kept; the cap bounds everything else.
            assert len(actual) <= max(max_nodes, len(seeds))

    def test_validation_matches_dict(self, citation_graph):
        snapshot = IndexedGraph.from_graph(citation_graph)
        with pytest.raises(GraphError):
            indexed_k_hop(snapshot, ["x"], -1)
        with pytest.raises(GraphError):
            indexed_k_hop(snapshot, ["x"], 1, direction="sideways")

    def test_subgraph_builder_routes_through_snapshot(self, citation_graph, scholar_engine):
        seeds = scholar_engine.search_ids("deep learning", top_k=10)
        snapshot = IndexedGraph.from_graph(citation_graph)
        dict_builder = SubgraphBuilder(citation_graph, expansion_order=2, max_nodes=300)
        indexed_builder = SubgraphBuilder(
            citation_graph, expansion_order=2, max_nodes=300, snapshot=snapshot
        )
        for kwargs in ({}, {"year_cutoff": 2012}, {"exclude_ids": seeds[:2]}):
            expected = dict_builder.expand(seeds, **kwargs)
            actual = indexed_builder.expand(seeds, **kwargs)
            assert actual == expected


# ---------------------------------------------------------------------------
# Edge relevance: per-corpus cache vs per-query recompute
# ---------------------------------------------------------------------------


def restricted(relevance, scope):
    """The pairs of a relevance map with both endpoints in ``scope``."""
    return {
        (u, v): value for (u, v), value in relevance.items() if u in scope and v in scope
    }


#: The two relevance implementations, keyed by the graph they walk.
RELEVANCE = {
    "dict": lambda builder, scope: reference_edge_relevance(builder.graph, scope),
    "indexed": lambda builder, scope: restricted(builder.edge_relevance(), scope),
}


class TestEdgeRelevanceEquivalence:
    @pytest.fixture(scope="class")
    def builder(self, store, citation_graph, venues):
        return WeightedGraphBuilder(store, citation_graph, venues=venues)

    def test_full_graph_relevance_identical(self, builder, citation_graph):
        expected = reference_edge_relevance(citation_graph)
        actual = builder.edge_costs().relevance
        assert actual == expected  # keys and bit-identical values

    def test_scoped_relevance_identical(self, builder, citation_graph, scholar_engine):
        seeds = scholar_engine.search_ids("image processing", top_k=10)
        candidates = SubgraphBuilder(
            citation_graph, expansion_order=2, max_nodes=400
        ).expand(seeds)
        scope = set(candidates)
        expected = reference_edge_relevance(citation_graph, scope)
        actual = restricted(builder.edge_relevance(), scope)
        assert actual == expected

    @pytest.mark.parametrize("implementation", tuple(RELEVANCE))
    def test_scope_filtering_never_scores_outside_nodes(
        self, builder, citation_graph, scholar_engine, implementation
    ):
        """Satellite: nodes outside the candidate set never appear in keys."""
        seeds = scholar_engine.search_ids("machine learning", top_k=8)
        scope = set(
            SubgraphBuilder(citation_graph, expansion_order=1, max_nodes=200).expand(seeds)
        )
        relevance = RELEVANCE[implementation](builder, scope)
        assert relevance, "expected at least one in-scope edge"
        for u, v in relevance:
            assert u in scope and v in scope

    @pytest.mark.parametrize("implementation", tuple(RELEVANCE))
    def test_empty_scope_scores_nothing(self, builder, implementation):
        assert RELEVANCE[implementation](builder, set()) == {}

    def test_random_graphs_identical(self, store, venues):
        for seed in (11, 23):
            graph = make_source_major_graph(seed, 40, 4)
            builder = WeightedGraphBuilder(store, graph, venues=venues)
            assert builder.edge_costs().relevance == reference_edge_relevance(graph)
            rng = random.Random(seed)
            scope = set(rng.sample(sorted(graph.nodes), 15)) | {"NOT-IN-GRAPH"}
            assert restricted(builder.edge_relevance(), scope) == reference_edge_relevance(
                graph, scope
            )

    def test_relevance_cache_is_reused(self, builder):
        first = builder.edge_relevance()
        assert builder.edge_relevance() is first
