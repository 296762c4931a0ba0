"""Shared definition of the golden reading-path regression suite.

One place defines the corpus, the queries, the truncation K and the payload
shape; both the tier-1 regression test (``test_golden_paths.py``) and the
regeneration script (``scripts/regen_golden.py``) import it, so the fixtures
under ``tests/golden/`` can never drift from what the test compares against.

The fixtures freeze the top-K reading-path output of every Table III variant
on the fully deterministic synthetic corpus.  Any behavioural change to the
pipeline — graph kernels, cost functions, ranking, seed reallocation — shows
up as a fixture diff and must be either fixed or consciously re-frozen with::

    PYTHONPATH=src python scripts/regen_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.config import CorpusConfig, PipelineConfig
from repro.core.pipeline import RePaGerPipeline, VARIANT_CONFIGS, make_variant_config

#: The corpus every golden fixture is computed on.  This is also the corpus of
#: the unit-test suite (tests/conftest.py imports it), fully deterministic
#: given the seed.
GOLDEN_CORPUS_CONFIG = CorpusConfig(
    seed=7,
    papers_per_topic=30,
    surveys_per_topic=2,
    citations_per_paper=10.0,
)

#: Queries frozen into the fixtures (topic phrases of the default taxonomy).
GOLDEN_QUERIES: tuple[str, ...] = ("information retrieval", "image processing")

#: Reading paths are truncated to the top-K papers, the quantity the paper's
#: evaluation protocol scores.
GOLDEN_TOP_K = 30

#: All seven Table III variants.
GOLDEN_VARIANTS: tuple[str, ...] = tuple(VARIANT_CONFIGS)

#: Where the frozen fixtures live.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def fixture_path(variant: str) -> Path:
    """Fixture file for a variant (``NEWST-W`` -> ``tests/golden/newst_w.json``)."""
    return GOLDEN_DIR / (variant.lower().replace("-", "_") + ".json")


def render_fixture(payload: Mapping[str, object]) -> str:
    """The exact text of a fixture file holding ``payload``."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def make_variant_pipeline(
    store,
    search_engine,
    graph,
    variant: str,
    weight_builder=None,
) -> RePaGerPipeline:
    """A pipeline for one Table III variant.

    ``weight_builder`` lets callers share the (variant-independent) corpus
    artifacts across the seven variants instead of re-running PageRank per
    variant.
    """
    config = make_variant_config(variant, PipelineConfig())
    return RePaGerPipeline(
        store, search_engine, graph=graph, config=config, weight_builder=weight_builder
    )


def query_payload(pipeline: RePaGerPipeline, query: str) -> dict[str, object]:
    """The frozen per-query payload: top-K papers, edges, terminals, tree stats.

    ``total_cost`` is rounded to 6 decimals: the Steiner objective sums node
    weights over a set, so its last bits depend on the process's hash seed
    while everything else (paper order, edges, terminals) is exactly
    reproducible.
    """
    result = pipeline.generate(query)
    path = result.reading_path
    payload: dict[str, object] = {
        "top_k": result.ranked_papers(GOLDEN_TOP_K),
        "terminals": list(result.terminals),
        "edges": [[edge.source, edge.target] for edge in path.edges],
        "num_path_papers": len(path.papers),
        "subgraph_nodes": result.subgraph_nodes,
        "subgraph_edges": result.subgraph_edges,
    }
    if result.tree is None:
        payload["tree"] = None
    else:
        payload["tree"] = {
            "num_nodes": len(result.tree.nodes),
            "num_edges": len(result.tree.edges),
            "total_cost": round(result.tree.total_cost, 6),
        }
    return payload


def variant_payload(
    pipeline: RePaGerPipeline, queries: Sequence[str] = GOLDEN_QUERIES
) -> dict[str, object]:
    """The full fixture payload of one variant pipeline."""
    return {
        "top_k": GOLDEN_TOP_K,
        "queries": {query: query_payload(pipeline, query) for query in queries},
    }


def compute_all_payloads(
    store, search_engine, graph
) -> Mapping[str, dict[str, object]]:
    """Payloads for every Table III variant.

    The variants share one weight builder: the CSR snapshot, node weights
    and relevance map do not depend on the ablation switches.
    """
    shared = make_variant_pipeline(store, search_engine, graph, "NEWST").weight_builder
    payloads: dict[str, dict[str, object]] = {}
    for variant in GOLDEN_VARIANTS:
        pipeline = make_variant_pipeline(
            store, search_engine, graph, variant, weight_builder=shared
        )
        payloads[variant] = variant_payload(pipeline)
    return payloads
