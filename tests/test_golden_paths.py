"""Golden regression: frozen top-K reading paths for all Table III variants.

Each fixture under ``tests/golden/`` freezes the reading-path output of one
NEWST variant on the deterministic synthetic corpus.  The tests recompute the
paths twice and diff both against the fixtures:

1. regression safety — the runtime pipeline (``indexed``) must reproduce the
   fixture, so any behavioural change to the kernels, cost model, ranking or
   reallocation produces a visible fixture diff;
2. reference equivalence — the same pipeline on the dict reference kernels
   (``dict``, see ``reference_core.py``) must reproduce it too, byte for byte.
   ``test_indexed_equivalence.py`` and ``test_query_prep_equivalence.py`` hold
   the kernels to those references one call at a time.

Fixtures are regenerated with ``PYTHONPATH=src python scripts/regen_golden.py``
(see ``tests/golden/README.md``); only re-freeze when output is *supposed* to
change, and commit the diff with the change that caused it.
"""

from __future__ import annotations

import json

import pytest

from golden_utils import (
    GOLDEN_QUERIES,
    GOLDEN_VARIANTS,
    compute_all_payloads,
    fixture_path,
    render_fixture,
)
from reference_core import GRAPH_CORES, graph_core


@pytest.fixture(scope="module")
def golden_payloads(store, scholar_engine, citation_graph):
    """Recomputed payloads per graph core (node weights shared across variants)."""
    payloads = {}
    for core in GRAPH_CORES:
        with graph_core(core):
            payloads[core] = compute_all_payloads(store, scholar_engine, citation_graph)
    return payloads


def load_fixture(variant: str) -> dict:
    path = fixture_path(variant)
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        "`PYTHONPATH=src python scripts/regen_golden.py`"
    )
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
@pytest.mark.parametrize("core", GRAPH_CORES)
def test_variant_matches_golden_fixture(golden_payloads, variant, core):
    """Both graph cores reproduce the frozen fixture for every variant.

    The second check compares the payload rendered exactly as
    ``scripts/regen_golden.py`` writes it against the file's bytes, so it
    fails precisely when ``regen_golden.py --check`` would report drift.
    """
    payload = golden_payloads[core][variant]
    assert payload == load_fixture(variant)
    assert render_fixture(payload) == fixture_path(variant).read_text(encoding="utf-8")


def test_fixtures_cover_all_variants_and_queries():
    for variant in GOLDEN_VARIANTS:
        fixture = load_fixture(variant)
        assert set(fixture["queries"]) == set(GOLDEN_QUERIES)
        for query, payload in fixture["queries"].items():
            assert payload["top_k"], f"{variant}/{query} froze an empty reading path"
            assert payload["terminals"], f"{variant}/{query} froze no terminals"
