#!/usr/bin/env python
"""Regenerate the golden reading-path fixtures under ``tests/golden/``.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/regen_golden.py          # rewrite fixtures
    PYTHONPATH=src python scripts/regen_golden.py --check  # diff only, exit 1 on drift

The fixtures freeze the top-K reading-path output of all seven Table III
variants on the deterministic synthetic test corpus (see
``tests/golden_utils.py`` for the shared definition).  They are computed with
the pipeline, and the tier-1 test ``tests/test_golden_paths.py`` asserts that
it still reproduces them byte for byte.  ``--check`` only diffs; it never
writes.

Only rerun this script when a change is *supposed* to alter reading paths
(cost model changes, ranking changes, corpus generator changes); commit the
fixture diff together with the change that caused it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

from golden_utils import (  # noqa: E402 - path setup must precede import
    GOLDEN_CORPUS_CONFIG,
    GOLDEN_DIR,
    GOLDEN_VARIANTS,
    compute_all_payloads,
    fixture_path,
    render_fixture,
)
from repro.corpus.generator import CorpusGenerator  # noqa: E402
from repro.graph.citation_graph import CitationGraph  # noqa: E402
from repro.search.scholar import GoogleScholarEngine  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the existing fixtures instead of rewriting them",
    )
    args = parser.parse_args(argv)

    corpus = CorpusGenerator(GOLDEN_CORPUS_CONFIG).generate()
    store = corpus.store
    graph = CitationGraph.from_papers(store.papers)
    engine = GoogleScholarEngine(store)
    print(f"corpus: {len(store)} papers, graph: {graph.num_nodes} nodes / "
          f"{graph.num_edges} edges")

    payloads = compute_all_payloads(store, engine, graph)

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    drifted: list[str] = []
    for variant in GOLDEN_VARIANTS:
        path = fixture_path(variant)
        rendered = render_fixture(payloads[variant])
        if args.check:
            existing = path.read_text(encoding="utf-8") if path.exists() else ""
            status = "ok" if existing == rendered else "DRIFT"
            if status == "DRIFT":
                drifted.append(variant)
            print(f"  {variant:8s} {path.name}: {status}")
        else:
            path.write_text(rendered, encoding="utf-8")
            print(f"  {variant:8s} -> {path.relative_to(REPO_ROOT)}")

    if args.check and drifted:
        print(f"fixture drift in: {', '.join(drifted)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
