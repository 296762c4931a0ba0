"""In-process reference answers for the response checks.

    PYTHONPATH=src python3 perfbench/reference.py CORPUS_DIR SNAPSHOT KEYS.json OUT.json

Answers each query of KEYS.json (a list of ``{"query", "year_cutoff",
"exclude_ids"}`` bodies) with ``RePaGerService.query`` on the corpus, warmed
from the same snapshot the servers use and configured like ``repager serve``'s
defaults, and writes the payloads (``stats.elapsed_seconds`` dropped) to
OUT.json.  Runs after the timed phase, in its own process.
"""

from __future__ import annotations

import json
import sys


def main(corpus_dir: str, snapshot: str, keys_path: str, out_path: str) -> int:
    from repro.config import PipelineConfig
    from repro.corpus.storage import CorpusStore
    from repro.repager.service import RePaGerService
    from repro.serving.warmup import warm_up

    service = RePaGerService(
        CorpusStore.load(corpus_dir), pipeline_config=PipelineConfig(num_seeds=30)
    )
    warm_up(service, snapshot=snapshot)
    with open(keys_path, encoding="utf-8") as handle:
        queries = json.load(handle)
    answers = []
    for query in queries:
        payload = service.query(
            query["query"],
            year_cutoff=query.get("year_cutoff"),
            exclude_ids=tuple(query.get("exclude_ids") or ()),
            use_cache=False,
        ).to_dict()
        payload["stats"].pop("elapsed_seconds", None)
        answers.append(payload)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(answers, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
