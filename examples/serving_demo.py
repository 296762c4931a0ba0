"""Serving-layer demo: warm-up, cached queries, batch execution, HTTP API.

Builds the RePaGer service on a small synthetic corpus, precomputes the shared
artifacts, then shows the four pieces of the production serving layer working
together:

1. artifact warm-up (and a serialisable snapshot for fast replica start-up);
2. the LRU+TTL query cache turning a repeated query into a dictionary lookup;
3. the concurrent batch executor answering 8 overlapping queries;
4. the dependency-free HTTP JSON API, exercised with ``urllib``.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

from __future__ import annotations

import json
import tempfile
import time
import urllib.request
from pathlib import Path

from repro import CorpusConfig, PipelineConfig, RePaGerService, ServingConfig
from repro.serving import (
    ArtifactSnapshot,
    BatchExecutor,
    MetricsRegistry,
    QueryRequest,
    ResultCache,
    create_server,
    start_in_background,
    warm_up,
)

QUERIES = (
    "pretrained language models",
    "machine learning",
    "deep learning",
    "neural networks",
)


def main() -> None:
    print("Generating the synthetic scholarly corpus...")
    metrics = MetricsRegistry()
    service = RePaGerService.from_synthetic_corpus(
        corpus_config=CorpusConfig(seed=7, papers_per_topic=40, surveys_per_topic=2),
        pipeline_config=PipelineConfig(num_seeds=20),
    )
    service.cache = ResultCache(max_entries=128, ttl_seconds=600.0)
    service.metrics = metrics

    # 1. Warm-up: pay the PageRank/venue-score cost before the first query.
    report = warm_up(service)
    print(
        f"Warmed up {report.graph_nodes} nodes / {report.graph_edges} edges "
        f"in {report.elapsed_seconds:.2f}s (fingerprint {report.config_fingerprint})."
    )
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "artifacts.json"
        ArtifactSnapshot.capture(service).save(snapshot_path)
        size_kb = snapshot_path.stat().st_size / 1024
        print(f"Artifact snapshot serialised to {size_kb:.0f} KiB of JSON.\n")

    # 2. Query cache: the second identical query is a dictionary lookup.
    started = time.perf_counter()
    service.query(QUERIES[0])
    cold = time.perf_counter() - started
    started = time.perf_counter()
    service.query(QUERIES[0])
    warm = time.perf_counter() - started
    print(f"Cold query: {cold:.3f}s; repeated query from cache: {warm * 1000:.2f}ms "
          f"({cold / max(warm, 1e-9):.0f}x faster).\n")

    # 3. Concurrent batch execution: 8 overlapping queries, 4 workers.
    with BatchExecutor.from_service(
        service, max_workers=4, queue_depth=8, metrics=metrics
    ) as executor:
        outcomes = executor.run_batch([QueryRequest(q) for q in QUERIES * 2])
    print(f"Batch of {len(outcomes)} queries: "
          f"{sum(outcome.ok for outcome in outcomes)} succeeded; "
          f"cache stats: {service.cache.stats().to_dict()}\n")

    # 4. HTTP JSON API on an ephemeral port.
    server = create_server(service, config=ServingConfig(port=0), metrics=metrics)
    start_in_background(server)
    print(f"HTTP API listening on {server.url}")
    with urllib.request.urlopen(server.url + "/healthz", timeout=30) as response:
        print("GET /healthz ->", json.loads(response.read()))
    request = urllib.request.Request(
        server.url + "/query",
        data=json.dumps({"query": QUERIES[1]}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        body = json.loads(response.read())
    print(f"POST /query -> {len(body['nodes'])} nodes, "
          f"served in {body['served_in_seconds'] * 1000:.2f}ms")
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as response:
        exposition = response.read().decode()
    print("GET /metrics ->")
    for line in exposition.splitlines():
        if line.startswith(("repager_queries", "repager_cache_hit",
                            "repager_serve_seconds{")):
            print(" ", line)
    server.shutdown()
    server.server_close()
    server.executor.shutdown(wait=False)


if __name__ == "__main__":
    main()
