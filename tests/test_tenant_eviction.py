"""Tenant eviction lifecycle: snapshot round trips preserve the golden contract.

A property-style walk drives random attach/query/idle/evict/re-attach
sequences against an app whose resident limit (2) is smaller than its corpus
count (3), so tenants are continuously evicted to disk snapshots and
transparently re-attached on their next request.  After every step the walk
queries an arbitrary corpus and asserts the payload is **byte-identical** to
a never-evicted control service over the same corpus — eviction must be
invisible to clients, not merely "mostly equivalent".

The model registry (plain dicts in the test) independently tracks what should
be resident/evicted, and the registry's state is reconciled against it after
every step.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.config import CorpusConfig, PipelineConfig, ServingConfig
from repro.corpus.generator import CorpusGenerator
from repro.corpus.storage import CorpusStore
from repro.errors import ServingError
from repro.graph.indexed import IndexedGraph
from repro.repager.app import RePaGerApp
from repro.repager.service import RePaGerService
from repro.serving import warm_up

PIPELINE = PipelineConfig(num_seeds=10)

#: Three deterministic corpora, distinct seeds so their reading paths differ.
CORPUS_CONFIGS = {
    "alpha": CorpusConfig(seed=7, papers_per_topic=18, surveys_per_topic=2,
                          citations_per_paper=10.0),
    "beta": CorpusConfig(seed=13, papers_per_topic=18, surveys_per_topic=2,
                         citations_per_paper=10.0),
    "gamma": CorpusConfig(seed=21, papers_per_topic=18, surveys_per_topic=2,
                          citations_per_paper=10.0),
}

QUERIES = ("machine learning", "information retrieval", "deep learning")


def canonical_bytes(payload) -> bytes:
    """The byte-level contract: canonical JSON minus wall-clock timing."""
    data = payload.to_dict()
    data["stats"] = {k: v for k, v in data["stats"].items() if k != "elapsed_seconds"}
    return json.dumps(data, sort_keys=True).encode("utf-8")


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("eviction-corpora")
    dirs = {}
    for name, config in CORPUS_CONFIGS.items():
        path = root / name
        CorpusGenerator(config).generate().store.save(path)
        dirs[name] = str(path)
    return dirs


@pytest.fixture(scope="module")
def control(corpus_dirs):
    """Never-evicted ground truth, built from the same on-disk corpora."""
    services = {}
    for name, corpus_dir in corpus_dirs.items():
        service = RePaGerService(
            CorpusStore.load(corpus_dir), pipeline_config=PIPELINE
        )
        warm_up(service)
        services[name] = service
    return {
        name: {
            query: canonical_bytes(service.query(query, use_cache=False))
            for query in QUERIES
        }
        for name, service in services.items()
    }


@pytest.fixture()
def app(corpus_dirs):
    app = RePaGerApp(
        config=ServingConfig(
            port=0,
            max_workers=4,
            query_timeout_seconds=120.0,
            max_resident_corpora=2,
        ),
        pipeline_config=PIPELINE,
    )
    for name, corpus_dir in corpus_dirs.items():
        app.attach_directory(name, corpus_dir, default=name == "alpha")
    yield app
    app.close(wait=False)


def assert_registry_consistent(app, names):
    """Invariants that must hold after *every* lifecycle step."""
    resident = set(app.registry.names())
    evicted = set(app.registry.evicted_names())
    assert resident | evicted == set(names)
    assert not resident & evicted
    assert len(resident) <= app.config.max_resident_corpora
    # Evicted tenants must not squat on shared-cache capacity.
    cached_namespaces = {key[0] for key in app.cache._entries}
    assert not cached_namespaces & evicted
    # A warm tenant's eviction record points at a restorable snapshot on
    # disk; a cold one (never queried before eviction) records none and
    # recomputes its artifacts lazily on re-attach.
    for name in evicted:
        record = app.registry.evicted_record(name)
        if record.snapshot_path is not None:
            assert Path(record.snapshot_path).is_file()


def test_lifecycle_walk_is_byte_identical_to_control(app, control, corpus_dirs):
    """Random attach/query/idle/evict/re-attach walk vs the model registry."""
    rng = random.Random(0xE51C7)
    names = list(CORPUS_CONFIGS)
    evict_count = reattach_count = 0

    # Attaching three corpora with a 2-resident limit already evicted one.
    assert_registry_consistent(app, names)
    assert len(app.registry.evicted_names()) == 1

    for step in range(14):
        action = rng.choice(("query", "query", "query", "evict", "idle"))
        name = rng.choice(names)
        if action == "evict" and name in app.registry:
            app.evict(name)
            evict_count += 1
        elif action == "idle":
            # Touch every *other* resident tenant so `name` becomes the LRU
            # eviction candidate — exercises the idle-tracker ordering.
            for other in app.registry.names():
                if other != name:
                    app.registry.mark_used(other)
        else:
            was_evicted = name in app.registry.evicted_names()
            response = app.query(
                {"query": rng.choice(QUERIES), "use_cache": bool(rng.getrandbits(1))},
                corpus=name,
            )
            assert response.corpus == name
            reattach_count += was_evicted
            assert name in app.registry  # re-attached and resident

        # After every step: any corpus, queried through the app, answers
        # byte-identically to the never-evicted control.
        probe = rng.choice(names)
        query = rng.choice(QUERIES)
        response = app.query({"query": query, "use_cache": False}, corpus=probe)
        assert canonical_bytes(response.payload) == control[probe][query], (
            f"step {step}: corpus {probe!r} diverged from the control "
            f"after {evict_count} evictions / {reattach_count} re-attaches"
        )
        assert_registry_consistent(app, names)

    # The walk must actually have exercised the lifecycle, not idled through.
    assert evict_count + reattach_count > 0
    assert len(app.registry.evicted_names()) >= 1


def test_explicit_evict_round_trip_preserves_payloads(app, control):
    before = app.query({"query": "machine learning", "use_cache": False}, corpus="beta")
    record = app.evict("beta")
    assert record.snapshot_path is not None
    assert Path(record.snapshot_path).is_file()
    assert "beta" not in app.registry
    assert "beta" in app.registry.evicted_names()

    # The next request transparently re-attaches from the snapshot.
    after = app.query({"query": "machine learning", "use_cache": False}, corpus="beta")
    assert canonical_bytes(before.payload) == canonical_bytes(after.payload)
    assert canonical_bytes(after.payload) == control["beta"]["machine learning"]
    assert "beta" in app.registry
    # Re-attaching pushed residents past the limit again: someone else left.
    assert len(app.registry.names()) <= 2


def test_evicting_the_default_keeps_legacy_routing(app, control):
    """The default *name* survives eviction: default-tenant (legacy) queries
    re-attach it instead of 404ing or silently switching corpus."""
    assert app.registry.default_name == "alpha"
    if "alpha" not in app.registry:  # startup eviction may have taken it
        app.query("machine learning", corpus="alpha")
    app.evict("alpha")
    assert app.registry.default_name == "alpha"
    response = app.query({"query": "deep learning", "use_cache": False})  # default route
    assert response.corpus == "alpha"
    assert canonical_bytes(response.payload) == control["alpha"]["deep learning"]


def test_in_memory_tenants_are_not_evictable(app, store):
    app.attach_store("inmem", store, PIPELINE)
    try:
        with pytest.raises(ServingError):
            app.evict("inmem")
        # Nor may the resident-limit sweep pick them: only directory-backed
        # tenants are candidates, so "inmem" stays resident.
        app.enforce_resident_limit()
        assert "inmem" in app.registry
    finally:
        app.detach("inmem")


def test_cold_evict_skips_snapshot_capture(app, control):
    """Evicting a never-queried tenant must not force a full warm-up just to
    snapshot artifacts that were never built; re-attach recomputes lazily."""
    startup_evicted = app.registry.evicted_names()[0]
    record = app.registry.evicted_record(startup_evicted)
    assert record.snapshot_path is None  # nothing was built, nothing captured
    response = app.query(
        {"query": "machine learning", "use_cache": False}, corpus=startup_evicted
    )
    assert canonical_bytes(response.payload) == control[startup_evicted]["machine learning"]


def test_broken_snapshot_falls_back_to_cold_reattach(app, control):
    """A vanished snapshot file (tmp cleaner) degrades to recomputation —
    byte-identical output, never a bricked tenant."""
    if "beta" not in app.registry:
        app.query("machine learning", corpus="beta")
    app.query("machine learning", corpus="beta")  # warm it so evict snapshots
    record = app.evict("beta")
    assert record.snapshot_path is not None
    Path(record.snapshot_path).unlink()
    response = app.query(
        {"query": "deep learning", "use_cache": False}, corpus="beta"
    )
    assert canonical_bytes(response.payload) == control["beta"]["deep learning"]
    assert "beta" in app.registry


def test_variant_survives_eviction_round_trip_byte_identical(app, control):
    """A variant answers byte-identically after an eviction round trip.  The
    re-attached tenant lists only the variants queried since: a variant
    pipeline is built on its first query and reads the restored builder."""
    if "beta" not in app.registry:
        app.query({"query": "machine learning", "use_cache": False}, corpus="beta")
    before = app.query(
        {"query": "machine learning", "use_cache": False, "variant": "NEWST-W"},
        corpus="beta",
    )
    assert app.registry.get("beta").service.variants_loaded() == ("NEWST-W",)

    record = app.evict("beta")
    assert record.snapshot_path is not None

    # Re-attach through a *base* query: the restored builder is warm, and no
    # variant pipeline exists until a variant is queried.
    app.query({"query": "machine learning", "use_cache": False}, corpus="beta")
    service = app.registry.get("beta").service
    assert service.variants_loaded() == ()
    assert all(service.readiness().values())

    after = app.query(
        {"query": "machine learning", "use_cache": False, "variant": "NEWST-W"},
        corpus="beta",
    )
    assert canonical_bytes(before.payload) == canonical_bytes(after.payload)
    assert service.variants_loaded() == ("NEWST-W",)
    assert service.pipeline_for("NEWST-W").weight_builder is service.pipeline.weight_builder
    # The base pipeline still matches the never-evicted control.
    base = app.query(
        {"query": "machine learning", "use_cache": False}, corpus="beta"
    )
    assert canonical_bytes(base.payload) == control["beta"]["machine learning"]


def test_variant_only_traffic_still_captures_eviction_snapshot(app, control):
    """A tenant whose only traffic targeted a variant has warmed the one
    builder its base pipeline reads too, so eviction snapshots those
    artifacts instead of evicting 'cold' and recomputing on re-attach."""
    name = app.registry.names()[0]
    service = app.registry.get(name).service
    assert not service.readiness()["node_weights_ready"]  # cold
    before = app.query(
        {"query": "deep learning", "use_cache": False, "variant": "NEWST-W"},
        corpus=name,
    )
    assert service.readiness()["node_weights_ready"]  # warm for the base too

    record = app.evict(name)
    assert record.snapshot_path is not None, (
        "variant-warmed artifacts were not captured by the eviction snapshot"
    )
    assert Path(record.snapshot_path).is_file()

    after = app.query(
        {"query": "deep learning", "use_cache": False, "variant": "NEWST-W"},
        corpus=name,
    )
    assert canonical_bytes(before.payload) == canonical_bytes(after.payload)
    base = app.query({"query": "deep learning", "use_cache": False}, corpus=name)
    assert canonical_bytes(base.payload) == control[name]["deep learning"]


def test_detaching_an_evicted_tenant_removes_it_for_good(app):
    if "gamma" not in app.registry.evicted_names():
        if "gamma" not in app.registry:
            app.query("machine learning", corpus="gamma")
        app.evict("gamma")
    assert app.detach("gamma") is None
    assert "gamma" not in app.registry.evicted_names()
    assert "gamma" not in app.registry.known_names()
    from repro.errors import CorpusNotFoundError

    with pytest.raises(CorpusNotFoundError):
        app.query("machine learning", corpus="gamma")


def test_reattached_tenant_builds_one_csr_snapshot(app, monkeypatch):
    """After a re-attach, the base and variant pipelines share the one CSR
    snapshot the restored builder builds."""
    name = app.registry.names()[0]
    app.query({"query": "deep learning", "variant": "NEWST-W"}, corpus=name)
    app.evict(name)

    builds = []
    from_graph = IndexedGraph.from_graph

    def counted(graph):
        builds.append(graph)
        return from_graph(graph)

    monkeypatch.setattr(IndexedGraph, "from_graph", counted)
    app.query({"query": "deep learning", "use_cache": False}, corpus=name)
    app.query(
        {"query": "deep learning", "use_cache": False, "variant": "NEWST-W"},
        corpus=name,
    )
    assert len(builds) == 1
