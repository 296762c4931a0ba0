"""RePaGer service facade.

:class:`RePaGerService` is the programmatic equivalent of the paper's web
application: it owns a corpus, the citation graph, a search engine and a
configured pipeline, and answers free-text queries with a
:class:`PathPayload` — the reading path itself plus the JSON structure a web
front end would render (Fig. 7's navigation bar, path panel, node/edge weight
legend and per-paper detail records).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence

from ..config import CorpusConfig, PipelineConfig
from ..corpus.generator import CorpusGenerator, GeneratedCorpus
from ..corpus.storage import CorpusStore
from ..core.pipeline import (
    VARIANT_CONFIGS,
    PipelineResult,
    RePaGerPipeline,
    make_variant_config,
)
from ..errors import UnknownVariantError
from ..graph.citation_graph import CitationGraph
from ..obs.trace import stage
from ..resilience.faults import fault_point
from ..search.engine import SearchEngine
from ..search.scholar import GoogleScholarEngine
from ..serving.cache import QueryKey, ResultCache, make_query_key
from ..serving.metrics import MetricsRegistry
from ..types import ReadingPath, ReadingPathEdge
from ..venues.rankings import VenueCatalog, build_default_catalog
from .render import render_ascii_tree, render_flat_list

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..cluster.cache import SqliteCacheStore

__all__ = [
    "PathPayload",
    "RePaGerService",
    "normalize_variant",
    "payload_from_wire",
    "payload_to_wire",
    "wire_cache_key",
]

#: Fallback TTL for shared-store entries when neither the tenant override nor
#: a local cache default applies (mirrors ``ResultCache``'s default).
_SHARED_CACHE_TTL_SECONDS = 300.0


def normalize_variant(name: str) -> str:
    """Canonical (upper-case) form of a Table III variant name.

    Raises:
        UnknownVariantError: The name is not a registered variant.
    """
    canonical = name.upper()
    if canonical not in VARIANT_CONFIGS:
        raise UnknownVariantError(name, tuple(VARIANT_CONFIGS))
    return canonical


@dataclass(frozen=True, slots=True)
class PathPayload:
    """Everything the UI needs for one query."""

    query: str
    reading_path: ReadingPath
    navigation: tuple[dict[str, Any], ...]
    nodes: tuple[dict[str, Any], ...]
    edges: tuple[dict[str, Any], ...]
    stats: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """Serialise to the JSON structure served to a web front end.

        Each record dict is copied so callers can mutate the result freely —
        the payload itself may live in the serving layer's result cache and
        must never be altered through a returned dict.
        """
        return {
            "query": self.query,
            "navigation": [dict(item) for item in self.navigation],
            "nodes": [dict(item) for item in self.nodes],
            "edges": [dict(item) for item in self.edges],
            "stats": dict(self.stats),
        }


def wire_cache_key(key: QueryKey) -> str:
    """Stable string form of a :data:`QueryKey`'s non-namespace fields.

    Shared-store rows are addressed by ``(namespace, key)`` with the
    namespace passed separately (so a tenant detach can drop its rows), so
    the string form carries only the canonical query, cutoff, exclusions and
    pipeline fingerprint.  Every replica computes the same string for the
    same canonical query, which is what makes a cross-replica hit possible.
    """
    _namespace, text, year_cutoff, exclude, fingerprint = key
    return json.dumps(
        [text, year_cutoff, list(exclude), fingerprint], separators=(",", ":")
    )


def payload_to_wire(payload: PathPayload) -> bytes:
    """Serialise a :class:`PathPayload` — ``reading_path`` included — to bytes.

    The wire form is plain JSON; Python's ``json`` round-trips finite floats
    exactly (``repr`` shortest-representation), so
    ``payload_from_wire(payload_to_wire(p)).to_dict()`` is byte-identical to
    ``p.to_dict()`` — the property the shared-cache byte-identity tests pin.
    """
    path = payload.reading_path
    doc = {
        "query": payload.query,
        "reading_path": {
            "query": path.query,
            "papers": list(path.papers),
            "edges": [[e.source, e.target, e.weight] for e in path.edges],
            "node_weights": dict(path.node_weights),
            "seeds": list(path.seeds),
        },
        "navigation": [dict(item) for item in payload.navigation],
        "nodes": [dict(item) for item in payload.nodes],
        "edges": [dict(item) for item in payload.edges],
        "stats": dict(payload.stats),
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def payload_from_wire(data: bytes) -> PathPayload:
    """Inverse of :func:`payload_to_wire`.

    Raises:
        ValueError: If the blob is not valid JSON (corrupt store entry) —
            KeyError/TypeError from a shape mismatch propagate likewise; the
            shared-cache lookup treats any exception as a miss.
    """
    doc = json.loads(data.decode("utf-8"))
    rp = doc["reading_path"]
    path = ReadingPath(
        query=rp["query"],
        papers=tuple(rp["papers"]),
        edges=tuple(
            ReadingPathEdge(source=source, target=target, weight=weight)
            for source, target, weight in rp["edges"]
        ),
        node_weights=rp["node_weights"],
        seeds=tuple(rp["seeds"]),
    )
    return PathPayload(
        query=doc["query"],
        reading_path=path,
        navigation=tuple(doc["navigation"]),
        nodes=tuple(doc["nodes"]),
        edges=tuple(doc["edges"]),
        stats=doc["stats"],
    )


class RePaGerService:
    """End-to-end service: corpus + graph + search + pipeline behind one API.

    The configured pipeline answers by default; a query may name any
    Table III variant instead (:meth:`pipeline_for`).  Every variant
    pipeline reads the base pipeline's weight builder, search engine and
    graph, and answers through this service's cache, TTL and metrics.
    """

    def __init__(
        self,
        store: CorpusStore,
        search_engine: SearchEngine | None = None,
        pipeline_config: PipelineConfig | None = None,
        venues: VenueCatalog | None = None,
        graph: CitationGraph | None = None,
        cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        cache_namespace: str = "",
        cache_ttl_seconds: float | None = None,
        shared_cache: "SqliteCacheStore | None" = None,
    ) -> None:
        self.store = store
        self.venues = venues or build_default_catalog()
        # When one ResultCache is shared across a corpus registry, the
        # namespace (the tenant name) keeps tenants' entries apart even if
        # their pipeline fingerprints happen to collide.
        self.cache_namespace = cache_namespace
        # Per-tenant TTL override: entries this service stores into a shared
        # cache expire on the tenant's own clock, not the cache-wide default.
        self.cache_ttl_seconds = cache_ttl_seconds
        # Cross-replica L2 (:class:`~repro.cluster.cache.SqliteCacheStore`):
        # looked up after a local miss, written after every solve, strictly
        # best-effort — a broken store degrades to cold queries, never 5xx.
        self.shared_cache = shared_cache
        config = pipeline_config or PipelineConfig()
        self.search_engine = search_engine or GoogleScholarEngine(
            store, venues=self.venues
        )
        self.graph = graph if graph is not None else CitationGraph.from_papers(store.papers)
        self.cache = cache
        self.metrics = metrics
        self.pipeline = RePaGerPipeline(
            store,
            self.search_engine,
            graph=self.graph,
            config=config,
            venues=self.venues,
        )
        # Table III variant pipelines by canonical name, built on first use;
        # a name whose config equals the base config maps to the base.
        self._variant_pipelines: dict[str, RePaGerPipeline] = {}
        self._variant_lock = threading.Lock()

    def pipeline_for(self, variant: str | None = None) -> RePaGerPipeline:
        """The pipeline answering ``variant`` (``None``: the base pipeline).

        A variant pipeline differs from the base only in its Table III
        switches, so it shares the base's weight builder (CSR snapshot, node
        weights, relevance map), search engine and graph.

        Raises:
            UnknownVariantError: The name is not a registered variant.
        """
        if variant is None:
            return self.pipeline
        canonical = normalize_variant(variant)
        pipeline = self._variant_pipelines.get(canonical)
        if pipeline is not None:
            return pipeline
        with self._variant_lock:
            pipeline = self._variant_pipelines.get(canonical)
            if pipeline is None:
                pipeline = self.pipeline
                config = make_variant_config(canonical, pipeline.config)
                if config != pipeline.config:
                    pipeline = RePaGerPipeline(
                        self.store,
                        self.search_engine,
                        config=config,
                        weight_builder=pipeline.weight_builder,
                    )
                self._variant_pipelines[canonical] = pipeline
            return pipeline

    def variants_loaded(self) -> tuple[str, ...]:
        """Names of the variant pipelines built so far, sorted."""
        with self._variant_lock:
            return tuple(sorted(
                name for name, pipeline in self._variant_pipelines.items()
                if pipeline is not self.pipeline
            ))

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def from_synthetic_corpus(
        cls,
        corpus_config: CorpusConfig | None = None,
        pipeline_config: PipelineConfig | None = None,
    ) -> "RePaGerService":
        """Build a service on a freshly generated synthetic corpus."""
        corpus: GeneratedCorpus = CorpusGenerator(corpus_config).generate()
        return cls(corpus.store, pipeline_config=pipeline_config)

    # -- queries ------------------------------------------------------------------------

    def query(
        self,
        text: str,
        year_cutoff: int | None = None,
        exclude_ids: Sequence[str] = (),
        use_cache: bool = True,
    ) -> PathPayload:
        """Generate a reading path and package it for the UI.

        When the service was built with a :class:`ResultCache`, identical
        queries (canonical text, same cutoff/exclusions, same pipeline
        configuration) are served from the cache; ``use_cache=False``
        bypasses the lookup *and* the store for one call.  A configured
        :class:`MetricsRegistry` receives per-query latency observations and
        the hit/miss counters backing the ``/metrics`` endpoint.
        """
        payload, _ = self.query_with_meta(
            text, year_cutoff=year_cutoff, exclude_ids=exclude_ids, use_cache=use_cache
        )
        return payload

    def query_with_meta(
        self,
        text: str,
        year_cutoff: int | None = None,
        exclude_ids: Sequence[str] = (),
        use_cache: bool = True,
        variant: str | None = None,
    ) -> tuple[PathPayload, bool]:
        """:meth:`query` plus serving metadata: ``(payload, served_from_cache)``.

        ``variant`` names the Table III pipeline that answers
        (:meth:`pipeline_for`); ``None`` is the configured pipeline.
        """
        started = time.perf_counter()
        pipeline = self.pipeline_for(variant)
        key = None
        if use_cache and (self.cache is not None or self.shared_cache is not None):
            shared_hit = False
            with stage("cache_lookup") as span:
                fault_point("cache_lookup")
                key = make_query_key(
                    text,
                    year_cutoff,
                    exclude_ids,
                    pipeline.config_fingerprint,
                    namespace=self.cache_namespace,
                )
                cached = self.cache.get(key) if self.cache is not None else None
                if cached is None and self.shared_cache is not None:
                    cached = self._shared_cache_get(key)
                    shared_hit = cached is not None
                span.tag(hit=cached is not None, shared=shared_hit)
            if cached is not None:
                if shared_hit:
                    # Promote into the local L1 so the next repeat never
                    # touches the store, and count the cross-replica win.
                    if self.cache is not None:
                        self.cache.put(
                            key, cached, ttl_seconds=self.cache_ttl_seconds
                        )
                    if self.metrics is not None:
                        self.metrics.increment("cache_shared_hits_total")
                self._observe(started, cached=True)
                if cached.query != text:
                    # The entry was stored under an equivalent-but-differently-
                    # spelled query; echo the caller's own spelling back.
                    return replace(cached, query=text), True
                return cached, True

        with stage("pipeline") as span:
            result = pipeline.generate(
                text, year_cutoff=year_cutoff, exclude_ids=exclude_ids
            )
            span.tag(pipeline_seconds=round(result.elapsed_seconds, 6))
        with stage("payload_assembly"):
            fault_point("payload_assembly")
            payload = self._payload(result)
            if key is not None:
                if self.cache is not None:
                    self.cache.put(key, payload, ttl_seconds=self.cache_ttl_seconds)
                if self.shared_cache is not None:
                    self._shared_cache_put(key, payload)
        self._observe(started, cached=False, pipeline_seconds=result.elapsed_seconds)
        return payload, False

    def _shared_cache_ttl(self) -> float:
        """TTL for shared-store writes: tenant override, else the L1's, else 5 min."""
        if self.cache_ttl_seconds is not None:
            return self.cache_ttl_seconds
        if self.cache is not None:
            return self.cache.ttl_seconds
        return _SHARED_CACHE_TTL_SECONDS

    def _shared_cache_get(self, key: QueryKey) -> PathPayload | None:
        """Best-effort shared-store lookup; any failure is just a miss."""
        try:
            blob = self.shared_cache.get(self.cache_namespace, wire_cache_key(key))
            if blob is None:
                return None
            return payload_from_wire(blob)
        except Exception:  # noqa: BLE001 - degraded store must not fail queries
            return None

    def _shared_cache_put(self, key: QueryKey, payload: PathPayload) -> None:
        """Best-effort shared-store write; a failed put only costs warmth."""
        try:
            self.shared_cache.put(
                self.cache_namespace,
                wire_cache_key(key),
                payload_to_wire(payload),
                ttl_seconds=self._shared_cache_ttl(),
            )
        except Exception:  # noqa: BLE001 - degraded store must not fail queries
            pass

    def stale_payload(
        self,
        text: str,
        year_cutoff: int | None = None,
        exclude_ids: Sequence[str] = (),
        variant: str | None = None,
    ) -> PathPayload | None:
        """The last cached payload for this exact query, fresh *or* stale.

        Backs graceful degradation: when a solve fails, the application layer
        asks for whatever answer this query last produced within the cache's
        ``stale_grace_seconds`` window.  Returns ``None`` when the service has
        no cache or the entry is gone for good.
        """
        if self.cache is None:
            return None
        key = make_query_key(
            text,
            year_cutoff,
            exclude_ids,
            self.pipeline_for(variant).config_fingerprint,
            namespace=self.cache_namespace,
        )
        payload = self.cache.get_stale(key)
        if payload is not None and payload.query != text:
            payload = replace(payload, query=text)
        return payload

    def readiness(self) -> dict[str, Any]:
        """Which shared per-corpus artifacts are already built.

        Replicas gate per-tenant readiness on these flags: a tenant whose
        warm-up has not run yet answers its first queries at cold-start
        latency, so ``/v1/corpora/<name>/healthz`` surfaces them.
        """
        built = self.pipeline.weight_builder.readiness()
        search_index_built = False
        if isinstance(self.search_engine, SearchEngine):
            search_index_built = self.search_engine.index_built
        return {
            "node_weights_ready": built["node_weights_ready"],
            "graph_snapshot_ready": built["graph_snapshot_ready"],
            "search_index_ready": search_index_built,
            "edge_relevance_ready": built["edge_relevance_ready"],
        }

    def _observe(
        self,
        started: float,
        cached: bool,
        pipeline_seconds: float | None = None,
    ) -> None:
        if self.metrics is None:
            return
        self.metrics.increment("queries_total")
        self.metrics.increment("cache_hits_total" if cached else "cache_misses_total")
        self.metrics.observe("serve_seconds", time.perf_counter() - started)
        if pipeline_seconds is not None:
            self.metrics.observe("pipeline_seconds", pipeline_seconds)

    def paper_details(self, paper_id: str) -> dict[str, Any]:
        """Detail record for a clicked paper (component (d) of Fig. 7)."""
        paper = self.store.get_paper(paper_id)
        return {
            "paper_id": paper.paper_id,
            "title": paper.title,
            "abstract": paper.abstract,
            "year": paper.year,
            "venue": paper.venue,
            "citation_count": paper.citation_count,
            "is_survey": paper.is_survey,
            "references": list(paper.outbound_citations),
        }

    def render_text(self, payload: PathPayload, as_tree: bool = True) -> str:
        """Human-readable rendering of a payload (ASCII tree or flat list)."""
        if as_tree:
            return render_ascii_tree(payload.reading_path, self.store)
        return render_flat_list(payload.reading_path, self.store)

    # -- payload assembly -------------------------------------------------------------------

    def _payload(self, result: PipelineResult) -> PathPayload:
        path = result.reading_path
        tree_papers = set(result.tree.nodes) if result.tree is not None else set(path.papers)

        navigation = []
        for paper_id in path.topological_order():
            if paper_id not in tree_papers:
                continue
            paper = self.store.get_paper(paper_id)
            navigation.append(
                {"paper_id": paper_id, "title": paper.title, "year": paper.year,
                 "venue": paper.venue}
            )

        weights = path.node_weights
        tree_weights = [weights.get(pid, 0.0) for pid in path.papers if pid in tree_papers]
        max_weight = max(tree_weights, default=1.0) or 1.0
        terminal_set = set(result.terminals)
        nodes = []
        for paper_id in path.papers:
            if paper_id not in tree_papers:
                continue
            paper = self.store.get_paper(paper_id)
            nodes.append(
                {
                    "paper_id": paper_id,
                    "title": paper.title,
                    "year": paper.year,
                    "importance": weights.get(paper_id, 0.0) / max_weight,
                    "is_seed": paper_id in terminal_set,
                }
            )

        max_edge = max((edge.weight for edge in path.edges), default=1.0) or 1.0
        edges = [
            {
                "source": edge.source,
                "target": edge.target,
                "relevance": edge.weight / max_edge,
            }
            for edge in path.edges
        ]

        stats = {
            "num_initial_seeds": len(result.initial_seeds),
            "num_reallocated_seeds": len(result.reallocated_seeds),
            "num_terminals": len(result.terminals),
            "subgraph_nodes": result.subgraph_nodes,
            "subgraph_edges": result.subgraph_edges,
            "tree_size": len(tree_papers),
            "elapsed_seconds": result.elapsed_seconds,
        }
        return PathPayload(
            query=result.query,
            reading_path=path,
            navigation=tuple(navigation),
            nodes=tuple(nodes),
            edges=tuple(edges),
            stats=stats,
        )
