"""Artifact warm-up: precompute shared per-corpus state before serving.

The expensive parts of answering a query are split between *per-corpus*
artifacts (the PageRank pass behind Eq. 3 node weights, venue scores, the
citation-graph adjacency, the inverted search index, the edge-relevance map,
the Steiner solve's cost arrays) and *per-query* work (subgraph expansion,
seed reallocation, the Steiner tree).  The per-corpus artifacts are computed
lazily by the pipeline's :class:`~repro.core.weights.WeightedGraphBuilder`
and the search engine, which means the first query of a fresh process pays
for all of them.

:func:`warm_up` forces that computation eagerly so first-query latency
collapses to per-query work only, and :class:`ArtifactSnapshot` makes the
artifacts serialisable: a snapshot captured once can be shipped to every
serving replica and restored in milliseconds instead of re-running PageRank,
re-tokenising the corpus for the search index, or re-intersecting predecessor
lists for the edge-relevance map.  Snapshots embed the pipeline-configuration
fingerprint and refuse to restore into a pipeline with drifted configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..errors import ServingError, SnapshotCorruptError, SnapshotMismatchError
from ..resilience.faults import fault_point
from ..search.engine import SearchEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..repager.app import CorpusRegistry
    from ..repager.service import RePaGerService

__all__ = [
    "ArtifactSnapshot",
    "WarmupReport",
    "atomic_write_text",
    "capture_snapshot",
    "load_snapshots",
    "warm_up",
    "warm_up_registry",
]


def _corrupt_file(path: "Path") -> None:
    """Damage a snapshot file in place (the ``corrupt`` fault action).

    Truncates the file to half its size — the exact shape of a torn write —
    so the checksum/parse machinery downstream is exercised realistically.
    """
    try:
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    except OSError:
        pass

#: The only document version :meth:`ArtifactSnapshot.load` accepts.  It
#: carries a content checksum verified on load (torn or tampered files are
#: quarantined instead of restoring garbage artifacts); older versions were
#: captured under pipeline fingerprints no current configuration produces.
_SNAPSHOT_VERSION = 3


def atomic_write_text(path: str | Path, text: str) -> None:
    """Crash-safe file write: unique tmp file + fsync + atomic rename.

    A process killed mid-write leaves (at worst) an orphaned
    ``<name>.tmp.*`` file; the destination path only ever holds either its
    previous content or the complete new content, never a truncated hybrid.
    The tmp name comes from :func:`tempfile.mkstemp` so it is unique per
    *call*, not per process — two threads saving the same snapshot path
    concurrently each write their own tmp file and the later ``os.replace``
    wins whole, instead of interleaving into one shared tmp.  The
    ``snapshot_write`` fault point sits between the tmp write and the
    rename — exactly where a kill-mid-capture would land.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=f"{target.name}.tmp.")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        fault_point("snapshot_write")
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _quarantine(path: Path) -> str | None:
    """Move a corrupt snapshot aside to ``<path>.corrupt`` (best effort).

    Returns the quarantine path, or ``None`` when the move itself failed —
    quarantining is a courtesy to the *next* attach, never a second error on
    top of the corruption.
    """
    destination = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, destination)
    except OSError:
        return None
    return str(destination)


@dataclass(frozen=True, slots=True)
class WarmupReport:
    """What one warm-up pass computed and how long it took."""

    config_fingerprint: str
    elapsed_seconds: float
    num_papers: int
    graph_nodes: int
    graph_edges: int
    pagerank_entries: int
    venue_entries: int
    from_snapshot: bool
    search_index_terms: int = 0
    edge_relevance_entries: int = 0

    def to_dict(self) -> dict[str, object]:
        return {
            "config_fingerprint": self.config_fingerprint,
            "elapsed_seconds": self.elapsed_seconds,
            "num_papers": self.num_papers,
            "graph_nodes": self.graph_nodes,
            "graph_edges": self.graph_edges,
            "pagerank_entries": self.pagerank_entries,
            "venue_entries": self.venue_entries,
            "from_snapshot": self.from_snapshot,
            "search_index_terms": self.search_index_terms,
            "edge_relevance_entries": self.edge_relevance_entries,
        }


@dataclass(frozen=True, slots=True)
class ArtifactSnapshot:
    """Serialisable per-corpus artifacts keyed by configuration fingerprint.

    ``search_index`` is ``None`` when the service searches through something
    other than a local :class:`~repro.search.engine.SearchEngine`.
    """

    config_fingerprint: str
    pagerank_scores: dict[str, float]
    venue_scores: dict[str, float]
    graph_nodes: int
    graph_edges: int
    search_index: dict[str, object] | None = None
    edge_relevance: dict[tuple[str, str], float] = field(default_factory=dict)

    @classmethod
    def capture(cls, service: "RePaGerService") -> "ArtifactSnapshot":
        """Capture the shared artifacts of a (warmed or cold) service."""
        weights = service.pipeline.node_weights
        search_index = None
        if isinstance(service.search_engine, SearchEngine):
            search_index = service.search_engine.export_index_state()
        return cls(
            config_fingerprint=service.pipeline.config_fingerprint,
            pagerank_scores=dict(weights.pagerank_scores),
            venue_scores=dict(weights.venue_scores),
            graph_nodes=service.graph.num_nodes,
            graph_edges=service.graph.num_edges,
            search_index=search_index,
            edge_relevance=dict(service.pipeline.weight_builder.edge_relevance()),
        )

    def restore_into(self, service: "RePaGerService") -> None:
        """Install the snapshot's artifacts into a service's weight builder.

        Raises:
            SnapshotMismatchError: If the snapshot was captured under a
                different pipeline configuration (fingerprint drift).
        """
        expected = service.pipeline.config_fingerprint
        if expected != self.config_fingerprint:
            raise SnapshotMismatchError(expected, self.config_fingerprint)
        if (
            self.graph_nodes != service.graph.num_nodes
            or self.graph_edges != service.graph.num_edges
        ):
            # The fingerprint only covers configuration; a snapshot from a
            # different corpus would restore maps whose keys don't exist here
            # and surface later as inexplicable KeyErrors on the hot path.
            raise ServingError(
                f"artifact snapshot was captured on a different corpus: "
                f"snapshot graph is {self.graph_nodes} nodes / "
                f"{self.graph_edges} edges, service graph is "
                f"{service.graph.num_nodes} nodes / {service.graph.num_edges} edges"
            )
        service.pipeline.weight_builder.restore(
            dict(self.pagerank_scores), dict(self.venue_scores), self.edge_relevance
        )
        if self.search_index is not None and isinstance(
            service.search_engine, SearchEngine
        ):
            service.search_engine.prime_index(self.search_index)

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the snapshot as a single JSON document, crash-safely.

        The document embeds a SHA-256 checksum of its artifact payload; the
        write itself goes through :func:`atomic_write_text`, so a crash at
        any instant leaves the destination either absent, fully old or fully
        new — never truncated.
        """
        fault_point("snapshot_capture")
        payload = {
            "config_fingerprint": self.config_fingerprint,
            "pagerank_scores": self.pagerank_scores,
            "venue_scores": self.venue_scores,
            "graph_nodes": self.graph_nodes,
            "graph_edges": self.graph_edges,
            "search_index": self.search_index,
            # JSON has no tuple keys; flatten to [u, v, relevance] rows.
            "edge_relevance": [
                [u, v, value] for (u, v), value in self.edge_relevance.items()
            ],
        }
        body = json.dumps(payload, sort_keys=True)
        document = dict(payload)
        document["version"] = _SNAPSHOT_VERSION
        document["checksum"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
        text = json.dumps(document, sort_keys=True)
        atomic_write_text(path, text)

    @classmethod
    def load(cls, path: str | Path, quarantine: bool = True) -> "ArtifactSnapshot":
        """Load a snapshot previously written by :meth:`save`.

        The document is verified against its embedded checksum; a torn or
        tampered file is moved aside to ``<path>.corrupt`` (unless
        ``quarantine`` is False) and reported as
        :class:`~repro.errors.SnapshotCorruptError` — callers degrade to a
        cold build instead of restoring garbage artifacts or tripping over
        the same bytes on the next attach.
        """
        target = Path(path)
        if fault_point("snapshot_load") == "corrupt":
            _corrupt_file(target)
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as exc:
            raise ServingError(
                f"cannot load artifact snapshot from {path}: {exc}"
            ) from exc
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("snapshot document is not a JSON object")
            version = payload.get("version")
            if version != _SNAPSHOT_VERSION:
                raise ServingError(
                    f"unsupported artifact snapshot version {version!r}"
                )
            recorded = payload.pop("checksum", None)
            body_fields = {
                key: value for key, value in payload.items() if key != "version"
            }
            body = json.dumps(body_fields, sort_keys=True)
            actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
            if recorded != actual:
                raise ValueError(
                    f"checksum mismatch (recorded {recorded!r}, "
                    f"computed {actual!r})"
                )
            return cls(
                config_fingerprint=payload["config_fingerprint"],
                pagerank_scores={
                    k: float(v) for k, v in payload["pagerank_scores"].items()
                },
                venue_scores={
                    k: float(v) for k, v in payload["venue_scores"].items()
                },
                graph_nodes=int(payload["graph_nodes"]),
                graph_edges=int(payload["graph_edges"]),
                search_index=payload["search_index"],
                edge_relevance={
                    (str(u), str(v)): float(value)
                    for u, v, value in payload["edge_relevance"]
                },
            )
        except ServingError:
            raise
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            error = SnapshotCorruptError(str(path), str(exc))
            if quarantine:
                error.quarantine_path = _quarantine(target)
            raise error from exc


def capture_snapshot(service: "RePaGerService", path: str | Path) -> ArtifactSnapshot:
    """Capture a service's shared artifacts and persist them in one step.

    This is the evict half of the tenant-eviction round trip: the registry
    snapshots a cold tenant to disk before dropping it, and the next request
    re-attaches from the recorded path without re-running PageRank or
    re-tokenising the corpus.
    """
    snapshot = ArtifactSnapshot.capture(service)
    snapshot.save(path)
    return snapshot


def warm_up(
    service: "RePaGerService",
    snapshot: "ArtifactSnapshot | str | Path | None" = None,
) -> WarmupReport:
    """Precompute (or restore) every shared per-corpus artifact of a service.

    This covers the CSR graph snapshot, Eq. 3 node weights (PageRank + venue
    scores), the inverted search index, the edge-relevance map and the
    Steiner solve's cost arrays bound over the snapshot.  After this returns,
    concurrent queries only ever *read* the shared state, which is what makes
    the batch executor's thread pool safe without locks on the hot path.

    ``snapshot`` may be a ready :class:`ArtifactSnapshot` or a filesystem
    path to one (the ``/v1`` warm-attach body and the eviction re-attach path
    both record paths).
    """
    started = time.perf_counter()
    if isinstance(snapshot, (str, Path)):
        snapshot = ArtifactSnapshot.load(snapshot)
    if snapshot is not None:
        snapshot.restore_into(service)
    pipeline = service.pipeline
    # Build the per-corpus CSR snapshot eagerly: it backs the PageRank pass
    # below, the edge-relevance precomputation, the cost arrays and every
    # query's candidate mask.
    pipeline.indexed_graph
    edge_relevance_entries = len(pipeline.weight_builder.edge_relevance())
    search_index_terms = 0
    if isinstance(service.search_engine, SearchEngine):
        search_index_terms = service.search_engine.ensure_index().num_terms
    weights = pipeline.node_weights  # forces PageRank + venue scores
    pipeline.solve_costs  # binds the solve's costs over the snapshot
    elapsed = time.perf_counter() - started
    return WarmupReport(
        config_fingerprint=pipeline.config_fingerprint,
        elapsed_seconds=elapsed,
        num_papers=len(service.store),
        graph_nodes=service.graph.num_nodes,
        graph_edges=service.graph.num_edges,
        pagerank_entries=len(weights.pagerank_scores),
        venue_entries=len(weights.venue_scores),
        from_snapshot=snapshot is not None,
        search_index_terms=search_index_terms,
        edge_relevance_entries=edge_relevance_entries,
    )


def warm_up_registry(
    registry: "CorpusRegistry",
    snapshots: Mapping[str, ArtifactSnapshot] | None = None,
) -> dict[str, "WarmupReport"]:
    """Warm every tenant of a corpus registry, one report per tenant.

    ``snapshots`` optionally maps tenant names to pre-captured
    :class:`ArtifactSnapshot` objects; tenants without an entry warm up by
    computing their artifacts from scratch.
    """
    reports: dict[str, WarmupReport] = {}
    for name, tenant in registry.items():
        snapshot = snapshots.get(name) if snapshots else None
        reports[name] = warm_up(tenant.service, snapshot=snapshot)
    return reports


def load_snapshots(paths: Mapping[str, str | Path]) -> dict[str, ArtifactSnapshot]:
    """Load a ``{tenant name: snapshot path}`` mapping from disk."""
    return {name: ArtifactSnapshot.load(path) for name, path in paths.items()}
