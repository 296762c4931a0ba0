"""Command-line interface for the RePaGer reproduction.

Seven subcommands cover the typical workflow::

    repager generate-corpus --output data/corpus          # build the synthetic corpus
    repager build-surveybank --corpus data/corpus -o data/surveybank.jsonl
    repager query "pretrained language models" --corpus data/corpus
    repager serve --corpus data/corpus --port 8080        # HTTP JSON API
    repager snapshot --corpus data/corpus -o data/corpus.snap   # warm artifacts
    repager route --replica http://127.0.0.1:8081 ...     # cluster router
    repager tail events.jsonl --follow                    # follow the event log

``serve`` is multi-tenant: repeat ``--corpus NAME=DIR`` to host several
corpora in one process behind the versioned ``/v1`` HTTP API, and pick the
tenant the legacy single-corpus routes alias onto with ``--default-corpus``::

    repager serve --corpus cs=data/cs --corpus bio=data/bio --default-corpus cs

``route`` scales that horizontally: it fronts N ``serve --empty`` replicas,
places each corpus on a replica with a deterministic consistent-hash ring,
re-places corpora from dead replicas onto survivors (warm, from ``repager
snapshot`` files), and proxies the same ``/v1`` surface::

    repager route --port 8080 \\
        --replica http://127.0.0.1:8081 --replica http://127.0.0.1:8082 \\
        --corpus cs=data/cs --snapshot cs=data/cs.snap

``route --drain URL`` is the matching client mode: it asks the router
already listening on ``--host``/``--port`` to drain one replica — re-place
its corpora on ring successors warm, then remove it — and prints the
JSON report of what moved where.

``query`` and ``serve`` can also run directly on a freshly generated corpus
(omit ``--corpus``), which is the quickest way to see a reading path or to
poke the API with curl.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..config import (
    CorpusConfig,
    ObsConfig,
    PipelineConfig,
    ServingConfig,
    TenantOverrides,
    TenantQuota,
)
from ..cluster.router import CorpusSpec, RouterApp, create_router_server
from ..errors import ConfigurationError, ReplicaUnavailableError
from ..obs.events import EVENT_TYPES, EventLog, read_event_records
from ..corpus.generator import CorpusGenerator
from ..corpus.storage import CorpusStore
from ..dataset.surveybank import SurveyBank
from ..repager.app import RePaGerApp
from ..repager.service import RePaGerService
from ..serving.http_api import create_server
from ..serving.warmup import (
    capture_snapshot,
    load_snapshots,
    warm_up,
    warm_up_registry,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Create the argument parser for the ``repager`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repager",
        description="Reading Path Generation (RePaGer/NEWST) reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate-corpus", help="generate the synthetic scholarly corpus"
    )
    generate.add_argument("--output", "-o", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=7, help="random seed")
    generate.add_argument(
        "--papers-per-topic", type=int, default=60, help="papers generated per topic"
    )
    generate.add_argument(
        "--surveys-per-topic", type=int, default=3, help="surveys generated per topic"
    )

    bank = subparsers.add_parser(
        "build-surveybank", help="build the SurveyBank benchmark from a corpus"
    )
    bank.add_argument("--corpus", required=True, help="corpus directory")
    bank.add_argument("--output", "-o", required=True, help="output JSONL file")
    bank.add_argument(
        "--min-references", type=int, default=20, help="minimum references per survey"
    )

    query = subparsers.add_parser("query", help="generate a reading path for a query")
    query.add_argument("text", help="query key phrases")
    query.add_argument("--corpus", help="corpus directory (generated on the fly if omitted)")
    query.add_argument("--seeds", type=int, default=30, help="number of initial seed papers")
    query.add_argument("--json", action="store_true", help="emit the UI JSON payload")
    query.add_argument("--flat", action="store_true", help="print a flat list instead of a tree")

    serve = subparsers.add_parser(
        "serve", help="serve reading paths over a dependency-free HTTP JSON API"
    )
    serve.add_argument(
        "--corpus", action="append", metavar="[NAME=]DIR",
        help="corpus to serve; repeatable for multi-tenant serving "
             "(NAME=DIR attaches DIR as tenant NAME; a bare DIR uses the "
             "default tenant name; omitted entirely = one synthetic corpus)",
    )
    serve.add_argument(
        "--default-corpus", default="default", metavar="NAME",
        help="tenant the legacy single-corpus routes alias onto",
    )
    serve.add_argument(
        "--snapshot", action="append", metavar="NAME=PATH",
        help="warm tenant NAME from an ArtifactSnapshot file instead of "
             "recomputing its artifacts; repeatable (the path is also "
             "recorded for the eviction/re-attach round trip)",
    )
    serve.add_argument(
        "--quota", action="append", metavar="NAME=IN_FLIGHT[:QUEUED[:RATE[:BURST]]]",
        help="per-tenant admission quota: max in-flight requests, waiting "
             "slots beyond them, an optional token-bucket rate (requests/s) "
             "and burst; empty segments inherit 'unlimited'; repeatable",
    )
    serve.add_argument(
        "--weight", action="append", metavar="NAME=W",
        help="per-tenant fair-share weight (integer >= 1, default 1) in the "
             "deficit-round-robin scheduler: a weight-W tenant is dispatched "
             "W queued requests per round for each request of a weight-1 "
             "tenant; repeatable",
    )
    serve.add_argument(
        "--max-resident", type=int, default=None, metavar="N",
        help="resident-corpus limit for lazy eviction: beyond N attached "
             "corpora the least recently used one is snapshotted to disk and "
             "transparently re-attached on its next request",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    serve.add_argument("--seeds", type=int, default=30, help="number of initial seed papers")
    serve.add_argument("--workers", type=int, default=4, help="executor worker threads")
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="queries allowed to wait beyond the workers before 429s",
    )
    serve.add_argument("--cache-size", type=int, default=256, help="query-cache entries")
    serve.add_argument(
        "--cache-ttl", type=float, default=300.0, help="query-cache TTL in seconds"
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0, help="per-query timeout in seconds"
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=1 << 20,
        help="request-body size cap; larger bodies are rejected with 413",
    )
    serve.add_argument(
        "--event-log", default=None, metavar="PATH",
        help="append structured lifecycle events (attach/detach/evict/"
             "re-attach/quota-reject) as JSONL to PATH; follow with "
             "'repager tail PATH -f'",
    )
    serve.add_argument(
        "--slow-trace", type=float, default=2.0, metavar="SECONDS",
        help="queries slower than this keep their full span tree in the "
             "slow-trace buffer behind GET /v1/traces",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="fraction of ok-and-fast query traces kept in the recent buffer "
             "(0..1; slow and failed traces are always kept)",
    )
    serve.add_argument(
        "--stale-grace", type=float, default=0.0, metavar="SECONDS",
        help="serve expired cache entries (marked 'degraded') for this long "
             "after a solve failure instead of erroring (0 = disabled)",
    )
    serve.add_argument(
        "--retry-attempts", type=int, default=1, metavar="N",
        help="in-worker retries of a retryable solve failure (0 = no retries, "
             "total attempts = N + 1), with jittered exponential backoff",
    )
    serve.add_argument(
        "--circuit-threshold", type=int, default=5, metavar="K",
        help="consecutive solve failures that open a tenant's circuit "
             "breaker (fast 503 + Retry-After); 0 disables the breaker",
    )
    serve.add_argument(
        "--circuit-reset", type=float, default=30.0, metavar="SECONDS",
        help="circuit-breaker cooldown before a half-open probe is allowed",
    )
    serve.add_argument(
        "--hang-threshold", type=float, default=None, metavar="SECONDS",
        help="worker watchdog: replace a worker stuck on one query longer "
             "than this, failing the query with 503 (default: disabled)",
    )
    serve.add_argument(
        "--fault", action="append", metavar="STAGE=ACTION[:ARG[:TRIGGER]]",
        help="arm a fault-injection rule at start-up (repeatable; implies "
             "--allow-faults).  ACTION is fail/delay/corrupt; TRIGGER is a "
             "probability or @N for the N-th call, e.g. steiner_solve=fail:0.1",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="seed for probabilistic fault triggers (reproducible chaos runs)",
    )
    serve.add_argument(
        "--allow-faults", action="store_true",
        help="expose the test-only GET/POST/DELETE /v1/faults surface "
             "(otherwise those routes 404)",
    )
    serve.add_argument(
        "--trace-persist", default=None, metavar="PATH",
        help="persist the slow-trace buffer to PATH (JSONL) on shutdown and "
             "reload it on startup, so post-incident slow traces survive a "
             "restart",
    )
    serve.add_argument(
        "--quota-state", default=None, metavar="PATH",
        help="durable token-bucket state: a sqlite file (WAL) holding one "
             "row per tenant, so 429 rate decisions survive restarts and "
             "replicas sharing the file agree on admission",
    )
    serve.add_argument(
        "--cache-state", default=None, metavar="PATH",
        help="shared result cache: a sqlite file (WAL) holding canonical-key "
             "-> payload rows with TTL, so a corpus re-placed on another "
             "replica after failover serves repeated queries warm",
    )
    serve.add_argument(
        "--empty", action="store_true",
        help="start with zero corpora attached (a cluster replica: the "
             "router attaches corpora at runtime via POST /v1/corpora)",
    )

    snapshot = subparsers.add_parser(
        "snapshot", help="warm a corpus and record its ArtifactSnapshot file"
    )
    snapshot.add_argument("--corpus", required=True, help="corpus directory")
    snapshot.add_argument(
        "--output", "-o", required=True, help="snapshot output path"
    )
    snapshot.add_argument(
        "--seeds", type=int, default=30, help="number of initial seed papers"
    )

    route = subparsers.add_parser(
        "route",
        help="front N serve replicas: consistent-hash corpus placement, "
             "health-checked failover, one proxied /v1 surface",
    )
    route.add_argument(
        "--replica", action="append", metavar="URL",
        help="base URL of a 'repager serve --empty' replica; repeatable "
             "(required unless --drain)",
    )
    route.add_argument(
        "--corpus", action="append", metavar="NAME=DIR",
        help="corpus to place on the fleet; repeatable "
             "(required unless --drain)",
    )
    route.add_argument(
        "--drain", default=None, metavar="URL",
        help="client mode: ask the router already listening on --host/--port "
             "to drain replica URL (re-place its corpora on ring successors, "
             "then remove it) and print the JSON report",
    )
    route.add_argument(
        "--snapshot", action="append", metavar="NAME=PATH",
        help="ArtifactSnapshot file for corpus NAME ('repager snapshot'); "
             "replicas attach warm from it on placement and failover",
    )
    route.add_argument(
        "--default-corpus", default=None, metavar="NAME",
        help="corpus the legacy single-corpus routes alias onto "
             "(default: first corpus name)",
    )
    route.add_argument("--host", default="127.0.0.1", help="bind address")
    route.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    route.add_argument(
        "--probe-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between active replica /healthz probe rounds",
    )
    route.add_argument(
        "--failure-threshold", type=int, default=2, metavar="K",
        help="consecutive probe/proxy failures that mark a replica down "
             "(its corpora re-place onto survivors)",
    )
    route.add_argument(
        "--reset-seconds", type=float, default=5.0, metavar="SECONDS",
        help="cooldown before a down replica gets a half-open probe",
    )
    route.add_argument(
        "--ring-seed", type=int, default=0,
        help="consistent-hash ring seed (placement is a pure function of "
             "seed + replica set)",
    )
    route.add_argument(
        "--vnodes", type=int, default=128,
        help="virtual nodes per replica on the ring",
    )
    route.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request proxy socket timeout",
    )
    route.add_argument(
        "--event-log", default=None, metavar="PATH",
        help="append replica_up/replica_down/corpus_replaced/"
             "replica_draining/replica_drained events as JSONL to PATH",
    )

    tail = subparsers.add_parser(
        "tail", help="print (and optionally follow) a serve --event-log JSONL file"
    )
    tail.add_argument("path", help="event-log file written by 'repager serve --event-log'")
    tail.add_argument(
        "--lines", "-n", type=int, default=20,
        help="number of historical events to print before following",
    )
    tail.add_argument(
        "--follow", "-f", action="store_true",
        help="keep the file open and stream newly appended events",
    )
    tail.add_argument(
        "--event", choices=EVENT_TYPES, default=None,
        help="only show events of this type",
    )
    tail.add_argument("--corpus", default=None, help="only show events of this corpus")
    tail.add_argument(
        "--interval", type=float, default=0.5,
        help="poll interval in seconds while following",
    )

    return parser


def _load_or_generate_store(corpus_dir: str | None, seed: int = 7) -> CorpusStore:
    if corpus_dir:
        return CorpusStore.load(corpus_dir)
    return CorpusGenerator(CorpusConfig(seed=seed)).generate().store


def _cmd_generate_corpus(args: argparse.Namespace) -> int:
    config = CorpusConfig(
        seed=args.seed,
        papers_per_topic=args.papers_per_topic,
        surveys_per_topic=args.surveys_per_topic,
    )
    corpus = CorpusGenerator(config).generate()
    corpus.store.save(args.output)
    print(
        f"generated {corpus.num_papers} papers ({corpus.num_surveys} surveys) "
        f"into {Path(args.output).resolve()}"
    )
    return 0


def _cmd_build_surveybank(args: argparse.Namespace) -> int:
    store = CorpusStore.load(args.corpus)
    bank = SurveyBank.from_corpus(store).filter(min_references=args.min_references)
    bank.save(args.output)
    print(f"wrote {len(bank)} SurveyBank instances to {Path(args.output).resolve()}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    store = _load_or_generate_store(args.corpus)
    service = RePaGerService(
        store, pipeline_config=PipelineConfig(num_seeds=args.seeds)
    )
    payload = service.query(args.text)
    if args.json:
        print(json.dumps(payload.to_dict(), indent=2))
    else:
        print(service.render_text(payload, as_tree=not args.flat))
        stats = payload.stats
        print(
            f"\n[{stats['num_terminals']} terminals, tree of {stats['tree_size']} papers, "
            f"{stats['subgraph_nodes']} candidate nodes, "
            f"{stats['elapsed_seconds']:.2f}s]"
        )
    return 0


def _parse_named_values(
    values: list[str] | None, option: str, default_name: str
) -> dict[str, str]:
    """Parse repeatable ``NAME=VALUE`` options (bare values take ``default_name``)."""
    named: dict[str, str] = {}
    for value in values or []:
        name, sep, rest = value.partition("=")
        if not sep:
            name, rest = default_name, value
        if not name or not rest:
            raise SystemExit(f"{option} expects NAME=VALUE, got {value!r}")
        if name in named:
            raise SystemExit(f"{option} names {name!r} twice")
        named[name] = rest
    return named


def _parse_quota_spec(spec: str, name: str) -> TenantQuota:
    """Parse ``IN_FLIGHT[:QUEUED[:RATE[:BURST]]]`` (empty segment = unlimited)."""
    parts = spec.split(":")
    if len(parts) > 4:
        raise SystemExit(
            f"--quota {name}={spec!r}: expected IN_FLIGHT[:QUEUED[:RATE[:BURST]]]"
        )
    try:
        max_in_flight = int(parts[0]) if parts[0] else None
        max_queued = int(parts[1]) if len(parts) > 1 and parts[1] else None
        rate = float(parts[2]) if len(parts) > 2 and parts[2] else None
        burst = int(parts[3]) if len(parts) > 3 and parts[3] else 1
        return TenantQuota(
            max_in_flight=max_in_flight,
            max_queued=max_queued,
            rate_per_second=rate,
            burst=burst,
        )
    except (ValueError, ConfigurationError) as exc:
        raise SystemExit(f"--quota {name}={spec!r}: {exc}") from None


def _parse_weight(spec: str, name: str) -> int:
    """Parse a ``--weight`` value: an integer scheduling weight >= 1."""
    try:
        weight = int(spec)
    except ValueError:
        raise SystemExit(
            f"--weight {name}={spec!r}: expected an integer >= 1"
        ) from None
    if weight < 1:
        raise SystemExit(f"--weight {name}={spec!r}: weight must be >= 1")
    return weight


def _cmd_tail(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists() and not args.follow:
        raise SystemExit(f"event log {path} does not exist (use --follow to wait for it)")

    def matches(record: dict) -> bool:
        if args.event and record.get("event") != args.event:
            return False
        if args.corpus and record.get("corpus") != args.corpus:
            return False
        return True

    offset = 0
    if path.exists():
        selected = [record for record in read_event_records(path) if matches(record)]
        for record in selected[-args.lines:] if args.lines > 0 else []:
            print(json.dumps(record), flush=True)
        offset = path.stat().st_size
    if not args.follow:
        return 0
    try:
        while True:
            if path.exists():
                size = path.stat().st_size
                if size < offset:
                    offset = 0  # truncated or rotated: start from the top
                if size > offset:
                    with path.open("rb") as handle:
                        handle.seek(offset)
                        chunk = handle.read()
                    # Only consume complete lines; a writer may be mid-append.
                    cut = chunk.rfind(b"\n")
                    if cut >= 0:
                        consumed = chunk[: cut + 1]
                        offset += len(consumed)
                        for line in consumed.decode("utf-8", "replace").splitlines():
                            line = line.strip()
                            if not line:
                                continue
                            try:
                                record = json.loads(line)
                            except json.JSONDecodeError:
                                continue
                            if isinstance(record, dict) and matches(record):
                                print(json.dumps(record), flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    serving_config = ServingConfig(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        queue_depth=args.queue_depth,
        cache_max_entries=args.cache_size,
        cache_ttl_seconds=args.cache_ttl,
        query_timeout_seconds=args.timeout,
        max_body_bytes=args.max_body_bytes,
        default_corpus=args.default_corpus,
        max_resident_corpora=args.max_resident,
        stale_grace_seconds=args.stale_grace,
        retry_attempts=args.retry_attempts,
        circuit_failure_threshold=args.circuit_threshold or None,
        circuit_reset_seconds=args.circuit_reset,
        worker_hang_seconds=args.hang_threshold,
        fault_plan=tuple(args.fault or ()),
        fault_seed=args.fault_seed,
        allow_fault_injection=bool(args.allow_faults or args.fault),
        quota_state_path=args.quota_state,
        cache_state_path=args.cache_state,
        obs=ObsConfig(
            event_log_path=args.event_log,
            slow_trace_seconds=args.slow_trace,
            trace_sample_rate=args.trace_sample,
            slow_trace_persist_path=args.trace_persist,
        ),
    )
    pipeline_config = PipelineConfig(num_seeds=args.seeds)
    corpora = _parse_named_values(args.corpus, "--corpus", args.default_corpus)
    snapshot_paths = _parse_named_values(args.snapshot, "--snapshot", args.default_corpus)
    quota_specs = _parse_named_values(args.quota, "--quota", args.default_corpus)
    weight_specs = _parse_named_values(args.weight, "--weight", args.default_corpus)
    attached_names = set(corpora) if corpora else {args.default_corpus}
    for option, named in (
        ("--snapshot", snapshot_paths),
        ("--quota", quota_specs),
        ("--weight", weight_specs),
    ):
        unknown = sorted(set(named) - attached_names)
        if unknown:
            raise SystemExit(
                f"{option} names {unknown} do not match any attached "
                f"corpus {sorted(attached_names)}"
            )
    overrides_by_name = {
        name: TenantOverrides(
            quota=(
                _parse_quota_spec(quota_specs[name], name)
                if name in quota_specs
                else None
            ),
            weight=(
                _parse_weight(weight_specs[name], name)
                if name in weight_specs
                else 1
            ),
        )
        for name in set(quota_specs) | set(weight_specs)
    }

    app = RePaGerApp(config=serving_config, pipeline_config=pipeline_config)
    if args.empty:
        if corpora:
            raise SystemExit("--empty cannot be combined with --corpus")
        print(
            "starting empty (cluster replica mode): corpora attach at "
            "runtime via POST /v1/corpora",
            flush=True,
        )
    elif corpora:
        if args.default_corpus not in corpora:
            raise SystemExit(
                f"--default-corpus {args.default_corpus!r} is not among the "
                f"attached corpora {sorted(corpora)}"
            )
        for name, corpus_dir in corpora.items():
            tenant = app.attach_directory(
                name,
                corpus_dir,
                default=name == args.default_corpus,
                overrides=overrides_by_name.get(name),
                snapshot_path=snapshot_paths.get(name),
            )
            print(
                f"attached corpus {name!r} ({len(tenant.service.store)} papers) "
                f"from {Path(corpus_dir).resolve()}",
                flush=True,
            )
    else:
        store = _load_or_generate_store(None)
        app.attach_store(
            args.default_corpus,
            store,
            default=True,
            source="synthetic",
            overrides=overrides_by_name.get(args.default_corpus),
        )
        print(
            f"attached synthetic corpus {args.default_corpus!r} "
            f"({len(store)} papers)",
            flush=True,
        )

    # Startup eviction (more corpora than --max-resident) may have already
    # moved some tenants out of residence; only resident ones warm up, the
    # rest re-attach from their snapshots on first use.
    snapshots = load_snapshots(
        {n: p for n, p in snapshot_paths.items() if n in app.registry.names()}
    )
    for name, report in warm_up_registry(app.registry, snapshots=snapshots).items():
        print(
            f"warmed up {name!r}: {report.graph_nodes} nodes / "
            f"{report.graph_edges} edges in {report.elapsed_seconds:.2f}s"
            + (" (from snapshot)" if report.from_snapshot else ""),
            flush=True,
        )
    for name in sorted(app.registry.evicted_names()):
        print(f"corpus {name!r} evicted at startup (resident limit)", flush=True)

    server = create_server(app, config=serving_config)
    names = ", ".join(app.registry.names())
    print(
        f"serving corpora [{names}] on {server.url} "
        f"({serving_config.max_workers} workers, queue depth "
        f"{serving_config.queue_depth}, default corpus "
        f"{args.default_corpus!r}) — Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        app.close(wait=False)
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    store = CorpusStore.load(args.corpus)
    service = RePaGerService(
        store, pipeline_config=PipelineConfig(num_seeds=args.seeds)
    )
    report = warm_up(service)
    capture_snapshot(service, args.output)
    print(
        f"captured snapshot of {args.corpus} ({report.graph_nodes} nodes / "
        f"{report.graph_edges} edges, warmed in {report.elapsed_seconds:.2f}s) "
        f"to {Path(args.output).resolve()}"
    )
    return 0


def _drain_replica(args: argparse.Namespace) -> int:
    """Client mode: ask a running router to drain one replica."""
    import urllib.error
    import urllib.parse
    import urllib.request

    target = urllib.parse.quote(args.drain.rstrip("/"), safe="")
    url = f"http://{args.host}:{args.port}/v1/replicas/{target}"
    request = urllib.request.Request(url, method="DELETE")
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            report = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        raise SystemExit(f"drain failed ({exc.code}): {body}") from None
    except (OSError, urllib.error.URLError) as exc:
        raise SystemExit(
            f"cannot reach router at {args.host}:{args.port}: {exc}"
        ) from None
    moved = report.get("moved", {})
    print(
        f"drained {report.get('drained')!r}: moved "
        f"{len(moved)} corpora ({', '.join(sorted(moved)) or 'none'}); "
        f"{len(report.get('remaining_replicas', []))} replicas remain",
        flush=True,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    if args.drain is not None:
        return _drain_replica(args)
    if not args.replica:
        raise SystemExit("route requires at least one --replica (or --drain URL)")
    if not args.corpus:
        raise SystemExit("route requires at least one --corpus (or --drain URL)")
    corpora = _parse_named_values(args.corpus, "--corpus", "default")
    snapshot_paths = _parse_named_values(args.snapshot, "--snapshot", "default")
    unknown = sorted(set(snapshot_paths) - set(corpora))
    if unknown:
        raise SystemExit(
            f"--snapshot names {unknown} do not match any --corpus "
            f"{sorted(corpora)}"
        )
    if args.default_corpus is not None and args.default_corpus not in corpora:
        raise SystemExit(
            f"--default-corpus {args.default_corpus!r} is not among the "
            f"routed corpora {sorted(corpora)}"
        )
    specs = {
        name: CorpusSpec(name, corpus_dir, snapshot_paths.get(name))
        for name, corpus_dir in corpora.items()
    }
    events = EventLog(args.event_log) if args.event_log else None
    try:
        router = RouterApp(
            args.replica,
            specs,
            default_corpus=args.default_corpus,
            ring_seed=args.ring_seed,
            vnodes=args.vnodes,
            probe_interval=args.probe_interval,
            failure_threshold=args.failure_threshold,
            reset_seconds=args.reset_seconds,
            proxy_timeout=args.timeout,
            events=events,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        placement = router.bootstrap()
    except ReplicaUnavailableError as exc:
        raise SystemExit(f"bootstrap failed: {exc}") from None
    for name in sorted(placement):
        print(f"placed corpus {name!r} on {placement[name]}", flush=True)
    router.start_probes()
    server = create_router_server(router, host=args.host, port=args.port)
    print(
        f"routing corpora [{', '.join(sorted(corpora))}] over "
        f"{len(router.health)} replicas on {server.url} "
        f"(probe every {args.probe_interval:g}s) — Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.shutdown()
        server.server_close()
        router.close()
        if events is not None:
            events.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate-corpus": _cmd_generate_corpus,
        "build-surveybank": _cmd_build_surveybank,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "snapshot": _cmd_snapshot,
        "route": _cmd_route,
        "tail": _cmd_tail,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
