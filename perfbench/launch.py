"""Traced launcher: run one ``repager`` command with each layer's entry points timed.

    python3 perfbench/launch.py --spans OUT.jsonl -- serve --corpus ...

The launcher imports ``repro.repager.cli`` (timed as ``setup.import``), wraps
the public calls listed in :func:`install` so that every call appends one span
to an in-memory list, runs the command, and writes the spans as JSON lines to
OUT once the command returns (``serve`` and ``route`` return on SIGINT).
Nothing in the program is edited; the wrappers sit around its calls.

A span is ``{"k": kind, "r": request id, "t0", "t1": perf_counter seconds,
"th": thread id, "x": extras}``.  Spans are joined to a request by the
``X-Request-Id`` header the client sets (the router forwards it), across the
executor's thread hop by the ``QueryRequest`` object handed from
``BatchExecutor.run_one`` to ``RePaGerApp.handle_request``, and inside the
router by the thread running ``RouterApp.proxy``.
"""

from __future__ import annotations

import argparse
import functools
import http.client
import http.server
import json
import sys
import threading
import time
from typing import Any, Callable

_now = time.perf_counter
_spans: list[tuple[str, str | None, float, float, int, dict | None]] = []
_tls = threading.local()
#: ``id(QueryRequest) -> request id`` while the request crosses to a worker.
_pending: dict[int, str | None] = {}


def _record(kind: str, t0: float, extra: dict | None = None) -> None:
    _spans.append(
        (kind, getattr(_tls, "rid", None), t0, _now(), threading.get_ident(), extra)
    )


def _patch(owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.name`` by ``make(original)``; a classmethod stays one."""
    try:
        raw = vars(owner)[name]
    except KeyError:
        print(f"perfbench launcher: {owner.__name__}.{name} not found; not traced",
              file=sys.stderr)
        return
    if isinstance(raw, classmethod):
        setattr(owner, name, classmethod(make(raw.__func__)))
    else:
        setattr(owner, name, make(raw))


def _span(kind: str, hit: bool = False, in_generate: bool = False):
    """Wrapper factory: time each call as one ``kind`` span.

    ``hit`` records whether the call returned a value (cache lookups);
    ``in_generate`` records the call only inside ``RePaGerPipeline.generate``
    (warm-up runs some of the same kernels outside any query).
    """

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if in_generate and not getattr(_tls, "generate", 0):
                return fn(*args, **kwargs)
            t0 = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                _record(kind, t0, {"hit": result is not None} if hit else None)

        return wrapper

    return make


# -- HTTP front doors (replica and router handlers share the stdlib base) --------------


def _parse_request(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        # The request line has just been read: the request starts here, not
        # where handle_one_request began blocking on the keep-alive socket.
        self._perfbench_t0 = _now()
        ok = fn(self, *args, **kwargs)
        if ok:
            _tls.rid = self.headers.get("X-Request-Id")
        return ok

    return wrapper


def _handle_one_request(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        self._perfbench_t0 = None
        try:
            return fn(self, *args, **kwargs)
        finally:
            t0 = self._perfbench_t0
            if (
                t0 is not None
                and getattr(self, "command", None) == "POST"
                and self.path.partition("?")[0].rstrip("/").endswith("/query")
            ):
                _record("http", t0)
            _tls.rid = None

    return wrapper


# -- executor thread hop ----------------------------------------------------------------


def _run_one(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, request, *args, **kwargs):
        _pending[id(request)] = getattr(_tls, "rid", None)
        t0 = _now()
        try:
            return fn(self, request, *args, **kwargs)
        finally:
            _record("run_one", t0)
            _pending.pop(id(request), None)

    return wrapper


def _handle_request(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, request, *args, **kwargs):
        previous = getattr(_tls, "rid", None)
        _tls.rid = _pending.get(id(request))
        t0 = _now()
        try:
            return fn(self, request, *args, **kwargs)
        finally:
            _record("handle", t0)
            _tls.rid = previous

    return wrapper


def _generate(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _tls.generate = getattr(_tls, "generate", 0) + 1
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            _record("generate", t0)
            _tls.generate -= 1

    return wrapper


# -- router upstream hop ----------------------------------------------------------------


def _proxy(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hop = _tls.proxy = {"calls": 0, "connects": 0, "u0": None, "u1": None}
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            _record("proxy", t0, hop)
            _tls.proxy = None

    return wrapper


def _upstream_connect(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hop = getattr(_tls, "proxy", None)
        if hop is not None:
            hop["connects"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _upstream_request(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hop = getattr(_tls, "proxy", None)
        if hop is not None:
            hop["calls"] += 1
            if hop["u0"] is None:
                hop["u0"] = _now()
        return fn(*args, **kwargs)

    return wrapper


def _upstream_read(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            hop = getattr(_tls, "proxy", None)
            if hop is not None:
                hop["u1"] = _now()

    return wrapper


def install() -> None:
    """Wrap every traced entry point (call after importing the CLI)."""
    from repro.cluster.cache import SqliteCacheStore
    from repro.cluster.router import RouterApp
    from repro.core import pipeline as pipeline_module
    from repro.core.newst import NewstModel
    from repro.core.seeds import SeedSelector
    from repro.core.subgraph import SubgraphBuilder
    from repro.core.weights import WeightedGraphBuilder
    from repro.corpus.storage import CorpusStore
    from repro.graph.indexed import IndexedGraph
    from repro.repager.app import RePaGerApp
    from repro.repager.service import RePaGerService
    from repro.serving import warmup
    from repro.serving.cache import ResultCache
    from repro.serving.executor import BatchExecutor

    handler = http.server.BaseHTTPRequestHandler
    _patch(handler, "parse_request", _parse_request)
    _patch(handler, "handle_one_request", _handle_one_request)
    _patch(RePaGerApp, "query", _span("app"))
    _patch(BatchExecutor, "run_one", _run_one)
    _patch(RePaGerApp, "handle_request", _handle_request)
    _patch(RePaGerService, "query_with_meta", _span("service"))
    _patch(ResultCache, "get", _span("l1_get", hit=True))
    _patch(ResultCache, "put", _span("l1_put"))
    _patch(SqliteCacheStore, "get", _span("l2_get", hit=True))
    _patch(SqliteCacheStore, "put", _span("l2_put"))
    pipeline_class = pipeline_module.RePaGerPipeline
    _patch(pipeline_class, "generate", _generate)
    for owner, name, kind in (
        (SeedSelector, "select", "search.select"),
        (SubgraphBuilder, "build", "subgraph.build"),
        (WeightedGraphBuilder, "edge_costs", "weights.edge_costs"),
        (IndexedGraph, "induced", "indexed.induced"),
        (IndexedGraph, "bind_costs", "indexed.bind_costs"),
        (NewstModel, "solve", "newst.solve"),
        (pipeline_module, "build_reading_path", "reading_path.build"),
    ):
        _patch(owner, name, _span(kind, in_generate=True))
    _patch(RouterApp, "proxy", _proxy)
    _patch(http.client.HTTPConnection, "connect", _upstream_connect)
    _patch(http.client.HTTPConnection, "request", _upstream_request)
    _patch(http.client.HTTPResponse, "read", _upstream_read)
    _patch(CorpusStore, "load", _span("setup.corpus_load"))
    _patch(warmup.ArtifactSnapshot, "load", _span("setup.snapshot_load"))
    _patch(warmup, "warm_up", _span("setup.warm_up"))
    _patch(RouterApp, "bootstrap", _span("setup.router_bootstrap"))


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for kind, rid, t0, t1, thread, extra in list(_spans):
            out.write(
                json.dumps({"k": kind, "r": rid, "t0": t0, "t1": t1, "th": thread, "x": extra})
                + "\n"
            )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines file written at exit")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- repager arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    t0 = _now()
    from repro.repager import cli

    _record("setup.import", t0)
    install()
    try:
        return cli.main(command)
    finally:
        dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
