"""Per-layer ledger: join the traced processes' spans to the client's requests.

A layer's self time is its span minus the spans of the layers it calls, on
the same thread and within its interval.  Request-scoped layers are measured
over the timed requests only; the L2 and the pipeline stages over every call
the traced replica made (on ``hot_hits`` those come from the untimed priming
requests, because its timed phase never misses the L1).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

from loadgen import Sample, percentile, tail

#: Launcher span kinds of the pipeline stages inside ``generate`` (also their metric names).
STAGES = (
    "search.select",
    "subgraph.build",
    "weights.edge_costs",
    "indexed.induced",
    "indexed.bind_costs",
    "newst.solve",
    "reading_path.build",
)
_SERVICE_CHILDREN = ("l1_get", "l1_put", "l2_get", "l2_put", "generate")


class Span:
    __slots__ = ("kind", "rid", "t0", "t1", "thread", "extra")

    def __init__(self, doc: dict) -> None:
        self.kind, self.rid = doc["k"], doc["r"]
        self.t0, self.t1, self.thread, self.extra = doc["t0"], doc["t1"], doc["th"], doc["x"]

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def load_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(json.loads(line)) for line in handle if line.strip()]


class _Index:
    """Spans of one process grouped by kind and by request id."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.by_kind: dict[str, list[Span]] = defaultdict(list)
        self.by_rid: dict[str | None, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_kind[span.kind].append(span)
            self.by_rid[span.rid].append(span)

    def first(self, kind: str, rid: str) -> Span | None:
        return next((s for s in self.by_rid.get(rid, ()) if s.kind == kind), None)

    def children_time(self, parent: Span, kinds: Sequence[str]) -> float:
        return sum(
            s.duration
            for s in self.by_rid.get(parent.rid, ())
            if s.kind in kinds
            and s is not parent
            and s.thread == parent.thread
            and s.t0 >= parent.t0
            and s.t1 <= parent.t1
        )


class Metrics:
    """Ordered ``name -> (value, unit, sample count, note)``."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str, int, str]] = {}

    def add(self, name: str, value: float, unit: str, n: int, note: str = "") -> None:
        self.values[name] = (float(value), unit, n, note)

    def p50(self, name: str, values: Sequence[float], unit: str = "s") -> None:
        self.add(name, percentile(sorted(values), 50) if values else 0.0, unit, len(values))

    def tail(self, name: str, values: Sequence[float], unit: str = "s") -> None:
        result = tail(values)
        if result is None:
            self.add(name, max(values, default=0.0), unit, len(values), "max: <11 samples")
        else:
            p, value, beyond = result
            self.add(name, value, unit, len(values), f"p{p:g}, {beyond} beyond")

    def share(self, name: str, part: float, whole: float, n: int) -> None:
        self.add(name, part / whole if whole else 0.0, "share", n)


def compute(
    samples: Sequence[Sample],
    replica: Sequence[Span],
    router: Sequence[Span] | None,
    rss: dict[str, float],
) -> Metrics:
    """The ledger of one traced timed phase (``router`` is None when direct)."""
    rep, rou = _Index(replica), _Index(router or ())
    out = Metrics()
    timed = {s.request_id: s for s in samples if s.error is None}

    client_gap, upstream_gap, router_self = [], [], []
    http_self, app_self, wait, service_self = [], [], [], []
    proxies = connects = coalesced = 0
    for rid, sample in timed.items():
        rep_http = rep.first("http", rid)
        first_hop = rou.first("http", rid) if router is not None else rep_http
        if first_hop is not None:
            client_gap.append(sample.service - first_hop.duration)
        proxy = rou.first("proxy", rid) if router is not None else None
        if proxy is not None:
            proxies += 1
            hop = proxy.extra
            connects += hop["connects"]
            if hop["calls"] == 0:
                coalesced += 1
            elif hop["u0"] is not None and hop["u1"] is not None:
                upstream = hop["u1"] - hop["u0"]
                router_self.append(proxy.duration - upstream)
                if rep_http is not None:
                    upstream_gap.append(upstream - rep_http.duration)
        app = rep.first("app", rid)
        if rep_http is not None and app is not None:
            http_self.append(rep_http.duration - app.duration)
        run_one = rep.first("run_one", rid)
        if app is not None and run_one is not None:
            app_self.append(app.duration - run_one.duration)
        handle = rep.first("handle", rid)
        if run_one is not None and handle is not None:
            wait.append(handle.t0 - run_one.t0)
        service = rep.first("service", rid)
        if service is not None:
            service_self.append(service.duration - rep.children_time(service, _SERVICE_CHILDREN))

    out.p50("net.client_gap_p50_s", client_gap)
    out.p50("net.upstream_gap_p50_s", upstream_gap)
    out.p50("router.self_p50_s", router_self)
    out.tail("router.self_tail_s", router_self)
    out.add("router.connects_per_request", connects / proxies if proxies else 0.0,
            "count", proxies)
    out.share("router.coalesced_share", coalesced, proxies, proxies)
    out.p50("http.self_p50_s", http_self)
    out.p50("http.response_kb_p50", [len(s.body) / 1024.0 for s in timed.values()], "kB")
    out.p50("app.self_p50_s", app_self)
    out.p50("executor.wait_p50_s", wait)
    out.tail("executor.wait_tail_s", wait)
    out.p50("service.self_p50_s", service_self)

    def lookups(kind: str) -> list[Span]:
        return [s for s in rep.by_kind.get(kind, ()) if s.rid in timed]

    l1 = lookups("l1_get")
    l2_get, l2_put = rep.by_kind.get("l2_get", []), rep.by_kind.get("l2_put", [])
    out.share("cache_l1.hit_share", sum(s.extra["hit"] for s in l1), len(l1), len(l1))
    out.p50("cache_l1.get_p50_s", [s.duration for s in l1])
    out.share("cache_l2.hit_share", sum(s.extra["hit"] for s in l2_get), len(l2_get), len(l2_get))
    out.p50("cache_l2.get_p50_s", [s.duration for s in l2_get])
    out.p50("cache_l2.put_p50_s", [s.duration for s in l2_put])
    out.tail("cache_l2.put_tail_s", [s.duration for s in l2_put])

    replica_time = sum(s.duration for s in rep.by_kind.get("http", ()) if s.rid in timed)
    timed_generate = [s.duration for s in lookups("generate")]
    out.share("pipeline.server_share", sum(timed_generate), replica_time, len(timed_generate))
    generate = [s.duration for s in rep.by_kind.get("generate", ())]
    out.p50("pipeline.generate_p50_s", generate)
    out.tail("pipeline.generate_tail_s", generate)
    for name in STAGES:
        durations = [s.duration for s in rep.by_kind.get(name, ())]
        out.p50(f"{name}_p50_s", durations)
        out.share(f"pipeline.{name}_share", sum(durations), sum(generate), len(durations))
    induced = len(rep.by_kind.get("indexed.induced", ()))
    out.add("pipeline.prepared_reuse_share",
            1.0 - induced / len(generate) if generate else 0.0, "share", len(generate))

    for name, kind, children in (
        ("setup.import_s", "setup.import", ()),
        ("setup.corpus_load_s", "setup.corpus_load", ()),
        ("setup.snapshot_load_s", "setup.snapshot_load", ()),
        ("setup.warm_up_s", "setup.warm_up", ("setup.snapshot_load",)),
    ):
        spans = rep.by_kind.get(kind, ())
        out.add(name, sum(s.duration - rep.children_time(s, children) for s in spans),
                "s", len(spans))
    bootstrap = rou.by_kind.get("setup.router_bootstrap", ())
    out.add("setup.router_bootstrap_s", sum(s.duration for s in bootstrap), "s", len(bootstrap))
    out.add("rss.replica_mb", rss["replica"], "MB", 1)
    out.add("rss.router_mb", rss.get("router", 0.0), "MB", 1 if "router" in rss else 0)
    late = [s.late for s in samples]
    out.tail("client.late_tail_s", late)
    return out
