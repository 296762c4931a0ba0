"""Tests of the benchmark's own machinery: tail rule, closed loop, key streams, checks."""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import run
from checks import check_response, strip_volatile
from loadgen import (
    TAIL_LADDER,
    TAIL_MIN_BEYOND,
    Connection,
    closed_loop,
    tail,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (99, 89.0), (100, 90.0), (124, 91.9),
     (990, 98.9), (1000, 99.0), (1999, 99.4), (10_000, 99.9)],
)
def test_tail_percentile_is_highest_rung_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 57, 99, 100, 333, 1000, 4321])
def test_tail_reports_a_sample_with_at_least_ten_beyond(n):
    values = random.Random(n).sample(range(100_000), n)
    p, value, beyond = tail(values)
    ordered = sorted(values)
    assert beyond >= TAIL_MIN_BEYOND
    assert sum(v > value for v in ordered) == beyond
    assert value in values
    # The next rung up would leave fewer than ten samples beyond it.
    higher = [q for q in TAIL_LADDER if q > p]
    if higher:
        assert tail_percentile(n, ladder=(higher[0],)) is None


class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_first = 0.5
    calls = 0
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802 - http.server API
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            type(self).calls += 1
            first = type(self).calls == 1
        if first:
            time.sleep(self.stall_first)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stalling_server():
    _StallingHandler.calls = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_closed_loop_times_from_when_each_request_was_due(stalling_server):
    conn = Connection("127.0.0.1", stalling_server, "/q", timeout=10)
    keys = iter([0, 1, 2])
    samples, wall = closed_loop([conn], [lambda: next(keys, None)], [b"{}"] * 3, 30.0, "c")
    conn.close()
    stall = _StallingHandler.stall_first
    assert [s.key for s in samples] == [0, 1, 2]
    assert samples[0].latency >= stall and wall >= stall
    # The next request is due when the previous reply lands, so the stall
    # counts once, against the request that met it, and never as lateness.
    for previous, current in zip(samples, samples[1:]):
        assert current.due == previous.done
        assert current.sent >= previous.done
        assert current.latency < stall
        assert current.latency >= current.service


def test_closed_loop_stops_sending_when_time_is_up(stalling_server):
    conn = Connection("127.0.0.1", stalling_server, "/q", timeout=10)
    keys = iter(range(1000))
    samples, _ = closed_loop([conn], [lambda: next(keys, None)], [b"{}"] * 1000, 0.2, "t")
    conn.close()
    # The first request stalls past the 0.2 s budget, so it is the only one sent.
    assert [s.key for s in samples] == [0]


def test_every_pass_sends_the_same_key_sequence():
    protocol = [{"query": f"q{i}", "year_cutoff": 2015, "exclude_ids": [f"S{i}"]}
                for i in range(30)]
    corpus = run.Corpus(None, None, protocol, [2000] * len(protocol))
    for name in run.WORKLOADS:
        plan = run.build_plan(name, corpus, seed=3)
        # A traced run's untraced and traced passes each take fresh streams.
        passes = [[[stream() for _ in range(5)] for stream in plan.streams()]
                  for _ in range(2)]
        assert passes[0] == passes[1]
        assert passes[0][0][0] == 0


def _doc(papers, query="q", extra_stats=None):
    nodes = [{"paper_id": pid, "year": year} for pid, year in papers]
    return {
        "payload": {"query": query, "navigation": nodes, "nodes": nodes, "edges": [],
                    "stats": {"elapsed_seconds": 0.5, **(extra_stats or {})}},
        "serving": {"corpus": "bench", "cached": False, "served_in_seconds": 0.1,
                    "request_id": "r1"},
    }


def test_checks_reject_excluded_papers_and_future_years():
    query = {"query": "q", "year_cutoff": 2015, "exclude_ids": ["S1"]}
    good = json.dumps(_doc([("P1", 2010), ("P2", 2015)])).encode()
    assert check_response(200, good, query)[0] is None
    excluded = json.dumps(_doc([("P1", 2010), ("S1", 2012)])).encode()
    assert "excluded" in check_response(200, excluded, query)[0]
    future = json.dumps(_doc([("P1", 2016)])).encode()
    assert "newer than cutoff" in check_response(200, future, query)[0]
    assert "HTTP 500" in check_response(500, b"{}", query)[0]
    assert "another query" in check_response(200, json.dumps(_doc([("P1", 2010)], "z")).encode(),
                                             query)[0]


def test_strip_volatile_keeps_everything_but_wall_clock_fields():
    a, b = _doc([("P1", 2010)]), _doc([("P1", 2010)])
    b["payload"]["stats"]["elapsed_seconds"] = 9.0
    b["serving"].update(cached=True, served_in_seconds=0.001, request_id="r2")
    assert strip_volatile(a) == strip_volatile(b)
    b["serving"]["corpus"] = "other"
    assert strip_volatile(a) != strip_volatile(b)
