"""Slow-trace persistence: the buffer survives a serve restart.

Slow traces are the post-incident evidence; before this PR a restart wiped
them.  ``Tracer.dump_slow`` flushes the slow buffer to JSONL on shutdown and
``Tracer.load_slow`` rebuilds it on startup — tolerant of torn/corrupt lines
exactly like ``read_event_records``.  Wired through ``serve --trace-persist``
(``ObsConfig.slow_trace_persist_path``), which the app-level round trip at
the bottom exercises.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.config import ObsConfig, ServingConfig
from repro.obs.trace import Tracer, stage
from repro.repager.app import RePaGerApp


def _record_slow_trace(tracer: Tracer, name: str = "query", corpus: str = "alpha"):
    """Finish one trace with spans and force it into the slow buffer."""
    with tracer.trace(name, corpus=corpus, request_id=f"req-{name}") as trace:
        with stage("search", k=3):
            pass
        with stage("steiner_solve"):
            with stage("metric_closure"):
                pass
    # Deterministic slowness: rewrite the measured duration and re-classify.
    trace.duration_seconds = 5.0
    trace.slow = True
    return trace


@pytest.fixture()
def tracer():
    # slow_threshold 0.0: every finished trace lands in the slow buffer, so
    # the tests never depend on wall-clock timing.
    return Tracer(slow_threshold_seconds=0.0, slow_capacity=8)


class TestDumpAndLoad:
    def test_round_trip_preserves_traces_and_span_trees(self, tracer, tmp_path):
        first = _record_slow_trace(tracer, "query-a")
        second = _record_slow_trace(tracer, "query-b", corpus="beta")
        path = tmp_path / "slow.jsonl"
        assert tracer.dump_slow(path) == 2

        reloaded = Tracer(slow_threshold_seconds=0.0, slow_capacity=8)
        assert reloaded.load_slow(path) == 2
        # Same listing (newest first) as the tracer that dumped them.
        assert [t.trace_id for t in reloaded.slow()] == [
            second.trace_id,
            first.trace_id,
        ]
        restored = reloaded.get(first.trace_id)
        assert restored is not None
        assert restored.slow is True
        assert restored.corpus == "alpha"
        assert restored.request_id == "req-query-a"
        # The span tree — names, parents, offsets, tags — is byte-stable
        # through the JSONL round trip.
        assert restored.to_dict() == first.to_dict()
        assert {s.name for s in restored.spans()} == {
            "search", "steiner_solve", "metric_closure",
        }

    def test_dump_is_atomic_and_overwrites(self, tracer, tmp_path):
        path = tmp_path / "slow.jsonl"
        _record_slow_trace(tracer, "query-a")
        assert tracer.dump_slow(path) == 1
        assert tracer.dump_slow(path) == 1  # idempotent overwrite
        assert not path.with_name(path.name + ".tmp").exists()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_load_tolerates_torn_and_corrupt_lines(self, tracer, tmp_path):
        good = _record_slow_trace(tracer, "query-a")
        record = json.dumps(good.to_dict())
        path = tmp_path / "slow.jsonl"
        path.write_text(
            "\n".join(
                [
                    record,
                    "",  # blank
                    "not json at all {",
                    json.dumps(["a", "list"]),  # JSON but not a record
                    json.dumps({"name": "no-id"}),  # missing trace_id
                    record[: len(record) // 2],  # torn mid-append
                ]
            )
        )
        reloaded = Tracer(slow_threshold_seconds=0.0, slow_capacity=8)
        assert reloaded.load_slow(path) == 1
        assert reloaded.get(good.trace_id) is not None

    def test_load_missing_file_and_dedup_and_cap(self, tracer, tmp_path):
        assert tracer.load_slow(tmp_path / "never-written.jsonl") == 0
        for index in range(4):
            _record_slow_trace(tracer, f"query-{index}")
        path = tmp_path / "slow.jsonl"
        tracer.dump_slow(path)

        # A second load into a tracer that retained everything is a no-op:
        # trace ids dedup, nothing is duplicated in the buffer.
        reloaded = Tracer(slow_threshold_seconds=0.0, slow_capacity=8)
        assert reloaded.load_slow(path) == 4
        assert reloaded.load_slow(path) == 0
        assert len(reloaded.slow(limit=50)) == 4

        # A smaller buffer still parses every record but retains only the
        # newest ``slow_capacity`` of them.
        capped = Tracer(slow_threshold_seconds=0.0, slow_capacity=2)
        assert capped.load_slow(path) == 4
        assert len(capped.slow(limit=50)) == 2

    def test_disabled_slow_buffer_loads_nothing(self, tracer, tmp_path):
        _record_slow_trace(tracer)
        path = tmp_path / "slow.jsonl"
        tracer.dump_slow(path)
        disabled = Tracer(slow_capacity=0)
        assert disabled.load_slow(path) == 0


class StubService:
    """Minimal service contract (the quota-test stub, trimmed)."""

    def __init__(self) -> None:
        self.metrics = None
        self.cache = None
        self.cache_namespace = ""
        self.cache_ttl_seconds = None
        self.pipeline = SimpleNamespace(config_fingerprint="stub-fingerprint")

    def pipeline_for(self, variant=None):
        return self.pipeline

    def variants_loaded(self):
        return ()

    def query_with_meta(
        self, text, year_cutoff=None, exclude_ids=(), use_cache=True, variant=None
    ):
        return {"query": text}, False


class TestAppRoundTrip:
    def test_slow_traces_survive_an_app_restart(self, tmp_path):
        """The ``serve --trace-persist`` path end to end: close() dumps,
        the next app's constructor reloads."""
        persist = str(tmp_path / "slow-traces.jsonl")
        config = ServingConfig(
            port=0,
            query_timeout_seconds=30.0,
            obs=ObsConfig(
                slow_trace_seconds=0.0,  # everything is slow: deterministic
                slow_trace_persist_path=persist,
            ),
        )
        app = RePaGerApp(config=config)
        app.attach_service("alpha", StubService(), default=True)
        app.query("reading path for restarts", corpus="alpha")
        slow_before = app.traces(slow=True)
        assert len(slow_before) == 1
        app.close(wait=True)

        restarted = RePaGerApp(config=config)
        try:
            slow_after = restarted.traces(slow=True)
            assert [t["trace_id"] for t in slow_after] == [
                t["trace_id"] for t in slow_before
            ]
            detail = restarted.trace_detail(slow_before[0]["trace_id"])
            assert detail is not None
            assert detail["slow"] is True
            assert detail["corpus"] == "alpha"
        finally:
            restarted.close(wait=True)
