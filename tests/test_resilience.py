"""Resilience suite: fault injection, deadlines, degradation, crash safety.

The serving stack's failure semantics are a contract just like the golden
payloads: a fault at any pipeline stage must resolve to a degraded-but-marked
stale serve, an honest backpressure response (``Retry-After`` on every 5xx),
a circuit-breaker fast rejection, or a watchdog-recovered worker pool — never
a silent hang or an unmarked wrong answer.  This module pins that contract at
three levels:

* unit — fault-spec parsing/triggering, the circuit state machine, deadline
  propagation, stale-grace cache semantics, trace sampling, the non-critical
  event-log sink, checksummed/atomic snapshot persistence;
* application — degraded stale serves (byte-identical to the last fresh
  payload, on the runtime core and on the dict reference kernels), bounded
  retries, deadline overrides, eviction round trips across a corrupted
  snapshot, the worker watchdog;
* HTTP — the test-only ``/v1/faults`` surface, ``X-Request-Deadline``,
  ``Warning: 110`` on degraded responses, circuit state in corpus detail,
  and a seeded chaos flood whose disarmed re-run is byte-identical to the
  pre-fault golden payloads.

Fault plans are process-global, so every test arms via the ``armed()``
context manager (or disarms in ``finally``); an autouse fixture guarantees
no plan leaks into the rest of the suite.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from reference_core import GRAPH_CORES, graph_core
from repro.config import (
    CorpusConfig,
    ObsConfig,
    PipelineConfig,
    ServingConfig,
    TenantOverrides,
)
from repro.corpus.generator import CorpusGenerator
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FaultInjectedError,
    QueryTimeoutError,
    ServingError,
    SnapshotCorruptError,
    WorkerHungError,
)
from repro.obs.events import EventLog, read_event_records
from repro.obs.trace import Tracer
from repro.repager.app import QueryOptions, RePaGerApp
from repro.repager.service import RePaGerService
from repro.resilience import (
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    active_plan,
    armed,
    check_deadline,
    deadline_scope,
    disarm,
    fault_point,
    parse_fault_spec,
    remaining_seconds,
)
from repro.serving import (
    ArtifactSnapshot,
    BatchExecutor,
    MetricsRegistry,
    QueryRequest,
    ResultCache,
    create_server,
    make_query_key,
    start_in_background,
    warm_up,
    warm_up_registry,
)
from repro.serving.warmup import atomic_write_text

PIPELINE = PipelineConfig(num_seeds=10)

#: A second small corpus beside the shared ``small_store`` (conftest.py):
#: resilience tests exercise failure paths, not path quality.
BETA_CORPUS_CONFIG = CorpusConfig(
    seed=29, papers_per_topic=12, surveys_per_topic=1, citations_per_paper=8.0
)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Fault plans are process-global: never let one escape a test."""
    yield
    disarm()


class FakeClock:
    """Manually advanced monotonic clock for cache TTL / breaker tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def small_corpus_dir(small_store, tmp_path_factory):
    path = tmp_path_factory.mktemp("resilience-corpora") / "small"
    small_store.save(path)
    return str(path)


@pytest.fixture(scope="module")
def snap_service(small_store):
    service = RePaGerService(small_store, pipeline_config=PIPELINE)
    warm_up(service)
    return service


def canonical_payload(payload_dict: dict) -> bytes:
    """Byte-level payload contract minus wall-clock timing."""
    data = dict(payload_dict)
    data["stats"] = {
        k: v for k, v in data["stats"].items() if k != "elapsed_seconds"
    }
    return json.dumps(data, sort_keys=True).encode("utf-8")


# ---------------------------------------------------------------------------
# Fault registry (unit)
# ---------------------------------------------------------------------------


class TestFaultSpecs:
    @pytest.mark.parametrize(
        "spec",
        [
            "steiner_solve=fail",
            "steiner_solve=fail:0.25",
            "snapshot_load=corrupt:@1",
            "worker=delay:0.5",
            "worker=delay:0.5:@2",
            "cache_lookup=fail:@3",
        ],
    )
    def test_spec_round_trips(self, spec):
        rule = parse_fault_spec(spec)
        assert rule.spec() == spec
        assert parse_fault_spec(rule.spec()) == rule

    @pytest.mark.parametrize(
        "spec",
        [
            "nosuchpoint=fail",          # unknown point
            "steiner_solve=explode",     # unknown action
            "steiner_solve",             # no '='
            "steiner_solve=",            # empty action
            "worker=delay",              # delay without duration
            "worker=delay:0",            # non-positive duration
            "steiner_solve=fail:0",      # probability outside (0, 1]
            "steiner_solve=fail:1.5",
            "steiner_solve=fail:@0",     # call index must be >= 1
            "steiner_solve=fail:0.5:@2", # too many fields for a fail rule
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_rule_rejects_both_triggers(self):
        with pytest.raises(ValueError):
            FaultRule(point="steiner_solve", action="fail", probability=0.5, nth=2)

    def test_nth_trigger_fires_exactly_once(self):
        plan = FaultPlan.from_specs(["steiner_solve=fail:@2"])
        fired = [plan.visit("steiner_solve") is not None for _ in range(4)]
        assert fired == [False, True, False, False]
        described = plan.describe()
        assert described["calls"] == {"steiner_solve": 4}
        assert described["injected"] == {"steiner_solve": 1}

    def test_probability_trigger_is_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan.from_specs(["steiner_solve=fail:0.5"], seed=seed)
            return [plan.visit("steiner_solve") is not None for _ in range(64)]

        assert firing_pattern(42) == firing_pattern(42)
        assert any(firing_pattern(42))
        assert not all(firing_pattern(42))

    def test_other_points_do_not_fire(self):
        plan = FaultPlan.from_specs(["steiner_solve=fail"])
        assert plan.visit("cache_lookup") is None
        assert plan.describe()["injected"] == {}

    def test_armed_context_scopes_the_plan(self):
        assert fault_point("steiner_solve") is None
        plan = FaultPlan.from_specs(["steiner_solve=fail"])
        with armed(plan):
            assert active_plan() is plan
            with pytest.raises(FaultInjectedError):
                fault_point("steiner_solve")
        assert active_plan() is None
        assert fault_point("steiner_solve") is None

    def test_armed_context_disarms_on_exception(self):
        with pytest.raises(RuntimeError):
            with armed(FaultPlan.from_specs(["steiner_solve=fail"])):
                raise RuntimeError("boom")
        assert active_plan() is None

    def test_delay_action_sleeps_then_continues(self):
        with armed(FaultPlan.from_specs(["worker=delay:0.05"])):
            started = time.monotonic()
            assert fault_point("worker") is None
            assert time.monotonic() - started >= 0.05

    def test_corrupt_action_reports_to_the_call_site(self):
        with armed(FaultPlan.from_specs(["snapshot_load=corrupt"])):
            assert fault_point("snapshot_load") == "corrupt"


# ---------------------------------------------------------------------------
# Circuit breaker (unit, injected clock)
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=10.0):
        return CircuitBreaker(
            "tenant", failure_threshold=threshold, reset_seconds=reset, clock=clock
        )

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # newly opened
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as err:
            breaker.check()
        assert err.value.retry_after_seconds >= 1
        assert err.value.http_status == 503

    def test_success_resets_the_failure_run(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.record_success() is False  # already closed: no event
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.1)
        breaker.check()  # the probe gets through
        assert breaker.state == "half_open"
        # Concurrent traffic during the probe is still rejected.
        with pytest.raises(CircuitOpenError):
            breaker.check()
        assert breaker.record_success() is True  # newly closed: log recovery
        assert breaker.state == "closed"
        breaker.check()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.1)
        breaker.check()
        assert breaker.record_failure() is True  # probe answered: reopen
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def test_aborted_probe_releases_the_slot(self):
        """Regression: a probe with an excluded outcome (deadline shed,
        client error) must free the half-open slot, not wedge the breaker."""
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.1)
        breaker.check()  # admitted as the half-open probe
        assert breaker.state == "half_open"
        breaker.abort_probe()  # the probe ended without a countable outcome
        breaker.check()  # the slot is free: the next request probes instead
        assert breaker.record_success() is True
        assert breaker.state == "closed"

    def test_describe_reports_cooldown(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(4.0)
        info = breaker.describe()
        assert info["state"] == "open"
        assert info["open_count"] == 1
        assert info["opened_seconds_ago"] == pytest.approx(4.0)
        assert info["retry_after_seconds"] == 6

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("t", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("t", reset_seconds=0.0)


# ---------------------------------------------------------------------------
# Deadlines (unit)
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_unbounded_context_is_a_no_op(self):
        assert remaining_seconds() is None
        check_deadline("anywhere")

    def test_expired_deadline_aborts_with_the_stage(self):
        with deadline_scope(time.monotonic() - 0.01):
            with pytest.raises(DeadlineExceededError) as err:
                check_deadline("metric_closure")
        assert err.value.stage == "metric_closure"
        assert err.value.http_status == 504
        check_deadline("after")  # scope restored

    def test_remaining_seconds_tracks_the_scope(self):
        with deadline_scope(time.monotonic() + 5.0):
            remaining = remaining_seconds()
            assert remaining is not None and 4.0 < remaining <= 5.0

    def test_executor_sheds_expired_requests_at_admission(self):
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lambda request: "ok",
            max_workers=1,
            queue_depth=2,
            metrics=metrics,
        )
        try:
            with pytest.raises(DeadlineExceededError) as err:
                executor.run_one(
                    QueryRequest(text="late", deadline=time.monotonic() - 0.01)
                )
            assert err.value.stage == "admission"
            assert metrics.counter("deadline_shed_total") == 1
            # A request with budget left still runs.
            assert (
                executor.run_one(
                    QueryRequest(text="fine", deadline=time.monotonic() + 5.0)
                )
                == "ok"
            )
        finally:
            executor.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Stale-grace cache semantics (unit, injected clock)
# ---------------------------------------------------------------------------


class TestStaleCache:
    KEY = make_query_key("deep learning", None, (), "fp")

    def test_stale_entry_survives_within_grace(self):
        clock = FakeClock()
        cache = ResultCache(
            max_entries=4, ttl_seconds=10.0, clock=clock, stale_grace_seconds=30.0
        )
        cache.put(self.KEY, "payload")
        assert cache.get(self.KEY) == "payload"
        clock.advance(11.0)
        assert cache.get(self.KEY) is None  # expired for fresh traffic...
        assert cache.get_stale(self.KEY) == "payload"  # ...but degradable
        stats = cache.stats()
        assert stats.stale_hits == 1
        assert stats.expirations == 0  # still resident for the grace window

    def test_entry_past_the_grace_is_gone_for_good(self):
        clock = FakeClock()
        cache = ResultCache(
            max_entries=4, ttl_seconds=10.0, clock=clock, stale_grace_seconds=30.0
        )
        cache.put(self.KEY, "payload")
        clock.advance(41.0)
        assert cache.get_stale(self.KEY) is None
        assert cache.get(self.KEY) is None
        assert cache.stats().expirations == 1

    def test_zero_grace_preserves_original_expiry_semantics(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=4, ttl_seconds=10.0, clock=clock)
        cache.put(self.KEY, "payload")
        clock.advance(11.0)
        assert cache.get(self.KEY) is None
        assert cache.get_stale(self.KEY) is None
        assert cache.stats().expirations == 1

    def test_get_stale_serves_fresh_entries_too(self):
        cache = ResultCache(max_entries=4, ttl_seconds=10.0, clock=FakeClock())
        cache.put(self.KEY, "payload")
        assert cache.get_stale(self.KEY) == "payload"
        with pytest.raises(ValueError):
            ResultCache(stale_grace_seconds=-1.0)


# ---------------------------------------------------------------------------
# Trace sampling (unit)
# ---------------------------------------------------------------------------


class TestTraceSampling:
    def test_unsampled_ok_trace_skips_the_ring_but_feeds_histograms(self):
        finished = []
        tracer = Tracer(capacity=8, on_finish=finished.append)
        with tracer.trace("query", corpus="t", sample_rate=0.0) as trace:
            assert trace is not None  # the trace still runs in full
        assert len(tracer) == 0
        assert len(finished) == 1  # histograms stay accurate
        assert finished[0].sampled is False
        assert finished[0].summary()["sampled"] is False

    def test_failed_traces_are_always_retained(self):
        tracer = Tracer(capacity=8)
        with pytest.raises(RuntimeError):
            with tracer.trace("query", corpus="t", sample_rate=0.0):
                raise RuntimeError("boom")
        recent = tracer.recent()
        assert len(recent) == 1
        assert recent[0].status == "error"
        assert recent[0].summary()["sampled"] is False

    def test_slow_traces_are_always_retained(self):
        tracer = Tracer(capacity=8, slow_threshold_seconds=0.0)
        with tracer.trace("query", corpus="t", sample_rate=0.0):
            pass
        assert len(tracer) == 1
        assert tracer.slow()

    def test_full_sampling_is_the_additive_only_default(self):
        tracer = Tracer(capacity=8)
        with tracer.trace("query", corpus="t", sample_rate=1.0):
            pass
        with tracer.trace("query", corpus="t"):
            pass
        assert len(tracer) == 2
        for trace in tracer.recent():
            assert "sampled" not in trace.summary()


# ---------------------------------------------------------------------------
# Event log: a non-critical sink (unit)
# ---------------------------------------------------------------------------


class TestEventLogResilience:
    def test_write_failure_is_absorbed_not_raised(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), capacity=16)
        try:
            log.emit("corpus_attach", corpus="x")
            with armed(FaultPlan.from_specs(["event_log_write=fail"])):
                record = log.emit("quota_reject", corpus="x")
            assert record["event"] == "quota_reject"
            assert log.write_errors == 1
            # The in-memory record survives even though the sink write failed.
            assert [e["event"] for e in log.tail()] == [
                "corpus_attach",
                "quota_reject",
            ]
        finally:
            log.close()
        persisted = [r["event"] for r in read_event_records(path)]
        assert persisted == ["corpus_attach"]

    def test_torn_line_is_skipped_by_the_reader(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(str(path), capacity=16)
        try:
            with armed(FaultPlan.from_specs(["event_log_write=corrupt"])):
                log.emit("corpus_attach", corpus="x")
            log.emit("corpus_detach", corpus="x")
        finally:
            log.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[0])  # the torn write
        assert [r["event"] for r in read_event_records(path)] == ["corpus_detach"]


# ---------------------------------------------------------------------------
# Snapshot persistence: atomic writes, checksums, quarantine
# ---------------------------------------------------------------------------


class TestSnapshotPersistence:
    def test_checksummed_round_trip(self, snap_service, tmp_path):
        path = tmp_path / "snap.json"
        snapshot = ArtifactSnapshot.capture(snap_service)
        snapshot.save(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["version"] == 3
        assert "checksum" in document
        loaded = ArtifactSnapshot.load(path)
        assert loaded.config_fingerprint == snapshot.config_fingerprint
        assert loaded.graph_nodes == snapshot.graph_nodes
        assert loaded.graph_edges == snapshot.graph_edges
        assert loaded.pagerank_scores == snapshot.pagerank_scores
        assert loaded.edge_relevance == snapshot.edge_relevance

    def test_tampered_snapshot_is_quarantined(self, snap_service, tmp_path):
        path = tmp_path / "snap.json"
        ArtifactSnapshot.capture(snap_service).save(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["graph_nodes"] = document["graph_nodes"] + 1  # checksum now lies
        path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
        with pytest.raises(SnapshotCorruptError) as err:
            ArtifactSnapshot.load(path)
        quarantined = tmp_path / "snap.json.corrupt"
        assert err.value.quarantine_path == str(quarantined)
        assert quarantined.is_file()
        assert not path.exists()

    def test_torn_snapshot_is_quarantined(self, snap_service, tmp_path):
        path = tmp_path / "snap.json"
        ArtifactSnapshot.capture(snap_service).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # a writer killed mid-append
        with pytest.raises(SnapshotCorruptError):
            ArtifactSnapshot.load(path)
        assert (tmp_path / "snap.json.corrupt").is_file()

    def test_quarantine_can_be_disabled(self, snap_service, tmp_path):
        path = tmp_path / "snap.json"
        ArtifactSnapshot.capture(snap_service).save(path)
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(SnapshotCorruptError) as err:
            ArtifactSnapshot.load(path, quarantine=False)
        assert err.value.quarantine_path is None
        assert path.is_file()

    def test_pre_checksum_versions_are_refused(self, snap_service, tmp_path):
        """A version-2 document (no checksum) is unsupported, not corrupt:
        it is refused and left in place rather than quarantined."""
        snapshot = ArtifactSnapshot.capture(snap_service)
        document = {
            "version": 2,
            "config_fingerprint": snapshot.config_fingerprint,
            "pagerank_scores": snapshot.pagerank_scores,
            "venue_scores": snapshot.venue_scores,
            "graph_nodes": snapshot.graph_nodes,
            "graph_edges": snapshot.graph_edges,
        }
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
        with pytest.raises(
            ServingError, match="unsupported artifact snapshot version 2"
        ):
            ArtifactSnapshot.load(path)
        assert path.exists()
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_kill_mid_capture_leaves_the_old_snapshot_intact(
        self, snap_service, tmp_path
    ):
        """Regression for the non-atomic evict write: a crash between the tmp
        write and the rename must leave the previous snapshot byte-identical
        and no tmp debris behind."""
        path = tmp_path / "snap.json"
        snapshot = ArtifactSnapshot.capture(snap_service)
        snapshot.save(path)
        before = path.read_bytes()
        with armed(FaultPlan.from_specs(["snapshot_write=fail"])):
            with pytest.raises(FaultInjectedError):
                snapshot.save(path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp.*"))
        snapshot.save(path)  # disarmed: the write goes through again
        assert ArtifactSnapshot.load(path).graph_nodes == snapshot.graph_nodes

    def test_capture_fault_never_touches_the_destination(
        self, snap_service, tmp_path
    ):
        path = tmp_path / "never.json"
        with armed(FaultPlan.from_specs(["snapshot_capture=fail"])):
            with pytest.raises(FaultInjectedError):
                ArtifactSnapshot.capture(snap_service).save(path)
        assert not path.exists()

    def test_snapshot_load_corrupt_fault_exercises_quarantine(
        self, snap_service, tmp_path
    ):
        path = tmp_path / "snap.json"
        ArtifactSnapshot.capture(snap_service).save(path)
        with armed(FaultPlan.from_specs(["snapshot_load=corrupt"])):
            with pytest.raises(SnapshotCorruptError):
                ArtifactSnapshot.load(path)
        assert (tmp_path / "snap.json.corrupt").is_file()

    def test_concurrent_saves_publish_whole_files(self, tmp_path):
        """Regression: per-call-unique tmp names — two threads saving the
        same path must never interleave into one shared tmp file."""
        path = tmp_path / "snap.json"
        texts = ["a" * 65536, "b" * 65536]
        errors: list[Exception] = []

        def writer(text):
            try:
                for _ in range(20):
                    atomic_write_text(path, text)
            except Exception as exc:  # noqa: BLE001 - re-raised via assert
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert path.read_text() in texts  # one whole write won, never a mix
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_atomic_write_text_survives_injected_crash(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "old content")
        with armed(FaultPlan.from_specs(["snapshot_write=fail"])):
            with pytest.raises(FaultInjectedError):
                atomic_write_text(path, "new content")
        assert path.read_text(encoding="utf-8") == "old content"
        assert not list(tmp_path.glob("*.tmp.*"))


class TestEvictionAcrossCorruption:
    def test_corrupt_snapshot_cold_reattaches_and_quarantines(
        self, small_corpus_dir
    ):
        app = RePaGerApp(
            config=ServingConfig(
                port=0, max_workers=2, circuit_failure_threshold=None
            ),
            pipeline_config=PIPELINE,
        )
        try:
            app.attach_directory("solo", small_corpus_dir, default=True)
            fresh = app.query(QueryOptions(query="machine learning", use_cache=False))
            record = app.evict("solo")
            assert record.snapshot_path is not None
            snapshot_path = Path(record.snapshot_path)
            assert snapshot_path.is_file()
            data = snapshot_path.read_bytes()
            snapshot_path.write_bytes(data[: len(data) // 2])

            # The next query transparently re-attaches; the torn snapshot is
            # quarantined and the tenant rebuilds cold — byte-identically.
            again = app.query(QueryOptions(query="machine learning", use_cache=False))
            assert canonical_payload(again.payload.to_dict()) == canonical_payload(
                fresh.payload.to_dict()
            )
            quarantines = app.events.tail(event="snapshot_quarantine")
            assert quarantines and quarantines[-1]["corpus"] == "solo"
            quarantine_path = quarantines[-1]["detail"]["quarantine_path"]
            assert quarantine_path.endswith(".corrupt")
            assert Path(quarantine_path).is_file()
            assert not snapshot_path.exists()
        finally:
            app.close(wait=False)


# ---------------------------------------------------------------------------
# Worker watchdog
# ---------------------------------------------------------------------------


class TestWorkerWatchdog:
    def test_hung_worker_is_failed_and_replaced(self):
        metrics = MetricsRegistry()

        def handler(request):
            if request.text == "hang":
                time.sleep(0.8)
            return f"ok:{request.text}"

        executor = BatchExecutor(
            handler,
            max_workers=1,
            queue_depth=4,
            metrics=metrics,
            hang_seconds=0.15,
        )
        try:
            with pytest.raises(WorkerHungError) as err:
                executor.run_one(QueryRequest(text="hang"))
            assert err.value.http_status == 503
            assert metrics.counter("worker_replaced_total") == 1
            info = executor.pool_info()
            assert info["replaced_total"] == 1
            assert info["alive"] >= 1  # capacity was never lost
            # The replacement worker serves the very next request.
            assert executor.run_one(QueryRequest(text="after")) == "ok:after"
        finally:
            executor.shutdown(wait=False)

    def test_watchdog_via_fault_plan_delay(self):
        executor = BatchExecutor(
            lambda request: "ok",
            max_workers=1,
            queue_depth=4,
            metrics=MetricsRegistry(),
            hang_seconds=0.15,
        )
        try:
            with armed(FaultPlan.from_specs(["worker=delay:0.8:@1"])):
                with pytest.raises(WorkerHungError):
                    executor.run_one(QueryRequest(text="stuck"))
                assert executor.run_one(QueryRequest(text="next")) == "ok"
        finally:
            executor.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Application-level resilience
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def app_clock():
    return FakeClock()


@pytest.fixture(scope="module")
def resilience_app(small_store, app_clock):
    """One in-process app exercising the whole resilience ladder.

    The result cache runs on an injected clock so tests can expire entries
    into the stale-grace window without sleeping.
    """
    cache = ResultCache(
        max_entries=128,
        ttl_seconds=60.0,
        clock=app_clock,
        stale_grace_seconds=600.0,
    )
    app = RePaGerApp(
        config=ServingConfig(
            port=0,
            max_workers=2,
            queue_depth=8,
            query_timeout_seconds=30.0,
            default_corpus="main",
            stale_grace_seconds=600.0,
            retry_attempts=2,
            retry_backoff_seconds=0.01,
            circuit_failure_threshold=3,
            circuit_reset_seconds=0.25,
            obs=ObsConfig(trace_sample_rate=0.0),
        ),
        cache=cache,
        pipeline_config=PIPELINE,
    )
    app.attach_store("main", small_store, default=True)
    app.attach_store(
        "sampled",
        small_store,
        overrides=TenantOverrides(trace_sample_rate=1.0),
    )
    app.attach_store(
        "bounded",
        small_store,
        overrides=TenantOverrides(query_timeout_seconds=0.05),
    )
    warm_up_registry(app.registry)
    yield app
    app.close(wait=False)


class TestAppResilience:
    def _close_breaker(self, app, corpus="main"):
        """Leave the tenant's breaker closed for the next test."""
        disarm()
        response = app.query(
            QueryOptions(query="machine learning breaker reset", use_cache=False),
            corpus=corpus,
        )
        assert response.degraded is False

    def test_retry_recovers_from_a_transient_fault(self, resilience_app):
        app = resilience_app
        tenant_metrics = app.registry.get("main").service.metrics
        before = tenant_metrics.counter("retries_total")
        with armed(FaultPlan.from_specs(["steiner_solve=fail:@1"])):
            response = app.query(QueryOptions(query="machine learning transient fault"))
        assert response.degraded is False
        assert tenant_metrics.counter("retries_total") == before + 1

    @pytest.mark.parametrize("core", GRAPH_CORES)
    def test_degraded_serve_is_the_last_fresh_payload(self, small_store, core):
        """Satellite: stale-but-marked serving, on the runtime core and on the
        dict reference kernels."""
        with graph_core(core):
            clock = FakeClock()
            cache = ResultCache(
                max_entries=32,
                ttl_seconds=60.0,
                clock=clock,
                stale_grace_seconds=600.0,
            )
            app = RePaGerApp(
                config=ServingConfig(
                    port=0,
                    max_workers=1,
                    stale_grace_seconds=600.0,
                    circuit_failure_threshold=None,
                ),
                cache=cache,
                pipeline_config=PipelineConfig(num_seeds=10),
            )
            try:
                app.attach_store("main", small_store, default=True)
                fresh = app.query(QueryOptions(query="machine learning"))
                assert fresh.degraded is False
                assert "degraded" not in fresh.serving_meta()

                clock.advance(61.0)  # expired for fresh traffic, within the grace
                with armed(FaultPlan.from_specs(["steiner_solve=fail"])):
                    degraded = app.query(QueryOptions(query="machine learning"))
                assert degraded.degraded is True
                assert degraded.degraded_reason == "fault_injected"
                assert degraded.cached is True
                meta = degraded.serving_meta()
                assert meta["degraded"] is True
                assert meta["degraded_reason"] == "fault_injected"
                # The degraded payload IS the last fresh payload, byte for byte.
                assert degraded.payload.to_dict() == fresh.payload.to_dict()

                tenant_metrics = app.registry.get("main").service.metrics
                assert tenant_metrics.counter("degraded_served_total") == 1
                serves = app.events.tail(event="degraded_serve")
                assert serves and serves[-1]["corpus"] == "main"
                assert serves[-1]["detail"]["reason"] == "fault_injected"

                # Past the grace window the failure surfaces honestly instead.
                clock.advance(601.0)
                with armed(FaultPlan.from_specs(["steiner_solve=fail"])):
                    with pytest.raises(FaultInjectedError):
                        app.query(QueryOptions(query="machine learning"))
            finally:
                app.close(wait=False)

    def test_circuit_opens_then_recovers(self, resilience_app):
        app = resilience_app
        try:
            with armed(FaultPlan.from_specs(["steiner_solve=fail"])):
                rejected = None
                for attempt in range(5):
                    try:
                        app.query(
                            QueryOptions(
                                query=f"machine learning circuit probe {attempt}", use_cache=False
                            )
                        )
                    except CircuitOpenError as exc:
                        rejected = exc
                        break
                    except FaultInjectedError:
                        continue
                assert rejected is not None, "circuit never opened"
                assert rejected.retry_after_seconds >= 1
            health = app.health("main")
            assert health["circuit"]["state"] == "open"
            assert app.events.tail(event="circuit_open")
            metrics = app.registry.get("main").service.metrics
            assert metrics.counter("circuit_open_total") >= 1

            time.sleep(0.3)  # past the cooldown: a half-open probe may pass
            self._close_breaker(app)
            assert app.health("main")["circuit"]["state"] == "closed"
            assert app.events.tail(event="circuit_close")
        finally:
            self._close_breaker(app)

    def test_shed_probe_does_not_wedge_the_circuit(self, resilience_app):
        """Regression: a half-open probe whose outcome is excluded (here a
        deadline shed) must release the probe slot; before the fix the
        breaker stayed half-open rejecting the tenant's traffic forever."""
        app = resilience_app
        try:
            with armed(FaultPlan.from_specs(["steiner_solve=fail"])):
                for attempt in range(5):
                    try:
                        app.query(
                            QueryOptions(
                                query=f"machine learning wedge {attempt}",
                                use_cache=False,
                            )
                        )
                    except CircuitOpenError:
                        break
                    except FaultInjectedError:
                        continue
            assert app.health("main")["circuit"]["state"] == "open"

            time.sleep(0.3)  # cooldown over: the next request is the probe...
            with pytest.raises(DeadlineExceededError):
                app.query(
                    QueryOptions(
                        query="machine learning wedged probe", use_cache=False
                    ),
                    deadline=time.monotonic() - 0.01,  # ...and it is shed
                )
            # The shed said nothing about tenant health; the slot is released
            # and the very next request probes successfully.
            response = app.query(
                QueryOptions(query="machine learning probe after shed", use_cache=False)
            )
            assert response.degraded is False
            assert app.health("main")["circuit"]["state"] == "closed"
        finally:
            self._close_breaker(app)

    def test_fault_firings_feed_the_advertised_metric(self, resilience_app):
        """``faults_injected_total`` moves when a rule fires (review fix)."""
        app = resilience_app
        before = app.metrics.counter("faults_injected_total")
        try:
            app.arm_faults(["steiner_solve=fail:@1"])
            # First call fails (fired), the in-worker retry succeeds.
            response = app.query(
                QueryOptions(query="machine learning fault metric", use_cache=False)
            )
            assert response.degraded is False
        finally:
            app.disarm_faults()
            self._close_breaker(app)
        assert app.metrics.counter("faults_injected_total") == before + 1
        assert "repager_faults_injected_total" in app.metrics_text()

    def test_default_config_performs_the_documented_retry(self, small_store):
        """Regression: ``retry_attempts`` counts *retries* — the default (1)
        must actually retry a transient fault instead of surfacing it."""
        app = RePaGerApp(
            config=ServingConfig(
                port=0,
                max_workers=1,
                retry_backoff_seconds=0.01,
                circuit_failure_threshold=None,
                obs=ObsConfig(trace_sample_rate=0.0),
            ),
            pipeline_config=PIPELINE,
        )
        try:
            app.attach_store("main", small_store, default=True)
            with armed(FaultPlan.from_specs(["steiner_solve=fail:@1"])):
                response = app.query(
                    QueryOptions(query="machine learning default retry", use_cache=False)
                )
            assert response.degraded is False
            tenant_metrics = app.registry.get("main").service.metrics
            assert tenant_metrics.counter("retries_total") == 1
        finally:
            app.close(wait=False)

    def test_tenant_deadline_override_sheds_slow_solves(self, resilience_app):
        app = resilience_app
        with armed(FaultPlan.from_specs(["worker=delay:0.4"])):
            with pytest.raises(QueryTimeoutError):
                app.query(
                    QueryOptions(query="machine learning deadline override", use_cache=False),
                    corpus="bounded",
                )
        # The tenant's own budget ran out: a server-side failure the breaker
        # counts, one short of its threshold of 3.
        circuit = app.health("bounded")["circuit"]
        assert circuit["state"] == "closed"
        assert circuit["consecutive_failures"] == 1

    def test_trace_sampling_rates_and_overrides(self, resilience_app):
        app = resilience_app
        before = {t.trace_id for t in app.tracer.recent(limit=500)}
        response = app.query(
            QueryOptions(query="machine learning unsampled ok", use_cache=False)
        )
        assert response.degraded is False
        after = {t.trace_id for t in app.tracer.recent(limit=500)}
        assert after == before  # sample rate 0: the ok trace is not stored

        app.query(QueryOptions(query="machine learning sampled", use_cache=False), corpus="sampled")
        sampled = app.tracer.recent(corpus="sampled", limit=10)
        assert sampled and "sampled" not in sampled[0].summary()

        with armed(FaultPlan.from_specs(["steiner_solve=fail"])):
            with pytest.raises(FaultInjectedError):
                app.query(
                    QueryOptions(query="machine learning unsampled failing", use_cache=False)
                )
        failed = app.tracer.recent(corpus="main", limit=10)
        assert failed and failed[0].status == "error"
        assert failed[0].summary()["sampled"] is False
        self._close_breaker(app)


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def http_clock():
    return FakeClock()


@pytest.fixture(scope="module")
def http_app(small_store, http_clock):
    cache = ResultCache(
        max_entries=256,
        ttl_seconds=60.0,
        clock=http_clock,
        stale_grace_seconds=3600.0,
    )
    app = RePaGerApp(
        config=ServingConfig(
            port=0,
            max_workers=2,
            queue_depth=8,
            query_timeout_seconds=30.0,
            default_corpus="alpha",
            stale_grace_seconds=3600.0,
            retry_attempts=2,
            retry_backoff_seconds=0.01,
            circuit_failure_threshold=3,
            circuit_reset_seconds=0.25,
            allow_fault_injection=True,
        ),
        cache=cache,
        pipeline_config=PIPELINE,
    )
    app.attach_store("alpha", small_store, default=True)
    app.attach_store("beta", CorpusGenerator(BETA_CORPUS_CONFIG).generate().store)
    warm_up_registry(app.registry)
    yield app
    app.close(wait=False)


@pytest.fixture(scope="module")
def http_server(http_app):
    server = create_server(http_app, config=http_app.config)
    thread = start_in_background(server)
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(server, method, path, body=None, headers=None):
    """(status, parsed body, headers) — HTTPError bodies are parsed too."""
    data = None
    request_headers = dict(headers or {})
    if body is not None:
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        request_headers.setdefault("Content-Type", "application/json")
    request = urllib.request.Request(
        server.url + path, data=data, method=method, headers=request_headers
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _request_text(server, path):
    with urllib.request.urlopen(server.url + path, timeout=60) as response:
        return response.status, response.read().decode("utf-8")


class TestFaultSurfaceHTTP:
    def test_fault_surface_is_hidden_unless_enabled(self):
        hidden = RePaGerApp(config=ServingConfig(port=0, max_workers=1))
        server = create_server(hidden, config=hidden.config)
        thread = start_in_background(server)
        try:
            for method, body in (
                ("GET", None),
                ("POST", {"faults": ["steiner_solve=fail"]}),
                ("DELETE", None),
            ):
                status, payload, _ = _request(server, method, "/v1/faults", body)
                assert status == 404, method
                assert payload["code"] == "not_found"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            hidden.close(wait=False)

    def test_arm_inspect_disarm_cycle(self, http_server):
        status, body, _ = _request(http_server, "GET", "/v1/faults")
        assert status == 200
        assert body["armed"] is False
        assert body["allow_fault_injection"] is True

        status, body, _ = _request(
            http_server,
            "POST",
            "/v1/faults",
            {"faults": ["steiner_solve=fail:0.5"], "seed": 42},
        )
        assert status == 200
        assert body["armed"] is True
        assert body["plan"]["rules"] == ["steiner_solve=fail:0.5"]
        assert body["plan"]["seed"] == 42

        status, body, _ = _request(http_server, "GET", "/v1/faults")
        assert status == 200 and body["armed"] is True

        status, body, _ = _request(http_server, "DELETE", "/v1/faults")
        assert status == 200 and body["armed"] is False

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"faults": []},
            {"faults": "steiner_solve=fail"},
            {"faults": ["steiner_solve=fail"], "seed": True},
            {"faults": ["steiner_solve=fail"], "extra": 1},
            {"faults": ["nosuchpoint=fail"]},
        ],
    )
    def test_malformed_arm_bodies_are_rejected(self, http_server, body):
        status, payload, _ = _request(http_server, "POST", "/v1/faults", body)
        assert status == 400
        assert _request(http_server, "GET", "/v1/faults")[1]["armed"] is False


class TestResilienceHTTP:
    def test_invalid_deadline_header_is_a_client_error(self, http_server):
        for raw in ("abc", "-1", "0", "inf", "nan"):
            status, body, _ = _request(
                http_server,
                "POST",
                "/v1/corpora/alpha/query",
                {"query": "machine learning"},
                headers={"X-Request-Deadline": raw},
            )
            assert status == 400, raw
            assert body["code"] == "bad_request"

    def test_generous_deadline_header_is_honoured(self, http_server):
        status, body, _ = _request(
            http_server,
            "POST",
            "/v1/corpora/alpha/query",
            {"query": "machine learning", "use_cache": False},
            headers={"X-Request-Deadline": "30"},
        )
        assert status == 200
        assert "degraded" not in body["serving"]

    def test_over_budget_request_is_shed_with_504(self, http_server):
        try:
            _request(http_server, "POST", "/v1/faults", {"faults": ["worker=delay:0.4"]})
            status, body, headers = _request(
                http_server,
                "POST",
                "/v1/corpora/alpha/query",
                {"query": "machine learning deadline http", "use_cache": False},
                headers={"X-Request-Deadline": "0.05"},
            )
        finally:
            _request(http_server, "DELETE", "/v1/faults")
        assert status == 504
        assert body["code"] == "deadline_exceeded"
        assert body["stage"]
        assert "Retry-After" in headers  # every 5xx carries honest backpressure

    def test_degraded_serve_carries_warning_header(self, http_server, http_clock):
        query = {"query": "machine learning stale http"}
        status, fresh, headers = _request(
            http_server, "POST", "/v1/corpora/alpha/query", query
        )
        assert status == 200
        assert "Warning" not in headers
        http_clock.advance(61.0)  # expire the entry into the grace window
        try:
            _request(
                http_server, "POST", "/v1/faults", {"faults": ["steiner_solve=fail"]}
            )
            status, body, headers = _request(
                http_server, "POST", "/v1/corpora/alpha/query", query
            )
        finally:
            _request(http_server, "DELETE", "/v1/faults")
        assert status == 200
        serving = body["serving"]
        assert serving["degraded"] is True
        assert serving["degraded_reason"] == "fault_injected"
        assert serving["cached"] is True
        assert headers["Warning"].startswith('110 repager "stale payload served')
        assert body["payload"] == fresh["payload"]
        # Close alpha's breaker again (the degraded serve still counted the
        # underlying solve failure).
        status, _, _ = _request(
            http_server,
            "POST",
            "/v1/corpora/alpha/query",
            {"query": "machine learning breaker reset http", "use_cache": False},
        )
        assert status == 200

    def test_circuit_breaker_over_http(self, http_server, http_app):
        _request(
            http_server, "POST", "/v1/faults", {"faults": ["steiner_solve=fail"]}
        )
        try:
            opened = False
            for attempt in range(5):
                status, body, headers = _request(
                    http_server,
                    "POST",
                    "/v1/corpora/beta/query",
                    {"query": f"machine learning beta probe {attempt}", "use_cache": False},
                )
                assert "Retry-After" in headers
                if status == 503 and body["code"] == "circuit_open":
                    opened = True
                    break
                assert status == 500
                assert body["code"] == "fault_injected"
                assert body["retryable"] is True
            assert opened, "circuit never opened over HTTP"
            status, detail, _ = _request(http_server, "GET", "/v1/corpora/beta")
            assert detail["circuit"]["state"] == "open"
        finally:
            _request(http_server, "DELETE", "/v1/faults")
        time.sleep(0.3)
        status, body, _ = _request(
            http_server,
            "POST",
            "/v1/corpora/beta/query",
            {"query": "machine learning beta recovery", "use_cache": False},
        )
        assert status == 200
        status, detail, _ = _request(http_server, "GET", "/v1/corpora/beta")
        assert detail["circuit"]["state"] == "closed"
        assert http_app.events.tail(event="circuit_open", corpus="beta")
        assert http_app.events.tail(event="circuit_close", corpus="beta")

    def test_chaos_flood_has_honest_failure_semantics(self, http_server):
        """Seeded two-tenant flood: every response is a success (possibly
        degraded) or a taxonomy failure with ``Retry-After``; after disarm
        the payloads are byte-identical to the pre-fault goldens."""
        queries = ("machine learning", "information retrieval", "deep learning")
        goldens = {}
        for corpus in ("alpha", "beta"):
            status, body, _ = _request(
                http_server,
                "POST",
                f"/v1/corpora/{corpus}/query",
                {"query": "machine learning chaos golden", "use_cache": False},
            )
            assert status == 200
            goldens[corpus] = canonical_payload(body["payload"])

        allowed_failures = {
            "fault_injected",
            "circuit_open",
            "timeout",
            "deadline_exceeded",
            "worker_hung",
            "overloaded",
        }
        _request(
            http_server,
            "POST",
            "/v1/faults",
            {"faults": ["steiner_solve=fail:0.5"], "seed": 42},
        )
        try:
            for i in range(30):
                corpus = ("alpha", "beta")[i % 2]
                status, body, headers = _request(
                    http_server,
                    "POST",
                    f"/v1/corpora/{corpus}/query",
                    {"query": queries[i % len(queries)], "use_cache": i % 3 != 0},
                )
                if status == 200:
                    continue
                assert status >= 429, (status, body)
                assert body["code"] in allowed_failures, body
                assert "Retry-After" in headers, body
        finally:
            _request(http_server, "DELETE", "/v1/faults")

        # Health stays reachable and structured throughout.
        status, health, _ = _request(http_server, "GET", "/healthz")
        assert status in (200, 503)
        assert "corpora" in health or "status" in health

        time.sleep(0.3)  # let any opened circuit reach half-open
        for corpus in ("alpha", "beta"):
            recovered = None
            for _ in range(10):
                status, body, _ = _request(
                    http_server,
                    "POST",
                    f"/v1/corpora/{corpus}/query",
                    {"query": "machine learning chaos golden", "use_cache": False},
                )
                if status == 200:
                    recovered = body
                    break
                time.sleep(0.1)
            assert recovered is not None, f"{corpus} never recovered"
            assert "degraded" not in recovered["serving"]
            assert canonical_payload(recovered["payload"]) == goldens[corpus]

    def test_metrics_expose_resilience_counters(self, http_server):
        status, text = _request_text(http_server, "/v1/metrics")
        assert status == 200
        for name in (
            "degraded_served_total",
            "circuit_open_total",
            "retries_total",
        ):
            assert name in text, name
