#!/usr/bin/env python3
"""Layer-ledger benchmark: real ``repager serve`` / ``repager route`` processes under load.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                 # both workloads
    python3 perfbench/run.py --workload hot_hits --trace 1  # per-layer ledger
    python3 perfbench/run.py --agree --workload all --runs 5

Run from a source checkout (it starts ``src/`` through ``PYTHONPATH``).  The
last line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer ledger with ``--trace 1``.  Any failed response
check makes the exit code non-zero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

import ledger
from checks import canonical, check_response, strip_volatile
from loadgen import (
    Connection,
    Sample,
    closed_loop,
    exchange,
    host_reference,
    query_body,
)
from procs import ServingProcess, child_env, wait_healthy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CONFIG = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(CONFIG["workloads"])
#: The whole command, every workload included, must end within 180 s.
RUN_BUDGET_SECONDS = 170.0
START_TIMEOUT_SECONDS = 60.0


class BenchError(Exception):
    """The run cannot produce a result (missing program, dead server, overrun)."""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# -- corpus ---------------------------------------------------------------------------


@dataclass
class Corpus:
    directory: Path
    snapshot: Path
    protocol: list[dict]  # one SurveyBank query per survey
    #: Per protocol query: the first cutoff year by which the survey's topic
    #: has ``min_topic_papers`` papers.  Earlier cutoffs can find no seed
    #: papers and fail, so no workload sends them.
    answerable_from: list[int]

    def answerable(self, index: int, year: int) -> bool:
        return year >= self.answerable_from[index]


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cli(env: dict[str, str], *args: str) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "repro.repager.cli", *args],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    if result.returncode != 0:
        raise BenchError(f"repager {args[0]} failed: {result.stderr.strip()[-500:]}")


def prepare_corpus(seed: int, env: dict[str, str]) -> Corpus:
    """Generate the seed's ledger corpus, snapshot and SurveyBank once (cached).

    Runs before any timed phase; the cache key includes a digest of ``src/``
    so a checkout never reuses artifacts another program version wrote.
    """
    target = WORK / "corpus" / f"seed{seed}-{_src_digest()}"
    if not (target / "ready").exists():
        log(f"generating the seed-{seed} corpus")
        scratch = target.with_name(f".{target.name}.{os.getpid()}")
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        shape = CONFIG["corpus"]
        _cli(env, "generate-corpus", "--output", str(scratch / "corpus"), "--seed", str(seed),
             "--papers-per-topic", str(shape["papers_per_topic"]),
             "--surveys-per-topic", str(shape["surveys_per_topic"]))
        _cli(env, "snapshot", "--corpus", str(scratch / "corpus"),
             "--output", str(scratch / "corpus.snap"))
        _cli(env, "build-surveybank", "--corpus", str(scratch / "corpus"),
             "--output", str(scratch / "bank.jsonl"), "--min-references", "0")
        (scratch / "ready").touch()
        try:
            scratch.rename(target)
        except OSError:  # another run finished the same corpus first
            shutil.rmtree(scratch, ignore_errors=True)
    with open(target / "bank.jsonl", encoding="utf-8") as handle:
        bank = sorted((json.loads(line) for line in handle if line.strip()),
                      key=lambda item: item["survey_id"])
    topic_of, years = {}, defaultdict(list)
    with open(target / "corpus" / "papers.jsonl", encoding="utf-8") as handle:
        for paper in map(json.loads, handle):
            topic_of[paper["paper_id"]] = paper["topic"]
            if not paper["is_survey"]:
                years[paper["topic"]].append(paper["year"])
    need = CONFIG["min_topic_papers"]
    first_year = {topic: sorted(ys)[need - 1] for topic, ys in years.items() if len(ys) >= need}
    protocol = [
        {"query": ", ".join(item["key_phrases"]), "year_cutoff": item["year"],
         "exclude_ids": [item["survey_id"]]}
        for item in bank
    ]
    since = [first_year.get(topic_of[item["survey_id"]], 10_000) for item in bank]
    return Corpus(target / "corpus", target / "corpus.snap", protocol, since)


# -- workload plans ---------------------------------------------------------------------


KeySource = Callable[[], "int | None"]


@dataclass
class Plan:
    """What one workload sends: request bodies by key index and their order."""

    name: str
    routed: bool
    queries: list[dict]
    #: Fresh key sources, one per connection, starting at the sequence's
    #: beginning: every pass of a run sends the same seeded keys.
    streams: Callable[[], list[KeySource]]
    prime: list[int] = field(default_factory=list)
    shared_cache: bool = False  # replica gets a fresh sqlite L2 (--cache-state)


def _shared_stream(count: int) -> KeySource:
    """Keys ``0 .. count - 1`` in order, each handed out once across all connections."""
    keys, lock = iter(range(count)), threading.Lock()

    def next_key() -> int | None:
        with lock:
            return next(keys, None)

    return next_key


def build_plan(name: str, corpus: Corpus, seed: int) -> Plan:
    params = CONFIG["workloads"][name]
    rng = random.Random(f"{name}:{seed}")
    routed = params["path"] == "routed"
    connections = CONFIG["connections"]
    if name == "cold_solve":
        # Every protocol key first, then the same topics at earlier cutoffs:
        # each key is sent once, so every request is a solve.
        queries = []
        for back in range(params["earlier_years"] + 1):
            level = [dict(q, year_cutoff=q["year_cutoff"] - back)
                     for i, q in enumerate(corpus.protocol)
                     if corpus.answerable(i, q["year_cutoff"] - back)]
            rng.shuffle(level)
            queries.extend(level)
        return Plan(name, routed, queries,
                    lambda: [_shared_stream(len(queries))] * connections)
    if name == "hot_hits":
        answerable = [q for i, q in enumerate(corpus.protocol)
                      if corpus.answerable(i, q["year_cutoff"])]
        queries = rng.sample(answerable, params["keys"])
        # Disjoint key sets per connection: two in-flight requests never
        # share a key, so nothing coalesces and every timed request is a hit.
        def streams() -> list[KeySource]:
            return [itertools.cycle(range(c, len(queries), connections)).__next__
                    for c in range(connections)]

        # The replica also gets a fresh sqlite L2: each priming request misses
        # both caches and writes both, off the timed path.
        return Plan(name, routed, queries, streams, prime=list(range(len(queries))),
                    shared_cache=params["shared_cache"])
    raise BenchError(f"unknown workload {name!r}")


# -- serving processes ------------------------------------------------------------------


class Stack:
    """The workload's serving processes: one replica, plus a router when routed."""

    def __init__(self, plan: Plan, corpus: Corpus, rundir: Path, env: dict[str, str],
                 tag: str, traced: bool) -> None:
        self.plan, self.corpus, self.rundir, self.env = plan, corpus, rundir, env
        self.tag, self.traced = tag, traced
        self.procs: dict[str, ServingProcess] = {}
        self.url = ""

    def _spawn(self, role: str, args: list[str]) -> ServingProcess:
        if self.traced:
            argv = [sys.executable, str(HERE / "launch.py"),
                    "--spans", str(self.spans_path(role)), "--", *args]
        else:
            argv = [sys.executable, "-m", "repro.repager.cli", *args]
        proc = ServingProcess(role, argv, self.env, ROOT, self.rundir / f"{self.tag}-{role}.log")
        self.procs[role] = proc
        return proc

    def spans_path(self, role: str) -> Path:
        return self.rundir / f"{self.tag}-{role}.spans.jsonl"

    def start(self) -> float:
        """Spawn and wait until the corpus answers as ready; returns seconds taken."""
        name = CONFIG["corpus_name"]
        corpus_arg = f"{name}={self.corpus.directory}"
        snapshot_arg = f"{name}={self.corpus.snapshot}"
        deadline = time.monotonic() + START_TIMEOUT_SECONDS
        started = time.perf_counter()
        l2 = (["--cache-state", str(self.rundir / f"{self.tag}-l2.sqlite")]
              if self.plan.shared_cache else [])
        if not self.plan.routed:
            replica = self._spawn("replica", [
                "serve", "--corpus", corpus_arg, "--snapshot", snapshot_arg,
                "--default-corpus", name, "--port", "0", *l2])
            self.url = replica.wait_url(deadline)
            wait_healthy(self.url, deadline, router=False)
        else:
            replica_url = self._spawn("replica", ["serve", "--empty", "--port", "0", *l2]).wait_url(deadline)
            router = self._spawn("router", [
                "route", "--replica", replica_url, "--corpus", corpus_arg,
                "--snapshot", snapshot_arg, "--port", "0"])
            self.url = router.wait_url(deadline)
            wait_healthy(self.url, deadline, router=True)
        return time.perf_counter() - started

    def peak_rss_mb(self) -> dict[str, float]:
        return {role: proc.peak_rss_mb() for role, proc in self.procs.items()}

    def stop(self) -> None:
        # Router first, so it never probes a replica that is already gone.
        for role in sorted(self.procs, key=lambda r: r != "router"):
            self.procs[role].stop()


# -- one pass: set up, drive, tear down ------------------------------------------------


@dataclass
class Pass:
    setups: list[float]
    samples: list[Sample]       # timed requests
    primed: list[Sample]        # untimed priming requests
    wall: float
    rss: dict[str, float]
    spans: dict[str, list] = field(default_factory=dict)


def drive(plan: Plan, url: str, seconds: float, prefix: str) -> tuple[list[Sample], list[Sample], float]:
    parts = urlsplit(url)
    path = f"/v1/corpora/{CONFIG['corpus_name']}/query"
    conns = [Connection(parts.hostname, parts.port, path) for _ in range(CONFIG["connections"])]
    bodies = [query_body(q) for q in plan.queries]
    try:
        primed = [exchange(conns[0], key, bodies[key], f"{prefix}-prime-{i}", time.perf_counter())
                  for i, key in enumerate(plan.prime)]
        samples, wall = closed_loop(conns, plan.streams(), bodies, seconds, prefix)
    finally:
        for conn in conns:
            conn.close()
    return primed, samples, wall


def run_pass(plan: Plan, corpus: Corpus, rundir: Path, env: dict[str, str], seconds: float,
             cycles: int, traced: bool, tag: str, deadline: float) -> Pass:
    """``cycles`` spawn-to-ready cycles, about half of them after the timed phase.

    The processes of the last cycle before the timed phase take the load.
    Spreading the cycles over the whole run samples more than one of the
    host's speed phases, which last tens of seconds here.
    """
    setups: list[float] = []
    loaded_cycle = (cycles - 1) // 2
    for cycle in range(cycles):
        if time.monotonic() > deadline:
            raise BenchError("run budget exhausted during set-up")
        stack = Stack(plan, corpus, rundir, env, f"{tag}{cycle}", traced)
        try:
            setups.append(stack.start())
            if cycle != loaded_cycle:
                continue
            if time.monotonic() + seconds > deadline:
                raise BenchError("run budget too short for the timed phase")
            primed, samples, wall = drive(plan, stack.url, seconds, tag)
            rss = stack.peak_rss_mb()
            loaded = stack
        finally:
            stack.stop()
    result = Pass(setups, samples, primed, wall, rss)
    if traced:
        for role in loaded.procs:
            result.spans[role] = ledger.load_spans(loaded.spans_path(role))
    return result


# -- checks -----------------------------------------------------------------------------


def check_answers(plan: Plan, corpus: Corpus, passes: list[Pass], rundir: Path,
                  env: dict[str, str], seed: int) -> tuple[int, list[str]]:
    """Check every stored response; returns ``(attempted, failure reasons)``."""
    failures: list[str] = []
    first: dict[int, str] = {}
    answered: dict[int, dict] = {}
    attempted = 0
    for run in passes:
        for sample in sorted(run.primed + run.samples, key=lambda s: s.sent):
            attempted += 1
            query = plan.queries[sample.key]
            if sample.error is not None:
                failures.append(f"{sample.request_id}: {sample.error}")
                continue
            reason, doc = check_response(sample.status, sample.body, query)
            if reason is not None:
                failures.append(f"{sample.request_id}: {reason}")
                continue
            answer = canonical(strip_volatile(doc))
            if first.setdefault(sample.key, answer) != answer:
                failures.append(f"{sample.request_id}: repeat differs from the key's first answer")
            answered.setdefault(sample.key, doc)
    sample_keys = random.Random(f"reference:{seed}").sample(
        sorted(answered), min(CONFIG["reference_keys"], len(answered)))
    if sample_keys:
        keys_path, out_path = rundir / "reference-keys.json", rundir / "reference.json"
        keys_path.write_text(json.dumps([plan.queries[k] for k in sample_keys]))
        result = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), str(corpus.directory),
             str(corpus.snapshot), str(keys_path), str(out_path)],
            cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True, timeout=90)
        if result.returncode != 0:
            raise BenchError(f"reference run failed: {result.stderr.strip()[-500:]}")
        expected = json.loads(out_path.read_text())
        for key, reference in zip(sample_keys, expected):
            served = strip_volatile(answered[key])["payload"]
            if canonical(served) != canonical(reference):
                failures.append(f"key {key}: differs from in-process RePaGerService.query")
    return attempted, failures


# -- metrics ----------------------------------------------------------------------------


def end_to_end(run: Pass, attempted: int, failed: int) -> ledger.Metrics:
    out = ledger.Metrics()
    ok = [s for s in run.samples if s.error is None and s.status == 200]
    latencies = [s.latency for s in ok]
    out.add("setup_s", statistics.median(run.setups), "s", len(run.setups),
            "median of spawn-to-ready cycles")
    out.add("throughput_qps", len(ok) / run.wall if run.wall else 0.0, "1/s", len(ok))
    out.p50("latency_p50_s", latencies)
    out.tail("latency_tail_s", latencies)
    out.add("rss_mb", sum(run.rss.values()), "MB", len(run.rss), "+".join(sorted(run.rss)))
    out.add("failed_share", failed / attempted if attempted else 1.0, "share", attempted)
    return out


def trace_overhead(traced: list[Sample], plain: list[Sample]) -> tuple[float, int]:
    """Mean traced / untraced send-to-reply time - 1, over the keys both passes sent.

    Both passes send the same key sequence, but the slower one reaches fewer
    keys in the same time; comparing only shared keys compares like work.
    """
    ok = [[s for s in samples if s.error is None] for samples in (traced, plain)]
    common = {s.key for s in ok[0]} & {s.key for s in ok[1]}
    traced_mean, plain_mean = (statistics.fmean(s.service for s in samples if s.key in common)
                               for samples in ok)
    return traced_mean / plain_mean - 1.0, len(common)


@dataclass
class Result:
    workload: str
    metrics: ledger.Metrics
    attempted: int
    failures: list[str]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> Result:
    """One workload's run.  Its logs and spans stay in ``.perfbench/runs`` if it fails."""
    env = child_env(ROOT, seed)
    host = [host_reference()]
    corpus = prepare_corpus(seed, env)
    plan = build_plan(name, corpus, seed)
    rundir = WORK / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        if not trace:
            log(f"{name}: {CONFIG['setup_cycles']} set-up cycles, then {seconds:g} s of load")
            run = run_pass(plan, corpus, rundir, env, seconds, CONFIG["setup_cycles"],
                           False, "u", deadline)
            passes = [run]
        else:
            log(f"{name}: untraced pass, then traced pass, {seconds:g} s of load each")
            plain = run_pass(plan, corpus, rundir, env, seconds, 1, False, "u", deadline)
            run = run_pass(plan, corpus, rundir, env, seconds, 1, True, "t", deadline)
            passes = [plain, run]
        if time.monotonic() > deadline:
            raise BenchError("run budget exhausted before the checks")
        attempted, failures = check_answers(plan, corpus, passes, rundir, env, seed)
        host.append(host_reference())
        if not trace:
            metrics = end_to_end(run, attempted, len(failures))
        else:
            metrics = ledger.compute(run.samples, run.spans["replica"], run.spans.get("router"),
                                     run.rss)
            overhead, keys = trace_overhead(run.samples, plain.samples)
            metrics.add("trace.overhead_share", overhead, "share", keys,
                        "mean traced / untraced send-to-reply time - 1, over shared keys")
        metrics.add("host.ref_s", statistics.fmean(host), "s", len(host),
                    "fixed loop at run start and end")
    except BaseException:
        log(f"{name}: run failed; its logs are in {rundir}")
        raise
    if failures:
        log(f"{name}: {len(failures)} failed checks; the servers' logs are in {rundir}")
    else:
        shutil.rmtree(rundir, ignore_errors=True)
    return Result(name, metrics, attempted, failures)


# -- output -----------------------------------------------------------------------------


def print_result(result: Result) -> None:
    for metric, (value, unit, n, note) in result.metrics.values.items():
        detail = f"n={n}" + (f", {note}" if note else "")
        print(f"{result.workload}/{metric} {value:.6g} {unit} ({detail})")
    for reason in result.failures[:20]:
        print(f"{result.workload}/FAILED {reason}")


def spec_metrics(spec: dict, trace: bool) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def json_line(results: list[Result], spec: dict, trace: bool) -> dict:
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result.workload}/"
        for item in spec_metrics(spec, trace):
            value = result.metrics.values.get(item["name"])
            if value is None:
                raise BenchError(f"{result.workload} produced no {item['name']}")
            metrics[prefix + item["name"]] = {"value": value[0], "unit": item["unit"]}
    failed = sum(len(r.failures) for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }


# -- agreement mode ---------------------------------------------------------------------


def agree(args: argparse.Namespace, spec: dict) -> int:
    """Two interleaved sets of runs of the same code; do they agree within bounds?"""
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values: dict[tuple[str, str, str], list[float]] = {}
    for name in names:
        for i in range(args.runs):
            for side in ("AB" if i % 2 == 0 else "BA"):
                seed = args.seed + 2 * i + (side == "B")
                command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                started = time.monotonic()
                done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                log(f"agreement {name} set {side} run {i + 1}/{args.runs} seed {seed}: "
                    f"exit {done.returncode} after {time.monotonic() - started:.1f} s")
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    log(f"run failed (exit {done.returncode})")
                    return 1
                for metric, entry in json.loads(lines[-1])["metrics"].items():
                    values.setdefault((name, metric, side), []).append(entry["value"])
    ok = True
    print(f"{'workload/metric':36} {'set':3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in names:
        for metric, item in bounds.items():
            stats = {}
            for side in "AB":
                q1, median, q3 = statistics.quantiles(values[(name, metric, side)], n=4)
                stats[side] = (median, q1, q3, (q3 - q1) / median)
            pooled = values[(name, metric, "A")] + values[(name, metric, "B")]
            p1, pmed, p3 = statistics.quantiles(pooled, n=4)
            drift = (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            if item["better"] == "higher":
                drift = -drift
            spread_ok = all(s[3] <= item["bound"] for s in stats.values())
            verdict = "agree" if abs(drift) <= item["bound"] and spread_ok else "DISAGREE"
            ok &= verdict == "agree"
            for side in "AB":
                median, q1, q3, spread = stats[side]
                print(f"{name + '/' + metric:36} {side:3} {median:10.5g} {q1:10.5g} {q3:10.5g} "
                      f"{spread:7.3f} {item['bound']:6.3f}"
                      + (f"  {verdict} (B vs A {drift:+.3f}, pooled spread "
                         f"{(p3 - p1) / pmed:.3f})" if side == "B" else ""))
    return 0 if ok else 1


# -- entry point ------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="RePaGer layer-ledger benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing the per-layer ledger")
    parser.add_argument("--agree", action="store_true",
                        help="run two interleaved sets of --runs runs and compare them")
    parser.add_argument("--runs", type=int, default=10, help="runs per set for --agree")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "repager" / "cli.py").is_file():
        log(f"no RePaGer source tree at {ROOT / 'src'}; run from a full checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.agree:
        return agree(args, spec)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    try:
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            print_result(result)
            results.append(result)
        line = json_line(results, spec, bool(args.trace))
    except (BenchError, RuntimeError, OSError, subprocess.SubprocessError) as exc:
        log(f"error: {exc}")
        return 2
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
