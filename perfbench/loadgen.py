"""Load generation: keep-alive HTTP clients, a closed loop, the tail rule.

Everything here is stdlib-only and knows nothing about the program under test
beyond its HTTP surface, so the same code drives the untraced and the traced
runs.  Latency is always taken on the client with ``time.perf_counter``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10
#: Percentiles the tail rule may report, lowest first: whole percents to 90,
#: then tenths.  Fine steps keep the reported tail from jumping when a run's
#: sample count moves across the size one rung needs.
TAIL_LADDER = (*map(float, range(50, 90)), *(tenths / 10 for tenths in range(900, 1000)))


def _rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values (always a real sample)."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> float | None:
    """The highest ladder percentile with at least 10 of ``n`` samples beyond it.

    ``None`` when even the lowest rung leaves fewer than 10 samples beyond it.
    """
    best = None
    for p in ladder:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def tail(values: Sequence[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, samples beyond)`` by the tail rule, or ``None``."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    if p is None:
        return None
    return p, percentile(ordered, p), len(ordered) - _rank(p, len(ordered))


# -- HTTP ---------------------------------------------------------------------------


@dataclass(slots=True)
class Sample:
    """One request as the client saw it (times are ``perf_counter`` seconds)."""

    key: int
    request_id: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    error: str | None = None

    @property
    def latency(self) -> float:
        """Latency from when the request was due (its connection became free)."""
        return self.done - self.due

    @property
    def service(self) -> float:
        """Send-to-response time on the wire (what the servers' spans cover)."""
        return self.done - self.sent

    @property
    def late(self) -> float:
        return self.sent - self.due


class Connection:
    """One keep-alive HTTP/1.1 connection posting query bodies to one URL path."""

    def __init__(self, host: str, port: int, path: str, timeout: float = 30.0) -> None:
        self.host, self.port, self.path, self.timeout = host, port, path, timeout
        self._conn: http.client.HTTPConnection | None = None

    def post(self, body: bytes, request_id: str) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            self._conn.request(
                "POST",
                self.path,
                body=body,
                headers={"Content-Type": "application/json", "X-Request-Id": request_id},
            )
            response = self._conn.getresponse()
            data = response.read()
        except BaseException:
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def query_body(query: dict) -> bytes:
    return json.dumps(query, separators=(",", ":")).encode("utf-8")


def exchange(
    conn: Connection, key: int, body: bytes, request_id: str, due: float
) -> Sample:
    sent = time.perf_counter()
    try:
        status, data = conn.post(body, request_id)
        error = None
    except (OSError, http.client.HTTPException) as exc:
        status, data, error = 0, b"", f"{type(exc).__name__}: {exc}"
    return Sample(key, request_id, due, sent, time.perf_counter(), status, data, error)


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    conns: Sequence[Connection],
    streams: Sequence[Callable[[], int | None]],
    bodies: Sequence[bytes],
    seconds: float,
    id_prefix: str,
) -> tuple[list[Sample], float]:
    """Each connection sends its stream's next key as soon as its last reply lands.

    ``streams[i]()`` returns the next key index for connection ``i`` (``None``
    ends that connection early).  A request is due the moment the previous
    one on its connection completed, so lateness measures only the client's
    own overhead.  Returns the samples and the phase's wall time.
    """
    samples: list[Sample] = []
    counter = itertools.count()
    start = time.perf_counter()
    stop_at = start + seconds

    def worker(conn: Connection, stream: Callable[[], int | None]) -> None:
        due = start
        while due < stop_at:
            key = stream()
            if key is None:
                return
            sample = exchange(conn, key, bodies[key], f"{id_prefix}-{next(counter)}", due)
            samples.append(sample)
            due = sample.done

    _run_threads([lambda c=c, s=s: worker(c, s) for c, s in zip(conns, streams)])
    end = max((s.done for s in samples), default=time.perf_counter())
    return samples, end - start


def host_reference() -> float:
    """Seconds a fixed pure-Python loop takes: a gauge of host speed, never a scale."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return time.perf_counter() - started
