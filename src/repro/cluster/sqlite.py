"""The sqlite file behind each shared store: one connection setup for all.

:class:`~repro.cluster.state.SqliteQuotaStore` and
:class:`~repro.cluster.cache.SqliteCacheStore` each keep one table in a
sqlite file that several replica processes open at once.  They differ only
in their schema and queries; the connection, its pragmas and its lifetime
live here.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Callable

__all__ = ["SqliteFile"]


class SqliteFile:
    """One autocommit connection to a WAL-mode sqlite file, behind a lock.

    WAL journal mode lets concurrent readers proceed while one process
    writes; ``busy_timeout`` makes a writer wait for another replica's write
    instead of failing.  Subclasses set :attr:`SCHEMA`, the
    ``CREATE TABLE IF NOT EXISTS`` statement of their table.

    Args:
        path: Sqlite database file (created on first use).
        clock: Wall-clock seconds; shared rows need a clock every process
            agrees on, so this defaults to ``time.time`` — injectable for
            deterministic tests.
    """

    SCHEMA = ""

    def __init__(self, path: str, clock: Callable[[], float] = time.time) -> None:
        self.path = str(path)
        self._clock = clock
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path, timeout=5.0, check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._conn.execute(self.SCHEMA)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def describe(self) -> dict[str, object]:
        return {"backend": type(self).__name__, "path": self.path}
