"""In-flight request coalescing: identical concurrent work shares one future.

The executor and the router both merge duplicates of a request that is still
running onto the first arrival's future.  :class:`Coalescer` is the one place
that bookkeeping lives: the key -> leader-future map, its lock, and the step
that forgets a key once its future resolves.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Hashable

__all__ = ["Coalescer"]


class Coalescer:
    """Key -> leader-future map for strictly in-flight work.

    :meth:`join` hands the first caller for a key a fresh future to resolve
    (the *leader*) and every later caller the same future (*followers*) until
    it resolves.  A resolved future no longer counts as in flight, even before
    its done-callback has removed the entry, so a join after resolution always
    leads anew: coalescing never serves a finished result.  Freshness after
    completion is the result cache's job.
    """

    def __init__(self) -> None:
        self._inflight: dict[Hashable, Future] = {}
        self._lock = threading.Lock()

    def join(self, key: Hashable) -> tuple[Future, bool]:
        """The in-flight future for ``key`` and whether the caller leads.

        A leader must resolve the future (``set_result`` / ``set_exception``)
        on every path: followers wait on it, and resolving it frees the key.
        """
        with self._lock:
            future = self._inflight.get(key)
            if future is not None and not future.done():
                return future, False
            future = self._inflight[key] = Future()
        future.add_done_callback(lambda done: self._forget(key, done))
        return future, True

    def _forget(self, key: Hashable, future: Future) -> None:
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]

    def __len__(self) -> int:
        """Keys in flight; a key leaves as its leader future resolves."""
        with self._lock:
            return len(self._inflight)
