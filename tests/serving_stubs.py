"""Shared serving-test helpers: a stub tenant service and a polling wait."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace


class StubService:
    """Minimal service contract: instant (or gated) canned answers.

    Implements exactly what :meth:`RePaGerApp.handle_request` touches, so the
    tests exercise the real executor, registry and metrics plumbing while the
    "pipeline" completes in microseconds (or blocks on ``gate``).
    """

    def __init__(self, gate: threading.Event | None = None) -> None:
        self.gate = gate
        self.metrics = None  # assigned by attach_service
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
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0), "test gate never opened"
        return {"query": text}, False

    def stale_payload(self, text, **_options):
        return None  # a timeout is a server failure: the app looks for one


def poll(condition, within: float = 30.0) -> bool:
    """Whether ``condition()`` holds within ``within`` seconds of polling."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return condition()
