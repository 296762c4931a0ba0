"""Serving processes: spawn ``repager serve`` / ``repager route``, wait, measure, stop."""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import threading
import time
import urllib.request
from pathlib import Path

_URL = re.compile(r"\bon (http://[^\s]+)")


class ServingProcess:
    """One serving OS process whose stdout announces the URL it listens on."""

    def __init__(self, label: str, argv: list[str], env: dict[str, str], cwd: Path,
                 log: Path) -> None:
        self.label = label
        self._log = open(log, "w", encoding="utf-8")
        self.popen = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.url: str | None = None

    def _read(self) -> None:
        assert self.popen.stdout is not None
        for line in self.popen.stdout:
            self._log.write(line)
            self._lines.put(line)
        self._lines.put(None)

    def wait_url(self, deadline: float) -> str:
        """Block until the process prints ``... on http://host:port`` (its ready line)."""
        while self.url is None:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"timed out waiting for the {self.label} to listen") from None
            if line is None:
                raise RuntimeError(
                    f"the {self.label} exited with {self.popen.wait()} before listening"
                )
            match = _URL.search(line)
            if match and line.startswith(("serving corpora", "routing corpora")):
                self.url = match.group(1)
        return self.url

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) of the live process, in MB."""
        with open(f"/proc/{self.popen.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 15.0) -> int:
        """SIGINT (the CLI's orderly shutdown), then SIGKILL; always reaps."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGINT)
            try:
                self.popen.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        self._reader.join(timeout=5.0)
        self._log.close()
        return self.popen.returncode


def get_json(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def wait_healthy(url: str, deadline: float, router: bool) -> None:
    """Poll ``/healthz`` until the corpus answers as ready (placed, for a router)."""
    while True:
        try:
            health = get_json(url + "/healthz")
            if not router or health.get("status") == "ok":
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"{url} never became healthy")
        time.sleep(0.005)


def child_env(root: Path, seed: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONUNBUFFERED"] = "1"
    return env
