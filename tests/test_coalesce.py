"""The shared in-flight coalescer behind the executor and the router.

Every case here is deterministic: futures are resolved by the test itself,
so leader/follower roles never depend on which thread wins a race.  The one
stress test runs more threads than cores with a shortened switch interval
and checks invariants that a lost update in the key map would break.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.serving.coalesce import Coalescer


def test_first_join_leads_and_later_joins_share_its_future():
    coalescer = Coalescer()
    leader, leads = coalescer.join("k")
    follower, follower_leads = coalescer.join("k")
    assert leads is True
    assert follower_leads is False
    assert follower is leader
    other, other_leads = coalescer.join("other")
    assert other_leads is True
    assert other is not leader


def test_followers_see_the_leaders_result():
    coalescer = Coalescer()
    leader, _ = coalescer.join("k")
    follower, _ = coalescer.join("k")
    leader.set_result("reading path")
    assert follower.result(timeout=0) == "reading path"


def test_followers_see_the_leaders_exception():
    coalescer = Coalescer()
    leader, _ = coalescer.join("k")
    follower, _ = coalescer.join("k")
    leader.set_exception(RuntimeError("solver exploded"))
    with pytest.raises(RuntimeError, match="solver exploded"):
        follower.result(timeout=0)


def test_join_after_the_leader_resolves_leads_anew(monkeypatch):
    """A resolved future is never handed out, even while its entry is still
    in the map: here the forget-on-resolve callback is switched off, which
    is the state a waiter woken by ``set_result`` can observe before the
    resolving thread has run the callbacks."""
    coalescer = Coalescer()
    first, _ = coalescer.join("k")
    first.set_result("old")
    second, leads = coalescer.join("k")
    assert leads is True
    assert second is not first
    assert not second.done()

    monkeypatch.setattr(coalescer, "_forget", lambda key, future: None)
    second.set_result("stale")
    assert len(coalescer) == 1  # the resolved entry is still there
    third, leads = coalescer.join("k")
    assert leads is True
    assert third is not second


def test_no_entry_is_left_once_every_future_resolves():
    coalescer = Coalescer()
    futures = [coalescer.join(key)[0] for key in ("a", "b", "a", "c")]
    assert len(coalescer) == 3
    futures[0].set_result(1)  # "a", shared with futures[2]
    futures[1].set_exception(ValueError("b failed"))
    futures[3].cancel()
    assert len(coalescer) == 0


def test_stress_followers_get_their_own_keys_value():
    """8 threads over 4 keys: two threads want each key at every step, and
    leaders yield before resolving so that followers occur."""
    coalescer = Coalescer()
    keys = [f"key-{n}" for n in range(4)]
    rounds = 300
    num_threads = 8
    lock = threading.Lock()
    leading: set[str] = set()
    errors: list[str] = []
    counts = {"leaders": 0, "followers": 0}

    def worker(index: int) -> None:
        led = followed = 0
        for step in range(rounds):
            key = keys[(index + step) % len(keys)]
            future, leads = coalescer.join(key)
            if leads:
                with lock:
                    if key in leading:
                        errors.append(f"two unresolved leaders for {key}")
                    leading.add(key)
                time.sleep(0)  # yield: let the other thread join as a follower
                with lock:
                    leading.discard(key)
                future.set_result(key)
                led += 1
            else:
                value = future.result(timeout=30)
                if value != key:
                    errors.append(f"follower of {key} got {value!r}")
                followed += 1
        with lock:
            counts["leaders"] += led
            counts["followers"] += followed

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(index,), daemon=True)
            for index in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)

    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert counts["leaders"] + counts["followers"] == num_threads * rounds
    assert len(coalescer) == 0
