"""Differential harness: the capture fast path is behavior-invisible.

The fast path (position cache + no-history trylock booking) skips the
glock'd avoidance section for history-cold positions, so its soundness
envelope is pinned the way Weak Deadlock Sets pins the budgeted matcher:
run the same scenario packs with the fast path forced ON and forced OFF
and assert the observable outputs are identical, kind for kind —

* the typed event streams carry the same kind sequence;
* verdicts agree (who finished, who detected, who avoided);
* the recorded signatures have the same shape;
* the lifecycle counters agree exactly (including with *no* subscriber,
  where no event is built at all and the counters alone keep count).

Both execution domains run the same packs: the threaded runtime and the
asyncio layer.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.events import EventCounter
from repro.errors import DeadlockDetectedError
from tests.aio.conftest import make_aio_runtime
from tests.conftest import make_runtime

LIFECYCLE_KINDS = (
    "request",
    "acquired",
    "release",
    "yield",
    "resume",
    "detection",
)


def _collect_kinds(runtime) -> list:
    kinds: list[str] = []
    runtime.subscribe(
        lambda event: kinds.append(event.kind), kinds=LIFECYCLE_KINDS
    )
    return kinds


def _signature_shape(signature) -> tuple:
    return (
        signature.kind,
        len(signature.entries),
        tuple(
            (len(entry.outer), len(entry.inner))
            for entry in signature.entries
        ),
    )


def _fast_overrides(fast: bool) -> dict:
    return {"position_cache": fast, "fast_path": fast}


# ----------------------------------------------------------------------
# scenario packs
# ----------------------------------------------------------------------

def _run_threaded_pair(runtime) -> dict:
    """The AB/BA opposite-order pair with a sleep-pinned interleaving."""
    lock_a = runtime.lock("A")
    lock_b = runtime.lock("B")
    outcome = {"finished": [], "detected": 0}

    def ab() -> None:
        try:
            with lock_a:
                time.sleep(0.05)
                with lock_b:
                    outcome["finished"].append("ab")
        except DeadlockDetectedError:
            outcome["detected"] += 1

    def ba() -> None:
        try:
            time.sleep(0.02)
            with lock_b:
                time.sleep(0.06)
                with lock_a:
                    outcome["finished"].append("ba")
        except DeadlockDetectedError:
            outcome["detected"] += 1

    threads = [
        threading.Thread(target=ab, name="pair-ab"),
        threading.Thread(target=ba, name="pair-ba"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert all(not thread.is_alive() for thread in threads)
    return outcome


def _run_threaded_uncontended(runtime, iterations: int = 10) -> None:
    """Single-threaded hot loop: helper nesting, with-blocks, reentrant
    RLock — every acquisition is uncontended and history-cold."""
    lock = runtime.lock("U")
    rlock = runtime.rlock("R")

    def leaf() -> None:
        with lock:
            pass

    def mid() -> None:
        leaf()
        with rlock:
            with rlock:  # recursive: must not re-enter Dimmunix
                pass

    for _ in range(iterations):
        mid()
        lock.acquire()
        lock.release()


def _run_aio_pair(runtime) -> dict:
    lock_a = runtime.lock("A")
    lock_b = runtime.lock("B")
    outcome = {"finished": [], "detected": 0}

    async def ab() -> None:
        try:
            async with lock_a:
                await asyncio.sleep(0)
                async with lock_b:
                    outcome["finished"].append("ab")
        except DeadlockDetectedError:
            outcome["detected"] += 1

    async def ba() -> None:
        try:
            async with lock_b:
                await asyncio.sleep(0)
                async with lock_a:
                    outcome["finished"].append("ba")
        except DeadlockDetectedError:
            outcome["detected"] += 1

    async def drive() -> None:
        await asyncio.gather(
            asyncio.ensure_future(ab()), asyncio.ensure_future(ba())
        )

    asyncio.run(drive())
    return outcome


def _run_aio_uncontended(runtime, iterations: int = 10) -> None:
    async def drive() -> None:
        lock = runtime.lock("U")
        rlock = runtime.rlock("R")

        async def leaf() -> None:
            async with lock:
                pass

        for _ in range(iterations):
            await leaf()
            async with rlock:
                async with rlock:
                    pass
            await lock.acquire()
            lock.release()

    asyncio.run(drive())


# ----------------------------------------------------------------------
# one differential run = the full pack under one fast-path setting
# ----------------------------------------------------------------------

def _threaded_pack(fast: bool) -> dict:
    overrides = _fast_overrides(fast)
    run_one = make_runtime(**overrides)
    kinds_one = _collect_kinds(run_one)
    outcome_one = _run_threaded_pair(run_one)

    run_two = make_runtime(history=run_one.history, **overrides)
    kinds_two = _collect_kinds(run_two)
    outcome_two = _run_threaded_pair(run_two)

    quiet = make_runtime(**overrides)
    kinds_quiet = _collect_kinds(quiet)
    _run_threaded_uncontended(quiet)

    return {
        "kinds": (kinds_one, kinds_two, kinds_quiet),
        "outcomes": (outcome_one, outcome_two),
        "signatures": sorted(
            _signature_shape(sig) for sig in run_one.history
        ),
        "stats": (
            run_one.stats.snapshot(),
            run_two.stats.snapshot(),
            quiet.stats.snapshot(),
        ),
    }


def _aio_pack(fast: bool) -> dict:
    overrides = _fast_overrides(fast)
    run_one = make_aio_runtime(**overrides)
    kinds_one = _collect_kinds(run_one)
    outcome_one = _run_aio_pair(run_one)

    run_two = make_aio_runtime(history=run_one.history, **overrides)
    kinds_two = _collect_kinds(run_two)
    outcome_two = _run_aio_pair(run_two)

    quiet = make_aio_runtime(**overrides)
    kinds_quiet = _collect_kinds(quiet)
    _run_aio_uncontended(quiet)

    return {
        "kinds": (kinds_one, kinds_two, kinds_quiet),
        "outcomes": (outcome_one, outcome_two),
        "signatures": sorted(
            _signature_shape(sig) for sig in run_one.history
        ),
        "stats": (
            run_one.stats.snapshot(),
            run_two.stats.snapshot(),
            quiet.stats.snapshot(),
        ),
    }


# Counters that must agree between fast-on and fast-off runs. The
# fast-path tallies themselves (fastpath_acquires/demotions) and the
# capture-cost timings are *expected* to differ — that is the point.
_PARITY_COUNTERS = (
    "requests",
    "acquisitions",
    "releases",
    "yields",
    "yield_wakeups",
    "deadlocks_detected",
    "starvations_detected",
    "signatures_added",
    "avoided_instantiations",
)


def _assert_pack_parity(fast: dict, slow: dict) -> None:
    assert fast["kinds"] == slow["kinds"]
    assert fast["outcomes"] == slow["outcomes"]
    assert fast["signatures"] == slow["signatures"]
    for fast_stats, slow_stats in zip(fast["stats"], slow["stats"]):
        for counter in _PARITY_COUNTERS:
            assert fast_stats[counter] == slow_stats[counter], counter
    # The differential is meaningful only if the fast side actually
    # took the fast path — and the slow side never did.
    assert fast["stats"][2]["fastpath_acquires"] > 0
    assert all(s["fastpath_acquires"] == 0 for s in slow["stats"])


class TestThreadedFastPathParity:
    def test_pack_parity(self):
        _assert_pack_parity(_threaded_pack(True), _threaded_pack(False))

    def test_pair_verdicts(self):
        pack = _threaded_pack(True)
        outcome_one, outcome_two = pack["outcomes"]
        assert outcome_one["detected"] == 1
        assert outcome_one["finished"] == ["ab"]
        assert outcome_two["detected"] == 0
        assert sorted(outcome_two["finished"]) == ["ab", "ba"]
        # Run 1's detection demoted the fast-path-certified outer
        # positions on the spot; run 2's avoidance ran the exact path.
        assert pack["stats"][0]["fastpath_demotions"] > 0
        assert pack["stats"][1]["yields"] > 0


class TestAioFastPathParity:
    def test_pack_parity(self):
        _assert_pack_parity(_aio_pack(True), _aio_pack(False))

    def test_pair_verdicts(self):
        pack = _aio_pack(True)
        outcome_one, outcome_two = pack["outcomes"]
        assert outcome_one["detected"] == 1
        assert outcome_one["finished"] == ["ab"]
        assert outcome_two["detected"] == 0
        assert sorted(outcome_two["finished"]) == ["ab", "ba"]
        assert pack["stats"][0]["fastpath_demotions"] > 0
        assert pack["stats"][1]["yields"] > 0


class TestUnobservedCounters:
    """With no subscriber the engine publishes nothing on either path;
    the counters must stay exact anyway."""

    def test_threaded_counters_exact_without_subscriber(self):
        fast = make_runtime(position_cache=True, fast_path=True)
        _run_threaded_uncontended(fast)
        slow = make_runtime(position_cache=False, fast_path=False)
        _run_threaded_uncontended(slow)
        for counter in ("requests", "acquisitions", "releases"):
            assert fast.stats.snapshot()[counter] == (
                slow.stats.snapshot()[counter]
            ), counter
        assert fast.stats.fastpath_acquires > 0
        assert fast.events.published == slow.events.published == 0

    def test_aio_counters_exact_without_subscriber(self):
        fast = make_aio_runtime(position_cache=True, fast_path=True)
        _run_aio_uncontended(fast)
        slow = make_aio_runtime(position_cache=False, fast_path=False)
        _run_aio_uncontended(slow)
        for counter in ("requests", "acquisitions", "releases"):
            assert fast.stats.snapshot()[counter] == (
                slow.stats.snapshot()[counter]
            ), counter
        assert fast.stats.fastpath_acquires > 0
        assert fast.events.published == slow.events.published == 0

    def test_subscribing_midway_restores_events(self):
        """The emit guard follows the bus live: events appear from the
        moment a lifecycle subscriber lands, and counters never
        double-count."""
        runtime = make_runtime(position_cache=True, fast_path=True)
        lock = runtime.lock("L")
        with lock:
            pass
        assert runtime.stats.acquisitions == 1
        assert runtime.events.published == 0
        kinds = _collect_kinds(runtime)
        with lock:
            pass
        assert kinds == ["request", "acquired", "release"]
        assert runtime.stats.acquisitions == 2
        assert runtime.stats.releases == 2


# ----------------------------------------------------------------------
# the emit guard: only wanted kinds are built, counters stay whole
# ----------------------------------------------------------------------

# Counter of each lifecycle kind the packs emit (the EventCounter oracle).
_KIND_COUNTERS = {
    "request": "requests",
    "acquired": "acquisitions",
    "release": "releases",
    "yield": "yields",
    "resume": "yield_wakeups",
    "detection": "deadlocks_detected",
    "starvation": "starvations_detected",
}

_DOMAINS = {
    "threaded": (make_runtime, _run_threaded_uncontended, _run_threaded_pair),
    "aio": (make_aio_runtime, _run_aio_uncontended, _run_aio_pair),
}


def _uncontended_then_pair(domain: str, fast: bool, subscriber, kinds=None):
    """The uncontended pack and the AB/BA pair on one runtime whose bus
    carries ``subscriber`` (filtered to ``kinds``) from the start."""
    make, uncontended, pair = _DOMAINS[domain]
    runtime = make(**_fast_overrides(fast))
    runtime.subscribe(subscriber, kinds=kinds)
    uncontended(runtime)
    return runtime, pair(runtime)


class TestEmitGuard:
    """With one subscriber that wants only ``detection`` (the write-behind
    persister's shape) the engine builds no other event on either path,
    and every counter still equals a fully counted run of the pack."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "exact"])
    @pytest.mark.parametrize("domain", sorted(_DOMAINS))
    def test_detection_only_subscriber(self, domain, fast):
        seen: list = []
        guarded, outcome = _uncontended_then_pair(
            domain, fast, seen.append, kinds=("detection",)
        )
        oracle = EventCounter()
        counted, counted_outcome = _uncontended_then_pair(domain, fast, oracle)

        assert outcome == counted_outcome
        assert outcome["detected"] == 1
        assert [event.kind for event in seen] == ["detection"]
        assert guarded.events.published == 1
        for kind, counter in _KIND_COUNTERS.items():
            assert getattr(guarded.stats, counter) == oracle.count(kind), kind
            assert getattr(counted.stats, counter) == oracle.count(kind), kind
        assert oracle.count("request") > 0
        assert (guarded.stats.fastpath_acquires > 0) is fast
        assert (counted.stats.fastpath_acquires > 0) is fast
