"""The typed event stream: bus semantics, engine emission, stats parity.

Three properties are load-bearing for everything downstream:

1. **Ordering** — ``seq`` is bus-wide and strictly increasing, and a
   subscriber observes events in exactly ``seq`` order even under
   concurrent lock traffic from many real threads.
2. **Isolation** — a subscriber that raises never perturbs the lock
   path, the other subscribers, or the stats counters.
3. **Parity** — every emit site bumps its ``DimmunixStats`` counter
   next to the event, so event counts and counters agree kind for kind
   whenever the kind is wanted — and the counters stay exact when it is
   not (the emit guard builds no event nobody subscribed to).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.config import DetectionPolicy, DimmunixConfig
from repro.core.callstack import CallStack
from repro.core.engine import DimmunixCore
from repro.core.events import (
    EVENT_TYPES,
    AcquiredEvent,
    DetectionEvent,
    EventBus,
    EventCounter,
    EventLog,
    JsonlWriter,
    ReleaseEvent,
    RequestEvent,
    YieldEvent,
    event_from_dict,
    event_to_dict,
)
from repro.core.signature import (
    KIND_STARVATION,
    DeadlockSignature,
    SignatureEntry,
)

from tests.conftest import make_runtime


def stack(line: int, file: str = "Ev.java") -> CallStack:
    return CallStack.single(file, line, "f")


def sample_signature(kind: str = "deadlock") -> DeadlockSignature:
    return DeadlockSignature(
        entries=(
            SignatureEntry(outer=stack(1), inner=stack(2)),
            SignatureEntry(outer=stack(3), inner=stack(4)),
        ),
        kind=kind,
    )


# ----------------------------------------------------------------------
# bus semantics
# ----------------------------------------------------------------------

class TestEventBus:
    def test_publish_assigns_strictly_increasing_seq(self):
        bus = EventBus()
        log = EventLog()
        bus.subscribe(log)
        for _ in range(5):
            bus.publish(RequestEvent(thread="t", lock="l"))
        seqs = [event.seq for event in log.events]
        assert seqs == [1, 2, 3, 4, 5]
        assert bus.published == 5
        assert bus.delivered == 5

    def test_kind_filter_accepts_strings_and_classes(self):
        bus = EventBus()
        seen: list = []
        bus.subscribe(seen.append, kinds=("request", AcquiredEvent))
        bus.publish(RequestEvent())
        bus.publish(AcquiredEvent())
        bus.publish(ReleaseEvent())
        assert [event.kind for event in seen] == ["request", "acquired"]

    def test_unknown_kind_is_rejected_eagerly(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kinds"):
            bus.subscribe(lambda e: None, kinds=("no-such-kind",))

    def test_source_filter(self):
        bus = EventBus()
        seen: list = []
        bus.subscribe(seen.append, source="vm-1")
        bus.publish(RequestEvent(source="vm-0"))
        bus.publish(RequestEvent(source="vm-1"))
        assert [event.source for event in seen] == ["vm-1"]

    def test_unsubscribe_by_handle_and_by_callback(self):
        bus = EventBus()
        seen: list = []
        handle = bus.subscribe(seen.append)
        assert bus.unsubscribe(handle)
        bus.publish(RequestEvent())
        assert seen == []

        bus.subscribe(seen.append)
        assert bus.unsubscribe(seen.append)
        bus.publish(RequestEvent())
        assert seen == []
        assert not bus.unsubscribe(seen.append)  # already gone

    def test_subscriber_exception_is_isolated(self):
        bus = EventBus()
        after: list = []

        def broken(event):
            raise RuntimeError("observer bug")

        bus.subscribe(broken)
        bus.subscribe(after.append)
        event = bus.publish(RequestEvent(thread="t"))
        # The publisher never sees the error; later subscribers still run.
        assert event.seq == 1
        assert len(after) == 1
        assert bus.subscriber_errors == 1

    def test_subscribe_during_dispatch_does_not_deadlock(self):
        bus = EventBus()
        late: list = []

        def self_modifying(event):
            bus.subscribe(late.append)

        bus.subscribe(self_modifying)
        bus.publish(RequestEvent())
        bus.unsubscribe(self_modifying)
        bus.publish(RequestEvent())
        # Two subscriptions were added by the two dispatches of
        # self_modifying... no: one dispatch each publish; after the
        # first publish one late subscriber exists and sees event 2.
        assert [event.seq for event in late] == [2]


# ----------------------------------------------------------------------
# wire form
# ----------------------------------------------------------------------

class TestWireForm:
    def test_roundtrip_plain_event(self):
        event = RequestEvent(
            source="rt", ts=1.5, thread="t", lock="l", position=(("F.py", 3),)
        )
        object.__setattr__(event, "seq", 7)
        rebuilt = event_from_dict(json.loads(json.dumps(event_to_dict(event))))
        assert isinstance(rebuilt, RequestEvent)
        assert rebuilt.seq == 7
        assert rebuilt.thread == "t"
        assert rebuilt.position == (("F.py", 3),)

    def test_roundtrip_keeps_ts_ns(self):
        event = RequestEvent(
            source="rt", ts=1.5, ts_ns=123_456_789, thread="t", lock="l"
        )
        data = event_to_dict(event)
        assert data["ts_ns"] == 123_456_789
        rebuilt = event_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.ts_ns == 123_456_789

    def test_missing_ts_ns_defaults_to_zero(self):
        # Recordings that predate the monotonic stamp must still load.
        rebuilt = event_from_dict(
            {"kind": "request", "source": "old", "thread": "t", "lock": "l"}
        )
        assert rebuilt.ts_ns == 0

    def test_engine_stamps_monotonic_ts_ns(self):
        core = DimmunixCore(DimmunixConfig(auto_save=False))
        log = EventLog()
        core.events.subscribe(log)
        thread = core.register_thread("t")
        lock = core.register_lock("l")
        core.request(thread, lock, CallStack.single("f.py", 1))
        core.acquired(thread, lock)
        core.release(thread, lock)
        stamps = [event.ts_ns for event in log.events]
        assert len(stamps) == 3
        assert all(ts_ns > 0 for ts_ns in stamps)
        assert stamps == sorted(stamps)

    def test_roundtrip_signature_event(self):
        signature = sample_signature()
        event = DetectionEvent(
            source="vm", thread="t", lock="l", signature=signature
        )
        rebuilt = event_from_dict(
            json.loads(json.dumps(event_to_dict(event)))
        )
        assert isinstance(rebuilt, DetectionEvent)
        assert rebuilt.signature == signature  # canonical-key equality

    def test_starvation_signature_keeps_kind(self):
        signature = sample_signature(KIND_STARVATION)
        data = event_to_dict(YieldEvent(signature=signature))
        rebuilt = event_from_dict(data)
        assert rebuilt.signature.is_starvation

    def test_every_kind_is_registered(self):
        assert set(EVENT_TYPES) == {
            "request",
            "acquired",
            "release",
            "yield",
            "resume",
            "detection",
            "starvation",
            "match-capped",
            "history-saved",
            "predicted-seeded",
            "fleet-sync",
            "livelock-suspected",
            "watchdog-mitigation",
        }

    def test_roundtrip_livelock_suspected_keeps_report(self):
        from repro.core.events import LivelockSuspectedEvent

        report = {
            "scan": 4,
            "source": "core",
            "oldest_waiter_age_ns": 1_500_000_000,
            "suspects": [
                {
                    "node": "waiter",
                    "reason": "stall",
                    "age_ns": 1_500_000_000,
                    "window": {"request": 1, "acquired": 0},
                }
            ],
            "rag": {"threads": [], "locks": [], "edges": []},
        }
        event = LivelockSuspectedEvent(
            source="core",
            thread="waiter",
            reason="stall",
            age_ns=1_500_000_000,
            scan=4,
            report=report,
        )
        rebuilt = event_from_dict(
            json.loads(json.dumps(event_to_dict(event)))
        )
        assert isinstance(rebuilt, LivelockSuspectedEvent)
        assert rebuilt.kind == "livelock-suspected"
        assert rebuilt.reason == "stall"
        assert rebuilt.age_ns == 1_500_000_000
        # The structured stall report survives the wire untouched.
        assert rebuilt.report == report

    def test_roundtrip_watchdog_mitigation(self):
        from repro.core.events import WatchdogMitigationEvent

        event = WatchdogMitigationEvent(
            source="core",
            thread="victim",
            policy="break_youngest",
            action="bypass-granted",
            reason="yield-storm",
            age_ns=42,
            scan=7,
        )
        rebuilt = event_from_dict(
            json.loads(json.dumps(event_to_dict(event)))
        )
        assert isinstance(rebuilt, WatchdogMitigationEvent)
        assert rebuilt.policy == "break_youngest"
        assert rebuilt.action == "bypass-granted"
        assert rebuilt.scan == 7

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "mystery"})

    def test_jsonl_writer_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlWriter(path) as writer:
            bus.subscribe(writer)
            bus.publish(RequestEvent(thread="t", lock="l"))
            bus.publish(DetectionEvent(signature=sample_signature()))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        events = [event_from_dict(json.loads(line)) for line in lines]
        assert [event.kind for event in events] == ["request", "detection"]
        assert [event.seq for event in events] == [1, 2]


# ----------------------------------------------------------------------
# engine emission + stats parity (single-threaded, scripted)
# ----------------------------------------------------------------------

def drive_abba_deadlock(core: DimmunixCore) -> None:
    """Two threads, AB/BA: the second B-request closes the cycle."""
    t1, t2 = core.register_thread("t1"), core.register_thread("t2")
    a, b = core.register_lock("A"), core.register_lock("B")
    core.request(t1, a, stack(10))
    core.acquired(t1, a)
    core.request(t2, b, stack(20))
    core.acquired(t2, b)
    core.request(t1, b, stack(11))
    result = core.request(t2, a, stack(21))
    assert result.detected is not None


class TestEngineEmission:
    def test_lifecycle_counters_match_event_counts(self):
        core = DimmunixCore(DimmunixConfig(yield_timeout=None))
        counter = EventCounter()
        core.events.subscribe(counter)
        drive_abba_deadlock(core)

        assert core.stats.requests == counter.count("request") == 4
        assert core.stats.acquisitions == counter.count("acquired") == 2
        assert core.stats.deadlocks_detected == counter.count("detection") == 1
        assert core.stats.releases == counter.count("release") == 0

    def test_watchdog_kinds_reach_stats_and_counter(self):
        from repro.core.events import LivelockSuspectedEvent
        from repro.watchdog import LivenessWatchdog

        core = DimmunixCore(
            DimmunixConfig(
                yield_timeout=None, auto_save=False, watchdog_stall_age=0.5
            )
        )
        watchdog = LivenessWatchdog(core, autostart=False)
        counter = EventCounter()
        core.events.subscribe(counter)
        holder = core.register_thread("holder")
        waiter = core.register_thread("waiter")
        lock = core.register_lock("A")
        core.request(holder, lock, stack(1))
        core.acquired(holder, lock)
        core.request(waiter, lock, stack(2))
        # The real publish path: the first scan past the stall age
        # suspects the waiter, the next one mitigates it.
        since = waiter.request_since_ns
        watchdog.scan_once(now_ns=since + 600_000_000)
        watchdog.scan_once(now_ns=since + 700_000_000)
        # A foreign event on the bus reaches the counter, not the stats.
        core.events.publish(
            LivelockSuspectedEvent(source="someone-else", thread="w")
        )
        watchdog.close()
        assert core.stats.livelock_suspects == counter.count(
            "livelock-suspected", source=core.source
        ) == 1
        assert core.stats.watchdog_mitigations == counter.count(
            "watchdog-mitigation", source=core.source
        ) == 1
        assert counter.count("livelock-suspected") == 2

    def test_predicted_seed_tallied_by_the_binding_core_only(self):
        first = DimmunixCore(DimmunixConfig(yield_timeout=None))
        second = DimmunixCore(
            DimmunixConfig(yield_timeout=None),
            history=first.history,
            events=first.events,
            source="second",
        )
        counter = EventCounter()
        first.events.subscribe(counter)
        assert first.history.add_predicted(sample_signature(), origin="t")
        assert counter.count("predicted-seeded", source=first.source) == 1
        assert first.stats.predictions_seeded == 1
        assert second.stats.predictions_seeded == 0

    def test_detection_event_carries_the_recorded_signature(self):
        core = DimmunixCore(DimmunixConfig(yield_timeout=None))
        log = EventLog()
        core.events.subscribe(log, kinds=("detection",))
        drive_abba_deadlock(core)
        (detection,) = log.events
        assert detection.recorded is True
        assert core.history.contains(detection.signature)
        assert detection.thread == "t2"
        assert detection.lock == "A"

    def test_yield_event_emitted_on_avoidance(self):
        history_core = DimmunixCore(
            DimmunixConfig(yield_timeout=None, starvation_detection=False)
        )
        drive_abba_deadlock(history_core)

        core = DimmunixCore(
            DimmunixConfig(yield_timeout=None, starvation_detection=False),
            history=history_core.history,
        )
        log = EventLog()
        core.events.subscribe(log)
        # Replay the interleaving *through* avoidance: t1 yields at the
        # dangerous position, then the direct cycle is forced by the
        # other order, deduplicating against the history.
        t1, t2 = core.register_thread("t1"), core.register_thread("t2")
        a, b = core.register_lock("A"), core.register_lock("B")
        core.request(t2, b, stack(20))
        core.acquired(t2, b)
        result = core.request(t1, a, stack(10))
        assert result.verdict.value == "yield"
        yields = log.of_kind("yield")
        assert len(yields) == 1
        assert yields[0].signature is not None
        assert core.stats.yields == 1

    def test_release_event_reports_notifications(self):
        core = DimmunixCore(DimmunixConfig(yield_timeout=None))
        drive_abba_deadlock(core)
        log = EventLog()
        core.events.subscribe(log, kinds=("release",))
        # Both outer positions are now in the history: releasing A at
        # position 10 must notify the signature that contains it.
        t1 = next(t for t in core.rag.threads() if t.name == "t1")
        a = next(l for l in core.rag.locks() if l.name == "A")
        result = core.release(t1, a)
        (release,) = log.events
        assert release.notified == len(result.notify) == 1
        assert core.stats.notifications == 1

    def test_history_saved_event_on_auto_save(self, tmp_path):
        path = tmp_path / "auto.history"
        core = DimmunixCore(
            DimmunixConfig(yield_timeout=None, history_path=path)
        )
        log = EventLog()
        core.events.subscribe(log, kinds=("history-saved",))
        drive_abba_deadlock(core)
        # Write-behind: the flush (worker or explicit) emits exactly one
        # history-saved event; flush_history waits out any worker race.
        core.flush_history()
        (saved,) = log.events
        assert saved.path == str(path)
        assert saved.signatures == 1
        assert path.exists()

    def test_flush_emits_exactly_one_event_per_batch(self, tmp_path):
        path = tmp_path / "auto.history"
        core = DimmunixCore(
            DimmunixConfig(yield_timeout=None, history_path=path),
            persistence_mode="deferred",
        )
        log = EventLog()
        core.events.subscribe(log, kinds=("history-saved",))
        drive_abba_deadlock(core)
        assert len(log.events) == 0  # nothing saved on the lock path
        core.flush_history()
        assert len(log.events) == 1
        core.flush_history()  # clean store: no second event
        assert len(log.events) == 1

    def test_shared_bus_keeps_per_core_stats_separate(self):
        bus = EventBus()
        core_a = DimmunixCore(
            DimmunixConfig(yield_timeout=None), events=bus, source="a"
        )
        core_b = DimmunixCore(
            DimmunixConfig(yield_timeout=None), events=bus, source="b"
        )
        drive_abba_deadlock(core_a)
        # core_b saw the same bus traffic but none of it was its own.
        assert core_a.stats.requests == 4
        assert core_b.stats.requests == 0
        counter = EventCounter()
        bus.subscribe(counter)
        drive_abba_deadlock(core_b)
        assert core_b.stats.requests == counter.count("request", source="b") == 4

    def test_same_source_on_one_bus_is_rejected(self):
        bus = EventBus()
        DimmunixCore(DimmunixConfig(yield_timeout=None), events=bus)
        with pytest.raises(ValueError, match="already claimed"):
            DimmunixCore(DimmunixConfig(yield_timeout=None), events=bus)
        # detach_events releases the name for a successor core.
        other = DimmunixCore(
            DimmunixConfig(yield_timeout=None), events=bus, source="other"
        )
        other.detach_events()
        DimmunixCore(
            DimmunixConfig(yield_timeout=None), events=bus, source="other"
        )

    def test_broken_subscriber_never_reaches_the_lock_path(self):
        core = DimmunixCore(DimmunixConfig(yield_timeout=None))

        def broken(event):
            raise RuntimeError("boom")

        core.events.subscribe(broken)
        drive_abba_deadlock(core)  # must not raise
        assert core.events.subscriber_errors > 0
        # The counters never pass through the bus: unharmed.
        assert core.stats.requests == 4


# ----------------------------------------------------------------------
# ordering + parity under real concurrent lock traffic
# ----------------------------------------------------------------------

class TestConcurrentOrdering:
    def test_stream_is_totally_ordered_under_contention(self):
        runtime = make_runtime()
        log = EventLog()
        runtime.subscribe(log)
        locks = [runtime.lock(f"l{i}") for i in range(4)]

        def worker(start: int) -> None:
            # Nested pairs in a globally consistent order (lower index
            # first): plenty of contention, structurally deadlock-free,
            # so the stream stays pure request/acquired/release.
            for i in range(25):
                low, high = sorted(((start + i) % 4, (start + i + 1) % 4))
                with locks[low]:
                    with locks[high]:
                        pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        seqs = [event.seq for event in log.events]
        # Dispatch is serialized: arrival order IS seq order, gap-free.
        assert seqs == list(range(1, len(seqs) + 1))
        assert len(seqs) >= 4 * 25 * 2 * 2  # request+acquired per lock, min

        # Per-thread sanity: each thread's events alternate
        # request -> acquired (never two un-acquired requests in a row
        # for real threading traffic that never parks on signatures).
        per_thread: dict[str, list[str]] = {}
        for event in log.events:
            if event.kind in ("request", "acquired"):
                per_thread.setdefault(event.thread, []).append(event.kind)
        for kinds in per_thread.values():
            for first, second in zip(kinds, kinds[1:]):
                if first == "request":
                    assert second == "acquired"

    def test_event_counts_match_stats_under_contention(self):
        runtime = make_runtime()
        counter = EventCounter()
        runtime.subscribe(counter)
        lock = runtime.lock("hot")

        def worker() -> None:
            for _ in range(50):
                with lock:
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)

        stats = runtime.stats
        assert counter.count("request") == stats.requests == 400
        assert counter.count("acquired") == stats.acquisitions == 400
        assert counter.count("release") == stats.releases == 400
