"""The unified facade: one session drives every adapter layer.

The acceptance scenario of the API redesign: ``repro.immunity(...)``
yields one session whose runtime, platform patch, weaver, Dalvik VM, and
NDK pthread layer share one config, one history, and one event bus — and
a *single* subscriber on the session observes the typed streams of all
of them, with event-derived counts equal to the legacy ``DimmunixStats``
counters of each adapter.
"""

from __future__ import annotations

import textwrap
import threading
import time

import pytest

import repro
from repro.api import Dimmunix, immunity
from repro.config import DimmunixConfig, InterceptionMode
from repro.core.events import EventCounter, EventLog
from repro.dalvik.program import ProgramBuilder
from repro.errors import DeadlockDetectedError


# ----------------------------------------------------------------------
# scenario drivers
# ----------------------------------------------------------------------

def drive_runtime_abba(session: Dimmunix) -> None:
    """Two real threads, AB/BA; detection the first time, yield after."""
    lock_a = session.lock("account-a")
    lock_b = session.lock("account-b")
    barrier = threading.Barrier(2)

    def meet() -> None:
        try:
            barrier.wait(timeout=0.5)
        except threading.BrokenBarrierError:
            pass

    def one_way(first, second) -> None:
        try:
            with first:
                meet()
                time.sleep(0.01)
                with second:
                    pass
        except DeadlockDetectedError:
            pass

    workers = [
        threading.Thread(target=one_way, args=(lock_a, lock_b)),
        threading.Thread(target=one_way, args=(lock_b, lock_a)),
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)


def ab_program() -> object:
    builder = ProgramBuilder("W.java")
    builder.monitor_enter("A", line=10)
    builder.compute(5)
    builder.monitor_enter("B", line=12)
    builder.compute(2)
    builder.monitor_exit("B", line=14)
    builder.monitor_exit("A", line=15)
    builder.halt()
    return builder.build()


def ba_program() -> object:
    builder = ProgramBuilder("W.java")
    builder.monitor_enter("B", line=20)
    builder.compute(5)
    builder.monitor_enter("A", line=22)
    builder.compute(2)
    builder.monitor_exit("A", line=24)
    builder.monitor_exit("B", line=25)
    builder.halt()
    return builder.build()


# ----------------------------------------------------------------------
# construction and sharing
# ----------------------------------------------------------------------

class TestSessionSharing:
    def test_top_level_exports(self):
        assert repro.Dimmunix is Dimmunix
        assert repro.immunity is immunity

    def test_all_layers_share_config_history_and_bus(self):
        with immunity(yield_timeout=1.0, name="s") as dx:
            runtime = dx.runtime()
            vm = dx.vm()
            weaver = dx.weave()
            native = dx.pthreads()

            assert runtime.config is dx.config
            assert vm.config.dimmunix is dx.config
            assert native.config.native_interception is (
                InterceptionMode.NATIVE_ONLY
            )
            assert runtime.history is dx.history
            assert vm.core.history is dx.history
            assert native.core.history is dx.history
            assert weaver.runtime is runtime
            assert runtime.events is dx.events
            assert vm.events is dx.events
            assert set(dx.components) == {"s/runtime", "s/vm-0", "s/vm-1"}

    def test_match_budget_plumbs_through_every_layer(self):
        """The budgeted-matcher knobs travel the session config into the
        checker of every adapter's core — runtime, aio, VM, and a
        Zygote-forked process alike."""
        from repro.config import MatchCapPolicy
        from repro.dalvik.zygote import Zygote

        with immunity(
            match_step_budget=1234, match_cap_policy="weak", name="mb"
        ) as dx:
            assert dx.config.match_cap_policy is MatchCapPolicy.WEAK
            cores = [dx.runtime().core, dx.aio().core, dx.vm().core]
            for core in cores:
                assert core.checker.budget == 1234
                assert core.checker.policy is MatchCapPolicy.WEAK
            forked = Zygote(
                dx.vm().config.evolve(dimmunix=dx.config)
            ).fork("app")
            assert forked.core.checker.budget == 1234
            assert forked.core.checker.policy is MatchCapPolicy.WEAK

    def test_vm_overrides_and_naming(self):
        with immunity(name="s") as dx:
            vm = dx.vm(seed=7, quantum=4, name="app")
            assert vm.config.seed == 7
            assert vm.config.quantum == 4
            assert vm.name == "app"

    def test_config_overrides_build_or_evolve(self):
        with immunity(stack_depth=2) as dx:
            assert dx.config.stack_depth == 2
        base = DimmunixConfig(stack_depth=3)
        with immunity(base, yield_timeout=None) as dx:
            assert dx.config.stack_depth == 3
            assert dx.config.yield_timeout is None

    def test_patch_layer_binds_to_session_runtime(self):
        with immunity(yield_timeout=1.0) as dx:
            with dx.patch():
                assert type(threading.Lock()).__name__ == "DimmunixLock"
            assert type(threading.Lock()).__name__ == "lock"

    def test_close_uninstalls_the_patch(self):
        with immunity(patch=True):
            assert type(threading.Lock()).__name__ == "DimmunixLock"
        assert type(threading.Lock()).__name__ == "lock"

    def test_session_repr_names_layers(self):
        with immunity(name="r") as dx:
            dx.runtime()
            assert "r/runtime" in repr(dx)


# ----------------------------------------------------------------------
# cross-layer immunity through the shared history
# ----------------------------------------------------------------------

class TestSharedImmunity:
    def test_vm_detection_immunizes_the_next_vm(self):
        with immunity(yield_timeout=1.0, name="x") as dx:
            first = dx.vm(name="gen-1")
            first.spawn(ab_program(), "t-ab")
            first.spawn(ba_program(), "t-ba")
            result = first.run()
            assert len(result.detections) == 1

            second = dx.vm(name="gen-2")
            second.spawn(ab_program(), "t-ab")
            second.spawn(ba_program(), "t-ba")
            assert second.run().status == "completed"
            assert second.detections == []
            assert second.core.stats.yields >= 1

    def test_runtime_traffic_and_vm_traffic_share_one_history(self):
        with immunity(yield_timeout=1.0, name="x") as dx:
            drive_runtime_abba(dx)  # detection in the runtime layer
            vm = dx.vm(name="app")
            vm.spawn(ab_program(), "t-ab")
            vm.spawn(ba_program(), "t-ba")
            vm.run()
            # One history accumulated signatures from both layers.
            assert len(dx.history) >= 2
            assert dx.stats.deadlocks_detected == 2


# ----------------------------------------------------------------------
# the acceptance criterion: one subscriber, all adapters, exact parity
# ----------------------------------------------------------------------

class TestUnifiedEventStream:
    def test_single_subscriber_sees_both_adapters_with_parity(self):
        """Detection/Yield/Resume from runtime AND dalvik on one
        subscription, event-derived counts == legacy stats counters."""
        with immunity(yield_timeout=1.0, name="s") as dx:
            counter = EventCounter()
            log = EventLog()
            dx.subscribe(counter)
            dx.subscribe(log, kinds=("detection", "yield", "resume"))

            # Round 1 detects in the real-thread runtime; round 2 runs
            # the same positions and must yield + resume instead.
            drive_runtime_abba(dx)
            drive_runtime_abba(dx)

            # Same story in the simulated VM, against the same history.
            first_vm = dx.vm(name="vm-gen-1")
            first_vm.spawn(ab_program(), "t-ab")
            first_vm.spawn(ba_program(), "t-ba")
            first_vm.run()
            second_vm = dx.vm(name="vm-gen-2")
            second_vm.spawn(ab_program(), "t-ab")
            second_vm.spawn(ba_program(), "t-ba")
            assert second_vm.run().status == "completed"

            runtime = dx.runtime()
            sources = {event.source for event in log.events}
            kinds_by_source = {
                source: {
                    event.kind
                    for event in log.events
                    if event.source == source
                }
                for source in sources
            }
            # Both adapters streamed through the one subscription...
            # (explicit adapter names are used verbatim as sources;
            # auto-named adapters get the session prefix).
            assert "s/runtime" in sources
            assert "vm-gen-1" in sources or "vm-gen-2" in sources
            assert "detection" in kinds_by_source["s/runtime"]
            assert {"yield", "resume"} <= kinds_by_source["s/runtime"]
            vm_kinds = kinds_by_source.get(
                "vm-gen-1", set()
            ) | kinds_by_source.get("vm-gen-2", set())
            assert {"detection", "yield", "resume"} <= vm_kinds

            # ... and the event-derived counts equal the legacy
            # counters, per adapter and in aggregate.
            for core, source in [
                (runtime.core, "s/runtime"),
                (first_vm.core, "vm-gen-1"),
                (second_vm.core, "vm-gen-2"),
            ]:
                stats = core.stats
                assert counter.count("request", source) == stats.requests
                assert counter.count("acquired", source) == stats.acquisitions
                assert counter.count("release", source) == stats.releases
                assert counter.count("yield", source) == stats.yields
                assert counter.count("resume", source) == stats.yield_wakeups
                assert (
                    counter.count("detection", source)
                    == stats.deadlocks_detected
                )
                assert (
                    counter.count("starvation", source)
                    == stats.starvations_detected
                )
            aggregate = dx.stats
            assert counter.count("request") == aggregate.requests
            assert counter.count("detection") == aggregate.deadlocks_detected
            assert counter.count("yield") == aggregate.yields

            # The built-in session counter agrees with the ad-hoc one.
            assert dx.counter.counts == counter.counts

    def test_stream_seq_is_strictly_increasing_across_adapters(self):
        with immunity(yield_timeout=1.0, name="s") as dx:
            log = dx.tail()
            drive_runtime_abba(dx)
            vm = dx.vm()
            vm.spawn(ab_program(), "t-ab")
            vm.run()
            seqs = [event.seq for event in log.events]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
            assert {event.source for event in log.events} >= {
                "s/runtime",
                "s/vm-0",
            }

    def test_weaver_layer_feeds_the_session_stream(self):
        module_source = textwrap.dedent(
            """
            import threading

            lock = threading.Lock()

            def bump():
                with lock:
                    return 1
            """
        ).strip()
        with immunity(yield_timeout=1.0, name="w") as dx:
            counter = EventCounter()
            dx.subscribe(counter, source="w/runtime")
            woven = dx.weave().instrument(module_source, "mod.py")
            assert woven.bump() == 1
            assert counter.count("request") == 1
            assert counter.count("acquired") == 1
            assert counter.count("release") == 1

    def test_pthreads_layer_feeds_the_session_stream(self):
        builder = ProgramBuilder("native.c")
        builder.native_lock("m", line=5)
        builder.compute(2)
        builder.native_unlock("m", line=7)
        builder.halt()
        with immunity(yield_timeout=None, name="n") as dx:
            vm = dx.pthreads(mode=InterceptionMode.NATIVE_ONLY, name="jni")
            vm.spawn(builder.build(), "native-thread")
            vm.run()
            assert dx.counter.count("request", "jni") == 1
            assert dx.counter.count("acquired", "jni") == 1
            assert dx.counter.count("release", "jni") == 1

    def test_recorder_writes_the_session_stream(self, tmp_path):
        path = tmp_path / "session.jsonl"
        with immunity(yield_timeout=1.0, name="rec") as dx:
            dx.record(path)
            drive_runtime_abba(dx)
        lines = path.read_text().splitlines()
        assert len(lines) == dx.events.published
        assert dx.counter.count("detection") == 1

    def test_predicted_seed_counts_once_in_session_stats(self):
        from repro.core.callstack import CallStack
        from repro.core.signature import DeadlockSignature, SignatureEntry

        signature = DeadlockSignature(
            [
                SignatureEntry(
                    CallStack.single("p.py", 1), CallStack.single("p.py", 2)
                ),
                SignatureEntry(
                    CallStack.single("p.py", 3), CallStack.single("p.py", 4)
                ),
            ]
        )
        with immunity(auto_save=False) as dx:
            # Three cores share the history; the seed is still one.
            dx.runtime()
            dx.aio()
            dx.vm()
            assert dx.history.add_predicted(signature, origin="lint")
            assert dx.counter.count("predicted-seeded") == 1
            assert dx.stats.predictions_seeded == 1

    def test_save_history_emits_history_saved(self, tmp_path):
        with immunity(yield_timeout=1.0, name="hs") as dx:
            log = dx.tail()
            drive_runtime_abba(dx)
            target = dx.save_history(tmp_path / "s.history")
            assert target.exists()
            saved = [e for e in log.events if e.kind == "history-saved"]
            assert saved and saved[-1].signatures == len(dx.history)


# ----------------------------------------------------------------------
# facade ergonomics
# ----------------------------------------------------------------------

class TestErgonomics:
    def test_save_history_without_path_raises(self):
        with immunity() as dx:
            with pytest.raises(ValueError, match="no history location"):
                dx.save_history()

    def test_close_is_idempotent(self):
        dx = Dimmunix()
        dx.close()
        dx.close()

    def test_closed_session_stops_consuming_a_shared_bus(self):
        from repro.core.events import EventBus

        bus = EventBus()
        first = Dimmunix(events=bus, name="first")
        log = first.tail()
        with first.lock("l"):
            pass
        counted = first.counter.total
        assert counted > 0
        first.close()

        second = Dimmunix(events=bus, name="second")
        with second.lock("m"):
            pass
        # The closed session's counter and tail log are detached.
        assert first.counter.total == counted
        assert all(event.source != "second/runtime" for event in log.events)
        assert second.counter.count("acquired", "second/runtime") == 1
        second.close()

    def test_closed_session_cores_stop_counting_shared_bus(self):
        from repro.core.events import EventBus

        bus = EventBus()
        first = Dimmunix(events=bus)  # default name on purpose:
        with first.lock("l"):         # successor shares the source string
            pass
        acquired_before = first.stats.acquisitions
        first.close()
        baseline_subs = bus.subscriber_count

        second = Dimmunix(events=bus)
        with second.lock("m"):
            pass
        assert first.stats.acquisitions == acquired_before
        assert second.stats.acquisitions == 1
        second.close()
        # No dead per-core subscriptions pile up on the shared bus.
        assert bus.subscriber_count <= baseline_subs

    def test_uninstall_does_not_clobber_other_sessions_patch(self):
        from repro.runtime import patch as patch_module

        d1 = Dimmunix(DimmunixConfig(yield_timeout=1.0), name="one")
        d2 = Dimmunix(DimmunixConfig(yield_timeout=1.0), name="two")
        try:
            d1.install()
            d2.install()  # rebinds the process patch to d2's runtime
            d1.close()    # must NOT strip d2's immunity
            assert patch_module.installed_runtime() is d2.runtime()
            assert type(threading.Lock()).__name__ == "DimmunixLock"
        finally:
            d2.close()
            assert not patch_module.is_installed()

    def test_vm_rejects_dimmunix_override_with_clear_error(self):
        with immunity() as dx:
            with pytest.raises(ValueError, match="session config"):
                dx.vm(dimmunix=DimmunixConfig())

    def test_unsubscribe_via_session(self):
        with immunity() as dx:
            seen: list = []
            handle = dx.subscribe(seen.append)
            assert dx.unsubscribe(handle)
            with dx.lock("l"):
                pass
            assert seen == []
