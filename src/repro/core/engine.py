"""The Dimmunix core engine.

This is the paper's "Dimmunix core" (661 LOC of C in Dalvik): the state
machine behind the three entry points called around every monitor
operation —

* :meth:`DimmunixCore.request` before ``monitorenter`` (detection +
  avoidance),
* :meth:`DimmunixCore.acquired` right after ``monitorenter`` (RAG update),
* :meth:`DimmunixCore.release` right before ``monitorexit`` (RAG update +
  signature notifications).

The engine is deliberately *pure*: it never blocks, sleeps, or touches
threading primitives. It returns verdicts — ``PROCEED``, or ``YIELD`` with
the signature to park on — and lists of threads to wake; the adapters
(:mod:`repro.runtime` for real threads, :mod:`repro.dalvik` for the
simulated VM) do the actual parking and waking. This is what lets one
algorithm serve both a live ``threading`` process and a deterministic
virtual-time phone simulation.

Thread-safety contract: all engine calls must be serialized by the
caller — the paper uses a process-global lock around Request/Acquired/
Release, and so do our adapters.

Every decision bumps its ``DimmunixStats`` counter at the site that
makes it, and is also published as a typed event on the engine's
:class:`~repro.core.events.EventBus` (request, acquired, release, yield,
resume, detection, starvation, match-capped, history-saved) — but only
when some subscriber wants that kind (:meth:`DimmunixCore._emit` is the
one place that decides). Subscribers (profilers, CLIs, aggregators)
observe the stream without touching the counters.

Persistence is one of those subscribers: the engine itself performs no
file I/O. Recording a signature updates the in-memory store; the
:class:`~repro.core.store.WriteBehindPersister` — subscribed to the
``detection``/``starvation`` events the engine already publishes —
batches the actual flush off the lock path, and announces each flush as
one ``history-saved`` event. Ordering therefore is: the
``detection``/``starvation`` event first, the corresponding
``history-saved`` *after* it (asynchronously in thread mode, at the
next explicit ``flush_history()`` in deferred mode).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config import DimmunixConfig
from repro.core.avoidance import InstantiationChecker
from repro.core.callstack import CallStack
from repro.core.events import (
    AcquiredEvent,
    DetectionEvent,
    EventBus,
    MatchCappedEvent,
    ReleaseEvent,
    RequestEvent,
    ResumeEvent,
    StarvationEvent,
    YieldEvent,
)
from repro.core.cycle import (
    LockCycle,
    find_extended_cycle,
    find_lock_cycle,
)
from repro.core.detector import (
    signature_from_cycle,
    signature_from_extended,
    starvation_signature_for_timeout,
)
from repro.core.history import History, open_history
from repro.core.node import LockNode, ThreadNode
from repro.core.position import Position, PositionTable, _QueueCell
from repro.core.rag import ResourceAllocationGraph
from repro.core.signature import DeadlockSignature
from repro.core.stats import DimmunixStats, MemoryFootprint


class RequestVerdict(enum.Enum):
    """Outcome of a lock request."""

    PROCEED = "proceed"
    YIELD = "yield"


@dataclass
class RequestResult:
    """What the adapter must do after a :meth:`DimmunixCore.request` call.

    ``verdict``
        ``PROCEED``: go ahead and (possibly blockingly) acquire the lock,
        then call :meth:`DimmunixCore.acquired`.
        ``YIELD``: park on ``yield_on``'s condition until notified (or the
        safety-net timeout fires), then call ``request`` again.
    ``detected``
        A deadlock signature recorded by this call: the request closes a
        RAG cycle. The adapter applies the configured
        :class:`~repro.config.DetectionPolicy`.
    ``starvation``
        A starvation signature recorded by this call (yield edges formed a
        cycle).
    ``resume``
        Yielding threads that must be woken now (they received one-shot
        bypass grants); the adapter notifies the conditions of their
        ``yielding_on`` signatures.
    """

    verdict: RequestVerdict
    yield_on: Optional[DeadlockSignature] = None
    detected: Optional[DeadlockSignature] = None
    cycle: Optional[LockCycle] = None
    starvation: Optional[DeadlockSignature] = None
    resume: tuple[ThreadNode, ...] = ()


@dataclass
class ReleaseResult:
    """Signatures whose parked threads must be notified after a release."""

    notify: tuple[DeadlockSignature, ...] = ()


# Shared result for the no-wake release (see DimmunixCore.release).
_NO_NOTIFY = ReleaseResult()


@dataclass
class EngineSnapshot:
    """A structural snapshot for diagnostics and tests."""

    threads: int
    locks: int
    positions: int
    history_size: int
    yielding: int
    blocked: int
    extra: dict = field(default_factory=dict)


class DimmunixCore:
    """One per-process Dimmunix instance (the paper's ``initDimmunix``)."""

    def __init__(
        self,
        config: Optional[DimmunixConfig] = None,
        history: Optional[History] = None,
        *,
        events: Optional[EventBus] = None,
        source: str = "core",
        clock: Optional[Callable[[], float]] = None,
        persistence_mode: str = "thread",
    ) -> None:
        self.config = config or DimmunixConfig()
        self.history = (
            history
            if history is not None
            else open_history(
                self.config.resolved_history_url(), self.config.max_signatures
            )
        )
        self.positions = PositionTable()
        self.stats = DimmunixStats()
        self.rag = ResourceAllocationGraph()
        self.checker = InstantiationChecker(
            self.positions,
            self.stats,
            budget=self.config.match_step_budget,
            policy=self.config.match_cap_policy,
        )
        self._yield_count = 0
        # Opt-in phase-latency telemetry. ``None`` when off, so every
        # instrumented site (here and in the adapters/lock classes that
        # read this attribute) pays exactly one ``is not None`` check on
        # the disabled path — the cost the E1 overhead gate holds.
        if self.config.telemetry:
            from repro.telemetry import TelemetryCollector

            self.telemetry: Optional[TelemetryCollector] = (
                TelemetryCollector()
            )
        else:
            self.telemetry = None
        # The typed event stream. A shared bus (one session, several
        # adapters) is fine: events carry this core's ``source``, and the
        # counters are bumped by this core's own sites, never by the bus.
        self.source = source
        self.events = events if events is not None else EventBus()
        self._clock = clock
        # Adapter wake hooks: each adapter sharing this engine registers
        # one callback and gets told when a signature's parked threads
        # must be woken — the cross-domain bridge that lets a real
        # thread's release resume a parked asyncio task and vice versa.
        self._wakers: list[Callable[[DeadlockSignature], None]] = []
        # Claiming the source catches two same-named cores on one bus —
        # their events would be indistinguishable to source filters.
        self.events.claim_source(source)
        # Persistence wiring: bind the history's save and seed
        # announcements to this bus and stats (first core wins on a
        # session-shared history) and attach the write-behind persister
        # when the backend is durable.
        # The engine itself never writes a file — see the module
        # docstring.
        self.history.bind_events(self.events, source, self.stats)
        # Demotion policy: predictions that never matched age by one run
        # per engine start-up and expire at the TTL. Idempotent on a
        # session-shared history (one aging step per process run).
        if self.config.predicted_ttl_runs:
            self.stats.predictions_expired += self.history.expire_predictions(
                self.config.predicted_ttl_runs
            )
        self._attached_persister = False
        if self.config.auto_save and self.history.store.persistent:
            if self.history.persister is None:
                from repro.core.store import WriteBehindPersister

                self.history.attach_persister(
                    WriteBehindPersister(
                        self.history,
                        self.events,
                        mode=persistence_mode,
                        telemetry=self.telemetry,
                    )
                )
                self._attached_persister = True
            elif persistence_mode == "thread":
                # A shared history is first-wins on the persister; if a
                # deferred-mode adapter (a VM) attached it first, a
                # real-thread core joining the session upgrades it —
                # real threads that deadlock never reach an explicit
                # flush point, so durability must be background.
                self.history.persister.ensure_thread_mode()
        # Liveness watchdog: llkd-style forward-progress monitoring off
        # the event spine, for the hangs cycle detection cannot see.
        # A pure bus subscriber plus its own scanner thread — nothing is
        # added to the lock path, so the disabled default costs zero
        # (no subscription, not even an attribute check at any engine
        # site). Created before the sync pump so the pump can carry this
        # core's liveness health in its fleet metrics report.
        self.watchdog = None
        if self.config.watchdog:
            from repro.watchdog import LivenessWatchdog

            self.watchdog = LivenessWatchdog(self)
        # Fleet sync: when configured and the backend is shared (it has
        # a refresh()), keep this process's immunity current with the
        # pool — antibodies earned by siblings arrive without a restart.
        self._attached_pump = False
        if self.config.fleet_sync_interval is not None and hasattr(
            self.history.store, "refresh"
        ):
            if self.history.sync_pump is None:
                from repro.fleet.pump import SyncPump

                self.history.attach_sync_pump(
                    SyncPump(
                        self.history,
                        self.events,
                        interval=self.config.fleet_sync_interval,
                        source=source,
                        stats=self.stats,
                        telemetry=self.telemetry,
                        health_provider=(
                            self.watchdog.health
                            if self.watchdog is not None
                            else None
                        ),
                    )
                )
                self._attached_pump = True

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def detach_events(self) -> None:
        """Retire this core from the (shared) bus.

        Used by session teardown so a retired core leaves nothing
        subscribed on a bus that outlives it: the watchdog and sync
        pump this core started are stopped, and the source name becomes
        claimable again. Pending antibodies are flushed first — a
        retiring core must not strand signatures in memory — and a
        persister this core attached is closed (worker joined,
        subscription dropped); the history itself stays usable.
        """
        if self.watchdog is not None:
            self.watchdog.close()
            self.watchdog = None
        if self._attached_pump:
            self.history.detach_sync_pump()
            self._attached_pump = False
        if self._attached_persister:
            self.history.detach_persister()
            self._attached_persister = False
        self.flush_history()
        self.events.release_source(self.source)

    # ------------------------------------------------------------------
    # node lifecycle (paper: initNode on allocThread / dvmCreateMonitor)
    # ------------------------------------------------------------------

    def register_thread(self, name: str = "") -> ThreadNode:
        thread = ThreadNode(name)
        self.rag.add_thread(thread)
        return thread

    def register_lock(self, name: str = "") -> LockNode:
        lock = LockNode(name)
        self.rag.add_lock(lock)
        return lock

    def thread_exit(self, thread: ThreadNode) -> None:
        """Clean up a dying thread: release bookkeeping for anything held.

        A correct program releases everything before exiting; this is a
        robustness path for crashed threads so their queue entries do not
        pin positions forever. The forced releases fan their signature
        notifications through the adapter wakers like any ordinary
        release — a unit parked on a signature the dead thread was
        blocking must not wait for the safety-net timeout.
        """
        for lock in list(thread.held):
            result = self.release(thread, lock)
            if result.notify:
                self.notify_signatures(result.notify)
        if thread.requesting is not None:
            self.cancel_request(thread, thread.requesting)
        if thread.yielding_on is not None:
            self.rag.clear_yield(thread)
            self._yield_count -= 1
        self.rag.remove_thread(thread)

    def lock_destroyed(self, lock: LockNode) -> None:
        self.rag.remove_lock(lock)

    # ------------------------------------------------------------------
    # adapter wake hooks (cross-domain parking)
    # ------------------------------------------------------------------

    def add_waker(
        self, waker: Callable[[DeadlockSignature], None]
    ) -> Callable[[DeadlockSignature], None]:
        """Register an adapter's wake callback on this engine.

        Every adapter that parks execution units on signatures (the
        real-thread runtime on condition variables, the asyncio adapter
        on futures) registers exactly one waker. Wakers run under the
        adapter's global lock, on whatever thread triggered the wake —
        they must be quick and must not block. This is what makes a
        *shared* engine cross-domain: a release performed by an OS
        thread notifies the asyncio adapter's parked tasks too.
        """
        self._wakers.append(waker)
        return waker

    def remove_waker(self, waker: Callable[[DeadlockSignature], None]) -> None:
        """Unregister a waker (adapter teardown)."""
        try:
            self._wakers.remove(waker)
        except ValueError:
            pass

    def notify_signatures(
        self, signatures: tuple[DeadlockSignature, ...]
    ) -> None:
        """Fan a set of wakeable signatures out to every registered waker.

        Called by adapters after :meth:`release` (with ``result.notify``)
        so *all* adapters sharing this engine — not just the releasing
        one — re-check their parked threads/tasks.
        """
        if not self._wakers:
            return
        for signature in signatures:
            for waker in tuple(self._wakers):
                waker(signature)

    def wake_yielders(self, threads: tuple[ThreadNode, ...]) -> None:
        """Wake specific yielding threads (starvation resume lists)."""
        if not self._wakers:
            return
        for thread in threads:
            if thread.yielding_on is not None:
                self.notify_signatures((thread.yielding_on,))

    # ------------------------------------------------------------------
    # the three entry points
    # ------------------------------------------------------------------

    def request(
        self, thread: ThreadNode, lock: LockNode, stack: CallStack
    ) -> RequestResult:
        """Called before ``monitorenter``; returns the verdict.

        Mirrors the paper's ``Request`` plus the retry loop's bookkeeping:
        detection first (is a cycle about to close?), then avoidance
        (would granting instantiate a history signature?), with starvation
        checks at both the triggering and the yielding side.

        Cost contract: detection is a chain walk bounded by the cycle
        length, and every instantiation check this call performs — the
        avoidance loop over ``signatures_at`` and the starvation-relief
        recheck in :meth:`_starvation_override` — runs under the
        config's ``match_step_budget``, so one request can never wedge
        the engine on an adversarially long signature. A capped check is
        resolved by ``match_cap_policy`` (``grant``: proceed as if not
        instantiable; ``weak``: park if the polynomial
        over-approximation says the deadlock could re-form) and
        announced as a ``MatchCappedEvent``.
        """
        truncated = stack.truncated(self.config.stack_depth)
        position = self.positions.intern(truncated)
        if not position.in_history and self.history.contains_position(
            position.key
        ):
            self._position_went_hot(position)

        # A retry after a yield: drop the stale yield edges first.
        if thread.yielding_on is not None:
            self.stats.yield_wakeups += 1
            self._emit(ResumeEvent, thread.name, thread.yielding_on)
            self.rag.clear_yield(thread)
            thread.yield_pos = None
            thread.yield_stack = None
            self._yield_count -= 1

        self.stats.requests += 1
        request_ns = self._emit(
            RequestEvent, thread.name, lock.name, position.key
        )
        if thread.request_since_ns is None:
            # First attempt only: a resume-retry keeps the original
            # stamp so the ``acquire`` latency (and the RAG dump's
            # request age) spans parks, not just the final grant.
            thread.request_since_ns = request_ns
        self.rag.set_request(thread, lock, position, truncated)

        # --- detection ------------------------------------------------
        cycle = find_lock_cycle(thread, lock)
        if cycle is not None:
            signature = signature_from_cycle(cycle)
            recorded = self._record(signature)
            self.stats.deadlocks_detected += 1
            self._emit(
                DetectionEvent, thread.name, lock.name, signature, recorded
            )
            position.queue.add(thread, lock)
            return RequestResult(
                verdict=RequestVerdict.PROCEED,
                detected=signature,
                cycle=cycle,
            )

        resume: list[ThreadNode] = []
        starvation_sig: Optional[DeadlockSignature] = None

        # Starvation triggered by this request: the new request edge may
        # close a cycle through threads parked by avoidance.
        if self._yield_count > 0 and self.config.starvation_detection:
            extended = find_extended_cycle(thread)
            if extended is not None and extended.is_starvation:
                starvation_sig = signature_from_extended(extended)
                recorded = self._record(starvation_sig)
                self.stats.starvations_detected += 1
                self._emit(
                    StarvationEvent,
                    thread.name,
                    starvation_sig,
                    "request",  # trigger
                    recorded,
                )
                for yielder in extended.yielders:
                    if yielder.yielding_on is not None:
                        yielder.bypass.add(yielder.yielding_on)
                        resume.append(yielder)

        # --- avoidance --------------------------------------------------
        position.queue.add(thread, lock)  # "pretend" the grant (§2.2)
        signatures = (
            self.history.signatures_at(position.key, include_starvation=False)
            if position.in_history
            else ()
        )
        starvation_retries = 0
        while signatures:
            # Starvation override (§2.2: "avoid entering the same
            # starvation condition again"): if parking at this position in
            # the current configuration matches a recorded
            # avoidance-induced deadlock, do not park — proceed instead.
            if self._starvation_override(thread, position):
                break
            instantiable: Optional[
                tuple[DeadlockSignature, tuple]
            ] = None
            for signature in signatures:
                if thread.bypass and signature in thread.bypass:
                    thread.bypass.discard(signature)
                    self.stats.bypasses_granted += 1
                    continue
                witnesses = self._check_instantiation(thread, signature)
                if witnesses is not None:
                    instantiable = (signature, witnesses)
                    break
            if instantiable is None:
                break

            signature, witnesses = instantiable
            self.stats.avoided_instantiations += 1
            if signature.provenance != "earned":
                # A predicted antibody just prevented a real deadlock —
                # count it separately and promote it in place: the
                # prediction proved itself without any first infection.
                self.stats.predicted_avoidances += 1
                if self.history.promote(signature):
                    self.stats.predictions_promoted += 1
            # Undo the pretend-grant and park the thread on the signature.
            position.queue.remove(thread, lock)
            self.rag.clear_request(thread)
            witness_edges = tuple(
                (w_thread, w_lock)
                for w_thread, w_lock in witnesses
                if w_thread is not thread
            )
            self.rag.set_yield(thread, signature, witness_edges)
            thread.yield_pos = position
            thread.yield_stack = truncated
            self._yield_count += 1
            self.stats.yields += 1
            self._emit(
                YieldEvent, thread.name, lock.name, position.key, signature
            )

            if self.config.starvation_detection:
                extended = find_extended_cycle(thread)
                if extended is not None and extended.is_starvation:
                    # Yielding here would stall the system: record the
                    # avoidance-induced deadlock, wake the other parked
                    # threads, and retry with a one-shot bypass (§2.2).
                    starvation_sig = signature_from_extended(extended)
                    recorded = self._record(starvation_sig)
                    self.stats.starvations_detected += 1
                    self._emit(
                        StarvationEvent,
                        thread.name,
                        starvation_sig,
                        "yield",  # trigger
                        recorded,
                    )
                    for yielder in extended.yielders:
                        if yielder is thread:
                            continue
                        if yielder.yielding_on is not None:
                            yielder.bypass.add(yielder.yielding_on)
                            resume.append(yielder)
                    self.rag.clear_yield(thread)
                    thread.yield_pos = None
                    thread.yield_stack = None
                    self._yield_count -= 1
                    self.rag.set_request(thread, lock, position, truncated)
                    position.queue.add(thread, lock)
                    # Re-run avoidance: the just-recorded starvation
                    # signature normally triggers the override above. That
                    # is not guaranteed — the override recheck is budgeted
                    # and a capped (or otherwise failed) recheck would
                    # send this loop through the same yield→starvation
                    # cycle forever, spinning under the global lock — so
                    # the retry is bounded: after two rounds the thread
                    # proceeds outright, which is exactly what the
                    # override would have decided.
                    starvation_retries += 1
                    if starvation_retries >= 2:
                        break
                    continue

            return RequestResult(
                verdict=RequestVerdict.YIELD,
                yield_on=signature,
                starvation=starvation_sig,
                resume=tuple(resume),
            )

        return RequestResult(
            verdict=RequestVerdict.PROCEED,
            starvation=starvation_sig,
            resume=tuple(resume),
        )

    def acquired(self, thread: ThreadNode, lock: LockNode) -> None:
        """Called right after ``monitorenter``: request edge -> hold edge."""
        position = thread.request_pos
        stack = thread.request_stack
        if position is None or stack is None:
            raise AssertionError(
                f"{thread.name} acquired {lock.name} without a pending request"
            )
        self.rag.clear_request(thread)
        self.rag.set_hold(thread, lock, position, stack)
        self.stats.acquisitions += 1
        acquired_ns = self._emit(AcquiredEvent, thread.name, lock.name)
        since = thread.request_since_ns
        if since is not None:
            thread.request_since_ns = None
            if self.telemetry is not None:
                self.telemetry.record("acquire", acquired_ns - since)

    def fast_acquired(
        self, thread: ThreadNode, lock: LockNode, position: Position
    ) -> bool:
        """The no-history fast path: O(1) bookkeeping for a won try-lock.

        The caller (an adapter, under its global lock) has *already*
        physically acquired the raw lock with a non-blocking probe and
        presents a pre-resolved ``position``. When the position has zero
        recorded signatures this replaces the request→acquired pair:
        queue entry and hold edge are installed exactly as the exact
        path would, but cycle detection, starvation checks, and the
        avoidance loop are skipped — all three only matter for requests
        that can *block*, and a won try-lock by definition never waits
        (a free lock cannot extend a cycle; the avoidance decision for a
        signature-free position is always PROCEED).

        Returns ``False`` — caller must release the raw lock and run the
        exact path — when the position is hot, or just went hot: the
        zero-signature verdict is cached per position stamped with the
        history's ``index_epoch`` and revalidated whenever the epoch
        moved (a detection, fleet pull, predicted seed, or merge landed
        since), which is the demotion rule the fast-path-exit tests pin.
        """
        if position.in_history:
            return False
        # Private-attr read of the property behind History.index_epoch:
        # this comparison runs on every fast-path acquire and the
        # descriptor round-trip is measurable there.
        epoch = self.history._index_epoch
        if position.fastpath_epoch != epoch:
            if self.history.contains_position(position.key):
                self._position_went_hot(position)
                return False
            position.fastpath_epoch = epoch
        # position.queue.add, inlined (freelist pop or fresh cell +
        # head push) — one call frame fewer on every fast acquire.
        queue = position.queue
        cell = queue._free
        if cell is not None:
            queue._free = cell.next
            queue.reuses += 1
        else:
            cell = _QueueCell()
            queue.allocations += 1
        cell.thread = thread
        cell.lock = lock
        cell.next = queue._head
        queue._head = cell
        queue.size += 1
        # rag.set_hold, inlined minus its ownership assertion: the
        # caller physically won the raw lock, so no other node can be
        # recorded as owner here.
        lock.owner = thread
        lock.acq_pos = position
        lock.acq_stack = position.stack
        thread.held.add(lock)
        stats = self.stats
        stats.fastpath_acquires += 1
        stats.requests += 1
        request_ns = self._emit(
            RequestEvent, thread.name, lock.name, position.key
        )
        stats.acquisitions += 1
        acquired_ns = self._emit(AcquiredEvent, thread.name, lock.name)
        if self.telemetry is not None:
            self.telemetry.record("acquire", acquired_ns - request_ns)
        return True

    def release(self, thread: ThreadNode, lock: LockNode) -> ReleaseResult:
        """Called right before ``monitorexit``.

        Per §4: if the released lock was acquired at a position present in
        the history, every thread parked on a signature containing that
        position must be woken so it can re-run avoidance.
        """
        position = lock.acq_pos
        notify: tuple[DeadlockSignature, ...] = ()
        if position is not None:
            if position.in_history:
                notify = self.history.signatures_at(position.key)
            position.queue.remove(thread, lock)
        self.rag.clear_hold(thread, lock)
        lock.acq_pos = None
        lock.acq_stack = None
        stats = self.stats
        stats.releases += 1
        stats.notifications += len(notify)
        self._emit(ReleaseEvent, thread.name, lock.name, len(notify))
        if not notify:
            # The overwhelmingly common release has nobody to wake;
            # hand back a shared empty result (callers only read
            # ``.notify``) instead of constructing a dataclass per
            # release on the hot path.
            return _NO_NOTIFY
        return ReleaseResult(notify=notify)

    def cancel_request(self, thread: ThreadNode, lock: LockNode) -> None:
        """Undo a granted request that will not proceed to acquisition.

        Used by the ``RAISE``/``BREAK`` detection policies and by adapters
        whose physical acquisition fails.
        """
        position = thread.request_pos
        if position is not None:
            position.queue.remove(thread, lock)
        self.rag.clear_request(thread)
        thread.request_since_ns = None
        self.stats.requests_cancelled += 1

    def abandon_yield(self, thread: ThreadNode) -> None:
        """Drop a yield without retrying (non-blocking acquire gave up)."""
        if thread.yielding_on is not None:
            self.rag.clear_yield(thread)
            thread.yield_pos = None
            thread.yield_stack = None
            thread.request_since_ns = None
            self._yield_count -= 1

    def force_bypass(
        self, thread: ThreadNode, *, trigger: str = "timeout"
    ) -> Optional[DeadlockSignature]:
        """Starvation override: grant a parked thread a one-shot pass.

        Records a starvation signature built from the thread's yield state
        and grants a one-shot bypass so the next retry proceeds. Returns
        the signature, or ``None`` if the thread was not yielding.
        ``trigger`` names who pulled the cord — ``"timeout"`` for the
        adapters' yield-timeout safety net, ``"watchdog"`` when the
        liveness watchdog's ``break_youngest`` policy breaks a stall.
        """
        if thread.yielding_on is None:
            return None
        signature = starvation_signature_for_timeout(thread)
        recorded = self._record(signature)
        self.stats.starvations_detected += 1
        self._emit(
            StarvationEvent, thread.name, signature, trigger, recorded
        )
        thread.bypass.add(thread.yielding_on)
        return signature

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _emit(self, event_cls, *fields) -> int:
        """Stamp ``ts_ns`` and publish one typed event if anyone wants it.

        The one place that decides whether an event is built: only when
        its kind is in the bus's ``wanted`` set. Centralized so no emit
        site can forget the stamping and silently publish under the
        default source. ``fields`` is the event's own payload in its
        declared field order — positional, because a keyword dict per
        call is measurable on the fast path, where nobody may listen.
        Returns the monotonic stamp either way, so callers read
        latencies from it (the ``acquire`` phase is the delta between a
        request's and its acquired's stamps).
        """
        ts_ns = time.monotonic_ns()
        if event_cls.kind in self.events.wanted:
            # (source, ts, ts_ns, seq) lead every event's fields; the
            # bus assigns seq at publish.
            self.events.publish(
                event_cls(self.source, self._now(), ts_ns, -1, *fields)
            )
        return ts_ns

    def _check_instantiation(
        self, thread: ThreadNode, signature: DeadlockSignature
    ):
        """One budgeted instantiation check, cap surfaced as an event.

        The checker never sees the bus; it reports a cap through its
        ``last_*`` attributes and this choke point turns that into the
        ``MatchCappedEvent`` every subscriber (stats, profilers, a
        platform operator's alerting) observes. Used by the avoidance
        loop and the starvation-relief recheck alike, so both paths are
        bounded and both announce their caps.
        """
        if self.telemetry is not None:
            start_ns = time.monotonic_ns()
            witnesses = self.checker.would_instantiate(signature)
            self.telemetry.record("match", time.monotonic_ns() - start_ns)
        else:
            witnesses = self.checker.would_instantiate(signature)
        if self.checker.last_capped:
            self._emit(
                MatchCappedEvent,
                thread.name,
                signature,
                self.checker.last_steps,
                self.config.match_cap_policy.value,
                witnesses is not None,
            )
        return witnesses

    def _starvation_override(
        self, thread: ThreadNode, position: Position
    ) -> bool:
        """True when parking at ``position`` would re-enter a recorded
        avoidance-induced deadlock (so the thread must proceed).

        This recheck runs the same budgeted matcher as avoidance, so a
        long starvation signature cannot wedge the relief path either; a
        capped recheck under ``grant`` simply finds no override (the
        thread may still park and fall back to the starvation detectors
        and the yield timeout), while under ``weak`` the
        over-approximation errs toward relieving — both keep liveness
        mechanisms intact.
        """
        for starvation_sig in self.history.starvation_signatures_at(
            position.key
        ):
            if self._check_instantiation(thread, starvation_sig) is not None:
                self.stats.starvation_overrides += 1
                return True
        return False

    def _record(self, signature: DeadlockSignature) -> bool:
        """Record a signature in the store — pure memory, no file I/O.

        Durability rides the event the caller emits next: the
        write-behind persister sees the ``recorded=True``
        detection/starvation event and schedules the flush.
        """
        added = self.history.add(signature)
        if added:
            self.stats.signatures_added += 1
            for key in signature.outer_position_keys():
                position = self.positions.get(key)
                if position is not None and not position.in_history:
                    self._position_went_hot(position)
        else:
            self.stats.duplicate_signatures += 1
        return added

    def _position_went_hot(self, position: Position) -> None:
        """Flip a position to ``in_history`` (it gained signatures).

        The one choke point for cold→hot transitions — a detection's
        ``_record``, the exact path's lazy ``contains_position`` check,
        and the fast path's epoch revalidation all land here — so the
        ``fastpath_demotions`` counter ticks exactly once per position
        that the fast path had validated cold and must now abandon.
        """
        position.in_history = True
        if position.fastpath_epoch != -1:
            position.fastpath_epoch = -1
            self.stats.fastpath_demotions += 1

    def flush_history(self) -> int:
        """Flush pending signatures per policy; returns how many wrote.

        The lifecycle checkpoint (session close, VM ``run()`` return,
        ``detach_events``): it flushes through the attached persister
        and is therefore gated on ``auto_save`` — a read-only process
        (``auto_save=False``) must never mutate its history file from a
        lifecycle hook. User-initiated saves bypass the gate via
        ``history.persist()`` / ``save_history``.
        """
        persister = self.history.persister
        if persister is not None:
            return persister.flush()
        return 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def yielding_threads(self) -> int:
        return self._yield_count

    def rag_dump(self) -> dict:
        """Plain-JSON RAG snapshot: nodes, edges, per-waiter request age.

        The caller should hold the adapter glock for a consistent view;
        without it the dump is racy but never crashes — same contract as
        ``stats``. See :func:`repro.telemetry.ragdump.rag_snapshot`.
        """
        from repro.telemetry.ragdump import rag_snapshot

        return rag_snapshot(self)

    def snapshot(self) -> EngineSnapshot:
        return EngineSnapshot(
            threads=self.rag.thread_count(),
            locks=self.rag.lock_count(),
            positions=len(self.positions),
            history_size=len(self.history),
            yielding=self._yield_count,
            blocked=len(self.rag.blocked_threads()),
        )

    def memory_footprint(self) -> MemoryFootprint:
        """Approximate the extra bytes Dimmunix keeps in this process.

        Mirrors the paper's memory-overhead accounting: RAG nodes embedded
        in thread/monitor structs, interned positions and their queue
        cells, per-thread stack buffers, and the history. Sizes are fixed
        per-struct estimates (measured once on CPython) rather than deep
        ``getsizeof`` walks, because the benchmark harness calls this on
        hot paths.
        """
        position_count = len(self.positions)
        cell_count = sum(
            pos.queue.allocations for pos in self.positions
        )
        thread_count = self.rag.thread_count()
        lock_count = self.rag.lock_count()
        # Signature + matching-index bytes are the store's accounting
        # (one estimate shared with the memory experiments in
        # repro.android.memory).
        signature_bytes = self.history.approximate_bytes()
        footprint = MemoryFootprint(
            positions=position_count,
            queue_cells=cell_count,
            thread_nodes=thread_count,
            lock_nodes=lock_count,
            stack_buffers=thread_count,
            signatures=len(self.history),
        )
        footprint.bytes_total = (
            position_count * 160      # Position + queue head + key tuple
            + cell_count * 56         # one _QueueCell
            + thread_count * 200      # ThreadNode + held set
            + lock_count * 120        # LockNode
            + thread_count * 256      # stack buffer (paper: per-thread char*)
            + signature_bytes
        )
        return footprint
