"""The typed synchronization-event stream of a Dimmunix instance.

The paper's Dimmunix is a black box observed after the fact through
counters; Android's llkd and dynamic deadlock predictors instead stream a
*structured record of synchronization events*, which is what lets one
monitor scale to a whole platform. This module is that stream for the
reproduction: the core engine publishes one typed, immutable event per
request / acquired / release decision (plus yields, resumes, detections,
starvations, matcher budget caps, and history saves), and everything
downstream — profilers, CLIs, benchmarks, remote aggregation —
subscribes instead of scraping ``DimmunixStats`` snapshots. Events are
side output: the counters in ``DimmunixStats`` are bumped by the
emitters themselves, so they stay exact with no subscriber at all.

Design constraints, in order:

* **The lock path must never break.** Subscriber exceptions are caught,
  counted (:attr:`EventBus.subscriber_errors`), and swallowed; they never
  propagate into ``Request``/``Acquired``/``Release``.
* **Total order.** Every published event gets a bus-wide monotonically
  increasing ``seq``, and dispatch is serialized, so a subscriber sees
  events in exactly the order the bus accepted them — even when several
  adapters (a real-thread runtime and a simulated VM) share one bus.
* **Nobody listening costs nothing.** :attr:`EventBus.wanted` is the
  union of the kinds the current subscribers accept; an emitter builds
  and publishes an event only when its kind is in it.
* **No threading dependencies beyond a captured lock.** The bus captures
  ``threading.RLock`` at import time, before the platform-wide patch can
  replace it, so publishing from inside an immunized lock path cannot
  recurse into Dimmunix.

Events carry plain payloads (thread/lock *names*, position keys) plus the
full :class:`~repro.core.signature.DeadlockSignature` object where one is
involved; :func:`event_to_dict` / :func:`event_from_dict` give the stable
JSONL wire form used by ``dimmunix-events``.

Execution domains share the taxonomy. The asyncio adapter
(:mod:`repro.aio`) publishes the same kinds with identical
semantics — a ``yield`` there parks a *task* on a future instead of an
OS thread on a condition, a ``resume`` is the task's cooperative
re-request — distinguished only by ``source`` (a session tags them
``"<session>/aio"``) and by ``thread`` carrying the task's name. The
cross-adapter parity suite (tests/aio/test_aio_parity.py) holds the
domains to kind-for-kind identical sequences on the same scenario, so
downstream consumers never need domain-specific parsing.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterable, Optional, TextIO

from repro.core.signature import DeadlockSignature

# Captured before any platform-wide patch can replace it (repro.core is
# always imported before repro.runtime.patch can be installed).
_RLock = threading.RLock


# ----------------------------------------------------------------------
# event taxonomy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """Base of all Dimmunix events.

    ``seq`` is assigned by the bus at publish time (``-1`` until then);
    ``source`` names the emitting instance (one session can multiplex
    several adapters onto one bus); ``ts`` is the emitter's clock — wall
    time for real-thread runtimes, virtual ticks for the simulated VM.
    ``ts_ns`` is ``time.monotonic_ns()`` at emit time (``0`` when the
    emitter predates the stamp or is simulated): the steady clock that
    inter-event latencies (``dimmunix-events summary``, ``trace``) are
    computed from — wall-clock ``ts`` can step backwards under NTP,
    monotonic never does. Only deltas within one process are
    meaningful; the epoch is arbitrary.
    """

    kind: ClassVar[str] = "event"

    source: str = "core"
    ts: float = 0.0
    ts_ns: int = 0
    seq: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class RequestEvent(Event):
    """A thread entered ``Request`` (pre-``monitorenter``)."""

    kind: ClassVar[str] = "request"

    thread: str = ""
    lock: str = ""
    position: tuple = ()


@dataclass(frozen=True)
class AcquiredEvent(Event):
    """``Acquired``: the physical acquisition completed."""

    kind: ClassVar[str] = "acquired"

    thread: str = ""
    lock: str = ""


@dataclass(frozen=True)
class ReleaseEvent(Event):
    """``Release``: the lock is about to be handed back.

    ``notified`` counts the parked signatures whose threads must be woken
    because the released position appears in them (§4).
    """

    kind: ClassVar[str] = "release"

    thread: str = ""
    lock: str = ""
    notified: int = 0


@dataclass(frozen=True)
class YieldEvent(Event):
    """Avoidance parked the thread on a history signature."""

    kind: ClassVar[str] = "yield"

    thread: str = ""
    lock: str = ""
    position: tuple = ()
    signature: Optional[DeadlockSignature] = None


@dataclass(frozen=True)
class ResumeEvent(Event):
    """A previously-yielded thread woke up and is retrying its request."""

    kind: ClassVar[str] = "resume"

    thread: str = ""
    signature: Optional[DeadlockSignature] = None


@dataclass(frozen=True)
class DetectionEvent(Event):
    """A request closed a RAG cycle: a deadlock was detected.

    ``recorded`` is ``False`` when the signature deduplicated against the
    history (a re-detection of a known bug).
    """

    kind: ClassVar[str] = "detection"

    thread: str = ""
    lock: str = ""
    signature: Optional[DeadlockSignature] = None
    recorded: bool = True


@dataclass(frozen=True)
class StarvationEvent(Event):
    """An avoidance-induced deadlock (starvation) was detected.

    ``trigger`` says which path found it: ``"request"`` (a fresh request
    closed a yield cycle), ``"yield"`` (parking this thread would have
    stalled the system), or ``"timeout"`` (a real-thread safety net
    fired).
    """

    kind: ClassVar[str] = "starvation"

    thread: str = ""
    signature: Optional[DeadlockSignature] = None
    trigger: str = "request"
    recorded: bool = True


@dataclass(frozen=True)
class MatchCappedEvent(Event):
    """An instantiation check exhausted its step budget (§2.2 cap).

    Emitted by the engine whenever the matcher hits
    ``DimmunixConfig.match_step_budget`` — on the avoidance path and on
    the starvation-relief recheck alike. ``policy`` is the configured
    :class:`~repro.config.MatchCapPolicy` value (``"grant"`` /
    ``"weak"``); ``instantiable`` is the post-cap verdict the engine
    acted on — always ``False`` under ``grant``, the weak
    over-approximation's answer under ``weak``. ``steps`` is how many
    matching steps ran before the cap. A platform operator alerting on
    this kind is seeing either an adversarial history shape or a budget
    set too low; ``stats.match_caps`` / ``stats.weak_fallbacks`` carry
    the same signal as counters.
    """

    kind: ClassVar[str] = "match-capped"

    thread: str = ""
    signature: Optional[DeadlockSignature] = None
    steps: int = 0
    policy: str = "grant"
    instantiable: bool = False


@dataclass(frozen=True)
class HistorySavedEvent(Event):
    """The persistent history was written to disk."""

    kind: ClassVar[str] = "history-saved"

    path: str = ""
    signatures: int = 0


@dataclass(frozen=True)
class PredictedSeededEvent(Event):
    """A *predicted* signature entered the history before any infection.

    Emitted by ``History.add_predicted`` — the write path shared by the
    static lint (``dimmunix-lint``) and the trace miner. ``origin``
    names the predictor (``"staticlint"`` / ``"tracemine"`` / ...);
    ``confidence`` is the predictor's own estimate in [0, 1] that the
    cycle is a reachable deadlock, carried for triage, not acted on by
    the engine.
    """

    kind: ClassVar[str] = "predicted-seeded"

    signature: Optional[DeadlockSignature] = None
    origin: str = ""
    confidence: float = 1.0


@dataclass(frozen=True)
class FleetSyncEvent(Event):
    """One sync-pump cycle against the fleet history backend.

    Emitted by :class:`~repro.fleet.pump.SyncPump` after a refresh
    cycle that had anything to report (all-zero cycles stay silent —
    a healthy idle fleet should not flood the stream). ``pulled`` is
    new signatures indexed from the fleet, ``pushed`` is signatures
    uploaded since the last cycle, ``failures`` counts unreachable-
    server errors, ``spill_replayed`` counts journal entries that
    finally traveled after a partition healed. ``trigger`` says what
    started the cycle: ``"period"`` (the configured interval),
    ``"saved"`` (a history-saved event), or ``"manual"``
    (``Dimmunix.sync()`` / ``SyncPump.sync_now``).
    """

    kind: ClassVar[str] = "fleet-sync"

    pulled: int = 0
    pushed: int = 0
    failures: int = 0
    spill_replayed: int = 0
    trigger: str = "period"


@dataclass(frozen=True)
class LivelockSuspectedEvent(Event):
    """The liveness watchdog scored a node as making no forward progress.

    Cycle detection cannot see these failures — yield storms, try-lock
    spins, starved waiters never close a RAG cycle — so the watchdog
    (:class:`repro.watchdog.LivenessWatchdog`, llkd-style) raises this
    kind instead. ``reason`` says which detector fired: ``"stall"`` (a
    ``request_since_ns`` age crossed ``watchdog_stall_age``),
    ``"yield-storm"`` (repeated yield/resume with no acquire inside the
    storm window), or ``"try-lock-spin"`` (repeated requests with no
    acquire and no parks). ``report`` is the structured stall report —
    every current suspect with its age and recent event window, plus
    the RAG fragment around the suspects — as plain JSON (lists and
    dicts only), so it round-trips the wire form untouched.
    """

    kind: ClassVar[str] = "livelock-suspected"

    thread: str = ""
    reason: str = "stall"
    age_ns: int = 0
    scan: int = 0
    report: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WatchdogMitigationEvent(Event):
    """The watchdog's escalation ladder reached its mitigation rung.

    A suspect that is still stuck one scan after its
    ``livelock-suspected`` event gets mitigated per
    ``DimmunixConfig.watchdog_policy``. ``action`` records what actually
    happened: ``"reported"`` (policy ``report`` — observe only),
    ``"bypass-granted"`` (policy ``break_youngest`` found the youngest
    suspect parked by avoidance and granted it a one-shot starvation
    bypass, llkd's kill analog), or ``"no-op"`` (``break_youngest``
    chose a node that is physically blocked — nothing safe to break).
    """

    kind: ClassVar[str] = "watchdog-mitigation"

    thread: str = ""
    policy: str = "report"
    action: str = "reported"
    reason: str = "stall"
    age_ns: int = 0
    scan: int = 0


EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        RequestEvent,
        AcquiredEvent,
        ReleaseEvent,
        YieldEvent,
        ResumeEvent,
        DetectionEvent,
        StarvationEvent,
        MatchCappedEvent,
        HistorySavedEvent,
        PredictedSeededEvent,
        FleetSyncEvent,
        LivelockSuspectedEvent,
        WatchdogMitigationEvent,
    )
}


# ----------------------------------------------------------------------
# the bus
# ----------------------------------------------------------------------

@dataclass
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`."""

    callback: Callable[[Event], None]
    kinds: Optional[frozenset[str]] = None
    source: Optional[str] = None
    active: bool = True

    def wants(self, event: Event) -> bool:
        if self.kinds is not None and event.kind not in self.kinds:
            return False
        if self.source is not None and event.source != self.source:
            return False
        return True


class EventBus:
    """Serialized fan-out of Dimmunix events to subscribers.

    One bus can carry several emitters (a session's runtime core and VM
    cores all publish here); ``seq`` is bus-wide, so interleavings across
    adapters are totally ordered. Dispatch happens synchronously in the
    publishing thread, under the bus lock — subscribers therefore must be
    quick and must not block on immunized locks.
    """

    def __init__(self) -> None:
        self._lock = _RLock()
        # Copy-on-write: (un)subscribe swaps in a new tuple, so publish
        # iterates it as is and a subscriber may (un)subscribe during
        # dispatch without corrupting the iteration.
        self._subscriptions: tuple[Subscription, ...] = ()
        self._claimed_sources: set[str] = set()
        self._seq = 0
        self.published = 0
        self.delivered = 0
        self.subscriber_errors = 0
        # The kinds at least one subscription accepts (source filters
        # are ignored: a kind wanted by anyone counts as wanted).
        # Emitters read this plain attribute without the lock before
        # building an event; a just-swapped value at worst drops or
        # builds the one event in flight while a subscriber lands.
        self.wanted: frozenset[str] = frozenset()

    # -- emitter registry --------------------------------------------------

    def claim_source(self, source: str) -> None:
        """Register ``source`` as an emitter on this bus.

        Source strings disambiguate adapters on a shared bus — two
        emitters with the same name would silently double-count into
        each other's source-filtered subscribers (stats!), so a
        collision is an error, not a warning. Released by
        :meth:`release_source`.
        """
        with self._lock:
            if source in self._claimed_sources:
                raise ValueError(
                    f"event source {source!r} is already claimed on this "
                    "bus; give each core/adapter sharing a bus a unique "
                    "name"
                )
            self._claimed_sources.add(source)

    def release_source(self, source: str) -> None:
        with self._lock:
            self._claimed_sources.discard(source)

    # -- subscription management ------------------------------------------

    def subscribe(
        self,
        callback: Callable[[Event], None],
        *,
        kinds: Optional[Iterable[str]] = None,
        source: Optional[str] = None,
    ) -> Subscription:
        """Register ``callback``; optionally filter by kind and/or source.

        ``kinds`` accepts event kind strings (``"request"``, ``"yield"``,
        ...) or event classes. Returns the :class:`Subscription` handle
        to pass to :meth:`unsubscribe`.
        """
        kind_set: Optional[frozenset[str]] = None
        if kinds is not None:
            kind_set = frozenset(
                k if isinstance(k, str) else k.kind for k in kinds
            )
            unknown = kind_set - set(EVENT_TYPES)
            if unknown:
                raise ValueError(f"unknown event kinds: {sorted(unknown)}")
        subscription = Subscription(callback, kind_set, source)
        with self._lock:
            self._swap_locked(self._subscriptions + (subscription,))
        return subscription

    def unsubscribe(
        self, subscription: Subscription | Callable[[Event], None]
    ) -> bool:
        """Remove a subscription (by handle or by callback). True if found."""
        with self._lock:
            for existing in self._subscriptions:
                # Equality (not identity) on the callback: bound methods
                # are recreated on every attribute access.
                if existing is subscription or existing.callback == subscription:
                    existing.active = False
                    self._swap_locked(
                        tuple(
                            s for s in self._subscriptions if s is not existing
                        )
                    )
                    return True
        return False

    def _swap_locked(self, subscriptions: tuple[Subscription, ...]) -> None:
        self._subscriptions = subscriptions
        wanted: set[str] = set()
        for s in subscriptions:
            wanted.update(EVENT_TYPES if s.kinds is None else s.kinds)
        self.wanted = frozenset(wanted)

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    # -- publishing --------------------------------------------------------

    def publish(self, event: Event) -> Event:
        """Stamp ``event`` with the next ``seq`` and fan it out.

        Subscriber exceptions are isolated: they increment
        :attr:`subscriber_errors` and never reach the publisher — the
        lock path must survive any observer.
        """
        with self._lock:
            self._seq += 1
            # Equivalent to object.__setattr__ but skips the frozen-
            # dataclass dispatch — this runs on the lock path for every
            # event, and events are plain (non-slots) dataclasses, so
            # writing the instance dict directly is always valid.
            event.__dict__["seq"] = self._seq
            self.published += 1
            for subscription in self._subscriptions:
                if not subscription.active or not subscription.wants(event):
                    continue
                try:
                    subscription.callback(event)
                    self.delivered += 1
                except Exception:
                    self.subscriber_errors += 1
        return event


# ----------------------------------------------------------------------
# stock subscribers
# ----------------------------------------------------------------------

class EventCounter:
    """Counts events by kind (and by source) — the parity oracle.

    ``counter.counts["yield"]`` must equal the emitting core's
    ``stats.yields`` and so on; the test suite holds the two accountings
    to each other.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.by_source: dict[str, dict[str, int]] = {}
        self.total = 0

    def __call__(self, event: Event) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        per_source = self.by_source.setdefault(event.source, {})
        per_source[event.kind] = per_source.get(event.kind, 0) + 1
        self.total += 1

    def count(self, kind: str, source: Optional[str] = None) -> int:
        if source is None:
            return self.counts.get(kind, 0)
        return self.by_source.get(source, {}).get(kind, 0)


class EventLog:
    """Retains the last ``capacity`` events in arrival order (tests, demos).

    Backed by a bounded deque so eviction at capacity is O(1) — this
    runs inside bus dispatch, on the lock path.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        self.capacity = capacity
        self.events: deque[Event] = deque(maxlen=capacity)

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[Event]:
        return [event for event in self.events if event.kind == kind]


class JsonlWriter:
    """Streams events to a file as JSON lines (the ``dimmunix-events`` feed)."""

    def __init__(self, path, flush_every: int = 1) -> None:
        self.path = path
        self._handle: Optional[TextIO] = open(path, "a", encoding="utf-8")
        self._since_flush = 0
        self.flush_every = flush_every
        self.written = 0

    def __call__(self, event: Event) -> None:
        handle = self._handle
        if handle is None:
            return
        handle.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
        self.written += 1
        self._since_flush += 1
        if self._since_flush >= self.flush_every:
            handle.flush()
            self._since_flush = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


# ----------------------------------------------------------------------
# wire form
# ----------------------------------------------------------------------

def event_to_dict(event: Event) -> dict:
    """The stable JSONL form: ``kind`` plus every dataclass field."""
    data: dict = {"kind": event.kind}
    for f in fields(event):
        value = getattr(event, f.name)
        if isinstance(value, DeadlockSignature):
            value = value.to_json()
        elif isinstance(value, tuple):
            value = _position_to_jsonable(value)
        data[f.name] = value
    return data


def _position_to_jsonable(value):
    return [
        _position_to_jsonable(item) if isinstance(item, tuple) else item
        for item in value
    ]


def _jsonable_to_position(value):
    if isinstance(value, list):
        return tuple(_jsonable_to_position(item) for item in value)
    return value


def event_from_dict(data: dict) -> Event:
    """Rebuild a typed event from its :func:`event_to_dict` form."""
    kind = data.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    kwargs: dict = {}
    seq = -1
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.name == "signature" and isinstance(value, dict):
            value = DeadlockSignature.from_json(value)
        elif f.name == "position" and isinstance(value, list):
            value = _jsonable_to_position(value)
        if f.name == "seq":
            seq = value
            continue
        kwargs[f.name] = value
    event = cls(**kwargs)
    object.__setattr__(event, "seq", seq)
    return event


__all__ = [
    "Event",
    "RequestEvent",
    "AcquiredEvent",
    "ReleaseEvent",
    "YieldEvent",
    "ResumeEvent",
    "DetectionEvent",
    "StarvationEvent",
    "MatchCappedEvent",
    "HistorySavedEvent",
    "PredictedSeededEvent",
    "FleetSyncEvent",
    "LivelockSuspectedEvent",
    "WatchdogMitigationEvent",
    "EVENT_TYPES",
    "EventBus",
    "Subscription",
    "EventCounter",
    "EventLog",
    "JsonlWriter",
    "event_to_dict",
    "event_from_dict",
]
