"""The unified Dimmunix facade — one session object for every adapter.

The paper exposes one tiny surface: ``initDimmunix`` plus three hooks
wired into the VM. Our reproduction grew four adapter layers — real
threads (:mod:`repro.runtime`), the platform-wide monkey-patch
(:mod:`repro.runtime.patch`), AST weaving (:mod:`repro.instrument`), the
simulated Dalvik VM (:mod:`repro.dalvik`) and its NDK pthread layer
(:mod:`repro.ndk`) — each constructed its own core, history, and stats.
This module is the ``initDimmunix`` analog for all of them at once:

.. code-block:: python

    import repro

    with repro.immunity() as dx:
        a, b = dx.lock("a"), dx.lock("b")
        ...            # deadlocks detected, then avoided forever

One :class:`Dimmunix` session owns **one config, one history, one event
bus**. Every adapter it creates —

* :meth:`Dimmunix.runtime` — immunized ``threading`` primitives,
* :meth:`Dimmunix.install` / :meth:`Dimmunix.uninstall` /
  :meth:`Dimmunix.patch` — the platform-wide ``threading`` patch,
* :meth:`Dimmunix.weave` — load-time AST instrumentation,
* :meth:`Dimmunix.vm` — a simulated Dalvik process,
* :meth:`Dimmunix.pthreads` — a Dalvik process with NDK pthread
  interception,
* :meth:`Dimmunix.aio` / :meth:`Dimmunix.aio_lock` /
  :meth:`Dimmunix.aio_condition` — immunized ``asyncio`` primitives for
  coroutine tasks (and :meth:`Dimmunix.cross_lock` for mutexes shared
  between threads and tasks on one engine) —

shares those three, so a signature detected under the VM immunizes the
real-thread runtime (and vice versa), and a single subscriber registered
with :meth:`Dimmunix.subscribe` observes the typed event stream of the
whole session, each event tagged with the adapter that emitted it.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

from repro.config import DimmunixConfig, InterceptionMode
from repro.core.events import (
    EventBus,
    EventCounter,
    EventLog,
    JsonlWriter,
    Subscription,
)
from repro.core.history import History, open_history
from repro.core.stats import DimmunixStats

if TYPE_CHECKING:
    from repro.aio.bridge import CrossDomainLock
    from repro.aio.runtime import AsyncioDimmunixRuntime
    from repro.dalvik.vm import DalvikVM, VMConfig
    from repro.instrument.weaver import Weaver
    from repro.runtime.runtime import DimmunixRuntime


class Dimmunix:
    """One deadlock-immunity session spanning all adapter layers.

    Construction is lazy: adapters are created on first use, each bound
    to the session's shared :class:`~repro.config.DimmunixConfig`,
    :class:`~repro.core.history.History`, and
    :class:`~repro.core.events.EventBus`. The session keeps an
    always-on :class:`~repro.core.events.EventCounter` (``session.counter``)
    so event-derived totals are available without registering anything.
    """

    def __init__(
        self,
        config: Optional[DimmunixConfig] = None,
        *,
        history: Optional[History] = None,
        events: Optional[EventBus] = None,
        name: str = "dimmunix",
    ) -> None:
        self.name = name
        self.config = config or DimmunixConfig()
        self.events = events if events is not None else EventBus()
        self.history = (
            history
            if history is not None
            else open_history(
                self.config.resolved_history_url(), self.config.max_signatures
            )
        )
        # The session binds the history's announcements before any
        # adapter core can: session-wide saves are stamped with the
        # session's name, whichever layer triggered the flush, and
        # predicted seeds are tallied once, in the session's own stats.
        self._history_stats = DimmunixStats()
        self.history.bind_events(self.events, self.name, self._history_stats)
        self.counter = EventCounter()
        self._counter_subscription = self.events.subscribe(self.counter)
        self._runtime: Optional["DimmunixRuntime"] = None
        self._aio: Optional["AsyncioDimmunixRuntime"] = None
        self._aio_attached: Optional["AsyncioDimmunixRuntime"] = None
        self._vms: list["DalvikVM"] = []
        self._weavers: list["Weaver"] = []
        self._recorders: list[JsonlWriter] = []
        self._tail_subscriptions: list[Subscription] = []
        self._patched = False
        self._closed = False

    # ------------------------------------------------------------------
    # adapter layer 1: real threads
    # ------------------------------------------------------------------

    def runtime(self) -> "DimmunixRuntime":
        """The session's real-thread runtime (created on first use)."""
        if self._runtime is None:
            from repro.runtime.runtime import DimmunixRuntime

            self._runtime = DimmunixRuntime(
                self.config,
                history=self.history,
                name=f"{self.name}/runtime",
                events=self.events,
            )
        return self._runtime

    def lock(self, name: str = ""):
        """An immunized ``threading.Lock`` replacement (runtime layer)."""
        return self.runtime().lock(name)

    def rlock(self, name: str = ""):
        """An immunized ``threading.RLock`` replacement (runtime layer)."""
        return self.runtime().rlock(name)

    def condition(self, lock=None):
        """An immunized ``threading.Condition`` replacement."""
        return self.runtime().condition(lock)

    # ------------------------------------------------------------------
    # adapter layer 6: asyncio tasks
    # ------------------------------------------------------------------

    def aio(self, *, cross_domain: bool = False) -> "AsyncioDimmunixRuntime":
        """The session's asyncio runtime (created on first use).

        By default the aio layer drives its own engine bound to the
        session's config/history/event-bus — immunity crosses layers
        through the shared antibody pool, and its events are tagged
        ``"<session>/aio"``. With ``cross_domain=True`` it instead
        *joins the thread runtime's engine*, so tasks and OS threads
        form one RAG and mixed thread+task cycles are detected (events
        then carry the runtime layer's source). Both variants are
        cached; they can coexist.
        """
        if cross_domain:
            if self._aio_attached is None:
                from repro.aio.runtime import AsyncioDimmunixRuntime

                self._aio_attached = AsyncioDimmunixRuntime.attached(
                    self.runtime()
                )
            return self._aio_attached
        if self._aio is None:
            from repro.aio.runtime import AsyncioDimmunixRuntime

            self._aio = AsyncioDimmunixRuntime(
                self.config,
                history=self.history,
                name=f"{self.name}/aio",
                events=self.events,
            )
        return self._aio

    def aio_lock(self, name: str = ""):
        """An immunized ``asyncio.Lock`` replacement (aio layer)."""
        return self.aio().lock(name)

    def aio_rlock(self, name: str = ""):
        """An immunized task-reentrant asyncio lock (aio layer)."""
        return self.aio().rlock(name)

    def aio_condition(self, lock=None):
        """An immunized ``asyncio.Condition`` replacement (aio layer)."""
        return self.aio().condition(lock)

    def cross_lock(self, name: str = "") -> "CrossDomainLock":
        """A lock acquirable from both OS threads and asyncio tasks.

        Built on the cross-domain (shared-engine) aio runtime, so a
        mixed thread+task cycle through it is detected and avoided like
        any single-domain deadlock.
        """
        from repro.aio.bridge import CrossDomainLock

        return CrossDomainLock(
            self.runtime(), self.aio(cross_domain=True), name
        )

    # ------------------------------------------------------------------
    # adapter layer 2: the platform-wide patch
    # ------------------------------------------------------------------

    def install(self) -> "DimmunixRuntime":
        """Patch ``threading`` process-wide, bound to this session."""
        from repro.runtime import patch

        runtime = patch.install(self.runtime())
        self._patched = True
        return runtime

    def uninstall(self) -> None:
        """Undo :meth:`install`.

        A no-op when the patch is currently owned by a *different*
        runtime (another session installed over us): clobbering their
        patch would silently strip that session's immunity.
        """
        from repro.runtime import patch

        if patch.installed_runtime() is self._runtime:
            patch.uninstall()
        self._patched = False

    @contextlib.contextmanager
    def patch(self) -> Iterator["DimmunixRuntime"]:
        """Scope-limited platform-wide immunity bound to this session."""
        from repro.runtime import patch as patch_module

        with patch_module.immunized(self.runtime()) as runtime:
            yield runtime

    # ------------------------------------------------------------------
    # adapter layer 3: load-time instrumentation
    # ------------------------------------------------------------------

    def weave(self, selective: bool = False, selector=None) -> "Weaver":
        """A weaver bound to this session's runtime (§3.1 alternative).

        ``selective=True`` guards only positions already in the shared
        history — the minimal-overhead mode.
        """
        from repro.instrument.weaver import Weaver

        weaver = Weaver(
            runtime=self.runtime(), selective=selective, selector=selector
        )
        self._weavers.append(weaver)
        return weaver

    # ------------------------------------------------------------------
    # adapter layers 4 + 5: the simulated VM and its NDK pthread layer
    # ------------------------------------------------------------------

    def vm(
        self,
        vm_config: Optional["VMConfig"] = None,
        name: Optional[str] = None,
        **vm_overrides,
    ) -> "DalvikVM":
        """A simulated Dalvik process sharing this session's immunity.

        The VM's Dimmunix config *is* the session config (overriding
        whatever ``vm_config.dimmunix`` said); extra keyword arguments
        override other :class:`~repro.dalvik.vm.VMConfig` fields, e.g.
        ``dx.vm(seed=7, quantum=4)``.
        """
        from repro.dalvik.vm import DalvikVM, VMConfig

        if "dimmunix" in vm_overrides:
            raise ValueError(
                "a session VM's Dimmunix config is the session config; "
                "configure the Dimmunix session (or use DalvikVM directly)"
            )
        base = vm_config if vm_config is not None else VMConfig()
        config = base.evolve(dimmunix=self.config, **vm_overrides)
        vm = DalvikVM(
            config,
            history=self.history,
            name=name or f"{self.name}/vm-{len(self._vms)}",
            events=self.events,
        )
        self._vms.append(vm)
        return vm

    def pthreads(
        self,
        mode: InterceptionMode = InterceptionMode.NATIVE_ONLY,
        vm_config: Optional["VMConfig"] = None,
        name: Optional[str] = None,
        **vm_overrides,
    ) -> "DalvikVM":
        """A Dalvik process with NDK pthread interception enabled (§4).

        Returns the VM; its ``.pthreads`` attribute is the intercepted
        POSIX mutex layer. The default ``NATIVE_ONLY`` is the paper's
        proposal; ``ALWAYS`` reproduces the naive double interception.
        """
        return self.vm(
            vm_config=vm_config,
            name=name,
            native_interception=mode,
            **vm_overrides,
        )

    # ------------------------------------------------------------------
    # the event stream
    # ------------------------------------------------------------------

    def subscribe(
        self, callback, *, kinds=None, source=None
    ) -> Subscription:
        """Observe the session-wide typed event stream.

        One subscription sees events from every adapter in the session;
        filter by ``kinds`` (event kind strings or classes) and/or
        ``source`` (an adapter name such as ``"<session>/runtime"``).
        """
        return self.events.subscribe(callback, kinds=kinds, source=source)

    def unsubscribe(self, subscription) -> bool:
        return self.events.unsubscribe(subscription)

    def tail(self, capacity: int = 100_000) -> EventLog:
        """Subscribe and return an in-memory log of session events.

        The log stays subscribed for the session's lifetime and is
        detached by :meth:`close`.
        """
        log = EventLog(capacity)
        self._tail_subscriptions.append(self.events.subscribe(log))
        return log

    def record(self, path, flush_every: int = 1) -> JsonlWriter:
        """Stream session events to ``path`` as JSON lines.

        The file is the input format of the ``dimmunix-events`` CLI;
        the writer is closed by :meth:`close`.
        """
        writer = JsonlWriter(path, flush_every=flush_every)
        self.events.subscribe(writer)
        self._recorders.append(writer)
        return writer

    # ------------------------------------------------------------------
    # session-wide state
    # ------------------------------------------------------------------

    @property
    def stats(self) -> DimmunixStats:
        """Aggregated counters across every adapter in the session."""
        merged = DimmunixStats()
        merged.merge(self._history_stats)
        if self._runtime is not None:
            merged.merge(self._runtime.stats)
        if self._aio is not None:
            merged.merge(self._aio.stats)
        # The attached aio runtime shares the thread runtime's core, so
        # its traffic is already in the runtime's counters.
        for vm in self._vms:
            if vm.core is not None:
                merged.merge(vm.core.stats)
        return merged

    @property
    def components(self) -> dict[str, object]:
        """The adapters this session has constructed so far, by name."""
        named: dict[str, object] = {}
        if self._runtime is not None:
            named[self._runtime.name] = self._runtime
        if self._aio is not None:
            named[self._aio.name] = self._aio
        if self._aio_attached is not None:
            named[self._aio_attached.name] = self._aio_attached
        for vm in self._vms:
            named[vm.name] = vm
        return named

    def save_history(self, path: Optional[Path | str] = None) -> Path:
        """Persist the shared history (defaults to the backing location).

        With no ``path``, a file-backed history (``jsonl://`` /
        ``sqlite://``) flushes through its store; an explicit ``path``
        snapshots to that file in the legacy format. Either way the
        history emits exactly one ``HistorySavedEvent``.
        """
        return self.history.persist(
            path
            if path is not None
            else (self.history.location or self.config.history_location())
        )

    def sync(self) -> int:
        """Pull fleet-shared antibodies into this process's index, now.

        The manual trigger of the fleet sync layer: with a
        :class:`~repro.fleet.pump.SyncPump` attached (see
        ``DimmunixConfig.fleet_sync_interval``) it runs one pump cycle —
        counted, and published as a ``FleetSyncEvent`` if anything
        happened; without one it refreshes the store directly. Returns
        how many new signatures arrived; 0 for non-shared backends
        (``mem://``, ``jsonl://``).
        """
        pump = self.history.sync_pump
        if pump is not None:
            return pump.sync_now()
        refresh = getattr(self.history.store, "refresh", None)
        return refresh() if refresh is not None else 0

    def _cores(self):
        """Each distinct engine this session has constructed.

        The attached aio runtime shares the thread runtime's core, so
        it is intentionally absent — including it would double-count
        its telemetry and RAG.
        """
        if self._runtime is not None:
            yield self._runtime.name, self._runtime.core
        if self._aio is not None:
            yield self._aio.name, self._aio.core
        for vm in self._vms:
            if vm.core is not None:
                yield vm.name, vm.core

    def telemetry_report(self) -> dict:
        """The session's telemetry snapshot as a plain-JSON report.

        Per-phase log2 latency histograms merged across every adapter
        core (empty unless the config has ``telemetry=True``) plus the
        session's aggregated counters. The shape is what
        :func:`repro.telemetry.prometheus.render_report` and
        ``dimmunix-report metrics <file.json>`` consume, so
        ``json.dump(dx.telemetry_report(), fh)`` is a complete
        metrics export.
        """
        from repro.telemetry.histogram import LogHistogram

        merged: dict[str, LogHistogram] = {}
        for _name, core in self._cores():
            collector = core.telemetry
            if collector is None:
                continue
            for phase, histogram in collector.snapshot().items():
                if phase in merged:
                    merged[phase].merge(histogram)
                else:
                    merged[phase] = histogram
        report = {
            "phases": {
                phase: merged[phase].to_json()
                for phase in sorted(merged)
                if merged[phase].count
            },
            "counters": self.stats.snapshot(),
        }
        if self.config.watchdog:
            health = self.health()
            report["gauges"] = {
                "oldest_waiter_age_ns": health["oldest_waiter_age_ns"],
                "livelock_suspected_now": health["suspected_now"],
                "watchdog_scans": health["scans"],
            }
        return report

    def metrics_text(self) -> str:
        """:meth:`telemetry_report` as Prometheus text exposition."""
        from repro.telemetry.prometheus import render_report

        return render_report(self.telemetry_report())

    def rag_dump(self) -> dict[str, dict]:
        """An on-demand RAG snapshot of every adapter core, by name.

        Each value is :meth:`~repro.core.engine.DimmunixCore.rag_dump`
        output — threads (with held/requesting/yielding state and
        request age in ns), locks, and wait-for edges — renderable with
        :func:`repro.telemetry.ragdump.render_dot`.
        """
        return {name: core.rag_dump() for name, core in self._cores()}

    def health(self) -> dict:
        """The session's liveness health, merged across adapter cores.

        With the watchdog on (``DimmunixConfig.watchdog=True``) each
        core contributes its :class:`~repro.watchdog.LivenessWatchdog`
        health (as of that core's last scan); without one, a live RAG
        read still reports the oldest waiter age, so the surface works
        either way. Plain JSON — ``dimmunix-report health <file.json>``
        renders a dump of this directly, and the fleet ``metrics`` op
        aggregates the same per-core dicts across clients.
        """
        from repro.telemetry.ragdump import rag_snapshot

        cores: dict[str, dict] = {}
        oldest = 0
        suspected_now = 0
        scans = 0
        for name, core in self._cores():
            watchdog = core.watchdog
            if watchdog is not None:
                entry = watchdog.health()
            else:
                try:
                    snapshot = rag_snapshot(core)
                except Exception:
                    snapshot = {"threads": []}
                ages = [
                    thread["request_age_ns"]
                    for thread in snapshot.get("threads", ())
                    if thread.get("request_age_ns") is not None
                ]
                entry = {
                    "scans": 0,
                    "oldest_waiter_age_ns": max(ages, default=0),
                    "suspected_now": 0,
                    "livelock_suspects": 0,
                    "watchdog_mitigations": 0,
                }
            cores[name] = entry
            oldest = max(oldest, entry.get("oldest_waiter_age_ns") or 0)
            suspected_now += entry.get("suspected_now", 0)
            scans += entry.get("scans", 0)
        stats = self.stats
        return {
            "watchdog": bool(self.config.watchdog),
            "oldest_waiter_age_ns": oldest,
            "suspected_now": suspected_now,
            "scans": scans,
            "livelock_suspects": stats.livelock_suspects,
            "watchdog_mitigations": stats.watchdog_mitigations,
            "cores": cores,
        }

    def close(self) -> None:
        """Tear the session down: undo the patch, detach every
        session-owned subscriber, flush recorders.

        Matters when the bus was passed in from outside: a closed
        session must stop consuming events published by its successors.
        """
        if self._closed:
            return
        self._closed = True
        if self._patched:
            self.uninstall()
        for writer in self._recorders:
            self.events.unsubscribe(writer)
            writer.close()
        for subscription in self._tail_subscriptions:
            self.events.unsubscribe(subscription)
        self.events.unsubscribe(self._counter_subscription)
        # The adapter cores too — on an externally owned bus their
        # source names, watchdogs and sync pumps would otherwise outlive
        # the session. The attached aio runtime must detach its waker
        # before the thread runtime's core goes.
        if self._aio_attached is not None:
            self._aio_attached.close()
        if self._aio is not None:
            self._aio.close()
        if self._runtime is not None:
            self._runtime.core.detach_events()
        for vm in self._vms:
            if vm.core is not None:
                vm.core.detach_events()
        # The shutdown flush rides the persister teardown (a final
        # flush + worker join) — gated on auto_save by construction,
        # since no persister exists otherwise. The bus binding is
        # released too, but the history itself stays usable: carrying
        # it into a successor session is a blessed pattern.
        self.history.detach_sync_pump()
        self.history.detach_persister()
        self.history.unbind_events(self.events)

    def __enter__(self) -> "Dimmunix":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        layers = ", ".join(self.components) or "no adapters yet"
        return (
            f"<Dimmunix {self.name}: {len(self.history)} signature(s), "
            f"{self.events.published} event(s), {layers}>"
        )


@contextlib.contextmanager
def immunity(
    config: Optional[DimmunixConfig] = None,
    *,
    history: Optional[History] = None,
    events: Optional[EventBus] = None,
    patch: bool = False,
    name: str = "immunity",
    **config_overrides,
) -> Iterator[Dimmunix]:
    """Deadlock immunity for a scope — the five-line quickstart.

    Creates a :class:`Dimmunix` session (``config_overrides`` build or
    evolve the config, e.g. ``immunity(history_path=p)``), optionally
    installs the platform-wide ``threading`` patch (``patch=True``), and
    tears everything down on exit.
    """
    if config is None:
        resolved = DimmunixConfig(**config_overrides)
    elif config_overrides:
        resolved = config.evolve(**config_overrides)
    else:
        resolved = config
    session = Dimmunix(resolved, history=history, events=events, name=name)
    try:
        if patch:
            session.install()
        yield session
    finally:
        session.close()


__all__ = ["Dimmunix", "immunity"]
