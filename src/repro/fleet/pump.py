"""The antibody sync pump — background refresh for long-lived processes.

A shared pool (``sqlite://``, ``shard://``, ``tcp://``) makes antibodies
*available* fleet-wide, but a process only consults its in-memory index:
without a refresh, immunity earned elsewhere arrives at the next
restart. The paper's phones rebooted after every deadlock; a platform
service that never restarts needs the pull driven for it.

:class:`SyncPump` is that driver — a daemon thread, deliberately shaped
like the :class:`~repro.core.store.persister.WriteBehindPersister` it
rides alongside:

* it wakes on ``history-saved`` events (a flush just happened, so the
  fleet may have news for us too — and for ``tcp://``, our push may
  have been spilled and wants replaying),
* and on a configurable period (``DimmunixConfig.fleet_sync_interval``),
  so a quiet process still converges on the fleet's pool.

Each cycle calls the store's ``refresh()`` (every shared backend has
one) and folds the store's own transport counters into deltas; a cycle
with anything to report bumps the owning engine's ``DimmunixStats``
(``sync_pulls`` / ``sync_pushed`` / ``sync_failures`` /
``spill_replayed``) and publishes one
:class:`~repro.core.events.FleetSyncEvent` under its source. All-quiet
cycles publish nothing.

Failures never propagate: an unreachable server is a counted event,
retried next cycle — the pump must be as unkillable as the persister.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.core.events import FleetSyncEvent

# Original primitives, captured before any platform-wide patch: the
# pump must never block on an immunized lock.
_Condition = threading.Condition
_Lock = threading.Lock
_Thread = threading.Thread

#: counters a fleet-aware store (RemoteStore) exposes; deltas of these
#: ride along in the FleetSyncEvent.
_STORE_COUNTERS = ("pushed", "failures", "spill_replayed")


class SyncPump:
    """Keeps one history's in-memory index current with the fleet."""

    def __init__(
        self,
        history,
        events,
        *,
        interval: Optional[float] = None,
        source: str = "core",
        stats=None,
        telemetry=None,
        health_provider=None,
    ) -> None:
        self.history = history
        self.events = events
        self.interval = interval
        self.source = source
        # The owning engine's DimmunixStats (None for a free-standing
        # pump): each reported cycle's deltas are added to its sync_*
        # counters.
        self.stats = stats
        # Zero-arg callable returning the owning core's liveness-health
        # dict (the LivenessWatchdog's health()); rides along in the
        # metrics report so `dimmunix-serve` can aggregate fleet-wide
        # oldest-waiter ages and suspect counts.
        self.health_provider = health_provider
        # When the owning engine has telemetry on, each cycle is timed
        # into the ``sync`` phase histogram and the collector's full
        # report is pushed to the fleet server (if the store can carry
        # it), which is how `dimmunix-serve` answers fleet-wide
        # percentiles.
        self.telemetry = telemetry
        self.last_sync_ns: Optional[int] = None
        self.metrics_pushed = 0
        # Cumulative pump-side telemetry.
        self.cycles = 0
        self.pulls = 0
        self.pushes = 0
        self.failures = 0
        self.spill_replays = 0
        self._cond = _Condition(_Lock())
        self._kicks = 0
        self._closed = False
        self._last_counters = self._counter_snapshot()
        # Eager start for the same reason the persister's worker starts
        # eagerly: Thread.start() inside bus dispatch would run under
        # the engine's global lock.
        self._worker = _Thread(
            target=self._run, name="dimmunix-sync-pump", daemon=True
        )
        self._worker.start()
        self._subscription = events.subscribe(
            self._on_saved, kinds=("history-saved",)
        )

    # ------------------------------------------------------------------
    # bus side (runs inside dispatch — flag and notify only)
    # ------------------------------------------------------------------

    def _on_saved(self, event) -> None:
        with self._cond:
            if self._closed:
                return
            self._kicks += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._kicks and not self._closed:
                    self._cond.wait(timeout=self.interval)
                if self._closed:
                    return
                trigger = "saved" if self._kicks else "period"
                self._kicks = 0
            self._sync(trigger)

    def _counter_snapshot(self) -> dict[str, int]:
        store = self.history.store
        return {
            name: getattr(store, name, 0) for name in _STORE_COUNTERS
        }

    def _sync(self, trigger: str) -> None:
        store = self.history.store
        refresh = getattr(store, "refresh", None)
        if refresh is None:
            return  # mem:// / jsonl://: nothing to sync against
        telemetry = self.telemetry
        start_ns = time.monotonic_ns() if telemetry is not None else 0
        pulled = 0
        local_failures = 0
        try:
            pulled = refresh()
            self.last_sync_ns = time.monotonic_ns()
            if pulled:
                # refresh() mutates the store's index beneath the
                # History facade, so the fast-path invalidation epoch
                # must be bumped here — this is what demotes a
                # fast-pathed position on the very next acquire after
                # a sibling's antibody arrives.
                self.history.bump_index_epoch()
        except Exception:
            # RemoteStore counts its own transport failures; anything
            # else (or anything beyond them) is counted here. Either
            # way the pump survives and retries next cycle.
            local_failures = 1
        if telemetry is not None:
            telemetry.record("sync", time.monotonic_ns() - start_ns)
            self._push_metrics(store)
        current = self._counter_snapshot()
        previous, self._last_counters = self._last_counters, current
        pushed = max(0, current["pushed"] - previous["pushed"])
        spill_replayed = max(
            0, current["spill_replayed"] - previous["spill_replayed"]
        )
        failures = max(
            local_failures, current["failures"] - previous["failures"]
        )
        self.cycles += 1
        self.pulls += pulled
        self.pushes += pushed
        self.failures += failures
        self.spill_replays += spill_replayed
        if not (pulled or pushed or failures or spill_replayed):
            return  # a healthy idle fleet stays off the event stream
        stats = self.stats
        if stats is not None:
            stats.sync_pulls += pulled
            stats.sync_pushed += pushed
            stats.sync_failures += failures
            stats.spill_replayed += spill_replayed
        self.events.publish(
            FleetSyncEvent(
                source=self.source,
                ts=time.time(),
                ts_ns=time.monotonic_ns(),
                pulled=pulled,
                pushed=pushed,
                failures=failures,
                spill_replayed=spill_replayed,
                trigger=trigger,
            )
        )

    # ------------------------------------------------------------------
    # fleet metrics
    # ------------------------------------------------------------------

    def metrics_report(self) -> dict:
        """This client's contribution to the fleet ``metrics`` op.

        Phase histograms in wire form, the local spill depth (journal
        entries not yet replayed to the server), how long ago the last
        successful sync completed, and — when the owning core runs a
        liveness watchdog — its health dict (oldest waiter age,
        suspect/mitigation counts).
        """
        store = self.history.store
        spilled = getattr(store, "spilled", 0)
        replayed = getattr(store, "spill_replayed", 0)
        report: dict = {
            "client": self.source,
            "phases": (
                self.telemetry.snapshot_json()
                if self.telemetry is not None
                else {}
            ),
            "spill_depth": max(0, spilled - replayed),
        }
        if self.last_sync_ns is not None:
            report["sync_lag_s"] = max(
                0.0, (time.monotonic_ns() - self.last_sync_ns) / 1e9
            )
        if self.health_provider is not None:
            try:
                health = self.health_provider()
            except Exception:
                health = None
            if health:
                report["health"] = health
        return report

    def _push_metrics(self, store) -> None:
        push = getattr(store, "push_metrics", None)
        if push is None:
            return  # sqlite:// / shard://: no server to report to
        try:
            push(self.metrics_report())
            self.metrics_pushed += 1
        except Exception:
            # Metrics are strictly best-effort: an unreachable server
            # already shows up in the sync failure counters.
            pass

    # ------------------------------------------------------------------
    # explicit control
    # ------------------------------------------------------------------

    def sync_now(self, trigger: str = "manual") -> int:
        """Run one cycle synchronously; returns signatures pulled.

        The ``Dimmunix.sync()`` front door and the test hook — no
        waiting on the worker's schedule.
        """
        before = self.pulls
        self._sync(trigger)
        return self.pulls - before

    def kick(self) -> None:
        """Ask the worker for a cycle soon (without blocking for it)."""
        with self._cond:
            if not self._closed:
                self._kicks += 1
                self._cond.notify_all()

    def close(self) -> None:
        """Stop the worker and drop the subscription. Safe to repeat."""
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        if self._worker.is_alive():
            self._worker.join(timeout=5.0)
        if not already:
            self.events.unsubscribe(self._subscription)

    def __repr__(self) -> str:
        period = (
            f"every {self.interval}s" if self.interval else "event-driven"
        )
        return (
            f"<SyncPump {period} on {self.history.store.url}: "
            f"{self.cycles} cycle(s), {self.pulls} pulled, "
            f"{self.pushes} pushed, {self.failures} failure(s)>"
        )


__all__ = ["SyncPump"]
