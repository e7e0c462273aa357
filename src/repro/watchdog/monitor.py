"""The liveness watchdog: stall scoring and mitigation off the spine.

Android's Live-LocK Daemon (llkd) samples ``/proc`` every
``ro.llk_sample_ms`` looking for threads stuck in uninterruptible
states, then escalates: mitigate (kill the stuck process), and panic if
the kill did not help. :class:`LivenessWatchdog` is that idea rebuilt on
Dimmunix's observability substrate, for the failures cycle detection
cannot see — a cycle never closes in a yield storm, a try-lock spin, or
a starved waiter, yet nothing makes progress.

It watches from two directions at once:

* **EventBus subscriber** — a per-node sliding window of
  ``request`` / ``acquired`` / ``yield`` / ``resume`` events (filtered
  to the owning core's source). A node that churns through at least
  ``watchdog_storm_ratio`` requests-plus-yields with **zero**
  acquisitions inside ``watchdog_storm_window`` seconds is a storm
  suspect: repeated parks (``yield-storm``) or repeated failed
  non-blocking requests (``try-lock-spin``).
* **Periodic scanner** — a daemon thread that snapshots the RAG every
  ``watchdog_scan_interval`` seconds (under the adapter glock, once an
  adapter has bound one) and reads each waiter's ``request_since_ns``
  age. A request older than ``watchdog_stall_age`` seconds is a
  ``stall`` suspect.

The escalation ladder is llkd's, with events instead of kills::

    observe ──► LivelockSuspectedEvent ──► WatchdogMitigationEvent
    (scan n)    (first qualifying scan,    (suspect persists into the
                 carries the stall report)  next scan; policy applies)

Every suspicion carries a *stall report*: the current suspects with
their ages and event windows, plus the RAG fragment around them —
plain JSON, so it survives the event wire form untouched.

Mitigation policies (:class:`repro.config.WatchdogPolicy`): ``report``
emits the mitigation event and nothing else; ``break_youngest`` reuses
the starvation-override machinery — the youngest suspect (smallest
request age: breaking it loses the least progress) that is parked by
avoidance gets a one-shot bypass and a wake, exactly like the
yield-timeout safety net. One mitigation per scan, like llkd's one kill
per detection.

Cost contract: the watchdog adds **zero** code to the lock path. Off
(the default) there is no subscription and no thread — not even an
attribute check at any engine site. On, the per-event cost is one
dict probe plus a bounded deque append inside bus dispatch, and all
scanning happens on the watchdog's own thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional

from repro.config import WatchdogPolicy
from repro.core.events import LivelockSuspectedEvent, WatchdogMitigationEvent
from repro.telemetry.ragdump import rag_snapshot

# Original primitives, captured before any platform-wide patch: the
# watchdog must never block on an immunized lock.
_Condition = threading.Condition
_Lock = threading.Lock
_Thread = threading.Thread

_WINDOW_KINDS = ("request", "acquired", "yield", "resume")

#: scans a mitigated suspect must stay stuck before it re-arms for
#: another mitigation round (llkd re-samples before re-escalating).
_REARM_SCANS = 2


class LivenessWatchdog:
    """Forward-progress monitor for one :class:`DimmunixCore`."""

    def __init__(self, core, *, autostart: bool = True) -> None:
        self.core = core
        self.events = core.events
        self.source = core.source
        config = core.config
        self.policy: WatchdogPolicy = config.watchdog_policy
        self.scan_interval = config.watchdog_scan_interval
        self._stall_age_ns = int(config.watchdog_stall_age * 1e9)
        self._window_ns = int(config.watchdog_storm_window * 1e9)
        self.storm_ratio = config.watchdog_storm_ratio
        # The adapter's process-global lock, bound by the first adapter
        # driving this core (see RuntimeAdapter / AioRuntimeAdapter).
        # Until then scans are racy reads (the rag_dump contract) and
        # mitigation stays a no-op — engine calls must be serialized.
        self._glock = None
        # Per-node sliding event windows, keyed by thread/task name.
        # Mutated inside bus dispatch and read by the scanner thread,
        # so guarded by a dedicated (original) lock.
        self._wlock = _Lock()
        self._windows: dict[str, deque] = {}
        self._window_cap = max(64, 8 * self.storm_ratio)
        # Escalation-ladder state per suspect name.
        self._ladder: dict[str, dict] = {}
        self.scans = 0
        self.scan_errors = 0
        self.suspects_total = 0
        self.mitigations = 0
        self.oldest_waiter_age_ns = 0
        self.last_scan_ns: Optional[int] = None
        self.last_report: Optional[dict] = None
        self._cond = _Condition(_Lock())
        self._closed = False
        # Eager start, like the persister and sync pump: Thread.start()
        # inside bus dispatch would run under the engine's global lock.
        self._worker: Optional[threading.Thread] = None
        if autostart:
            self._worker = _Thread(
                target=self._run,
                name=f"dimmunix-watchdog-{self.source}",
                daemon=True,
            )
            self._worker.start()
        self._subscription = self.events.subscribe(
            self._on_event, kinds=_WINDOW_KINDS, source=self.source
        )

    # ------------------------------------------------------------------
    # adapter wiring
    # ------------------------------------------------------------------

    def bind_glock(self, glock) -> None:
        """Serialize scans/mitigation under the adapter's global lock.

        First adapter wins — a cross-domain adapter joining the same
        engine passes the owning adapter's lock anyway.
        """
        if self._glock is None:
            self._glock = glock

    # ------------------------------------------------------------------
    # bus side (runs inside dispatch — append and return)
    # ------------------------------------------------------------------

    def _on_event(self, event) -> None:
        with self._wlock:
            window = self._windows.get(event.thread)
            if window is None:
                window = self._windows[event.thread] = deque(
                    maxlen=self._window_cap
                )
            window.append((event.ts_ns, event.kind))

    # ------------------------------------------------------------------
    # scanner side
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._closed:
                    self._cond.wait(timeout=self.scan_interval)
                if self._closed:
                    return
            try:
                self.scan_once()
            except Exception:
                # The watchdog must be as unkillable as the persister:
                # a torn racy read is a skipped scan, not a dead thread.
                self.scan_errors += 1

    def scan_once(self, now_ns: Optional[int] = None) -> Optional[dict]:
        """Run one scan; returns the stall report if anything fired.

        The synchronous entry point the scenario tests and benches call
        directly — the worker thread calls exactly this.
        """
        if now_ns is None:
            now_ns = time.monotonic_ns()
        self.scans += 1

        glock = self._glock
        try:
            if glock is not None:
                with glock:
                    snapshot = rag_snapshot(self.core, now_ns=now_ns)
            else:
                snapshot = rag_snapshot(self.core, now_ns=now_ns)
        except Exception:
            snapshot = {"threads": [], "locks": [], "edges": []}

        # -- stall scoring off request_since_ns ------------------------
        candidates: dict[str, dict] = {}
        ages: dict[str, int] = {}
        oldest = 0
        for entry in snapshot.get("threads", ()):
            age = entry.get("request_age_ns")
            if age is None:
                continue
            ages[entry["name"]] = age
            oldest = max(oldest, age)
            if age >= self._stall_age_ns:
                candidates[entry["name"]] = {
                    "reason": "stall",
                    "age_ns": age,
                    "window": {},
                }
        self.oldest_waiter_age_ns = oldest

        # -- storm scoring off the event windows -----------------------
        cutoff = now_ns - self._window_ns
        with self._wlock:
            for name in list(self._windows):
                window = self._windows[name]
                while window and window[0][0] < cutoff:
                    window.popleft()
                if not window:
                    del self._windows[name]
                    continue
                counts = {kind: 0 for kind in _WINDOW_KINDS}
                for _ts, kind in window:
                    counts[kind] += 1
                existing = candidates.get(name)
                if existing is not None:
                    existing["window"] = counts
                    continue
                if counts["acquired"]:
                    continue  # forward progress inside the window
                if counts["request"] + counts["yield"] < self.storm_ratio:
                    continue
                candidates[name] = {
                    "reason": (
                        "yield-storm" if counts["yield"] else "try-lock-spin"
                    ),
                    "age_ns": ages.get(name, 0),
                    "window": counts,
                }

        # -- the escalation ladder -------------------------------------
        for name in [n for n in self._ladder if n not in candidates]:
            del self._ladder[name]  # recovered: made progress
        newly: list[str] = []
        persisting: list[str] = []
        for name in candidates:
            state = self._ladder.get(name)
            if state is None:
                self._ladder[name] = {"stage": "suspected", "scan": self.scans}
                newly.append(name)
            elif state["stage"] == "suspected" and state["scan"] < self.scans:
                persisting.append(name)
            elif (
                state["stage"] == "mitigated"
                and self.scans - state["scan"] >= _REARM_SCANS
            ):
                state.update(stage="suspected", scan=self.scans)

        report: Optional[dict] = None
        if newly or persisting:
            report = self._stall_report(candidates, snapshot)
            self.last_report = report
        for name in newly:
            self.suspects_total += 1
            self.core.stats.livelock_suspects += 1
            info = candidates[name]
            self._publish(
                LivelockSuspectedEvent,
                thread=name,
                reason=info["reason"],
                age_ns=info["age_ns"],
                scan=self.scans,
                report=report,
            )
        if persisting:
            self._mitigate(persisting, candidates)
        self.last_scan_ns = now_ns
        return report

    def _stall_report(self, candidates: dict, snapshot: dict) -> dict:
        """The structured stall report: suspects + the RAG around them."""
        names = set(candidates)
        threads = [
            entry
            for entry in snapshot.get("threads", ())
            if entry.get("name") in names
        ]
        edges = [
            edge
            for edge in snapshot.get("edges", ())
            if edge.get("from") in names or edge.get("to") in names
        ]
        lock_names = {
            edge["to"] for edge in edges if edge.get("kind") == "request"
        } | {edge["from"] for edge in edges if edge.get("kind") == "hold"}
        locks = [
            entry
            for entry in snapshot.get("locks", ())
            if entry.get("name") in lock_names
        ]
        return {
            "scan": self.scans,
            "source": self.source,
            "oldest_waiter_age_ns": self.oldest_waiter_age_ns,
            "suspects": [
                {
                    "node": name,
                    "reason": info["reason"],
                    "age_ns": info["age_ns"],
                    "window": dict(info["window"]),
                }
                for name, info in sorted(candidates.items())
            ],
            "rag": {"threads": threads, "locks": locks, "edges": edges},
        }

    def _mitigate(self, persisting: list, candidates: dict) -> None:
        """One mitigation per scan, on the youngest persisting suspect."""
        target = min(persisting, key=lambda name: candidates[name]["age_ns"])
        info = candidates[target]
        action = "reported"
        if self.policy is WatchdogPolicy.BREAK_YOUNGEST:
            action = self._break(target)
        self.mitigations += 1
        self.core.stats.watchdog_mitigations += 1
        self._publish(
            WatchdogMitigationEvent,
            thread=target,
            policy=self.policy.value,
            action=action,
            reason=info["reason"],
            age_ns=info["age_ns"],
            scan=self.scans,
        )
        self._ladder[target] = {"stage": "mitigated", "scan": self.scans}

    def _break(self, name: str) -> str:
        """Grant a parked suspect a one-shot bypass and wake it.

        The starvation-override machinery, driven from the watchdog
        instead of the yield timeout: ``force_bypass`` records the
        starvation signature (trigger ``"watchdog"``) and arms the
        bypass, the notify wakes the parked unit through every
        adapter's waker. A suspect that is physically blocked (not
        parked by avoidance) is left alone — nothing safe to break.
        """
        glock = self._glock
        if glock is None:
            return "no-op"
        with glock:
            node = next(
                (
                    thread
                    for thread in self.core.rag.threads()
                    if thread.name == name
                ),
                None,
            )
            if node is None or node.yielding_on is None:
                return "no-op"
            signature = node.yielding_on
            self.core.force_bypass(node, trigger="watchdog")
            self.core.notify_signatures((signature,))
        return "bypass-granted"

    def _publish(self, event_cls, **fields) -> None:
        self.events.publish(
            event_cls(
                source=self.source,
                ts=self.core._now(),
                ts_ns=time.monotonic_ns(),
                **fields,
            )
        )

    # ------------------------------------------------------------------
    # health surface
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Plain-JSON liveness health — the ``dx.health()`` /
        fleet-``metrics``-op contribution of this core."""
        with self._wlock:
            tracked = len(self._windows)
        return {
            "scans": self.scans,
            "oldest_waiter_age_ns": self.oldest_waiter_age_ns,
            "suspected_now": len(self._ladder),
            "livelock_suspects": self.suspects_total,
            "watchdog_mitigations": self.mitigations,
            "tracked_nodes": tracked,
            "policy": self.policy.value,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the scanner and drop the subscription. Safe to repeat."""
        with self._cond:
            already = self._closed
            self._closed = True
            self._cond.notify_all()
        if self._worker is not None and self._worker.is_alive():
            self._worker.join(timeout=5.0)
        if not already:
            self.events.unsubscribe(self._subscription)

    def __repr__(self) -> str:
        return (
            f"<LivenessWatchdog {self.source}: {self.scans} scan(s), "
            f"{self.suspects_total} suspect(s), "
            f"{self.mitigations} mitigation(s), policy={self.policy.value}>"
        )


__all__ = ["LivenessWatchdog"]
