"""Per-thread phase-latency accumulators.

The engine's request path runs under the adapter glock, so the
recording side must never take another lock (a telemetry lock acquired
inside the glock would be exactly the kind of nested ordering this
project exists to police). Instead each OS thread records into its own
shard — a plain ``phase -> LogHistogram`` dict hanging off
``threading.local`` — and ``snapshot()`` merges every shard it has seen
under a captured (never-immunized) registry lock.

The merge is best-effort with respect to writers that are mid-``record``
on another thread: a snapshot may miss the very last sample landed
concurrently, which is fine for monitoring output. Shards are only ever
appended to the registry, never removed, so a thread that exits keeps
its samples visible.
"""

from __future__ import annotations

import threading

from repro.telemetry.histogram import LogHistogram

# Capture the primitive classes at import time, before any runtime
# patching replaces threading's attributes with immunized wrappers —
# same convention as the engine and event bus.
_Lock = threading.Lock
_Local = threading.local

#: Phases recorded along the acquire path, in request order.
#:
#: capture      callsite/position resolution (``resolve_stack``)
#: glock_wait   waiting to enter the adapter's global engine lock
#: match        signature instantiation check (``would_instantiate``)
#: acquire      full request -> acquired latency (emit stamps)
#: yield_park   parked in an avoidance yield (condition / future wait)
#: store_flush  write-behind history persistence flush
#: sync         one fleet sync-pump cycle (refresh + counter fold)
PHASES = (
    "capture",
    "glock_wait",
    "match",
    "acquire",
    "yield_park",
    "store_flush",
    "sync",
)


class TelemetryCollector:
    """Lock-free-on-record, merge-on-read phase latency collector."""

    def __init__(self) -> None:
        self._local = _Local()
        self._registry_lock = _Lock()
        self._shards: list[dict[str, LogHistogram]] = []

    def record(self, phase: str, ns: int) -> None:
        """Land one phase duration for the calling thread. No locks."""
        try:
            shard = self._local.shard
        except AttributeError:
            shard = {}
            # Registering the fresh shard takes the registry lock once
            # per thread lifetime — never again on the hot path.
            with self._registry_lock:
                self._shards.append(shard)
            self._local.shard = shard
        histogram = shard.get(phase)
        if histogram is None:
            histogram = shard[phase] = LogHistogram()
        histogram.record(ns)

    def snapshot(self) -> dict[str, LogHistogram]:
        """Merge all per-thread shards into fresh histograms.

        Best-effort against concurrent recorders: a sample landed while
        the merge walks its shard may or may not appear.
        """
        with self._registry_lock:
            shards = list(self._shards)
        merged: dict[str, LogHistogram] = {}
        for shard in shards:
            for phase, histogram in list(shard.items()):
                target = merged.get(phase)
                if target is None:
                    target = merged[phase] = LogHistogram()
                target.merge(histogram)
        return merged

    def snapshot_json(self) -> dict[str, dict]:
        """``snapshot()`` in the plain-JSON wire form, keyed by phase."""
        return {
            phase: histogram.to_json()
            for phase, histogram in sorted(self.snapshot().items())
        }

    def thread_count(self) -> int:
        """How many threads have recorded at least one sample."""
        with self._registry_lock:
            return len(self._shards)


__all__ = ["PHASES", "TelemetryCollector"]
