"""Event counters for a Dimmunix instance.

The paper reports performance and memory overheads; this module provides
the raw counters from which the benchmark harness derives them. Counters
are plain integers mutated under the adapter's global lock, so no atomics
are needed — the same reasoning the paper uses for its global-lock design.

Every counter has one source: the site that does the work bumps it
directly. Where that site also emits a typed event (see
:mod:`repro.core.events`), the bump sits next to the emit and happens
whether or not anyone subscribes, so ``EventCounter`` totals equal these
counters kind for kind while the counters never depend on the bus. The
engine owns the lifecycle counters; the liveness watchdog, the fleet
sync pump and the history's predicted seeds bump the stats of the core
(or session) that owns them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class DimmunixStats:
    """Counters incremented by the core engine and its adapters."""

    requests: int = 0
    acquisitions: int = 0
    releases: int = 0
    waits: int = 0
    deadlocks_detected: int = 0
    starvations_detected: int = 0
    yields: int = 0
    yield_wakeups: int = 0
    notifications: int = 0
    instantiation_checks: int = 0
    matching_steps: int = 0
    # Budgeted-matcher tallies (hot-path, checker-incremented like
    # matching_steps): checks that exhausted match_step_budget, and the
    # subset that answered through the weak-deadlock-set relaxation
    # (match_cap_policy="weak"). Each cap also surfaces as one
    # MatchCappedEvent when the check ran inside the engine.
    match_caps: int = 0
    weak_fallbacks: int = 0
    signatures_added: int = 0
    duplicate_signatures: int = 0
    avoided_instantiations: int = 0
    # Predictive-immunity tallies: predictions_seeded counts the seeds
    # the history announced while bound to this core (or session); the
    # other three are direct engine/history tallies —
    # avoided_instantiations whose signature was predicted or promoted,
    # predicted signatures upgraded to promoted by a real avoidance,
    # and predicted signatures dropped by the predicted_ttl_runs policy.
    predictions_seeded: int = 0
    predicted_avoidances: int = 0
    predictions_promoted: int = 0
    predictions_expired: int = 0
    # Fleet-sync tallies, bumped by the SyncPump the engine attaches
    # when fleet_sync_interval is configured (the same deltas its
    # FleetSyncEvent carries): signatures pulled from the
    # fleet, signatures pushed (or spilled-then-replayed) to it,
    # unreachable-server failures, and spill-journal entries replayed
    # after a partition healed.
    sync_pulls: int = 0
    sync_pushed: int = 0
    sync_failures: int = 0
    spill_replayed: int = 0
    # Liveness-watchdog tallies, bumped by the LivenessWatchdog next to
    # each suspicion / mitigation event it publishes — the counter form
    # of the llkd escalation ladder.
    livelock_suspects: int = 0
    watchdog_mitigations: int = 0
    bypasses_granted: int = 0
    starvation_overrides: int = 0
    # Capture fast path tallies (hot-path, engine-incremented like
    # matching_steps): acquisitions that took the no-history fast path,
    # and positions demoted back to the exact path because history/fleet
    # sync/predictions made them hot after the fast path had validated
    # them cold.
    fastpath_acquires: int = 0
    fastpath_demotions: int = 0
    stack_retrievals: int = 0
    stack_retrieval_ns: int = 0
    request_ns: int = 0
    # Adapter-side tallies added with the asyncio layer: execution units
    # registered as RAG nodes by a cooperative adapter, and granted
    # requests rolled back before acquisition (detection policies,
    # failed physical acquires, cancelled awaits).
    tasks_registered: int = 0
    requests_cancelled: int = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy, suitable for asserting deltas in tests."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "DimmunixStats") -> None:
        """Accumulate another instance's counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


@dataclass
class MemoryFootprint:
    """Approximate bytes used by Dimmunix structures in one process.

    Mirrors the memory-overhead accounting of §5: positions, RAG nodes,
    queue cells, per-thread stack buffers, and history signatures are the
    structures Dimmunix adds on top of the vanilla VM.
    """

    positions: int = 0
    queue_cells: int = 0
    thread_nodes: int = 0
    lock_nodes: int = 0
    stack_buffers: int = 0
    signatures: int = 0
    bytes_total: int = 0

    extra: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        data = {
            "positions": self.positions,
            "queue_cells": self.queue_cells,
            "thread_nodes": self.thread_nodes,
            "lock_nodes": self.lock_nodes,
            "stack_buffers": self.stack_buffers,
            "signatures": self.signatures,
            "bytes_total": self.bytes_total,
        }
        data.update(self.extra)
        return data
