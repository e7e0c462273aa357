"""The persistent deadlock history — a facade over a pluggable store.

The history is the set of signatures a process is immune to. It is
loaded by ``initDimmunix`` when a process starts (on the phone: on every
Zygote fork) and persisted whenever a new signature is discovered, so a
deadlock survives the ensuing freeze/reboot as an antibody.

Since the store redesign, :class:`History` no longer owns storage: it
wraps a :class:`~repro.core.store.HistoryStore` backend selected by a
DSN (``mem://``, ``jsonl://``, ``sqlite://`` — see
:mod:`repro.core.store.url`) and adds the session-facing concerns:

* the single event choke point — every flush or snapshot that persists
  signatures announces exactly one
  :class:`~repro.core.events.HistorySavedEvent` on the bound bus, no
  matter which adapter triggered it;
* the attachment point for the
  :class:`~repro.core.store.WriteBehindPersister`, so persistence stays
  off the engine's lock path.

The legacy construction paths (``History()``, ``History.load(path)``,
``history.save(path)``) keep their exact semantics, backed by a
:class:`~repro.core.store.MemoryStore` and legacy-format snapshots.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Iterator, Optional

# Captured at import time, before the platform-wide patch can replace
# threading.RLock (repro.core always loads before repro.runtime.patch
# installs): a History constructed inside a patched process must not get
# an immunized flush lock, or the write-behind worker would re-enter the
# engine from the persistence path.
_RLock = threading.RLock

from repro.core.position import PositionKey
from repro.core.signature import DeadlockSignature
from repro.core.store import (
    FORMAT_NAME,
    FORMAT_VERSION,
    HistoryFullError,
    HistoryStore,
    MemoryStore,
    open_store,
    read_signatures,
)

__all__ = [
    "History",
    "HistoryFullError",
    "load_or_empty",
    "open_history",
    "FORMAT_NAME",
    "FORMAT_VERSION",
]


class History:
    """An ordered, deduplicated collection of deadlock signatures.

    Signatures are indexed by their outer position keys so the avoidance
    hot path (``signatures_at``) is a single dict probe. Deduplication
    uses the signatures' canonical keys, so re-detecting a known deadlock
    is a no-op (the paper: a bug is uniquely delimited by its outer and
    inner positions). Storage and matching live in the wrapped
    :class:`~repro.core.store.HistoryStore`.
    """

    def __init__(
        self,
        max_signatures: int = 4096,
        *,
        store: Optional[HistoryStore] = None,
    ) -> None:
        self._store = (
            store
            if store is not None
            else MemoryStore(max_signatures=max_signatures)
        )
        # Event binding: (bus, source) set once by the first owner (a
        # core or a session facade); every persistence announcement goes
        # through _announce_saved so each flush emits exactly one event.
        self._events = None
        self._source = "history"
        self._stats = None
        self._persister = None
        self._sync_pump = None
        # expire_predictions runs at most once per History instance —
        # one aging step per process run, however many engines share it.
        self._aged = False
        # Serializes flush + its announcement so concurrent flushers
        # (worker thread vs explicit shutdown flush) cannot interleave:
        # when flush() returns, any flush that beat it has already
        # published its HistorySavedEvent.
        self._flush_lock = _RLock()
        # Monotonic counter of position-index mutations (adds, predicted
        # seeds, merges, expirations, fleet pulls). The engine's capture
        # fast path caches "this position has zero signatures" stamped
        # with this epoch and revalidates only when it moves — the
        # freshness contract that demotes a hot position on the very
        # next acquire. Int bumps under the GIL; a racing reader at
        # worst revalidates once more.
        self._index_epoch = 0

    @property
    def index_epoch(self) -> int:
        """Epoch of the signature index (bumped on every mutation)."""
        return self._index_epoch

    def bump_index_epoch(self) -> None:
        """Invalidate fast-path no-history caches (index just changed).

        Called by every in-class mutation and by external refreshers —
        the :class:`~repro.fleet.pump.SyncPump` after a pull that
        brought news — since the pump refreshes the store directly,
        beneath this facade.
        """
        self._index_epoch += 1

    # ------------------------------------------------------------------
    # store access
    # ------------------------------------------------------------------

    @property
    def store(self) -> HistoryStore:
        """The storage/matching backend this history wraps."""
        return self._store

    @property
    def url(self) -> str:
        return self._store.url

    @property
    def location(self) -> Optional[Path]:
        """The backing file, or ``None`` for in-memory histories."""
        return self._store.location

    @property
    def max_signatures(self) -> int:
        return self._store.max_signatures

    @max_signatures.setter
    def max_signatures(self, value: int) -> None:
        self._store.max_signatures = value

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------

    def bind_events(self, events, source: str, stats=None) -> bool:
        """Bind the bus that announcements publish on (first wins).

        Called by the first :class:`~repro.core.engine.DimmunixCore` or
        :class:`~repro.api.Dimmunix` session that adopts this history;
        later binds are no-ops so a session-shared history announces
        with one stable source. ``stats`` (the binder's
        :class:`~repro.core.stats.DimmunixStats`) is where each
        announced seed is tallied, so a seed counts once however many
        cores share the history.
        """
        if self._events is not None:
            return False
        self._events = events
        self._source = source
        self._stats = stats
        return True

    @property
    def persister(self):
        """The attached write-behind persister, if any."""
        return self._persister

    def attach_persister(self, persister) -> bool:
        """Adopt a write-behind persister (first wins, like the bus)."""
        if self._persister is not None:
            return False
        self._persister = persister
        return True

    def detach_persister(self) -> None:
        """Close the attached persister (final flush, join worker).

        Session teardown: the history itself stays usable — a successor
        session adopting it attaches a fresh persister.
        """
        if self._persister is not None:
            self._persister.close()
            self._persister = None

    @property
    def sync_pump(self):
        """The attached fleet sync pump, if any."""
        return self._sync_pump

    def attach_sync_pump(self, pump) -> bool:
        """Adopt a fleet sync pump (first wins, like the persister)."""
        if self._sync_pump is not None:
            return False
        self._sync_pump = pump
        return True

    def detach_sync_pump(self) -> None:
        """Stop the attached sync pump; the history stays usable."""
        if self._sync_pump is not None:
            self._sync_pump.close()
            self._sync_pump = None

    def unbind_events(self, events) -> None:
        """Release the save-announcement bus, if it is ``events``.

        The companion of :meth:`bind_events` for session teardown: a
        history that outlives its session must not keep publishing on
        (or pinning) the retired session's bus.
        """
        if self._events is events:
            self._events = None
            self._source = "history"
            self._stats = None

    def _announce_saved(self, path: Path | str) -> None:
        if self._events is None:
            return
        from repro.core.events import HistorySavedEvent

        self._events.publish(
            HistorySavedEvent(
                source=self._source,
                ts_ns=time.monotonic_ns(),
                path=str(path),
                signatures=len(self._store),
            )
        )

    # ------------------------------------------------------------------
    # mutation / queries — delegated to the store
    # ------------------------------------------------------------------

    def add(self, signature: DeadlockSignature) -> bool:
        """Insert ``signature``; returns ``False`` if it was a duplicate."""
        added = self._store.add(signature)
        if added:
            self.bump_index_epoch()
        return added

    # ------------------------------------------------------------------
    # predictive immunity (predicted -> promoted -> expired)
    # ------------------------------------------------------------------

    def add_predicted(
        self,
        signature: DeadlockSignature,
        *,
        origin: str = "predict",
        confidence: float = 1.0,
    ) -> bool:
        """Seed a *predicted* antibody — immunity before any infection.

        The shared write path of the static lint and the trace miner.
        The signature is stamped ``provenance="predicted"`` before the
        store sees it; if the same bug was already earned (or promoted),
        the duplicate is a no-op — prediction never downgrades a proven
        antibody. Each actually-new prediction is announced as one
        :class:`~repro.core.events.PredictedSeededEvent`.
        """
        signature.provenance = "predicted"
        added = self._store.add(signature)
        if added:
            self.bump_index_epoch()
        if added and self._events is not None:
            from repro.core.events import PredictedSeededEvent

            if self._stats is not None:
                self._stats.predictions_seeded += 1
            self._events.publish(
                PredictedSeededEvent(
                    source=self._source,
                    ts_ns=time.monotonic_ns(),
                    signature=signature,
                    origin=origin,
                    confidence=confidence,
                )
            )
        return added

    def promote(self, signature: DeadlockSignature) -> bool:
        """Upgrade a predicted signature that triggered a real avoidance."""
        return self._store.promote(signature)

    def expire_predictions(self, ttl_runs: int) -> int:
        """Apply the ``predicted_ttl_runs`` demotion policy once per run.

        Ages every still-predicted signature by one run and drops those
        that reached the TTL (index *and* backend). Engines call this at
        start-up; it is idempotent per History instance so several
        adapters sharing one history age it exactly once. Returns how
        many predictions were expired.
        """
        if ttl_runs <= 0:
            return 0
        with self._flush_lock:
            if self._aged:
                return 0
            self._aged = True
            expired = self._store.expire_predictions(ttl_runs)
            if expired:
                self.bump_index_epoch()
            return expired

    def provenance_counts(self) -> dict[str, int]:
        """Antibody counts by provenance (earned/predicted/promoted)."""
        return self._store.provenance_counts()

    def signatures_at(
        self, key: PositionKey, include_starvation: bool = True
    ) -> tuple[DeadlockSignature, ...]:
        return self._store.signatures_at(key, include_starvation)

    def starvation_signatures_at(
        self, key: PositionKey
    ) -> tuple[DeadlockSignature, ...]:
        return self._store.starvation_signatures_at(key)

    def contains_position(self, key: PositionKey) -> bool:
        return self._store.contains_position(key)

    def contains(self, signature: DeadlockSignature) -> bool:
        return self._store.contains(signature)

    def deadlock_count(self) -> int:
        return self._store.deadlock_count()

    def starvation_count(self) -> int:
        return self._store.starvation_count()

    def merge_from(self, other: "History | HistoryStore") -> int:
        """Add all signatures from ``other``; returns how many were new."""
        merged = self._store.merge_from(other)
        if merged:
            self.bump_index_epoch()
        return merged

    def approximate_bytes(self) -> int:
        """In-process bytes held by signatures and the matching index."""
        return self._store.approximate_bytes()

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[DeadlockSignature]:
        return iter(self._store)

    def __contains__(self, signature: object) -> bool:
        return signature in self._store

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Persist pending signatures through the store; returns count.

        The one save path: every flush that wrote something announces
        exactly one ``HistorySavedEvent``. No-op (and no event) when the
        store is clean or in-memory.
        """
        with self._flush_lock:
            written = self._store.flush()
            if written:
                # Location-less durable backends (tcp://) announce their
                # DSN — the event's "path" names where the write landed.
                location = self._store.location
                if location is not None:
                    self._announce_saved(location)
                elif self._store.persistent:
                    self._announce_saved(self._store.url)
            return written

    def save(self, path: Path | str) -> None:
        """Atomically snapshot all signatures to ``path`` (legacy format).

        Explicit export — works for any backend. Announced as one
        ``HistorySavedEvent`` when a bus is bound.
        """
        self._store.snapshot_to(path)
        self._announce_saved(path)

    def persist(self, target: Optional[Path | str] = None) -> Path:
        """Make the history durable at ``target`` — the save front door.

        The one save policy shared by every adapter's ``save_history``:

        * no ``target``: the backing location (raises for ``mem://``
          histories with no location);
        * ``target`` == the backing location of a durable store: a
          cheap :meth:`flush` (plus a snapshot if the file was never
          materialized);
        * any other case — an export path, or a memory-backed history —
          a full legacy-format snapshot.
        """
        if target is None:
            target = self.location
            if target is None:
                if self._store.persistent:
                    # Durable but location-less (tcp://): a flush *is*
                    # persistence; there is no file to name but the DSN.
                    self.flush()
                    return Path(self._store.url)
                raise ValueError(
                    "no history location: pass a path or configure "
                    "DimmunixConfig.history_url / history_path"
                )
        target = Path(target)
        if self._store.persistent and self.location == target:
            if self.flush() == 0 and not target.exists():
                self.save(target)
        else:
            self.save(target)
        return target

    def close(self) -> None:
        """Flush (through the persister when attached) and close."""
        self.detach_sync_pump()
        self.detach_persister()
        self.flush()
        self._store.close()

    @classmethod
    def load(
        cls, path: Path | str, max_signatures: int = 4096
    ) -> "History":
        """Load a legacy history file into memory; missing file = empty.

        Unlike :func:`open_history`, the result is *not* bound to the
        file — mutations stay in memory until an explicit :meth:`save`.
        """
        history = cls(max_signatures=max_signatures)
        path = Path(path)
        if not path.exists():
            return history
        for _line, signature in read_signatures(path):
            history.add(signature)
        history._store.mark_clean()
        return history

    def __repr__(self) -> str:
        return f"<History {self.url}: {len(self)} signature(s)>"


def open_history(
    url: Optional[str | Path], max_signatures: int = 4096
) -> History:
    """Open a history on the backend a DSN names (``None`` = ``mem://``)."""
    if url is None:
        return History(max_signatures=max_signatures)
    return History(store=open_store(url, max_signatures=max_signatures))


def load_or_empty(
    path: Optional[Path | str], max_signatures: int = 4096
) -> History:
    """Convenience used by ``initDimmunix``: load if a path is configured.

    Accepts a bare path (legacy in-memory load, exactly as before) or a
    DSN, which opens the named backend file-bound.
    """
    if path is None:
        return History(max_signatures=max_signatures)
    if isinstance(path, str) and "://" in path:
        return open_history(path, max_signatures=max_signatures)
    return History.load(path, max_signatures=max_signatures)
