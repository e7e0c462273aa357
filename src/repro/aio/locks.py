"""Immunized lock types for ``asyncio`` code.

:class:`AioDimmunixLock` corresponds to a non-reentrant ``asyncio.Lock``;
:class:`AioDimmunixRLock` to a task-reentrant monitor (recursive
acquisitions by the owning task do not re-enter Dimmunix, exactly like
nested ``monitorenter`` on an owned monitor in the VM — asyncio has no
stdlib RLock, but looper-style handler code wants one).

Each lock owns its RAG :class:`~repro.core.node.LockNode` for its
lifetime — the paper's "node field embedded in the Monitor struct" — and
every acquisition funnels through
:meth:`~repro.aio.adapter.AioRuntimeAdapter.before_acquire`, so detection
and avoidance run on the *cooperative* schedule: a parked task returns
control to the event loop instead of blocking its thread.

Both types are drop-in compatible with ``asyncio.Lock`` (``await
lock.acquire()``, ``async with lock:``, ``locked()``), which is what lets
:mod:`repro.aio.patch` substitute them process-wide. They accept the
extra keywords ``site_id`` (the paper's §4 static synchronization-site
ids) and ``blocking=False`` (try-lock semantics, an extension asyncio
lacks but avoidance needs for parity with the thread layer).
"""

from __future__ import annotations

import asyncio
import time
from typing import TYPE_CHECKING, Optional

from repro.aio import _originals
from repro.core.callstack import CallStack
from repro.errors import DeadlockDetectedError
from repro.runtime.callsite import resolve_stack
from repro.runtime.locks import LostRestoreMarker

if TYPE_CHECKING:
    from repro.aio.runtime import AsyncioDimmunixRuntime


class AioDimmunixLock:
    """An ``asyncio.Lock`` with deadlock immunity."""

    _reentrant = False

    def __init__(
        self, runtime: "AsyncioDimmunixRuntime", name: str = ""
    ) -> None:
        self._runtime = runtime
        self._adapter = runtime.adapter
        self._raw = _originals.Lock()
        self._enabled = runtime.config.enabled
        self._depth = runtime.config.stack_depth
        # Cached at construction so the acquire path's telemetry guard
        # is one attribute load (None when telemetry is off).
        self._telemetry = self._adapter.core.telemetry if self._enabled else None
        # Capture fast path wiring — see DimmunixLock. In attached mode
        # the aio runtime builds its own cache over the shared engine,
        # so both adapter layers resolve to the same Position table.
        self._cache = getattr(runtime, "position_cache", None) if self._enabled else None
        self._fast_path = runtime.config.fast_path and self._cache is not None
        # Pre-bound hot-path methods — see DimmunixLock.
        self._lookup = self._cache.lookup_or_resolve if self._cache is not None else None
        self._fast_book = self._adapter.fast_acquired
        self.node = self._adapter.new_lock_node(name) if self._enabled else None
        self.name = name or (self.node.name if self.node else "aio-lock")
        # Kept on the lock (not the condition) so both monitor
        # spellings are covered by the one ``__aexit__`` that owns the
        # release; keyed by task id instead of thread ident.
        self._lost_restore = LostRestoreMarker()
        # The marker's backing set, tested directly on the fast path
        # (set truthiness beats a __bool__ method call).
        self._lost_set = self._lost_restore._lost

    # -- acquire / release ------------------------------------------------

    async def acquire(
        self,
        blocking: bool = True,
        site_id: Optional[int] = None,
        stack: Optional["CallStack"] = None,
    ) -> bool:
        """Acquire the lock, running Dimmunix detection/avoidance first.

        With ``blocking=False``, avoidance that would park the task — or
        a raw lock that is already held — is reported as "would block"
        (returns ``False``); a try-lock must never suspend, not even for
        immunity. ``stack`` lets callers supply a pre-built position.
        """
        if not self._enabled:
            if not blocking:
                if self._raw.locked():
                    return False
            return await self._raw.acquire()
        if stack is None:
            tel = self._telemetry
            lookup = self._lookup
            if lookup is not None and site_id is None:
                if tel is not None:
                    capture_t0 = time.monotonic_ns()
                    position = lookup()
                    tel.record("capture", time.monotonic_ns() - capture_t0)
                else:
                    position = lookup()
                if position is not None:
                    # No-history fast path, cooperative flavor: a free
                    # asyncio.Lock with no waiters acquires synchronously
                    # (no suspension, no cancellation window), so the
                    # engine can book the hold first and the physical
                    # acquire reduces to flipping _locked — no task
                    # switch can interleave because nothing here awaits.
                    # Waiters present means a handoff is in flight —
                    # fall back to the exact path. The engine refusing
                    # (position went hot) also falls back; nothing
                    # physical happened yet.
                    raw = self._raw
                    if (
                        self._fast_path
                        and not position.in_history
                        and not raw._locked
                        and not raw._waiters
                        and self._fast_book(self.node, position)
                    ):
                        # The physical acquire, inlined: with _locked
                        # False and no waiters, asyncio.Lock.acquire is
                        # exactly this assignment (plus coroutine
                        # machinery we skip); release()/locked() read
                        # the same attribute.
                        raw._locked = True
                        if self._lost_set:
                            self._lost_set.discard(id(asyncio.current_task()))
                        return True
                    stack = position.stack
            if stack is None:
                if tel is not None:
                    capture_t0 = time.monotonic_ns()
                    stack = resolve_stack(
                        self._depth, site_id, self._runtime.static_sites, skip=1
                    )
                    tel.record("capture", time.monotonic_ns() - capture_t0)
                else:
                    stack = resolve_stack(
                        self._depth, site_id, self._runtime.static_sites, skip=1
                    )
        allowed = await self._adapter.before_acquire(
            self.node, stack, wait=blocking
        )
        if not allowed:
            return False
        if not blocking and self._raw.locked():
            self._adapter.abandon_acquire(self.node)
            return False
        try:
            # An unlocked asyncio.Lock acquires without suspending, so
            # the non-blocking path above cannot race within one task.
            got_it = await self._raw.acquire()
        except asyncio.CancelledError:
            # Cancelled during the physical await: the engine request
            # must not outlive the acquisition attempt.
            self._adapter.abandon_acquire(self.node)
            raise
        if got_it:
            self._adapter.after_acquire(self.node)
            self._lost_restore.clear(id(asyncio.current_task()))
        else:  # pragma: no cover - asyncio.Lock.acquire only returns True
            self._adapter.abandon_acquire(self.node)
        return got_it

    def release(self) -> None:
        if self._enabled:
            self._adapter.before_release(self.node)
        self._raw.release()

    def locked(self) -> bool:
        return self._raw.locked()

    # -- protocol used by AioDimmunixCondition -----------------------------

    def _is_owned(self) -> bool:
        # asyncio.Lock does not track its owning task; mirror the stdlib
        # asyncio.Condition heuristic: held at all counts as owned.
        return self._raw.locked()

    def _release_save(self) -> None:
        self.release()

    async def _acquire_restore(self, state) -> None:
        # Reacquisition goes through the full Dimmunix path — the paper's
        # waitMonitor change (§3.2) on the cooperative schedule. A
        # detection here (RAISE raising, or a BREAK denial — the only
        # way a blocking acquire returns False) means the monitor stays
        # unheld: mark the task so its ``async with`` exit skips the
        # release instead of masking the error.
        key = id(asyncio.current_task())
        try:
            got_it = await self.acquire()
        except DeadlockDetectedError:
            self._lost_restore.mark(key)
            raise
        if not got_it:
            self._lost_restore.deny(key)

    # -- context manager ---------------------------------------------------

    async def __aenter__(self) -> "AioDimmunixLock":
        await self.acquire()
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        if self._lost_restore.lost(id(asyncio.current_task())):
            # This task's wait() lost the monitor to an unwound
            # reacquisition; there is nothing to release.
            return
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self.locked() else "unlocked"
        return f"<AioDimmunixLock {self.name} {state}>"


class AioDimmunixRLock:
    """A task-reentrant asyncio lock with deadlock immunity.

    Only the first (non-recursive) acquisition and the final release go
    through Dimmunix; recursive pairs by the owning task are plain
    counter updates, as in a reentrant Java monitor.
    """

    _reentrant = True

    def __init__(
        self, runtime: "AsyncioDimmunixRuntime", name: str = ""
    ) -> None:
        self._runtime = runtime
        self._adapter = runtime.adapter
        self._raw = _originals.Lock()
        self._enabled = runtime.config.enabled
        self._depth = runtime.config.stack_depth
        self._telemetry = self._adapter.core.telemetry if self._enabled else None
        # See AioDimmunixLock: capture fast path wiring.
        self._cache = getattr(runtime, "position_cache", None) if self._enabled else None
        self._fast_path = runtime.config.fast_path and self._cache is not None
        self._lookup = self._cache.lookup_or_resolve if self._cache is not None else None
        self._fast_book = self._adapter.fast_acquired
        self._owner: Optional[int] = None
        self._count = 0
        self.node = self._adapter.new_lock_node(name) if self._enabled else None
        self.name = name or (self.node.name if self.node else "aio-rlock")
        # See AioDimmunixLock: tasks whose reacquisition was unwound.
        self._lost_restore = LostRestoreMarker()

    @staticmethod
    def _me() -> int:
        task = asyncio.current_task()
        if task is None:
            raise RuntimeError(
                "AioDimmunixRLock must be used from inside an asyncio task"
            )
        return id(task)

    async def acquire(
        self,
        blocking: bool = True,
        site_id: Optional[int] = None,
        stack: Optional["CallStack"] = None,
    ) -> bool:
        me = self._me()
        if self._owner == me:
            self._count += 1
            return True
        if self._enabled:
            if stack is None:
                tel = self._telemetry
                lookup = self._lookup
                if lookup is not None and site_id is None:
                    if tel is not None:
                        capture_t0 = time.monotonic_ns()
                        position = lookup()
                        tel.record(
                            "capture", time.monotonic_ns() - capture_t0
                        )
                    else:
                        position = lookup()
                    if position is not None:
                        # See AioDimmunixLock.acquire: free lock, no
                        # waiters, history-cold — book the hold before
                        # the synchronously-completing await.
                        raw = self._raw
                        if (
                            self._fast_path
                            and not position.in_history
                            and not raw._locked
                            and not raw._waiters
                            and self._fast_book(self.node, position)
                        ):
                            # Inlined physical acquire — see
                            # AioDimmunixLock.acquire.
                            raw._locked = True
                            self._owner = me
                            self._count = 1
                            lr = self._lost_restore
                            if lr:
                                lr.clear(me)
                            return True
                        stack = position.stack
                if stack is None:
                    if tel is not None:
                        capture_t0 = time.monotonic_ns()
                        stack = resolve_stack(
                            self._depth,
                            site_id,
                            self._runtime.static_sites,
                            skip=1,
                        )
                        tel.record(
                            "capture", time.monotonic_ns() - capture_t0
                        )
                    else:
                        stack = resolve_stack(
                            self._depth,
                            site_id,
                            self._runtime.static_sites,
                            skip=1,
                        )
            allowed = await self._adapter.before_acquire(
                self.node, stack, wait=blocking
            )
            if not allowed:
                return False
        if not blocking and self._raw.locked():
            if self._enabled:
                self._adapter.abandon_acquire(self.node)
            return False
        try:
            got_it = await self._raw.acquire()
        except asyncio.CancelledError:
            if self._enabled:
                self._adapter.abandon_acquire(self.node)
            raise
        if got_it:
            self._owner = me
            self._count = 1
            if self._enabled:
                self._adapter.after_acquire(self.node)
            self._lost_restore.clear(me)
        elif self._enabled:  # pragma: no cover - acquire only returns True
            self._adapter.abandon_acquire(self.node)
        return got_it

    def release(self) -> None:
        if self._owner != self._me():
            raise RuntimeError("cannot release un-acquired lock")
        self._count -= 1
        if self._count:
            return
        self._owner = None
        if self._enabled:
            self._adapter.before_release(self.node)
        self._raw.release()

    def locked(self) -> bool:
        return self._raw.locked()

    # -- protocol used by AioDimmunixCondition -----------------------------

    def _is_owned(self) -> bool:
        return self._owner == self._me()

    def _release_save(self) -> int:
        """Fully release regardless of recursion depth; return the depth."""
        if self._owner != self._me():
            raise RuntimeError("cannot wait on un-acquired lock")
        count = self._count
        self._count = 0
        self._owner = None
        if self._enabled:
            self._adapter.before_release(self.node)
        self._raw.release()
        return count

    async def _acquire_restore(self, state: int) -> None:
        """Reacquire through the full Dimmunix path, then restore depth.

        A detection here (RAISE raising, or a BREAK denial — the only
        way a blocking acquire returns False) leaves the monitor
        unheld: the task is marked so its ``async with`` exit skips the
        release, and the depth is NOT restored — doing so without
        ownership would corrupt the monitor.
        """
        key = id(asyncio.current_task())
        try:
            got_it = await self.acquire()
        except DeadlockDetectedError:
            self._lost_restore.mark(key)
            raise
        if not got_it:
            self._lost_restore.deny(key)
        self._count = state

    async def __aenter__(self) -> "AioDimmunixRLock":
        await self.acquire()
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        if self._lost_restore.lost(id(asyncio.current_task())):
            return
        self.release()

    def __repr__(self) -> str:
        return (
            f"<AioDimmunixRLock {self.name} owner={self._owner} "
            f"count={self._count}>"
        )
