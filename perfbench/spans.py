"""Span tracing of the library's layers, from outside the library.

:class:`Tracer` wraps the public functions of each layer (a layer is a
module of ``repro``) at class or module level and records one span per
call: ``(span id, parent span id, op id, name, start ns, end ns)``. Parent
and op ids live in context variables, so they follow OS threads and
asyncio tasks alike, and an ``async`` wrapper's span covers its await.
Spans stay in memory until :meth:`Tracer.take`; :func:`self_times` and
:func:`summarize` turn them into per-layer numbers.

Three rules keep the traced program the program under test:

* install before the session builds its locks — the locks bind
  ``PositionCache.lookup_or_resolve`` and the adapters' / engine's
  ``fast_acquired`` when they are constructed;
* ``find_lock_cycle`` / ``find_extended_cycle`` / ``resolve_stack`` are
  wrapped where they were imported by name (``repro.core.engine``,
  ``repro.runtime.locks``, ``repro.aio.locks``);
* the wrappers' frames are registered with the call-site classifier as
  library frames, or every captured position would name this file.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict

# (layer, module, class or None, attribute)
TARGETS = (
    ("runtime.locks", "repro.runtime.locks", "DimmunixLock", "acquire"),
    ("runtime.locks", "repro.runtime.locks", "DimmunixLock", "release"),
    ("aio.locks", "repro.aio.locks", "AioDimmunixLock", "acquire"),
    ("aio.locks", "repro.aio.locks", "AioDimmunixLock", "release"),
    ("runtime.callsite", "repro.runtime.callsite", "PositionCache", "lookup_or_resolve"),
    ("runtime.callsite", "repro.runtime.locks", None, "resolve_stack"),
    ("runtime.callsite", "repro.aio.locks", None, "resolve_stack"),
    ("runtime.interception", "repro.runtime.interception", "RuntimeAdapter", "resolve_position"),
    ("runtime.interception", "repro.runtime.interception", "RuntimeAdapter", "fast_acquired"),
    ("runtime.interception", "repro.runtime.interception", "RuntimeAdapter", "before_acquire"),
    ("runtime.interception", "repro.runtime.interception", "RuntimeAdapter", "after_acquire"),
    ("runtime.interception", "repro.runtime.interception", "RuntimeAdapter", "before_release"),
    ("aio.adapter", "repro.aio.adapter", "AioRuntimeAdapter", "resolve_position"),
    ("aio.adapter", "repro.aio.adapter", "AioRuntimeAdapter", "fast_acquired"),
    ("aio.adapter", "repro.aio.adapter", "AioRuntimeAdapter", "before_acquire"),
    ("aio.adapter", "repro.aio.adapter", "AioRuntimeAdapter", "after_acquire"),
    ("aio.adapter", "repro.aio.adapter", "AioRuntimeAdapter", "before_release"),
    ("core.engine", "repro.core.engine", "DimmunixCore", "fast_acquired"),
    ("core.engine", "repro.core.engine", "DimmunixCore", "request"),
    ("core.engine", "repro.core.engine", "DimmunixCore", "acquired"),
    ("core.engine", "repro.core.engine", "DimmunixCore", "release"),
    ("core.avoidance", "repro.core.avoidance", "InstantiationChecker", "would_instantiate"),
    ("core.cycle", "repro.core.engine", None, "find_lock_cycle"),
    ("core.cycle", "repro.core.engine", None, "find_extended_cycle"),
    ("core.history", "repro.core.history", "History", "signatures_at"),
    ("core.events", "repro.core.events", "EventBus", "publish"),
    ("core.store", "repro.api", None, "open_history"),
)

NO_SPAN = -1
_parent: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=NO_SPAN)
_op: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_op", default=NO_SPAN)


def span_name(layer: str, owner, attribute: str) -> str:
    return f"{layer}:{owner + '.' if owner else ''}{attribute}"


class Tracer:
    """Records spans while :attr:`active`; install/uninstall the wrappers."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._op_ids = itertools.count()
        self._installed: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.active:
                    return await fn(*args, **kwargs)
                span = next(ids)
                parent = _parent.get()
                token = _parent.set(span)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    _parent.reset(token)
                    spans.append((span, parent, _op.get(), name, start, end))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = next(ids)
            parent = _parent.get()
            token = _parent.set(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _parent.reset(token)
                spans.append((span, parent, _op.get(), name, start, end))

        return traced

    def op(self, fn):
        """Wrap one workload op so the spans under it share an op id."""
        tracer = self
        op_ids = self._op_ids

        if inspect.iscoroutinefunction(fn):

            async def traced_op(*args):
                if not tracer.active:
                    return await fn(*args)
                token = _op.set(next(op_ids))
                try:
                    return await fn(*args)
                finally:
                    _op.reset(token)

            return traced_op

        def traced_op(*args):
            if not tracer.active:
                return fn(*args)
            token = _op.set(next(op_ids))
            try:
                return fn(*args)
            finally:
                _op.reset(token)

        return traced_op

    # -- installation --------------------------------------------------

    def install(self) -> None:
        from repro.runtime import callsite

        if self._installed:
            raise RuntimeError("tracer already installed")
        # Wrapper frames sit between the application's lock statement
        # and the library; the capture must skip them like library frames.
        callsite._classify[self._wrap.__code__.co_filename] = callsite._INTERNAL
        for layer, module_name, owner_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute]
            wrapped = self._wrap(span_name(layer, owner_name, attribute), original)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        from repro.runtime import callsite

        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()
        callsite._classify.pop(self._wrap.__code__.co_filename, None)

    def take(self) -> list[tuple]:
        """Hand over the recorded spans and start afresh."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def covered(start: int, end: int, intervals) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans, since: int = 0) -> dict[int, int]:
    """Span id -> self time: duration minus what its child spans cover.

    Only what happens from ``since`` (ns) on counts: spans that ended
    before it are left out, spans that started before it are clipped.
    """
    children: dict[int, list] = defaultdict(list)
    for _span, parent, _op_id, _name, start, end in spans:
        if parent != NO_SPAN and end >= since:
            children[parent].append((max(start, since), end))
    own = {}
    for span, _parent_id, _op_id, _name, start, end in spans:
        if end >= since:
            start = max(start, since)
            own[span] = (end - start) - covered(start, end, children.get(span, ()))
    return own


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def summarize(spans, since: int = 0) -> tuple[dict, dict, dict]:
    """Per-name call counts, per-layer self ns, and park ns per layer.

    Self times are clipped to ``since`` (see :func:`self_times`); calls
    are counted for spans that started after it. A ``before_acquire``
    span that issued more than one ``request`` parked in between; its
    self time is that op's park time.
    """
    own = self_times(spans, since)
    requests: dict[int, int] = defaultdict(int)
    for _span, parent, _op_id, name, _start, _end in spans:
        if name == "core.engine:DimmunixCore.request" and parent != NO_SPAN:
            requests[parent] += 1
    calls: dict[str, int] = defaultdict(int)
    layer_ns: dict[str, int] = defaultdict(int)
    park_ns: dict[str, int] = defaultdict(int)
    for span, _parent_id, _op_id, name, start, _end in spans:
        if span not in own:
            continue
        if start > since:
            calls[name] += 1
        layer = layer_of(name)
        layer_ns[layer] += own[span]
        if name.endswith(".before_acquire") and requests.get(span, 0) > 1:
            park_ns[layer] += own[span]
    return calls, layer_ns, park_ns
