"""The four benchmark workloads, their measured phases and output checks.

Every workload is a closed loop: each worker (an OS thread, or an asyncio
task on the one loop thread) issues its next op when the last returns.
An op is one call into a generated site: one acquire/release pair, or one
nested AB section on ``threads-avoidance``. An untraced run:

1. opens the session repeatedly through ``repro.immunity()`` —
   history-store load plus lock creation — for a while before and after
   the timed phase, and reports the median;
2. warms up on the last session, then runs half-second rounds: for the
   first fifth of each round the same workers run the same ops on raw
   ``threading.Lock`` / ``asyncio.Lock`` (the lock-ordered AB program on
   ``threads-avoidance``), for the rest on the session's locks;
3. checks the outputs; a failed check makes the run incorrect.

The host's speed drifts by up to 2x over tens of seconds, so the bounded
timings are ratios of two blocks of one round, measured less than half
a second apart, and each is the median over the rounds.

A traced run measures an untraced session and then a traced one (at
most ``TRACE_SECONDS``, no raw blocks) and derives per-layer numbers from
the spans of the second.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import math
import os
import statistics
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from perfbench.gen import SITES, load_sites
from perfbench.spans import Tracer, summarize

WORKLOADS = {
    "threads-cold": "threads",
    "threads-antibodies": "threads",
    "threads-avoidance": "threads",
    "tasks-mixed": "tasks",
}
ROUND_S = 0.5
RAW_SHARE = 0.2
# Raw ops run up to 50x faster than session ops; a raw block keeps only
# its first latencies, enough for its median.
RAW_BLOCK_SAMPLES = 20_000
THREAD_SAMPLE_CAP = 1 << 20
TASK_SAMPLE_CAP = 1 << 17
JOIN_GRACE_S = 10.0
TRACE_SECONDS = 2.0
# The host's speed changes over seconds to minutes, so set-up is sampled
# in two windows, before and after the timed phase: in each, opens repeat
# SETUP_GAP_S apart until SETUP_WINDOW_S has passed (at least
# ``setup_reps``, at most SETUP_MAX_REPS opens); the median of both is
# reported.
SETUP_WINDOW_S = 2.0
SETUP_GAP_S = 0.05
SETUP_MAX_REPS = 40
# Event kind -> DimmunixStats counter: the pairs the session's always-on
# EventCounter must agree with.
EVENT_COUNTERS = (
    ("request", "requests"),
    ("acquired", "acquisitions"),
    ("release", "releases"),
    ("yield", "yields"),
    ("resume", "yield_wakeups"),
    ("detection", "deadlocks_detected"),
    ("starvation", "starvations_detected"),
)


class Rss:
    """Peak resident-set growth over a baseline, sampled by the caller."""

    _page = os.sysconf("SC_PAGE_SIZE")

    def __init__(self) -> None:
        self.base = self.now()
        self.peak = self.base
        self.samples = 0

    @classmethod
    def now(cls) -> int:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * cls._page

    def sample(self) -> None:
        self.peak = max(self.peak, self.now())
        self.samples += 1

    @property
    def growth_mb(self) -> float:
        return (self.peak - self.base) / 2**20


@dataclass(frozen=True)
class Schedule:
    """Warm-up, then ``rounds`` rounds of a raw block and a session block.

    Block ``2k`` is round ``k``'s raw block, ``2k + 1`` its session block;
    block ``-1`` is the warm-up. An op belongs to the block it starts in.
    """

    warm_until: int
    round_ns: int
    raw_ns: int
    rounds: int

    @classmethod
    def starting_now(cls, seconds: float, warm: float, raw_share: float) -> "Schedule":
        rounds = max(1, round(seconds / ROUND_S))
        round_ns = int(seconds * 1e9 / rounds)
        warm_until = time.perf_counter_ns() + int(warm * 1e9)
        return cls(warm_until, round_ns, int(round_ns * raw_share), rounds)

    @property
    def end(self) -> int:
        return self.warm_until + self.rounds * self.round_ns

    def locate(self, now: int) -> tuple[int, bool, int]:
        """(block, raw?, when the block ends) for ``now >= warm_until``."""
        k, within = divmod(now - self.warm_until, self.round_ns)
        start = self.warm_until + k * self.round_ns
        if within < self.raw_ns:
            return 2 * k, True, start + self.raw_ns
        return 2 * k + 1, False, start + self.round_ns


@dataclass
class Tally:
    """One worker's counts of session ops (warm-up included); ``samples``
    holds the latencies (ns) of timed ops, split by ``blocks``."""

    samples: array
    # (block, index of its first sample, ops completed before it)
    blocks: list = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    recorded: int = 0
    counted: int = 0
    overflowed: bool = False
    done: bool = False
    errors: list = field(default_factory=list)

    def note(self, exc: BaseException) -> None:
        if len(self.errors) < 3:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


@dataclass
class Phase:
    """The merged outcome of one closed-loop phase."""

    tallies: list
    schedule: Schedule
    session_blocks: list  # per round: ascending latencies (ns) of session ops
    raw_blocks: list  # per round: ascending latencies (ns) of raw ops
    session_ops: list  # per round: session ops completed
    raw_ops: list  # per round: raw ops completed

    @classmethod
    def merge(cls, tallies: list, schedule: Schedule) -> "Phase":
        latencies: dict = defaultdict(list)
        completed: dict = defaultdict(int)
        for tally in tallies:
            bounds = tally.blocks + [(None, tally.recorded, tally.counted)]
            for (block, lo, before), (_next, hi, after) in zip(bounds, bounds[1:]):
                latencies[block].extend(tally.samples[lo:hi])
                completed[block] += after - before
        rounds = range(schedule.rounds)
        return cls(
            tallies=tallies,
            schedule=schedule,
            session_blocks=[sorted(latencies[2 * k + 1]) for k in rounds],
            raw_blocks=[sorted(latencies[2 * k]) for k in rounds],
            session_ops=[completed[2 * k + 1] for k in rounds],
            raw_ops=[completed[2 * k] for k in rounds],
        )

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies)

    @property
    def unfinished(self) -> int:
        """Ops still running when the join grace ran out."""
        return sum(t.attempted - t.completed - t.failed for t in self.tallies if not t.done)

    @property
    def timed_ops(self) -> int:
        return sum(self.session_ops)

    def _rates(self) -> tuple[list, list]:
        """Per round: session and raw ops completed per second."""
        schedule = self.schedule
        session_s = (schedule.round_ns - schedule.raw_ns) / 1e9
        raw_s = schedule.raw_ns / 1e9 or math.inf
        return (
            [ops / session_s for ops in self.session_ops],
            [ops / raw_s for ops in self.raw_ops],
        )

    def ops_per_s(self) -> float:
        """Median over rounds of session ops completed per second."""
        return statistics.median(self._rates()[0])

    def percentile_us(self, q: float) -> float:
        """Median over rounds of each round's ``q`` latency, in µs."""
        values = [percentile(block, q) for block in self.session_blocks if block]
        return statistics.median(values) / 1e3 if values else math.nan

    def overhead_x(self) -> float:
        """Median over rounds of session p50 over raw p50 of the round."""
        values = [
            percentile(mine, 0.5) / percentile(raw, 0.5)
            for mine, raw in zip(self.session_blocks, self.raw_blocks)
            if mine and raw
        ]
        return statistics.median(values) if values else math.nan

    def syncs_overhead_x(self) -> float:
        """Median over rounds of raw ops per second over session ops per
        second of the round: the throughput the session costs, as a factor."""
        ratios = [raw / mine for mine, raw in zip(*self._rates()) if mine and raw]
        return statistics.median(ratios) if ratios else math.nan

    @property
    def errors(self) -> list:
        return [error for tally in self.tallies for error in tally.errors]


# ----------------------------------------------------------------------
# closed-loop runners
# ----------------------------------------------------------------------


def _thread_worker(ops, raw_ops, tally: Tally, schedule: Schedule) -> None:
    from repro import DimmunixError

    clock = time.perf_counter_ns
    samples = tally.samples
    cap = len(samples)
    n = 0
    length = len(ops)
    i = 0
    block, raw = -1, False
    keep = cap
    count = 0
    boundary, end = schedule.warm_until, schedule.end
    while True:
        t0 = clock()
        if t0 >= boundary:
            if t0 >= end:
                break
            block, raw, boundary = schedule.locate(t0)
            tally.blocks.append((block, n, count))
            keep = n + RAW_BLOCK_SAMPLES if raw else cap
        if raw:
            fn, args = raw_ops[i]
            fn(*args)
            ok = True
        else:
            fn, args = ops[i]
            tally.attempted += 1
            try:
                ok = fn(*args)
            except DimmunixError as exc:
                ok = False
                tally.note(exc)
            if ok:
                tally.completed += 1
            else:
                tally.failed += 1
        t1 = clock()
        i += 1
        if i == length:
            i = 0
        if ok and block >= 0:
            count += 1
            if n < keep:
                if n == cap:
                    tally.overflowed = True
                else:
                    samples[n] = t1 - t0
                    n += 1
    tally.recorded = n
    tally.counted = count
    tally.done = True


def run_threads(ops_per_worker, raw_per_worker, schedule: Schedule, buffers, rss=None, on_timed=None) -> Phase:
    """Run one closed-loop phase on OS threads, one per op list.

    ``on_timed`` is called from this thread when the warm-up ends.
    """
    clock = time.perf_counter_ns
    tallies = [Tally(samples=buffer) for buffer in buffers[: len(ops_per_worker)]]
    threads = [
        threading.Thread(
            target=_thread_worker,
            args=(ops, raw_ops, tally, schedule),
            name=f"perfbench-worker-{index}",
            daemon=True,
        )
        for index, (ops, raw_ops, tally) in enumerate(zip(ops_per_worker, raw_per_worker, tallies))
    ]
    for thread in threads:
        thread.start()
    if on_timed is not None:
        time.sleep(max(0.0, (schedule.warm_until - clock()) / 1e9))
        on_timed()
    give_up = schedule.end + int(JOIN_GRACE_S * 1e9)
    for thread in threads:
        while thread.is_alive() and clock() < give_up:
            thread.join(0.25)
            if rss is not None:
                rss.sample()
    if rss is not None:
        rss.sample()  # before the merge allocates the latency lists
    return Phase.merge(tallies, schedule)


async def _task_worker(ops, raw_ops, tally: Tally, schedule: Schedule) -> None:
    from repro import DimmunixError

    clock = time.perf_counter_ns
    samples = tally.samples
    cap = len(samples)
    n = 0
    length = len(ops)
    i = 0
    block, raw = -1, False
    keep = cap
    count = 0
    boundary, end = schedule.warm_until, schedule.end
    while True:
        t0 = clock()
        if t0 >= boundary:
            if t0 >= end:
                break
            block, raw, boundary = schedule.locate(t0)
            tally.blocks.append((block, n, count))
            keep = n + RAW_BLOCK_SAMPLES if raw else cap
        # Every 4th op awaits inside its section.
        pause = i & 3 == 3
        if raw:
            fn, lock = raw_ops[i % length]
            await fn(lock, pause)
            ok = True
        else:
            fn, lock = ops[i % length]
            tally.attempted += 1
            try:
                ok = await fn(lock, pause)
            except DimmunixError as exc:
                ok = False
                tally.note(exc)
            if ok:
                tally.completed += 1
            else:
                tally.failed += 1
        t1 = clock()
        i += 1
        if ok and block >= 0:
            count += 1
            if n < keep:
                if n == cap:
                    tally.overflowed = True
                else:
                    samples[n] = t1 - t0
                    n += 1
    tally.recorded = n
    tally.counted = count
    tally.done = True


async def run_tasks(ops_per_worker, raw_per_worker, schedule: Schedule, buffers, rss=None, on_timed=None) -> Phase:
    """Run one closed-loop phase on tasks of the running loop."""
    clock = time.perf_counter_ns
    tallies = [Tally(samples=buffer) for buffer in buffers[: len(ops_per_worker)]]
    tasks = [
        asyncio.ensure_future(_task_worker(ops, raw_ops, tally, schedule))
        for ops, raw_ops, tally in zip(ops_per_worker, raw_per_worker, tallies)
    ]
    if on_timed is not None:
        await asyncio.sleep(max(0.0, (schedule.warm_until - clock()) / 1e9))
        on_timed()
    give_up = schedule.end + int(JOIN_GRACE_S * 1e9)
    pending = set(tasks)
    while pending and clock() < give_up:
        _done, pending = await asyncio.wait(pending, timeout=0.25)
        if rss is not None:
            rss.sample()
    if rss is not None:
        rss.sample()  # before the merge allocates the latency lists
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()
    return Phase.merge(tallies, schedule)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """The generated inputs of one workload and how to drive them."""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self.name = inputs["workload"]
        self.domain = WORKLOADS[self.name]
        self.sites = load_sites(Path(inputs["sites"]))
        self.history_url = None
        if "pool" in inputs:
            self.history_url = f"sqlite://{inputs['pool']}"
        elif "seed_history" in inputs:
            self.history_url = f"sqlite://{inputs['seed_history']}"

    @classmethod
    def load(cls, workdir: Path) -> "Workload":
        return cls(json.loads((Path(workdir) / "inputs.json").read_text()))

    def buffers(self) -> list:
        """Latency buffers, allocated once before anything is measured."""
        if self.domain == "tasks":
            return [array("q", bytes(8 * TASK_SAMPLE_CAP)) for _ in self.inputs["picks"]]
        return [array("q", bytes(8 * THREAD_SAMPLE_CAP)) for _ in range(2)]

    def make_locks(self, dx) -> list:
        """The session's locks, or raw stdlib locks when ``dx`` is None."""
        if self.name == "threads-avoidance":
            if dx is None:
                return [threading.Lock(), threading.Lock()]
            return [dx.lock("A"), dx.lock("B")]
        count = 1 + max(pick[1] for picks in self.inputs["picks"] for pick in picks)
        if self.domain == "tasks":
            if dx is None:
                return [asyncio.Lock() for _ in range(count)]
            return [dx.aio_lock(f"L{index}") for index in range(count)]
        if dx is None:
            return [threading.Lock() for _ in range(count)]
        return [dx.lock(f"L{index}") for index in range(count)]

    def make_ops(self, locks, *, raw: bool = False, tracer: Optional[Tracer] = None) -> list:
        """Per-worker op lists: ``(fn, args)`` for threads, ``(fn, lock)``
        for tasks."""
        wrap = tracer.op if tracer is not None else (lambda fn: fn)
        if self.name == "threads-avoidance":
            a, b = locks
            # Raw AB/BA would deadlock: the baseline is the lock-ordered
            # program, both threads taking a then b.
            order = ["ab", "ab"] if raw else self.inputs["order"]
            return [[(wrap(self.sites[name]), (a, b, os.sched_yield))] for name in order]
        sites = [wrap(self.sites[f"site_{index}"]) for index in range(SITES)]
        if self.domain == "tasks":
            return [[(sites[s], locks[l]) for s, l in picks] for picks in self.inputs["picks"]]
        return [[(sites[s], (locks[l],)) for s, l in picks] for picks in self.inputs["picks"]]

    def checks(self, dx, phase: Phase, timed: dict, loaded: int) -> list:
        """``(name, ok, detail)`` for every output check of one session."""
        stats = dx.stats
        results = []
        unbalanced = [
            index
            for index, tally in enumerate(phase.tallies)
            if tally.done and tally.attempted != tally.completed + tally.failed
        ]
        results.append((
            "attempted ops = completed + failed",
            not unbalanced and not phase.unfinished,
            f"unbalanced workers {unbalanced}, unfinished {phase.unfinished}",
        ))
        results.append((
            "no op failed",
            phase.failed == 0 and phase.unfinished == 0 and stats.starvations_detected == 0,
            f"failed {phase.failed}, bypasses {stats.starvations_detected}, errors {phase.errors}",
        ))
        results.append((
            "stats acquisitions = releases",
            stats.acquisitions == stats.releases,
            f"{stats.acquisitions} vs {stats.releases}",
        ))
        mismatched = {
            kind: (dx.counter.count(kind), getattr(stats, counter))
            for kind, counter in EVENT_COUNTERS
            if dx.counter.count(kind) != getattr(stats, counter)
        }
        results.append(("event counts match stats", not mismatched, str(mismatched)))
        leftover = [
            edge
            for dump in dx.rag_dump().values()
            for edge in dump["edges"]
            if edge["kind"] in ("hold", "request")
        ]
        results.append(("no hold or request edges left", not leftover, str(leftover[:4])))
        results.append((
            "every timed latency recorded",
            not any(tally.overflowed for tally in phase.tallies),
            "a latency buffer filled up; the run is too long for its buffers",
        ))
        if self.name == "threads-antibodies":
            pool = self.inputs["pool_size"]
            results.append(("loaded signatures = pool size", loaded == pool, f"{loaded} vs {pool}"))
            results.append(("no op parked", stats.yields == 0, f"{stats.yields} yields"))
        elif self.name == "threads-avoidance":
            seed = self.inputs["seed_run"]
            results.append((
                "seed run detected one cycle",
                seed["detections"] == 1 and seed["signatures"] == 1,
                str(seed),
            ))
            results.append((
                "timed phase detected none",
                timed["deadlocks_detected"] == 0,
                f"{timed['deadlocks_detected']} detections",
            ))
            results.append(("timed phase yielded", timed["yields"] > 0, f"{timed['yields']} yields"))
        elif self.name == "tasks-mixed":
            exact = stats.acquisitions - stats.fastpath_acquires
            results.append((
                "aio fast and exact paths ran",
                stats.fastpath_acquires > 0 and exact > 0,
                f"fast {stats.fastpath_acquires}, exact {exact}",
            ))
        return results


@dataclass
class Session:
    """One open measured session: the facade, its locks, its set-up time."""

    stack: contextlib.ExitStack
    dx: object
    locks: list
    loaded: int
    seconds: float

    def close(self) -> None:
        self.stack.close()


def open_session(workload: Workload, *, telemetry: bool = False) -> Session:
    import repro

    stack = contextlib.ExitStack()
    start = time.perf_counter()
    dx = stack.enter_context(
        repro.immunity(history_url=workload.history_url, telemetry=telemetry, name="bench")
    )
    locks = workload.make_locks(dx)
    elapsed = time.perf_counter() - start
    return Session(stack, dx, locks, len(dx.history), elapsed)


def time_opens(workload: Workload, reps: int, window: float, *, rss=None,
               telemetry: bool = False, keep_last: bool = True) -> tuple[list, Optional[Session]]:
    """Open sessions until ``reps`` opens and ``window`` seconds are done;
    returns their set-up times and the last session, still open (or
    ``None`` with ``keep_last=False``)."""
    setups: list = []
    session = None
    window_end = time.perf_counter() + window
    while len(setups) < reps or (time.perf_counter() < window_end and len(setups) < SETUP_MAX_REPS):
        if session is not None:
            session.close()
            gc.collect()  # so a closed session's cycles never count as growth
            time.sleep(SETUP_GAP_S)
        session = open_session(workload, telemetry=telemetry)
        setups.append(session.seconds)
        if rss is not None:
            rss.sample()
    if not keep_last:
        session.close()
        session = None
    return setups, session


def _telemetry_sum_ns(dx, phase: str) -> int:
    return dx.telemetry_report()["phases"].get(phase, {}).get("sum_ns", 0)


def measure(workload: Workload, seconds: float, warm: float, buffers, *, rss=None,
            setup_reps: int = 1, setup_window: float = 0.0, raw_share: float = 0.0,
            tracer: Optional[Tracer] = None) -> dict:
    """Open sessions (:func:`time_opens`, keeping the last), warm up, run
    ``seconds`` of rounds, check the outputs, close.

    With a ``tracer`` there is exactly one open, the session runs with
    telemetry on, and spans are recorded during the open and from the
    warm-up on; the outcome carries the open's spans and the timed glock
    wait.
    """
    traced = tracer is not None
    marks: dict = {}
    state: dict = {}

    def set_up() -> None:
        if traced:
            tracer.active = True
        setups, session = time_opens(workload, setup_reps, setup_window, rss=rss, telemetry=traced)
        if traced:
            tracer.active = False
            marks["setup_spans"] = tracer.take()
        state["session"], state["setups"] = session, setups

    def on_timed() -> None:
        dx = state["session"].dx
        marks["before"] = dx.stats.snapshot()
        if traced:
            marks["glock_ns"] = _telemetry_sum_ns(dx, "glock_wait")

    def start() -> Schedule:
        # Spans are recorded from the warm-up on, so an acquire that
        # starts there and parks into the timed phase keeps its span.
        if traced:
            tracer.active = True
        return Schedule.starting_now(seconds, warm, raw_share)

    if workload.domain == "tasks":

        async def main() -> Phase:
            set_up()
            ops = workload.make_ops(state["session"].locks, tracer=tracer)
            raw_ops = workload.make_ops(workload.make_locks(None), raw=True)
            return await run_tasks(ops, raw_ops, start(), buffers, rss, on_timed)

        phase = asyncio.run(main())
    else:
        set_up()
        ops = workload.make_ops(state["session"].locks, tracer=tracer)
        raw_ops = workload.make_ops(workload.make_locks(None), raw=True)
        phase = run_threads(ops, raw_ops, start(), buffers, rss, on_timed)
    if traced:
        tracer.active = False
    session = state["session"]
    try:
        dx = session.dx
        after = dx.stats.snapshot()
        before = marks.get("before", {})
        timed = {key: after[key] - before.get(key, 0) for key in after}
        outcome = {
            "phase": phase,
            "timed": timed,
            "setups": state["setups"],
            "loaded": session.loaded,
            "checks": workload.checks(dx, phase, timed, session.loaded),
            "bypasses": dx.stats.starvations_detected,
        }
        if traced:
            outcome["glock_ns"] = _telemetry_sum_ns(dx, "glock_wait") - marks.get("glock_ns", 0)
            outcome["setup_spans"] = marks["setup_spans"]
    finally:
        session.close()
    return outcome


# ----------------------------------------------------------------------
# whole runs
# ----------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit, sample count)
    checks: list
    absolute: dict = field(default_factory=dict)  # same shape, unbounded


def _failures(outcome: dict) -> int:
    phase = outcome["phase"]
    return phase.failed + phase.unfinished + outcome["bypasses"]


def warm_seconds(seconds: float) -> float:
    return min(0.5, seconds / 10)


def run_untraced(workload: Workload, seconds: float, setup_reps: int = 2,
                 setup_window: float = SETUP_WINDOW_S) -> Result:
    """Every end-to-end metric of one workload."""
    buffers = workload.buffers()
    rss = Rss()
    outcome = measure(workload, seconds, warm_seconds(seconds), buffers, rss=rss,
                      setup_reps=setup_reps, setup_window=setup_window, raw_share=RAW_SHARE)
    phase: Phase = outcome["phase"]
    later, _none = time_opens(workload, setup_reps, setup_window, keep_last=False)
    setups = outcome["setups"] + later
    ops = f"{phase.timed_ops} ops in {phase.schedule.rounds} rounds"
    raw = f"{sum(phase.raw_ops)} raw ops"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"{len(setups)} opens"),
        "overhead_x": (phase.overhead_x(), "x", f"{ops}, {raw}"),
        "syncs_overhead_x": (phase.syncs_overhead_x(), "x", f"{ops}, {raw}"),
        "rss_mb": (rss.growth_mb, "MB", f"{rss.samples} samples"),
    }
    # Host-speed dependent, so not bounded metrics; printed and recorded.
    absolute = {
        "syncs_per_s": (phase.ops_per_s(), "1/s", ops),
        "op_p50_us": (phase.percentile_us(0.5), "us", ops),
        "op_p99_us": (phase.percentile_us(0.99), "us", ops),
    }
    checks = outcome["checks"]
    return Result(
        correct=all(ok for _name, ok, _detail in checks),
        attempted=max(phase.attempted, 1),
        failed=_failures(outcome),
        metrics=metrics,
        checks=checks,
        absolute=absolute,
    )


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def run_traced(workload: Workload, seconds: float) -> Result:
    """Every per-layer metric: an untraced then a traced session.

    The traced session runs at most ``TRACE_SECONDS``, which bounds the
    spans kept in memory (about 30 per op on ``threads-antibodies``).
    """
    buffers = workload.buffers()
    traced_s = min(seconds / 2, TRACE_SECONDS)
    warm = warm_seconds(seconds)
    plain = measure(workload, seconds - traced_s, warm, buffers)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, traced_s, warm, buffers, tracer=tracer)
    finally:
        tracer.uninstall()
    spans = tracer.take()
    phase: Phase = traced["phase"]
    calls, layer_ns, park_ns = summarize(spans, since=phase.schedule.warm_until)
    ops = phase.timed_ops
    timed = traced["timed"]
    load_ns = sum(
        end - start
        for _span, _parent, _op, name, start, end in traced["setup_spans"]
        if name.startswith("core.store:")
    )

    def us(ns: float) -> float:
        return _per(ns / 1e3, ops)

    lookups = calls["runtime.callsite:PositionCache.lookup_or_resolve"]
    misses = (
        calls["runtime.interception:RuntimeAdapter.resolve_position"]
        + calls["aio.adapter:AioRuntimeAdapter.resolve_position"]
    )
    checks_n = calls["core.avoidance:InstantiationChecker.would_instantiate"]
    values = {
        "runtime.locks.self_us_per_op": (us(layer_ns["runtime.locks"]), "us"),
        "aio.locks.self_us_per_op": (us(layer_ns["aio.locks"]), "us"),
        "runtime.callsite.self_us_per_op": (us(layer_ns["runtime.callsite"]), "us"),
        "runtime.callsite.miss_ratio": (_per(misses, lookups), "ratio"),
        "runtime.interception.self_us_per_op": (us(layer_ns["runtime.interception"]), "us"),
        "runtime.interception.glock_wait_us": (us(traced["glock_ns"]), "us"),
        "runtime.interception.park_us": (us(park_ns["runtime.interception"]), "us"),
        "core.engine.self_us_per_op": (us(layer_ns["core.engine"]), "us"),
        "core.engine.fastpath_share": (_per(timed["fastpath_acquires"], timed["acquisitions"]), "ratio"),
        "core.engine.fastpath_demotions": (timed["fastpath_demotions"], "count"),
        "core.engine.detections": (timed["deadlocks_detected"], "count"),
        "core.engine.starvations": (timed["starvations_detected"], "count"),
        "core.avoidance.checks_per_op": (_per(checks_n, ops), "count"),
        "core.avoidance.self_us_per_op": (us(layer_ns["core.avoidance"]), "us"),
        "core.avoidance.park_ratio": (_per(timed["yields"], checks_n), "ratio"),
        "core.cycle.self_us_per_op": (us(layer_ns["core.cycle"]), "us"),
        "core.history.lookups_per_op": (_per(calls["core.history:History.signatures_at"], ops), "count"),
        "core.history.self_us_per_op": (us(layer_ns["core.history"]), "us"),
        "core.events.published_per_op": (_per(calls["core.events:EventBus.publish"], ops), "count"),
        "core.events.self_us_per_op": (us(layer_ns["core.events"]), "us"),
        "core.store.load_s": (load_ns / 1e9, "s"),
        "core.store.signatures_loaded": (traced["loaded"], "count"),
        "aio.adapter.self_us_per_op": (us(layer_ns["aio.adapter"]), "us"),
        "aio.adapter.park_us": (us(park_ns["aio.adapter"]), "us"),
        "trace.overhead_x": (_per(plain["phase"].ops_per_s(), phase.ops_per_s()), "x"),
    }
    checks = [(f"untraced: {name}", ok, detail) for name, ok, detail in plain["checks"]]
    checks += [(f"traced: {name}", ok, detail) for name, ok, detail in traced["checks"]]
    return Result(
        correct=all(ok for _name, ok, _detail in checks),
        attempted=max(plain["phase"].attempted + phase.attempted, 1),
        failed=_failures(plain) + _failures(traced),
        metrics={name: (value, unit, f"{ops} traced ops") for name, (value, unit) in values.items()},
        checks=checks,
    )
