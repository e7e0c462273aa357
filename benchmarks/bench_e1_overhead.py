"""E1 — the §5 microbenchmark: 4–5 % synchronization-throughput overhead.

The paper's numbers (Nexus One, 1 GHz single core):

* vanilla Android 2.2:   1738–1756 syncs/sec
* Android Dimmunix:      1657–1681 syncs/sec  →  4–5 % overhead

across 2–512 threads executing synchronized blocks on random lock
objects (no contention), busy-waiting in and out of the critical
sections, against a history of 64–256 synthetic signatures.

Reproduced twice:

* on the virtual-time VM, calibrated to the paper's operating point
  (~114 ticks ≈ 570 µs of compute per synchronization), sweeping the
  paper's full thread and history ranges deterministically;
* on real ``threading`` threads through the interception runtime, with
  busy-waits calibrated so the vanilla run hits ~1750 syncs/sec on this
  host (the honest analog of "the same workload on the same phone").
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.report import ExperimentRecord
from repro.analysis.tables import render_table
from repro.dalvik.vm import VMConfig
from repro.workloads.microbench import (
    MicrobenchConfig,
    calibrate_for_rate,
    run_real_pair,
    run_vm_pair,
)

SMOKE = os.environ.get("DIMMUNIX_BENCH_SMOKE") == "1"

# ~114 ticks per synchronization -> vanilla ~1750 syncs/sec at 200k
# ticks/sec, the paper's measured operating point.
E1_VM_CONFIG = VMConfig(ticks_per_second=200_000, stack_retrieval_cost=3)
PAPER_BAND = (0.02, 0.08)  # accept 2-8%; the paper reports 4-5%

THREAD_SWEEP = (2, 8, 32, 128, 512)
HISTORY_SWEEP = (64, 128, 256)
TOTAL_SYNCS_TARGET = 8_192


def _vm_config_for(threads: int, history: int) -> MicrobenchConfig:
    sites = 8
    iterations = max(TOTAL_SYNCS_TARGET // (threads * sites), 2)
    return MicrobenchConfig(
        threads=threads,
        locks=64,
        sites=sites,
        iterations_per_thread=iterations,
        inside_spin=20,
        outside_spin=85,
        history_size=history,
        seed=7,
    )


@pytest.mark.parametrize("threads", THREAD_SWEEP)
def bench_vm_thread_sweep(benchmark, record, threads):
    """Overhead at each paper thread count (history fixed at 128)."""
    config = _vm_config_for(threads, history=128)

    def measure():
        return run_vm_pair(config, vm_config=E1_VM_CONFIG)

    vanilla, immunized = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = immunized.overhead_vs(vanilla)
    benchmark.extra_info.update(
        vanilla_rate=round(vanilla.syncs_per_sec, 1),
        dimmunix_rate=round(immunized.syncs_per_sec, 1),
        overhead_pct=round(overhead * 100, 2),
    )
    record(
        ExperimentRecord(
            experiment_id=f"E1.vm.threads={threads}",
            description="microbenchmark overhead (virtual time)",
            paper_value="vanilla 1738-1756 s/s, Dimmunix 1657-1681 s/s (4-5%)",
            measured_value=(
                f"vanilla {vanilla.syncs_per_sec:.0f} s/s, "
                f"Dimmunix {immunized.syncs_per_sec:.0f} s/s "
                f"({overhead * 100:.1f}%)"
            ),
            holds=PAPER_BAND[0] <= overhead <= PAPER_BAND[1],
        )
    )
    assert PAPER_BAND[0] <= overhead <= PAPER_BAND[1]


@pytest.mark.parametrize("history", HISTORY_SWEEP)
def bench_vm_history_sweep(benchmark, record, history):
    """Overhead at each paper history size (threads fixed at 32)."""
    config = _vm_config_for(32, history=history)

    def measure():
        return run_vm_pair(config, vm_config=E1_VM_CONFIG)

    vanilla, immunized = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = immunized.overhead_vs(vanilla)
    benchmark.extra_info.update(
        vanilla_rate=round(vanilla.syncs_per_sec, 1),
        dimmunix_rate=round(immunized.syncs_per_sec, 1),
        overhead_pct=round(overhead * 100, 2),
    )
    record(
        ExperimentRecord(
            experiment_id=f"E1.vm.history={history}",
            description="microbenchmark overhead vs history size",
            paper_value="4-5% overhead across 64-256 signatures",
            measured_value=f"{overhead * 100:.1f}% overhead",
            holds=PAPER_BAND[0] <= overhead <= PAPER_BAND[1],
        )
    )
    assert PAPER_BAND[0] <= overhead <= PAPER_BAND[1]


def bench_vm_summary_table(benchmark, record):
    """The full sweep in one run, printed as the §5 series."""

    def measure():
        rows = []
        for threads in THREAD_SWEEP:
            config = _vm_config_for(threads, history=256)
            vanilla, immunized = run_vm_pair(config, vm_config=E1_VM_CONFIG)
            rows.append(
                (
                    threads,
                    vanilla.syncs_per_sec,
                    immunized.syncs_per_sec,
                    immunized.overhead_vs(vanilla),
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["Threads", "Vanilla s/s", "Dimmunix s/s", "Overhead"],
            [
                [t, f"{v:.0f}", f"{d:.0f}", f"{o * 100:.1f}%"]
                for t, v, d, o in rows
            ],
            title="E1 - microbenchmark, history=256 (virtual time)",
        )
    )
    from repro.analysis.figures import Series, render_figure

    print()
    print(
        render_figure(
            [
                Series.of(
                    "overhead %",
                    [t for t, _v, _d, _o in rows],
                    [o * 100 for _t, _v, _d, o in rows],
                )
            ],
            title="E1 - overhead vs threads (paper: flat 4-5%)",
            y_min=0.0,
            y_max=10.0,
            height=8,
            x_label="threads",
        )
    )
    overheads = [o for _t, _v, _d, o in rows]
    vanilla_rates = [v for _t, v, _d, _o in rows]
    record(
        ExperimentRecord(
            experiment_id="E1.vm",
            description="microbenchmark 2-512 threads, 256 signatures",
            paper_value="1738-1756 -> 1657-1681 s/s, 4-5% overhead, flat in threads",
            measured_value=(
                f"{min(vanilla_rates):.0f}-{max(vanilla_rates):.0f} s/s vanilla, "
                f"{min(overheads) * 100:.1f}-{max(overheads) * 100:.1f}% overhead"
            ),
            holds=all(PAPER_BAND[0] <= o <= PAPER_BAND[1] for o in overheads),
        )
    )
    assert max(overheads) <= PAPER_BAND[1]


def bench_real_threads(benchmark, record):
    """Real ``threading`` confirmation at the paper's operating point.

    Wall-clock timing on a shared host is noisy, so the assertion is a
    loose sanity band; the virtual-time sweep above is the precise one.
    """
    base = MicrobenchConfig(
        threads=8,
        locks=64,
        sites=8,
        iterations_per_thread=250,
        history_size=128,
        seed=3,
    )
    config = calibrate_for_rate(base, target_syncs_per_sec=1750)

    def measure():
        return run_real_pair(config)

    vanilla, immunized = benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead = immunized.overhead_vs(vanilla)
    benchmark.extra_info.update(
        vanilla_rate=round(vanilla.syncs_per_sec, 1),
        dimmunix_rate=round(immunized.syncs_per_sec, 1),
        overhead_pct=round(overhead * 100, 2),
    )
    from repro.analysis.report import within_factor

    record(
        ExperimentRecord(
            experiment_id="E1.real",
            description="microbenchmark on real threads (wall clock)",
            paper_value=(
                "~1750 s/s vanilla; bounded overhead (the 4-5% figure is "
                "Dalvik's, reproduced on the VM cost model above)"
            ),
            measured_value=(
                f"vanilla {vanilla.syncs_per_sec:.0f} s/s, "
                f"Dimmunix {immunized.syncs_per_sec:.0f} s/s "
                f"({overhead * 100:.1f}%)"
            ),
            holds=within_factor(vanilla.syncs_per_sec, 1750, 1.3)
            and overhead < 0.35,
            notes=(
                "documented deviation: a CPython frame walk costs more of "
                "the 570 us/sync budget than dvmGetCallStack did "
                "(EXPERIMENTS.md, E1)"
            ),
        )
    )
    assert vanilla.syncs_per_sec > 0 and immunized.syncs_per_sec > 0
    assert overhead < 0.5


# ----------------------------------------------------------------------
# telemetry overhead gate
# ----------------------------------------------------------------------

TELEMETRY_PAIRS = 2_000 if SMOKE else 20_000
#: guard checks on the uncontended immunized path: capture + glock_wait
#: (lock class + interception) plus the engine's acquired/emit guards.
GUARD_CHECKS_PER_PAIR = 8


def _time_immunized_thread_pairs(telemetry: bool, pairs: int):
    """(ns per uncontended acquire/release pair, the runtime used)."""
    from repro.config import DimmunixConfig
    from repro.runtime.runtime import DimmunixRuntime

    runtime = DimmunixRuntime(
        DimmunixConfig(telemetry=telemetry, auto_save=False),
        name=f"e1-telemetry-{'on' if telemetry else 'off'}",
    )
    lock = runtime.lock("hot")
    start = time.perf_counter_ns()
    for _ in range(pairs):
        with lock:
            pass
    elapsed = (time.perf_counter_ns() - start) / pairs
    return elapsed, runtime


def _attribute_check_ns(iterations: int = 200_000) -> float:
    """Cost of one ``x is not None`` guard — the disabled-telemetry tax."""
    sentinel = None
    start = time.perf_counter_ns()
    for _ in range(iterations):
        pass
    empty = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(iterations):
        if sentinel is not None:
            raise AssertionError
    checked = time.perf_counter_ns() - start
    return max(0.0, checked - empty) / iterations


def bench_telemetry_overhead_gate(benchmark, record):
    """Telemetry must be near-free when off and cheap when on.

    Off, the instrumentation is one ``is not None`` attribute check per
    site — measured directly and asserted to cost < 3 % of an immunized
    pair. On, the monotonic-clock reads must stay under 2x the
    disabled-path pair cost. The on-run's per-phase breakdown lands in
    the record's details, so ``records.jsonl`` carries real
    nanosecond-level phase latencies for every CI run.
    """
    off_ns, _ = _time_immunized_thread_pairs(False, TELEMETRY_PAIRS)

    def measure():
        return _time_immunized_thread_pairs(True, TELEMETRY_PAIRS)

    on_ns, runtime = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = on_ns / off_ns if off_ns else float("inf")
    guard_ns = _attribute_check_ns()
    guard_share = (guard_ns * GUARD_CHECKS_PER_PAIR) / off_ns if off_ns else 0.0

    snapshot = runtime.core.telemetry.snapshot()
    phases = {
        phase: {
            "count": histogram.count,
            "mean_ns": round(histogram.mean_ns, 1),
            "p99_ns": histogram.percentile(0.99),
        }
        for phase, histogram in sorted(snapshot.items())
        if histogram.count
    }

    print()
    print(
        render_table(
            ["Variant", "ns / pair", "Relative"],
            [
                ["telemetry off", f"{off_ns:,.0f}", "1.00x"],
                ["telemetry on", f"{on_ns:,.0f}", f"{ratio:.2f}x"],
                [
                    "disabled guard tax",
                    f"{guard_ns * GUARD_CHECKS_PER_PAIR:,.1f}",
                    f"{guard_share * 100:.2f}%",
                ],
            ],
            title=(
                f"E1 - telemetry overhead gate ({TELEMETRY_PAIRS:,} "
                "uncontended immunized pairs)"
            ),
        )
    )
    benchmark.extra_info.update(
        off_ns=round(off_ns, 1),
        on_ns=round(on_ns, 1),
        ratio=round(ratio, 3),
        guard_share_pct=round(guard_share * 100, 3),
    )
    record(
        ExperimentRecord(
            experiment_id="E1.telemetry",
            description="per-phase telemetry overhead gate",
            paper_value=(
                "observability must not change the 4-5% overhead story: "
                "off ~free, on bounded"
            ),
            measured_value=(
                f"off {off_ns:,.0f} ns/pair, on {on_ns:,.0f} ns/pair "
                f"({ratio:.2f}x); disabled guard "
                f"{guard_share * 100:.2f}% of a pair"
            ),
            holds=ratio < 2.0 and guard_share < 0.03,
            details={"phases": phases},
        )
    )
    assert phases, "telemetry-on run recorded no phases"
    assert ratio < 2.0, f"telemetry-on pair cost {ratio:.2f}x disabled path"
    if SMOKE:
        return
    assert guard_share < 0.03, (
        f"disabled-telemetry guards cost {guard_share * 100:.2f}% of a pair"
    )


# ----------------------------------------------------------------------
# the sub-2µs fast-path gate (threaded)
# ----------------------------------------------------------------------

FASTPATH_ACQUIRES = 2_000 if SMOKE else 30_000
FASTPATH_ROUNDS = 2 if SMOKE else 5
FASTPATH_GATE_NS = 2_000


def _time_immunized_acquires(pairs: int, fast: bool) -> float:
    """ns per uncontended immunized *acquire* (release untimed)."""
    from repro.config import DimmunixConfig
    from repro.runtime.runtime import DimmunixRuntime

    runtime = DimmunixRuntime(
        DimmunixConfig(
            auto_save=False, position_cache=fast, fast_path=fast
        ),
        name=f"e1-fastpath-{'on' if fast else 'off'}",
    )
    lock = runtime.lock("hot")
    clock = time.perf_counter_ns
    total = 0
    for _ in range(pairs):
        start = clock()
        lock.acquire()
        total += clock() - start
        lock.release()
    return total / pairs


def bench_fastpath_overhead_gate(benchmark, record):
    """Uncontended immunized ``lock.acquire()`` must stay under 2µs
    through the (code, lasti) position cache and the no-history fast
    path — and the fast-path-off run must still satisfy the original
    loose bound, proving the exact path is merely bypassed, not changed.
    """

    def measure():
        best = {True: float("inf"), False: float("inf")}
        for _ in range(FASTPATH_ROUNDS):
            for fast in (True, False):
                best[fast] = min(
                    best[fast],
                    _time_immunized_acquires(FASTPATH_ACQUIRES, fast),
                )
        return best

    best = benchmark.pedantic(measure, rounds=1, iterations=1)
    fast_ns, slow_ns = best[True], best[False]

    print()
    print(
        render_table(
            ["Variant", "ns / acquire", "Relative"],
            [
                ["fast path on", f"{fast_ns:,.0f}", "1.00x"],
                [
                    "fast path off",
                    f"{slow_ns:,.0f}",
                    f"{slow_ns / fast_ns:.2f}x" if fast_ns else "n/a",
                ],
            ],
            title=(
                f"E1 - fast-path acquire gate (min of {FASTPATH_ROUNDS} "
                f"rounds x {FASTPATH_ACQUIRES:,} acquires)"
            ),
        )
    )
    benchmark.extra_info.update(
        fast_ns=round(fast_ns, 1), slow_ns=round(slow_ns, 1)
    )
    record(
        ExperimentRecord(
            experiment_id="E1.fastpath",
            description="uncontended immunized thread acquire, fast path",
            paper_value=(
                "the common case must stay cheap enough to immunize "
                "every lock on the platform (sub-2µs gate)"
            ),
            measured_value=(
                f"fast path {fast_ns:,.0f} ns, exact path "
                f"{slow_ns:,.0f} ns per uncontended acquire"
            ),
            holds=fast_ns < FASTPATH_GATE_NS and slow_ns < 100_000,
        )
    )
    assert slow_ns < 100_000, "fast-path-off acquire above the loose bound"
    if SMOKE:
        return
    assert fast_ns < FASTPATH_GATE_NS, (
        f"fast-path acquire {fast_ns:,.0f} ns breaches the 2µs gate"
    )


# ----------------------------------------------------------------------
# watchdog overhead gate
# ----------------------------------------------------------------------

WATCHDOG_PAIRS = 2_000 if SMOKE else 20_000
WATCHDOG_ROUNDS = 3


def _time_watchdog_thread_pairs(variant: str, pairs: int) -> float:
    """ns per uncontended acquire/release pair under one config."""
    from repro.config import DimmunixConfig
    from repro.runtime.runtime import DimmunixRuntime

    # All variants pin the exact capture path, where earlier rows of
    # this ratio were measured: the watchdog's subscription adds its
    # window kinds to ``EventBus.wanted``, so only the "on" variant
    # builds and dispatches request/acquired events, and over the much
    # cheaper fast-path pair that cost would swamp the ratio. The fast
    # path has its own gate (bench_fastpath_overhead_gate); this one
    # isolates the subscription tax.
    exact = dict(auto_save=False, position_cache=False, fast_path=False)
    config = {
        "baseline": DimmunixConfig(**exact),
        "off": DimmunixConfig(watchdog=False, **exact),
        # Long scan interval: charge the event-spine subscription, not
        # a mid-measurement scan.
        "on": DimmunixConfig(
            watchdog=True, watchdog_scan_interval=60.0, **exact
        ),
    }[variant]
    runtime = DimmunixRuntime(config, name=f"e1-watchdog-{variant}")
    lock = runtime.lock("hot")
    start = time.perf_counter_ns()
    for _ in range(pairs):
        with lock:
            pass
    elapsed = (time.perf_counter_ns() - start) / pairs
    runtime.core.detach_events()
    return elapsed


def bench_watchdog_overhead_gate(benchmark, record):
    """The watchdog must be absent — not just cheap — when disabled.

    Unlike telemetry (whose off-path is one guard per site), the
    watchdog's off-path is *no code at all*: the engine consults
    ``config.watchdog`` once at construction, so a disabled run must be
    indistinguishable from the default config (≈ 1.00x). Enabled, the
    watchdog rides the event spine as a bus subscriber (one deque
    append per lifecycle event) and must stay under the same 2x bound
    the telemetry gate uses. Interleaved min-of-rounds keeps the ratio
    stable on a noisy shared host.
    """
    variants = ("baseline", "off", "on")

    def measure():
        best = {variant: float("inf") for variant in variants}
        for _ in range(WATCHDOG_ROUNDS):
            for variant in variants:
                best[variant] = min(
                    best[variant],
                    _time_watchdog_thread_pairs(variant, WATCHDOG_PAIRS),
                )
        return best

    best = benchmark.pedantic(measure, rounds=1, iterations=1)
    base_ns = best["baseline"]
    off_ratio = best["off"] / base_ns if base_ns else float("inf")
    on_ratio = best["on"] / base_ns if base_ns else float("inf")

    print()
    print(
        render_table(
            ["Variant", "ns / pair", "Relative"],
            [
                ["baseline (default)", f"{base_ns:,.0f}", "1.00x"],
                ["watchdog off", f"{best['off']:,.0f}", f"{off_ratio:.2f}x"],
                ["watchdog on", f"{best['on']:,.0f}", f"{on_ratio:.2f}x"],
            ],
            title=(
                f"E1 - watchdog overhead gate (min of {WATCHDOG_ROUNDS} "
                f"interleaved rounds x {WATCHDOG_PAIRS:,} pairs)"
            ),
        )
    )
    benchmark.extra_info.update(
        base_ns=round(base_ns, 1),
        off_ratio=round(off_ratio, 3),
        on_ratio=round(on_ratio, 3),
    )
    record(
        ExperimentRecord(
            experiment_id="E1.watchdog",
            description="watchdog on/off overhead gate",
            paper_value=(
                "liveness monitoring must not change the 4-5% overhead "
                "story: off = no code on the lock path, on bounded"
            ),
            measured_value=(
                f"off {off_ratio:.2f}x, on {on_ratio:.2f}x "
                f"(baseline {base_ns:,.0f} ns/pair)"
            ),
            holds=off_ratio < 1.15 and on_ratio < 2.0,
        )
    )
    assert on_ratio < 2.0, f"watchdog-on pair cost {on_ratio:.2f}x baseline"
    if SMOKE:
        return
    assert off_ratio < 1.15, (
        f"watchdog-off pair cost {off_ratio:.2f}x the default config"
    )
