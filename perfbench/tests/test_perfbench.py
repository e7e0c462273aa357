"""The benchmark's own tests: toy-scale workloads, span arithmetic, and a
broken input that must show up as failed ops."""

from __future__ import annotations

import json
import os
import sys

import pytest

from perfbench import ROOT, use_checkout_src

use_checkout_src()

from perfbench.gen import generate  # noqa: E402
from perfbench.run import settle  # noqa: E402
from perfbench.spans import NO_SPAN, covered, self_times, summarize  # noqa: E402
from perfbench.workloads import Workload, run_traced, run_untraced  # noqa: E402

TOY_SECONDS = 0.4
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {entry["name"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"] for entry in SPEC["per_layer"]}


def _workload(name: str, tmp_path, seed: int = 3) -> Workload:
    return Workload(generate(name, seed, tmp_path / name))


def _failed_checks(result) -> list:
    return [(name, detail) for name, ok, detail in result.checks if not ok]


@pytest.fixture
def settled():
    """Measure as ``run.py`` does: on one CPU with its GIL switch interval.

    ``threads-avoidance`` hands the CPU over with ``os.sched_yield``,
    which interleaves the inversion only when both threads share a CPU.
    """
    affinity, interval = os.sched_getaffinity(0), sys.getswitchinterval()
    settle()
    yield
    os.sched_setaffinity(0, affinity)
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_passes_its_checks_at_toy_scale(name, tmp_path, settled):
    result = run_untraced(_workload(name, tmp_path), TOY_SECONDS, setup_reps=1, setup_window=0)
    assert _failed_checks(result) == []
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == END_TO_END
    assert all(value > 0 for value, _unit, _n in result.metrics.values() if _unit != "MB")


@pytest.mark.parametrize("name", ["threads-avoidance", "tasks-mixed"])
def test_traced_run_reports_every_layer_and_keeps_positions(name, tmp_path, settled):
    # Avoidance still parking under tracing shows the wrapper frames did
    # not displace the captured positions off the generated sites.
    result = run_traced(_workload(name, tmp_path), 2 * TOY_SECONDS)
    assert _failed_checks(result) == []
    assert set(result.metrics) == PER_LAYER
    metrics = {name: value for name, (value, _unit, _n) in result.metrics.items()}
    assert metrics["trace.overhead_x"] > 1.0
    assert metrics["core.events.published_per_op"] > 0
    if name == "threads-avoidance":
        assert metrics["core.avoidance.checks_per_op"] > 0
        assert metrics["runtime.interception.park_us"] > 0
        assert metrics["aio.locks.self_us_per_op"] == 0
    else:
        assert metrics["aio.locks.self_us_per_op"] > 0
        assert metrics["runtime.locks.self_us_per_op"] == 0


def test_same_seed_gives_same_inputs(tmp_path):
    first = generate("threads-cold", 11, tmp_path / "a")
    second = generate("threads-cold", 11, tmp_path / "b")
    other = generate("threads-cold", 12, tmp_path / "c")
    assert first["picks"] == second["picks"] != other["picks"]


def test_covered_merges_overlapping_children():
    assert covered(0, 100, [(10, 30), (20, 40), (90, 120)]) == 40
    assert covered(0, 100, []) == 0


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 100) has children a [10, 40) and b [30, 60) (overlapping)
    # and an unrelated span; a has a child [15, 25).
    spans = [
        (1, NO_SPAN, 0, "runtime.locks:DimmunixLock.acquire", 0, 100),
        (2, 1, 0, "runtime.interception:RuntimeAdapter.before_acquire", 10, 40),
        (3, 1, 0, "core.engine:DimmunixCore.request", 30, 60),
        (4, 2, 0, "core.events:EventBus.publish", 15, 25),
        (5, NO_SPAN, 1, "runtime.locks:DimmunixLock.release", 200, 210),
    ]
    assert self_times(spans) == {1: 50, 2: 20, 3: 30, 4: 10, 5: 10}
    calls, layer_ns, park_ns = summarize(spans)
    assert layer_ns["runtime.locks"] == 60
    assert layer_ns["core.events"] == 10
    assert calls["core.engine:DimmunixCore.request"] == 1
    assert park_ns == {}


def test_park_time_is_self_time_of_a_before_acquire_that_requested_twice():
    spans = [
        (1, NO_SPAN, 0, "runtime.interception:RuntimeAdapter.before_acquire", 0, 1000),
        (2, 1, 0, "core.engine:DimmunixCore.request", 0, 10),
        (3, 1, 0, "core.engine:DimmunixCore.request", 990, 1000),
    ]
    _calls, _layer_ns, park_ns = summarize(spans)
    assert park_ns == {"runtime.interception": 980}


def test_summary_clips_spans_to_the_timed_phase():
    # A before_acquire that began in the warm-up and parked into the
    # timed phase (from 60 on) keeps its park time from 60 on; calls are
    # counted only for spans that started inside the timed phase.
    spans = [
        (1, NO_SPAN, 0, "runtime.interception:RuntimeAdapter.before_acquire", 0, 100),
        (2, 1, 0, "core.engine:DimmunixCore.request", 10, 20),
        (3, 1, 0, "core.engine:DimmunixCore.request", 80, 90),
        (4, NO_SPAN, 1, "runtime.locks:DimmunixLock.release", 30, 40),
    ]
    calls, layer_ns, park_ns = summarize(spans, since=60)
    assert dict(calls) == {"core.engine:DimmunixCore.request": 1}
    assert layer_ns == {"runtime.interception": 30, "core.engine": 10}
    assert park_ns == {"runtime.interception": 30}


def test_seed_history_without_its_antibody_is_reported_as_failed_ops(tmp_path, settled):
    from repro.core.store import open_store

    workload = _workload("threads-avoidance", tmp_path)
    store = open_store(f"sqlite://{workload.inputs['seed_history']}")
    try:
        assert store.discard(list(store)) == 1
        store.flush()
    finally:
        store.close()
    result = run_untraced(workload, TOY_SECONDS, setup_reps=1, setup_window=0)
    assert result.failed > 0
    assert not result.correct
    assert "no op failed" in [name for name, _detail in _failed_checks(result)]
