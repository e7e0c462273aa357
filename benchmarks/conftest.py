"""Shared harness for the benchmark suite.

Every bench regenerates one artifact of the paper's evaluation (a table
row, a figure, or an inline §5 number) and registers the paper-vs-measured
comparison as an :class:`~repro.analysis.report.ExperimentRecord`. The
records are printed in a summary block at the end of the run — so the
``pytest benchmarks/ --benchmark-only`` transcript contains the same rows
the paper reports — and appended to ``benchmarks/results/records.jsonl``,
from which EXPERIMENTS.md is refreshed. Each run's records are preceded
by one header row (``"run_header": true``) naming the git commit and
dirty flag, the interpreter and its build, and the core count, so rows
from different runs stay comparable.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

from repro.analysis.report import ExperimentRecord

RESULTS_DIR = Path(__file__).parent / "results"
RECORDS_KEY = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[RECORDS_KEY] = []


@pytest.fixture
def record(request):
    """Register one paper-vs-measured record with the session summary."""

    def _record(experiment_record: ExperimentRecord) -> ExperimentRecord:
        request.config.stash[RECORDS_KEY].append(experiment_record)
        return experiment_record

    return _record


@pytest.fixture
def once(benchmark):
    """Run a scenario exactly once under pytest-benchmark timing.

    Most of our experiments are *scenarios* (boot a phone, run a workload
    pair): repeating them inside the default calibration loop would
    multiply minutes of work for no statistical gain, so they are measured
    with one round. Throughput numbers come from the scenario's own
    clock (virtual or wall), not from the benchmark timer.
    """

    def _once(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _once


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    records = config.stash.get(RECORDS_KEY, [])
    if not records:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("paper-vs-measured", sep="=")
    ok = sum(1 for record in records if record.holds)
    for experiment_record in records:
        terminalreporter.write_line(experiment_record.render())
    terminalreporter.write_line(
        f"\n{ok}/{len(records)} comparisons hold the paper's claim"
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    out = RESULTS_DIR / "records.jsonl"
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(_run_header(stamp)) + "\n")
        for experiment_record in records:
            data = experiment_record.to_json()
            data["run_at"] = stamp
            handle.write(json.dumps(data) + "\n")
    terminalreporter.write_line(f"records appended to {out}")


def _run_header(stamp: str) -> dict:
    """The row that opens each run's records: commit, interpreter, host."""
    root = Path(__file__).parent.parent

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    return {
        "run_header": True,
        "run_at": stamp,
        "git_sha": git("rev-parse", "HEAD") or None,
        "git_dirty": bool(git("status", "--porcelain")),
        "interpreter": f"{platform.python_implementation()} "
        f"{platform.python_version()}",
        "build": " ".join(platform.python_build()),
        "nproc": os.cpu_count(),
    }
