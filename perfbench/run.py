"""Run the repository benchmark for one seed.

    python3 perfbench/run.py --workload threads-cold --seed 1 --seconds 10 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process. The first line of standard output is the run header (git
commit, interpreter, ``nproc`` and the raw lock pair costs measured in
this run); then every metric by name, with its unit and sample count, and
the output checks; the last line is the result as one JSON object. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. ``--out DIR`` also writes the header and the full record
of each run to a file in ``DIR``, the input of ``perfbench/compare.py``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SRC, use_checkout_src
from perfbench.gen import WORKLOADS

HERE = Path(__file__).resolve().parent
RAW_PAIRS = 200_000
SWITCH_INTERVAL_S = 0.02


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def raw_thread_pair_ns() -> float:
    """Best-of-3 mean cost of one raw ``threading.Lock`` acquire/release."""
    lock = threading.Lock()
    acquire, release = lock.acquire, lock.release
    best = math.inf
    for _ in range(3):
        start = time.perf_counter_ns()
        for _ in range(RAW_PAIRS):
            acquire()
            release()
        best = min(best, (time.perf_counter_ns() - start) / RAW_PAIRS)
    return best


def raw_asyncio_pair_ns() -> float:
    """Best-of-3 mean cost of one raw ``asyncio.Lock`` acquire/release."""

    async def pairs() -> float:
        lock = asyncio.Lock()
        best = math.inf
        for _ in range(3):
            start = time.perf_counter_ns()
            for _ in range(RAW_PAIRS // 4):
                await lock.acquire()
                lock.release()
            best = min(best, (time.perf_counter_ns() - start) / (RAW_PAIRS // 4))
        return best

    return asyncio.run(pairs())


def header(nproc: int) -> dict:
    """The ledger header every result opens with."""
    top = _git("rev-parse", "--show-toplevel")
    # Only this checkout's own repository counts, not an enclosing one.
    sha = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if sha else None,
        "interpreter": {
            "implementation": platform.python_implementation(),
            "version": platform.python_version(),
            "build": " ".join(platform.python_build()),
            "compiler": platform.python_compiler(),
            "executable": sys.executable,
        },
        "nproc": nproc,
        "raw_threading_lock_pair_ns": round(raw_thread_pair_ns(), 2),
        "raw_asyncio_lock_pair_ns": round(raw_asyncio_pair_ns(), 2),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _generate(name: str, seed: int, workdir: Path) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", name, "--seed", str(seed), "--dir", str(workdir)],
        check=True,
        timeout=600,
    )


def settle() -> int:
    """Pin this process to one CPU and lengthen the GIL switch interval.

    On two free cores the two worker threads race for the GIL across
    cores and settle into run-long regimes: five 10 s runs of
    ``threads-cold`` gave a p50 of 43-163 us. On one CPU with a 20 ms
    switch interval a forced switch almost never cuts an op short, so
    the threads take turns in slices and runs agree apart from the
    host's own drift. Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    return cpu


def run_one(args) -> int:
    from perfbench.workloads import Workload, run_traced, run_untraced

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        _generate(args.workload, args.seed, workdir)
        nproc = len(os.sched_getaffinity(0))
        cpu = settle()
        head = header(nproc)
        head["cpu"] = cpu
        head["switch_interval_s"] = SWITCH_INTERVAL_S
        print(json.dumps({"header": head}), flush=True)
        workload = Workload.load(workdir)
        if args.trace:
            result = run_traced(workload, args.seconds)
        else:
            result = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    correct = result.correct and all(
        isinstance(value, int) or math.isfinite(value) for value, _unit, _n in result.metrics.values()
    )
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    width = max(len(name) for name in [*result.metrics, *result.absolute])
    for name, (value, unit, count) in result.metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} n={count}")
    if result.absolute:
        print("  host-speed dependent, not bounded:")
    for name, (value, unit, count) in result.absolute.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} n={count}")
    print(f"  {'fail_rate':<{width}}  {result.failed / result.attempted:>14.6g} ratio  "
          f"n={result.attempted} ops ({result.failed} failed)")
    print("checks:")
    for name, ok, detail in result.checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
    record = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit, _count) in result.metrics.items()
        },
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "samples": {name: count for name, (_v, _u, count) in result.metrics.items()},
            "absolute": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in result.absolute.items()},
            "checks": [[name, ok, detail] for name, ok, detail in result.checks],
        }
        path.write_text("\n".join(json.dumps(line) for line in ({"header": head}, details, record)) + "\n")
    print(json.dumps(record), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            command += ["--out", str(args.out)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=1800)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        try:
            record = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or done.returncode or (0 if record["correct"] else 1)
        summary["correct"] = summary["correct"] and record["correct"] and done.returncode == 0
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        for metric, entry in record["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="also write result files here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_checkout_src()
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
