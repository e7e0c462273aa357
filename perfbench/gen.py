"""Seeded input generator for the benchmark workloads.

Runs in its own process (``python3 perfbench/gen.py --workload W --seed N
--dir D``) so nothing it allocates shows in the measured process's memory.
It writes, into ``D``:

* ``sites.py`` — the generated synchronization sites, one acquire per line;
* ``inputs.json`` — the per-worker lock picks and the facts the output
  checks compare against;
* ``pool.sqlite`` — the antibody pool (``threads-antibodies``,
  ``tasks-mixed``);
* ``seed.sqlite`` — the AB/BA seed history (``threads-avoidance``), earned
  by a real seed run that must detect the inversion exactly once.

The same seed always gives the same files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import use_checkout_src

THREAD_WORKERS = 2
TASK_WORKERS = 16
LOCKS = 64
SITES = 8
PICKS_PER_THREAD = 4096
PICKS_PER_TASK = 4096
# §5 of the paper: 64-256 synthetic signatures on the live sites. 128
# of them sit on the eight sites, sixteen per site.
LIVE_ANTIBODIES = 128
# The default ``max_signatures`` cap: the full pool a long-lived fleet
# history reaches.
POOL_SIZE = 4096
# Positions that never run, each carrying several hundred collapsed
# wrapper-line signatures (the A1/A8 shape).
DEAD_POSITIONS = 8
TASK_ANTIBODIES_PER_SITE = 16

WORKLOADS = ("threads-cold", "threads-antibodies", "threads-avoidance", "tasks-mixed")


class _Source:
    """Accumulates generated source and remembers the line of each mark."""

    def __init__(self, header: str) -> None:
        self.lines = [header, ""]
        self.marks: dict[str, int] = {}

    def add(self, text: str, mark: str | None = None) -> None:
        if mark is not None:
            self.marks[mark] = len(self.lines) + 1
        self.lines.append(text)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def thread_sites_source(header: str, dead: int = 0) -> _Source:
    source = _Source(header)
    for index in range(SITES):
        source.add(f"def site_{index}(lock):")
        source.add("    if not lock.acquire():", mark=f"site_{index}")
        source.add("        return False")
        source.add("    lock.release()")
        source.add("    return True")
        source.add("")
    for index in range(dead):
        # Never called: the positions the bulk of the pool sits on.
        source.add(f"def never_{index}(lock):")
        source.add("    lock.acquire()", mark=f"never_{index}")
        source.add("    lock.release()")
        source.add("")
    return source


def task_sites_source(header: str) -> _Source:
    source = _Source(header)
    source.add("import asyncio")
    source.add("")
    for index in range(SITES):
        source.add(f"async def site_{index}(lock, pause):")
        source.add("    if not await lock.acquire():", mark=f"site_{index}")
        source.add("        return False")
        source.add("    try:")
        source.add("        if pause:")
        source.add("            await asyncio.sleep(0)")
        source.add("    finally:")
        source.add("        lock.release()")
        source.add("    return True")
        source.add("")
    return source


def inversion_source(header: str) -> _Source:
    """``ab`` takes a then b; ``ba`` takes b then a. ``inside`` runs in the
    outer section: ``os.sched_yield`` in the timed phase, a barrier in the
    seed run."""
    source = _Source(header)
    for name, outer, inner in (("ab", "a", "b"), ("ba", "b", "a")):
        source.add(f"def {name}(a, b, inside):")
        source.add(f"    if not {outer}.acquire():", mark=f"{name}_outer")
        source.add("        return False")
        source.add("    try:")
        source.add("        inside()")
        source.add(f"        if not {inner}.acquire():", mark=f"{name}_inner")
        source.add("            return False")
        source.add(f"        {inner}.release()")
        source.add("    finally:")
        source.add(f"        {outer}.release()")
        source.add("    return True")
        source.add("")
    return source


def load_sites(path: Path) -> dict:
    """Compile a generated sites file under its own path and return its
    namespace, so positions name that file."""
    namespace: dict = {"__name__": "perfbench_sites"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _picks(rng: random.Random, workers: int, length: int) -> list:
    return [
        [[rng.randrange(SITES), rng.randrange(LOCKS)] for _ in range(length)]
        for _ in range(workers)
    ]


def _write_pool(path: Path, signatures) -> int:
    from repro.core.store import open_store

    store = open_store(f"sqlite://{path}", max_signatures=POOL_SIZE)
    try:
        for signature in signatures:
            store.add(signature)
        store.flush()
        return len(store)
    finally:
        store.close()


def _antibody_pool(rng: random.Random, sites_path: str, marks: dict) -> list:
    from repro.workloads.synthetic_sigs import (
        make_collapsed_signature,
        make_signature,
    )

    live = [(sites_path, marks[f"site_{index}"]) for index in range(SITES)]
    signatures = [
        make_signature(
            live[index % SITES], ("<never-executed>", index + 1), inner_tag=index
        )
        for index in range(LIVE_ANTIBODIES)
    ]
    dead = [(sites_path, marks[f"never_{index}"]) for index in range(DEAD_POSITIONS)]
    for tag in range(POOL_SIZE - LIVE_ANTIBODIES):
        signatures.append(
            make_collapsed_signature(dead[tag % DEAD_POSITIONS], 2, inner_tag=tag)
        )
    rng.shuffle(signatures)
    return signatures


def _seed_run(workdir: Path, sites_path: Path) -> dict:
    """Earn the AB/BA antibody: force the inversion with a barrier inside
    both outer sections, so exactly one of the two inner requests closes
    the cycle and is detected."""
    import repro
    from repro.core.store import open_store

    namespace = load_sites(sites_path)
    history_url = f"sqlite://{workdir / 'seed.sqlite'}"
    barrier = threading.Barrier(2, timeout=10.0)
    outcomes: list = []

    def side(fn, a, b) -> None:
        try:
            outcomes.append(fn(a, b, barrier.wait))
        except repro.DeadlockDetectedError:
            outcomes.append("detected")

    with repro.immunity(history_url=history_url, name="seed") as dx:
        a, b = dx.lock("A"), dx.lock("B")
        threads = [
            threading.Thread(target=side, args=(namespace["ab"], a, b)),
            threading.Thread(target=side, args=(namespace["ba"], a, b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        if any(thread.is_alive() for thread in threads):
            raise SystemExit("perfbench gen: the AB/BA seed run hung")
        detections = dx.stats.deadlocks_detected
    store = open_store(history_url)
    try:
        signatures = len(store)
    finally:
        store.close()
    return {
        "detections": detections,
        "signatures": signatures,
        "outcomes": sorted(map(str, outcomes)),
    }


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write every input of ``workload`` for ``seed`` into ``workdir``,
    which must not exist yet (a stale history there would change the
    inputs)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    use_checkout_src()
    workdir = workdir.resolve()
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}/{seed}")
    header = f'"""Generated by perfbench/gen.py: {workload}, seed {seed}."""'
    sites_path = workdir / "sites.py"
    inputs: dict = {"workload": workload, "seed": seed, "sites": str(sites_path)}
    if workload == "threads-avoidance":
        source = inversion_source(header)
        sites_path.write_text(source.text())
        inputs["seed_history"] = str(workdir / "seed.sqlite")
        inputs["seed_run"] = _seed_run(workdir, sites_path)
        # Which of the two threads runs ``ab`` first; the timed phase is
        # the same inversion either way.
        inputs["order"] = rng.sample(["ab", "ba"], 2)
    elif workload == "tasks-mixed":
        source = task_sites_source(header)
        sites_path.write_text(source.text())
        inputs["picks"] = _picks(rng, TASK_WORKERS, PICKS_PER_TASK)
        hot = sorted(rng.sample(range(SITES), SITES // 2))
        inputs["hot_sites"] = hot
        signatures = []
        from repro.workloads.synthetic_sigs import make_signature

        for slot, site in enumerate(hot):
            for k in range(TASK_ANTIBODIES_PER_SITE):
                tag = slot * TASK_ANTIBODIES_PER_SITE + k
                signatures.append(
                    make_signature(
                        (str(sites_path), source.marks[f"site_{site}"]),
                        ("<never-executed>", tag + 1),
                        inner_tag=tag,
                    )
                )
        inputs["pool"] = str(workdir / "pool.sqlite")
        inputs["pool_size"] = _write_pool(workdir / "pool.sqlite", signatures)
    else:
        dead = DEAD_POSITIONS if workload == "threads-antibodies" else 0
        source = thread_sites_source(header, dead=dead)
        sites_path.write_text(source.text())
        inputs["picks"] = _picks(rng, THREAD_WORKERS, PICKS_PER_THREAD)
        if workload == "threads-antibodies":
            inputs["pool"] = str(workdir / "pool.sqlite")
            inputs["pool_size"] = _write_pool(
                workdir / "pool.sqlite",
                _antibody_pool(rng, str(sites_path), source.marks),
            )
    inputs["marks"] = source.marks
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    return inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
