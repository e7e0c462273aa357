"""Compare two sets of benchmark runs against the benchmark's bounds.

    python3 perfbench/compare.py RUNS_A RUNS_B

Each set is a directory of result files written by ``run.py --out``
(or a single such file). For each workload and end-to-end metric it
prints both sets' medians and quartiles, the spread (quartile distance
over the median) of each, and whether the sets agree: set B's median is
not worse than set A's by more than the metric's bound, and each spread
but ``setup_s``'s is within the bound. Quartiles are
``statistics.quantiles(values, n=4)``. Traced runs are compared on their
per-layer metrics, which have no bound, for information only. Exit code 0
when every bounded pair agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict:
    """(workload, trace) -> metric -> list of values, from result files."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs: dict = defaultdict(lambda: defaultdict(list))
    for file in files:
        lines = [json.loads(line) for line in file.read_text().splitlines() if line.strip()]
        if len(lines) < 3 or "header" not in lines[0]:
            raise SystemExit(f"{file}: not a perfbench result file")
        details, record = lines[1], lines[-1]
        if not record["correct"]:
            print(f"warning: {file.name} is an incorrect run", file=sys.stderr)
        for name, entry in record["metrics"].items():
            runs[(details["workload"], details["trace"])][name].append(entry["value"])
    return runs


def summary(values: list) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR / median)."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / a
    return change if better == "lower" else -change


def compare(runs_a: dict, runs_b: dict, spec: dict) -> bool:
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    layers = {entry["name"]: entry for entry in spec["per_layer"]}
    agree_all = True
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for trace, catalog in ((0, metrics), (1, layers)):
            a, b = runs_a.get((workload, trace)), runs_b.get((workload, trace))
            if not a or not b:
                if a or b:
                    print(f"{workload}: {'traced' if trace else 'untraced'} runs in one set only")
                    agree_all = agree_all and trace == 1
                continue
            print(f"{workload} ({'traced' if trace else 'untraced'}; runs {len(next(iter(a.values())))}"
                  f" vs {len(next(iter(b.values())))})")
            print(f"  {'metric':<40} {'median A':>12} {'[q1, q3] A':>25} {'median B':>12} "
                  f"{'[q1, q3] B':>25} {'spread A':>8} {'spread B':>8} {'worse':>7}  verdict")
            for name, entry in catalog.items():
                if name not in a or name not in b:
                    continue
                med_a, q1_a, q3_a, spread_a = summary(a[name])
                med_b, q1_b, q3_b, spread_b = summary(b[name])
                worse = worsening(med_a, med_b, entry["better"])
                bound = entry.get("bound")
                if bound is None:
                    verdict = "-"
                else:
                    ok = worse <= bound
                    if name != "setup_s":
                        ok = ok and spread_a <= bound and spread_b <= bound
                    verdict = f"{'agree' if ok else 'DISAGREE'} (bound {bound})"
                    agree_all = agree_all and ok
                print(f"  {name:<40} {med_a:>12.5g} {f'[{q1_a:.4g}, {q3_a:.4g}]':>25} {med_b:>12.5g} "
                      f"{f'[{q1_b:.4g}, {q3_b:.4g}]':>25} {spread_a:>8.3f} {spread_b:>8.3f} "
                      f"{worse:>+7.3f}  {verdict}")
    return agree_all


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs_a", type=Path)
    parser.add_argument("runs_b", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    agree = compare(load_runs(args.runs_a), load_runs(args.runs_b), spec)
    print("the two sets agree within the bounds" if agree else "the two sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
