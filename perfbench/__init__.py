"""The repository benchmark: four seeded workloads through ``repro.immunity()``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see
``perfbench/README.md`` for the workloads, the metrics and the compare
command. The benchmark imports the library from the ``src/`` directory of
the checkout it lives in, never from an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises ``SystemExit`` when the checkout holds no library source, so
    a directory with only the benchmark fails instead of measuring
    whatever ``repro`` happens to be importable.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
