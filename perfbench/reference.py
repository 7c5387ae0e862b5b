"""Regenerate ``optima.json``, the proof ladder's table of optimal makespans.

    python3 perfbench/reference.py

The table is solved with depth-first selection, a different exploration
order from the best-first search that ``proof-serial`` measures, so the
benchmark's check compares two independent searches rather than today's
output with a copy of itself.  Every entry must be a proven optimum.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from repro.bb.sequential import SequentialBranchAndBound  # noqa: E402
from repro.flowshop.instance import FlowShopInstance  # noqa: E402


def main() -> int:
    optima = {}
    for name, n, m, time_seed in inputs.PROOF_LADDER:
        pt = inputs.taillard_matrix(n, m, time_seed)
        t0 = time.perf_counter()
        result = SequentialBranchAndBound(
            FlowShopInstance(pt, name=name), selection="depth-first"
        ).solve()
        if not result.proved_optimal:
            raise SystemExit(f"{name}: depth-first search did not prove optimality")
        problems = checks.check_answer(pt, result.best_makespan, list(result.best_order))
        if problems:
            raise SystemExit(f"{name}: {problems}")
        optima[name] = result.best_makespan
        print(f"{name}: {result.best_makespan} in {time.perf_counter() - t0:.2f} s")
    table = {
        "selection": "depth-first",
        "command": "python3 perfbench/reference.py",
        "optima": optima,
    }
    (HERE / "optima.json").write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
