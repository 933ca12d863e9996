"""Regenerate the golden answers for one workload's whole population.

    python3 benchmarks/make_goldens.py corpus5 gpw6 lattice-mpf6
    python3 benchmarks/make_goldens.py --retime gpw6

Writes ``benchmarks/goldens/<workload>.json``: for every op the workload can
draw, its answer and its cost in seconds (``cost_s``). The costs sort ops
into the cost bands that decide each seed's sample; answers are the
reference every benchmark run is checked against. Only regenerate them on a
commit whose outputs are known to be right.

An existing golden file keeps its ``cost_s`` values, so rewriting the
answers leaves every seed's sample as it was. ``--retime`` records the
costs measured now instead; that changes the samples, and so is a change
to the benchmark of its own.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import parkbetti as pb  # noqa: E402

import workloads  # noqa: E402


def build(workload: str, old_costs: dict) -> dict:
    """Answers for the whole population; ``cost_s`` from ``old_costs``
    where it has the op, else as timed now."""
    ops = workloads.population_ops(workload, pb)
    out = {}
    for i, op in enumerate(ops):
        G = pb.parse_graph(op.graph)
        start = time.perf_counter()
        answer = workloads.answer(op.stage, workloads.compute(pb, op.stage, G))
        cost = time.perf_counter() - start
        out[op.key] = {"answer": answer, "cost_s": old_costs.get(op.key, round(cost, 4))}
        print(f"[{workload} {i + 1}/{len(ops)}] {cost:8.3f}s {op.key}", file=sys.stderr, flush=True)
    return {
        "workload": workload,
        "generated_on": {"python": platform.python_version(), "machine": platform.machine()},
        "ops": out,
    }


def old_costs(workload: str) -> dict:
    try:
        return {key: entry["cost_s"] for key, entry in workloads.load_goldens(workload).items()}
    except FileNotFoundError:
        return {}


def main(argv: list[str]) -> int:
    retime = "--retime" in argv
    argv = [a for a in argv if a != "--retime"]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    for workload in argv:
        doc = build(workload, {} if retime else old_costs(workload))
        path = workloads.golden_path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
