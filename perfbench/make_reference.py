"""Regenerate ``reference.json``, the outputs every benchmark cell is checked against.

Run from the repository root, only after a change that alters simulated
results on purpose::

    python3 perfbench/make_reference.py

Before writing, it checks the outputs against numbers recorded outside
this benchmark: the cross-check cell's DES counts and simulated time
(``benchmarks/results/scheduler_overhead_baseline.json``), the retry counts
of fault plan 7, and Table VI's 16x16x512 row
(``benchmarks/results/table6.txt``).
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

#: Table VI, 16x16x512 row, 1..128 CGs (percent, one decimal).
TABLE6_ROW_PCT = ["27.5", "30.5", "32.9", "34.3", "40.5", "30.4", "25.7", "0.0"]


def _run(fn, arg: int) -> tuple[dict, list]:
    """A reference entry of one workload call, and its cells."""
    with workloads.Probe() as probe:
        outputs = fn(arg)
    cells = [workloads.fingerprint(c) for c in probe.cells]
    return {"cells": cells, "outputs": outputs}, probe.cells


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reference not written: {what} disagrees with the recorded numbers")


def main() -> int:
    ref: dict = {}
    ref["xcheck"], (xcell,) = _run(workloads.xcheck, 0)
    for name in ("eval_sweep", "real_numerics", "unified_host"):
        ref[name], _ = _run(workloads.WORKLOADS[name], 0)
    plans = {p: _run(workloads.observed_plan, p) for p in range(workloads.FAULT_PLANS)}
    ref["observed_faults"] = {str(p): entry for p, (entry, _) in plans.items()}

    _require(xcell.result.total_time == workloads.XCHECK_TOTAL_TIME, "cross-check total time")
    row = ref["eval_sweep"]["outputs"]["table6_row"]
    pct = [f"{100 * float.fromhex(row[str(c)]):.1f}" for c in (1, 2, 4, 8, 16, 32, 64, 128)]
    _require(pct == TABLE6_ROW_PCT, f"Table VI row {pct}")
    stats = plans[7][1][0].result.stats
    _require((stats.kernel_retries, stats.mpi_retries) == (330, 186), "plan 7 retries")
    for entry in ref["observed_faults"].values():
        out = entry["outputs"]
        _require(out["violations"] == 0, f"plan {out['fault_plan']} violations")
        _require(sum(out["injected"].values()) > 0, f"plan {out['fault_plan']} injects nothing")

    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
