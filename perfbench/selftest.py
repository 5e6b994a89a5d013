"""Self-test of the benchmark: every workload, shrunk to one repetition.

Run from the repository root (about three minutes)::

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` untraced and traced with
``--seconds 1`` and checks that the last line is the result object with
every metric of ``BENCHMARK.json`` under its unit, that no cell failed,
that layers a workload does not use report zero counts, and that the
per-layer counts of two traced runs are identical.  Finally it checks
that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Counts that must be zero on a workload, because the layer does not run there.
ZERO_ON = {
    "eval_sweep": ["kernel.calls", "telemetry.events", "verify.events", "faults.injected",
                   "unified.resumes", "pool.units", "trace.spans"],
    "real_numerics": ["telemetry.events", "faults.injected", "unified.resumes", "harness.cells"],
    "observed_faults": ["kernel.calls", "unified.resumes", "harness.cells"],
    "unified_host": ["kernel.calls", "sched.resumes", "telemetry.events", "offload.launches"],
}
#: Counts that must not be zero on a workload: the reason it exists.
NONZERO_ON = {
    "eval_sweep": ["des.events", "comm.items", "harness.cells"],
    "real_numerics": ["kernel.calls", "kernel.cells", "fastmath.exp_calls", "dw.gets"],
    "observed_faults": ["telemetry.events", "verify.events", "faults.injected",
                        "offload.retries", "mpi.retransmits", "trace.spans"],
    "unified_host": ["unified.resumes", "pool.units"],
}


def run(workload: str, trace: int, cwd: pathlib.Path = ROOT) -> tuple[int, list[str]]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out.returncode, out.stdout.splitlines()


def check_result(workload: str, trace: int, lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, f"{workload}: metrics/units differ from BENCHMARK.json"
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    return values


def main() -> int:
    for wl in SPEC["workloads"]:
        name = wl["name"]
        code, lines = run(name, 0)
        assert code == 0, lines
        check_result(name, 0, lines)
        traced = []
        for _ in range(2):
            code, lines = run(name, 1)
            assert code == 0, lines
            traced.append(check_result(name, 1, lines))
        counts = [
            {m["name"]: t[m["name"]] for m in SPEC["per_layer"] if m["unit"] != "s"
             and m["name"] not in ("tracing.overhead", "kernel.cells_per_s")}
            for t in traced
        ]
        assert counts[0] == counts[1], f"{name}: per-layer counts differ between traced runs"
        first = traced[0]
        assert (first["xcheck.des_events"], first["xcheck.des_timeouts"]) == (20377, 12919)
        assert all(first[k] == 0 for k in ZERO_ON[name]), {k: first[k] for k in ZERO_ON[name]}
        assert all(first[k] > 0 for k in NONZERO_ON[name]), {k: first[k] for k in NONZERO_ON[name]}
        print(f"ok {name}")

    # without the program's source the benchmark must fail and print no result
    bare = HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(HERE, bare / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run("eval_sweep", 0, cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
