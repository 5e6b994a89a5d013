"""Host-time benchmark of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval_sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics as medians over the repetitions.  ``--trace 1`` runs
the workload once untraced and once under the per-layer span tracer
(``layers.py``) and reports the per-layer metrics.  Either way every cell
is checked against ``reference.json``, a record with the host
fingerprint is appended to ``perfbench/results/records.jsonl``, and the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (cells) and ``metrics``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: (name, unit, better) of the end-to-end metrics (host time, tracing off).
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("rank_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def _git_rev() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
    }


def _summary(values: list[float]) -> str:
    """Median, quartiles and sample count (quartiles need two samples)."""
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} (n={len(values)})"


class Checks:
    """Cells attempted, cells failed, and why."""

    def __init__(self, seed: int, reference: dict):
        self.seed, self.reference = seed, reference
        self.attempted = 0
        self.problems: list[str] = []

    def __call__(self, workload: str, probe, outputs: dict | None) -> int:
        """Check one repetition's cells; returns how many failed.

        ``outputs`` is None when the repetition raised: every cell the
        reference expects counts as attempted and failed.
        """
        import workloads

        if outputs is None:
            expected = len(workloads.expected(workload, self.seed, self.reference)[0])
            self.attempted += expected
            return expected
        bad, why = workloads.failed_cells(
            workload, self.seed, probe.cells, outputs, self.reference
        )
        self.attempted += len(probe.cells)
        self.problems.extend(why)
        return bad


def run_untraced(name: str, seed: int, seconds: float, reference: dict) -> dict:
    import workloads

    fn = workloads.WORKLOADS[name]
    check = Checks(seed, reference)
    # warm-up: imports and first-call costs, checked but not timed
    with workloads.Probe() as probe:
        outputs = workloads.xcheck(seed)
    failed = check("xcheck", probe, outputs)

    samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "rank_steps_per_s": []}
    # repeat while the next repetition (as long as the last one) fits in ``seconds``
    deadline = time.perf_counter() + seconds
    while not samples["wall_s"] or time.perf_counter() + samples["wall_s"][-1] <= deadline:
        with workloads.Probe() as probe:
            t0 = time.perf_counter()
            try:
                outputs = fn(seed)
            except Exception:
                outputs = None
                check.problems.append("raised: " + traceback.format_exc(limit=-3))
            wall = time.perf_counter() - t0
        cells = probe.cells
        run_s = sum(c.run_s for c in cells)
        samples["wall_s"].append(wall)
        samples["setup_s"].append(sum(c.init_s for c in cells))
        samples["rank_steps_per_s"].append(
            sum(c.rank_steps for c in cells) / run_s if run_s else 0.0
        )
        failed += check(name, probe, outputs)
        if outputs is None:
            break  # a program that raises is not timed further
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = peak_mb
    return {
        "metrics": {n: metrics[n] for n, _, _ in END_TO_END},
        "units": {n: u for n, u, _ in END_TO_END},
        "detail": {k: _summary(v) for k, v in samples.items()},
        "attempted": check.attempted,
        "failed": failed,
        "problems": check.problems,
    }


def run_traced(name: str, seed: int, reference: dict) -> dict:
    import layers
    import workloads

    fn = workloads.WORKLOADS[name]
    check = Checks(seed, reference)
    with workloads.Probe() as plain:
        t0 = time.perf_counter()
        plain_outputs = fn(seed)
        plain_wall = time.perf_counter() - t0
    plain_failed = check(name, plain, plain_outputs)

    tracer = layers.SpanTracer()
    installed = layers.Installation(tracer)
    try:
        # the cross-check cell, traced twice: known counts, exact repeats
        xcheck_counts = []
        xcheck_failed = 0
        for _ in range(2):
            tracer.reset()
            with workloads.Probe() as probe:
                outputs = workloads.xcheck(seed)
            xcheck_failed += check("xcheck", probe, outputs)
            xcheck_counts.append(
                (dict(tracer.counts), dict(tracer.layer_calls), dict(tracer.tallies))
            )
            xcheck_total = probe.cells[0].result.total_time
        tracer.reset()
        with workloads.Probe() as traced:
            t0 = time.perf_counter()
            traced_outputs = fn(seed)
            traced_wall = time.perf_counter() - t0
    finally:
        installed.remove()
    traced_failed = check(name, traced, traced_outputs)

    events = xcheck_counts[0][0].get(layers.STEP, 0)
    timeouts = xcheck_counts[0][0].get(layers.TIMEOUT_INIT, 0)
    if xcheck_counts[0] != xcheck_counts[1]:
        check.problems.append("cross-check counts differ between two traced runs")
        xcheck_failed = 2
    if (events, timeouts, xcheck_total) != (
        workloads.XCHECK_EVENTS,
        workloads.XCHECK_TIMEOUTS,
        workloads.XCHECK_TOTAL_TIME,
    ):
        check.problems.append(
            f"cross-check cell: {events} events, {timeouts} timeouts, "
            f"{xcheck_total!r} s simulated"
        )
        xcheck_failed = 2
    plain_fps = [workloads.fingerprint(c) for c in plain.cells]
    if plain_fps != [workloads.fingerprint(c) for c in traced.cells] or (
        plain_outputs != traced_outputs
    ):
        check.problems.append("traced and untraced runs differ in simulated outputs")
        traced_failed = len(traced.cells)

    RESULTS.mkdir(exist_ok=True)
    tracer.write_spans(RESULTS / f"{name}.spans.npz")
    values = layers.layer_metrics(tracer, traced.cells, traced_outputs)
    values["tracing.overhead"] = traced_wall / plain_wall
    values["xcheck.des_events"] = events
    values["xcheck.des_timeouts"] = timeouts
    return {
        "metrics": {n: values[n] for n, _, _ in layers.PER_LAYER},
        "units": {n: u for n, u, _ in layers.PER_LAYER},
        "detail": {
            "untraced wall_s": f"{plain_wall:.6g}",
            "traced wall_s": f"{traced_wall:.6g}",
            "spans": len(tracer.span_t0),
        },
        "attempted": check.attempted,
        "failed": plain_failed + xcheck_failed + traced_failed,
        "problems": check.problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    reference = workloads.load_reference()
    if args.trace:
        out = run_traced(args.workload, args.seed, reference)
    else:
        out = run_untraced(args.workload, args.seed, args.seconds, reference)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_fingerprint(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **out,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"host {json.dumps(record['host'], sort_keys=True)} seed {args.seed}")
    for key, text in out["detail"].items():
        print(f"  {key}: {text}")
    for name, value in out["metrics"].items():
        print(f"{name:24s} {value:14.6g} {out['units'][name]}")
    failed, attempted = out["failed"], out["attempted"]
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} cells)")
    for problem in out["problems"]:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {
                    n: {"value": v, "unit": out["units"][n]} for n, v in out["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
