"""The benchmark's workloads, its cross-check cell, and the output check.

Every workload runs its cells one after another in this process: a closed
loop with one client, no threads and no process pool.  A *cell* is one
:class:`~repro.core.controller.SimulationController` built and run.  The
:class:`Probe` times each cell's constructor (set-up) and ``run`` and
keeps the :class:`RunResult`, so outputs are fingerprinted after the
timed repetition and compared with ``reference.json``.

Why each workload exists is written down in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import time

from repro.burgers.component import BurgersProblem
from repro.core import controller as _controller
from repro.core.grid import Grid
from repro.core.schedulers.unified import UnifiedHostScheduler
from repro.faults import FaultInjector, ResiliencePolicy
from repro.harness import calibration, runner, tables
from repro.harness.problems import problem_by_name
from repro import telemetry as _telemetry
from repro.verify import ScheduleValidator
from repro.verify.differential import fault_config_for

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

#: The model-mode problem of eval_sweep, observed_faults and the cross-check.
PROBLEM = "16x16x512"
NSTEPS = 10
#: observed_faults runs fault plans ``seed, seed+1, ...`` (mod ``FAULT_PLANS``),
#: ``PLANS_PER_RUN`` of them; every plan has a committed reference.  Plans
#: differ in work by up to 10%, so one run covers several.
FAULT_PLANS = 16
PLANS_PER_RUN = 4

#: The cross-check cell's known numbers (``benchmarks/bench_scheduler_overhead.py``
#: and its committed baseline): DES events, timeouts created, simulated seconds.
XCHECK_EVENTS = 20_377
XCHECK_TIMEOUTS = 12_919
XCHECK_TOTAL_TIME = 1.880818043885694


@dataclasses.dataclass
class Cell:
    """One controller's host times and result."""

    label: str
    init_s: float
    run_s: float = 0.0
    result: object = None

    @property
    def rank_steps(self) -> int:
        return self.result.num_ranks * self.result.nsteps


class Probe:
    """Times ``SimulationController.__init__`` and ``run`` while entered."""

    def __init__(self) -> None:
        self.cells: list[Cell] = []

    def __enter__(self) -> "Probe":
        cls = _controller.SimulationController
        self._saved = cls.__dict__["__init__"], cls.__dict__["run"]
        init, run = self._saved
        pending: dict[int, Cell] = {}

        @functools.wraps(init)
        def timed_init(ctl, *args, **kwargs):
            t0 = time.perf_counter()
            init(ctl, *args, **kwargs)
            pending[id(ctl)] = Cell(_label(ctl), time.perf_counter() - t0)

        @functools.wraps(run)
        def timed_run(ctl, *args, **kwargs):
            t0 = time.perf_counter()
            result = run(ctl, *args, **kwargs)
            cell = pending.pop(id(ctl))
            cell.run_s = time.perf_counter() - t0
            cell.result = result
            self.cells.append(cell)
            return result

        cls.__init__, cls.run = timed_init, timed_run
        return self

    def __exit__(self, *exc) -> None:
        cls = _controller.SimulationController
        cls.__init__, cls.run = self._saved


def _label(ctl) -> str:
    sched = ctl.schedulers[0]
    threads = f"/{sched.num_threads}t" if isinstance(sched, UnifiedHostScheduler) else ""
    real = "/real" if ctl.real else ""
    return f"{type(sched).__name__}/{ctl.mode}/{ctl.num_ranks}r{threads}{real}"


def _model_controller(problem: str, num_ranks: int, **kwargs):
    grid = problem_by_name(problem).grid()
    burgers = BurgersProblem(grid)
    factory = kwargs.pop("scheduler_factory", None)
    return _controller.SimulationController(
        grid,
        burgers.tasks(),
        burgers.init_tasks(),
        num_ranks=num_ranks,
        mode="async",
        real=False,
        cost_model=calibration.cost_model(),
        fabric_config=calibration.FABRIC,
        scheduler_kwargs={} if factory else calibration.scheduler_kwargs(),
        scheduler_factory=factory,
        **kwargs,
    )


# -- workloads: each runs its cells and returns its workload-level outputs ------


def xcheck(seed: int) -> dict:
    """The 16x16x512 / 8-CG / async / 10-step cell of the scheduler-overhead bench."""
    _model_controller(PROBLEM, 8).run(nsteps=NSTEPS, dt=1e-5)
    return {}


def eval_sweep(seed: int) -> dict:
    """Table VI's 16x16x512 row: acc.sync and acc.async at 1-128 CGs."""
    runner.clear_cache()
    (row,) = tables.table6_data(problems=(problem_by_name(PROBLEM),), nsteps=NSTEPS)
    return {"table6_row": {str(k): v.hex() for k, v in row.items() if isinstance(k, int)}}


def real_numerics(seed: int) -> dict:
    """Real Burgers numerics: 128^3 cells, 4x4x4 patches, 8 ranks."""
    grid = Grid(extent=(128, 128, 128), layout=(4, 4, 4))
    burgers = BurgersProblem(grid, fast_exp=True, kernel_impl="numpy")
    ctl = _controller.SimulationController(
        grid, burgers.tasks(), burgers.init_tasks(), num_ranks=8, mode="async", real=True
    )
    ctl.run(nsteps=NSTEPS, dt=burgers.stable_dt())
    return {}


def fault_plans(seed: int) -> list[int]:
    return [(seed + i) % FAULT_PLANS for i in range(PLANS_PER_RUN)]


def observed_faults(seed: int) -> dict:
    """The fault plans of ``seed``, each a fully observed faulty run."""
    return {"plans": [observed_plan(plan) for plan in fault_plans(seed)]}


def observed_plan(plan: int) -> dict:
    """16x16x512 / 8 CGs / async with trace, telemetry, validator and faults."""
    telemetry = _telemetry.RunTelemetry()
    validator = ScheduleValidator()
    injector = FaultInjector(fault_config_for(plan))
    ctl = _model_controller(
        PROBLEM,
        8,
        trace_enabled=True,
        telemetry=telemetry,
        validator=validator,
        faults=injector,
        resilience=ResiliencePolicy(),
    )
    result = ctl.run(nsteps=NSTEPS, dt=1e-5)
    validator.finish()
    ledger = _telemetry.build_ledger(result, telemetry, {"fault_plan": plan})
    analysis = _telemetry.analyze(result, telemetry, ledger)
    return {
        "fault_plan": plan,
        "violations": len(validator.violations),
        "injected": injector.counts_by_kind(),
        "ledger_sha256": _sha(ledger.to_jsonl()),
        "analysis_sha256": _sha(analysis.render_time_accounting()),
    }


def unified_host(seed: int) -> dict:
    """UnifiedHostScheduler at 1 and 16 host threads, 32x32x512 on 8 CGs."""
    for threads in (1, 16):
        factory = functools.partial(UnifiedHostScheduler, num_threads=threads)
        _model_controller("32x32x512", 8, scheduler_factory=factory).run(
            nsteps=NSTEPS, dt=1e-5
        )
    return {}


WORKLOADS = {
    "eval_sweep": eval_sweep,
    "real_numerics": real_numerics,
    "observed_faults": observed_faults,
    "unified_host": unified_host,
}


# -- correctness -------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _encode(value):
    return value.hex() if isinstance(value, float) else value


def fingerprint(cell: Cell) -> dict:
    """Simulated outputs of one cell, floats as hex so equality is bitwise."""
    res = cell.result
    out = {
        "cell": cell.label,
        "total_time": res.total_time.hex(),
        "time_per_step": res.time_per_step.hex(),
        "step_times": [t.hex() for t in res.step_times],
        "stats": {
            f.name: _encode(getattr(res.stats, f.name)) for f in dataclasses.fields(res.stats)
        },
        "messages_sent": res.messages_sent,
        "bytes_sent": res.bytes_sent,
    }
    if cell.label.endswith("/real"):
        digest = hashlib.sha256()
        for dw in res.final_dws:
            for var in sorted(dw.grid_variables(), key=lambda v: (v.label.name, v.patch.patch_id)):
                digest.update(f"{var.label.name}/{var.patch.patch_id}".encode())
                digest.update(var.data.tobytes())
        out["fields_sha256"] = digest.hexdigest()
    return out


def expected(workload: str, seed: int, reference: dict) -> tuple[list, dict]:
    """Reference cell fingerprints and outputs of ``workload`` under ``seed``."""
    if workload != "observed_faults":
        entry = reference[workload]
        return entry["cells"], entry["outputs"]
    plans = [reference[workload][str(plan)] for plan in fault_plans(seed)]
    return [c for p in plans for c in p["cells"]], {"plans": [p["outputs"] for p in plans]}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def failed_cells(workload: str, seed: int, cells: list[Cell], outputs: dict, reference: dict):
    """Number of ``cells`` whose outputs differ from the reference, and why."""
    ref_cells, ref_outputs = expected(workload, seed, reference)
    problems = []
    if outputs != ref_outputs:
        problems.append("workload outputs differ from the reference")
    for plan in outputs.get("plans", ()):
        if plan["violations"]:
            problems.append(f"plan {plan['fault_plan']}: {plan['violations']} validator violations")
        if not sum(plan["injected"].values()):
            problems.append(f"plan {plan['fault_plan']}: no faults injected")
    if len(cells) != len(ref_cells):
        problems.append(f"{len(cells)} cells ran, reference has {len(ref_cells)}")
        return len(cells), problems
    if problems:  # a workload-level failure fails every cell
        return len(cells), problems
    bad = [c.label for c, r in zip(cells, ref_cells) if fingerprint(c) != r]
    if bad:
        problems.append("fingerprint differs: " + ", ".join(bad))
    return len(bad), problems
