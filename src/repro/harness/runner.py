"""Run one (problem, variant, CG-count) experiment.

Experiments run the Burgers model problem for 10 timesteps (paper
Sec. VII-A) in performance-model mode (the grids go up to 1024^3 cells;
small-grid real-numerics runs validating that the modelled schedule and
the real one coincide live in the test suite).  Results are memoized for
the lifetime of the process since every table/figure draws from the same
underlying sweep — the paper likewise derives Tables V-VII and Figs. 5-10
from one set of runs.

The paper repeats each case and takes the best result to mitigate machine
instability; the DES is deterministic, so one run suffices and a
``repeats`` knob exists only for API fidelity.
"""

from __future__ import annotations

import dataclasses

from repro.burgers.component import BurgersProblem
from repro.core.noise import NoiseModel
from repro.core.controller import SimulationController, RunResult
from repro.core.costs import SunwayCostModel
from repro.core.grid import Grid
from repro.harness import calibration
from repro.harness.problems import ProblemSetting, USABLE_BYTES_PER_CG
from repro.harness.variants import Variant
from repro.sunway.config import CoreGroupConfig

#: Timesteps per experiment (paper Sec. VII-A: "run for 10 timesteps").
DEFAULT_NSTEPS = 10


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """The measurements one experimental case produces."""

    problem: str
    variant: str
    num_cgs: int
    nsteps: int
    #: Simulated wall seconds per timestep — the paper's indicator.
    time_per_step: float
    #: Counted kernel flops per step (all ranks).
    flops_per_step: float
    messages_per_step: float
    bytes_per_step: float
    # -- resilience counters (structurally zero in fault-free runs) -------
    kernel_timeouts: int = 0
    kernel_retries: int = 0
    mpe_fallbacks: int = 0
    mpi_retries: int = 0
    stragglers_detected: int = 0
    rank_recoveries: int = 0

    @classmethod
    def from_run(
        cls, problem: str, variant: str, num_cgs: int, nsteps: int, run: RunResult
    ) -> "ExperimentResult":
        """The measurements of one finished run of ``nsteps`` timesteps."""
        stats = run.stats
        return cls(
            problem=problem,
            variant=variant,
            num_cgs=num_cgs,
            nsteps=nsteps,
            time_per_step=run.time_per_step,
            flops_per_step=run.flops_per_step,
            messages_per_step=run.messages_sent / nsteps,
            bytes_per_step=run.bytes_sent / nsteps,
            kernel_timeouts=stats.kernel_timeouts,
            kernel_retries=stats.kernel_retries,
            mpe_fallbacks=stats.mpe_fallbacks,
            mpi_retries=stats.mpi_retries,
            stragglers_detected=stats.stragglers_detected,
            rank_recoveries=stats.rank_recoveries,
        )

    @property
    def gflops(self) -> float:
        """Achieved Gflop/s (Sec. VII-E)."""
        return self.flops_per_step / self.time_per_step / 1e9

    @property
    def fp_efficiency(self) -> float:
        """Fraction of the running CGs' theoretical peak."""
        peak = self.num_cgs * CoreGroupConfig().peak_flops
        return self.gflops * 1e9 / peak


@dataclasses.dataclass
class InstrumentedRun:
    """Everything one observed run produced (never memoized)."""

    experiment: ExperimentResult
    #: The raw :class:`~repro.core.controller.RunResult` with its trace.
    result: RunResult
    #: The :class:`~repro.telemetry.collect.RunTelemetry` that observed it.
    telemetry: object
    #: The folded :class:`~repro.telemetry.ledger.RunLedger`.
    ledger: object


_CACHE: dict[tuple, ExperimentResult] = {}


def clear_cache() -> None:
    """Drop memoized experiment results (tests use this)."""
    _CACHE.clear()


def burgers_controller(
    grid: Grid,
    num_cgs: int,
    *,
    mode: str = "async",
    cost_model: SunwayCostModel | None = None,
    real: bool = False,
    fast_exp: bool = True,
    **kwargs,
) -> tuple[SimulationController, BurgersProblem]:
    """A controller running the Burgers problem on ``grid``, and the problem.

    Every experiment of the evaluation builds its job here: the
    calibrated fabric and interference constants, and the calibrated
    cost model of the non-vectorized kernel unless ``cost_model`` says
    otherwise.  ``fast_exp`` picks the exponential the *real* numerics
    evaluate; model-mode timings come from the cost model alone.
    Remaining ``kwargs`` go to :class:`SimulationController`.
    """
    burgers = BurgersProblem(grid, fast_exp=fast_exp)
    kwargs.setdefault("scheduler_kwargs", calibration.scheduler_kwargs())
    controller = SimulationController(
        grid,
        burgers.tasks(),
        burgers.init_tasks(),
        num_ranks=num_cgs,
        mode=mode,
        cost_model=cost_model if cost_model is not None else calibration.cost_model(),
        real=real,
        fabric_config=calibration.FABRIC,
        **kwargs,
    )
    return controller, burgers


def _controller(problem, variant, num_cgs, noise, **kwargs):
    """A model-mode controller for one case, and the problem's stable dt."""
    if num_cgs < problem.min_cgs:
        raise ValueError(
            f"problem {problem.name} needs at least {problem.min_cgs} CGs "
            f"(memory), got {num_cgs}"
        )
    sched_kwargs = calibration.scheduler_kwargs()
    sched_kwargs["select_policy"] = variant.select_policy
    if noise is not None:
        sched_kwargs["noise"] = noise
    controller, burgers = burgers_controller(
        problem.grid(),
        num_cgs,
        mode=variant.mode,
        cost_model=variant.cost_model(),
        scheduler_kwargs=sched_kwargs,
        memory_limit_bytes=USABLE_BYTES_PER_CG,
        **kwargs,
    )
    return controller, burgers.stable_dt()


def run_experiment(
    problem: ProblemSetting,
    variant: Variant,
    num_cgs: int,
    nsteps: int = DEFAULT_NSTEPS,
    repeats: int = 1,
    noise: NoiseModel | None = None,
) -> ExperimentResult:
    """Run (or recall) one experimental case; returns its measurements.

    With a :class:`~repro.core.noise.NoiseModel`, each repeat runs under
    a different noise seed and the best (fastest) result is kept — the
    paper's Sec. VII-A protocol.  Without noise the DES is deterministic
    and one repeat suffices.
    """
    key = (
        problem.name,
        variant.name,
        variant.select_policy,
        num_cgs,
        nsteps,
        repeats,
        noise,
    )
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    best: RunResult | None = None
    for rep in range(max(repeats, 1)):
        rep_noise = None if noise is None else dataclasses.replace(noise, seed=noise.seed + rep)
        controller, dt = _controller(problem, variant, num_cgs, rep_noise)
        res = controller.run(nsteps=nsteps, dt=dt)
        if best is None or res.time_per_step < best.time_per_step:
            best = res

    assert best is not None
    out = ExperimentResult.from_run(problem.name, variant.name, num_cgs, nsteps, best)
    _CACHE[key] = out
    return out


def run_instrumented(
    problem: ProblemSetting,
    variant: Variant,
    num_cgs: int,
    nsteps: int = DEFAULT_NSTEPS,
    noise: NoiseModel | None = None,
    created_at: str | None = None,
) -> InstrumentedRun:
    """Run one case with tracing and telemetry on; returns the full bundle.

    The schedule is identical to :func:`run_experiment`'s (telemetry
    observes the DES, it never charges simulated time), but results are
    *not* memoized: the bundle carries the trace, the metrics registry
    and the ledger, which the cache must not alias across callers.
    """
    import datetime

    from repro.telemetry import RunTelemetry, build_ledger
    from repro.telemetry.ledger import git_revision

    telemetry = RunTelemetry()
    controller, dt = _controller(
        problem, variant, num_cgs, noise, trace_enabled=True, telemetry=telemetry
    )
    result = controller.run(nsteps=nsteps, dt=dt)
    manifest = {
        "problem": problem.name,
        "variant": variant.name,
        "select_policy": variant.select_policy,
        "num_cgs": num_cgs,
        "nsteps": nsteps,
        "dt": dt,
        "t0": 0.0,
        "noise_seed": noise.seed if noise is not None else None,
        "git_rev": git_revision(),
        "created_at": (
            created_at
            if created_at is not None
            else datetime.datetime.now(datetime.timezone.utc).isoformat()
        ),
    }
    ledger = build_ledger(result, telemetry, manifest)
    experiment = ExperimentResult.from_run(problem.name, variant.name, num_cgs, nsteps, result)
    return InstrumentedRun(
        experiment=experiment, result=result, telemetry=telemetry, ledger=ledger
    )
