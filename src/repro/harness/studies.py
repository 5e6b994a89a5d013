"""The evaluation's studies beyond the paper's tables and figures.

Five experiments, each at its own fixed step count (the report's
``nsteps`` does not apply to them):

* :func:`motivation` — Sec. II's challenge quantified: Uintah's Unified
  Scheduler at 1 and 16 host threads against the Sunway port.
* :func:`exp_library` — Sec. VI-C's exponential-library trade-off, both
  its performance half and its accuracy half.
* :func:`future_work` — Sec. IX's unevaluated optimizations, implemented:
  asynchronous DMA, tile packing and CPE groups.
* :func:`weak_scaling` — the weak-scaling study the paper did not run.
* :func:`convergence` — the scheme's convergence order, measured end to
  end through the runtime with real numerics.

Each ``*_data`` function is memoized for the process, so a report section
and the claims over it (:mod:`repro.harness.claims`) share one set of
runs.  Cells that are Table IV variants go through
:func:`~repro.harness.runner.run_experiment` and its cache.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.burgers import solution_errors
from repro.core.grid import Grid
from repro.core.schedulers.unified import UnifiedHostScheduler
from repro.harness import calibration
from repro.harness.problems import problem_by_name
from repro.harness.reportfmt import pct, render_table, seconds
from repro.harness.runner import burgers_controller, run_experiment
from repro.harness.variants import variant_by_name


def _model_time(grid: Grid, num_cgs: int, nsteps: int, **kwargs) -> float:
    """Simulated seconds per step of one model-mode run outside Table IV."""
    controller, burgers = burgers_controller(grid, num_cgs, **kwargs)
    return controller.run(nsteps=nsteps, dt=burgers.stable_dt()).time_per_step


def _variant_time(problem: str, variant: str, num_cgs: int, nsteps: int) -> float:
    """Simulated seconds per step of one (memoized) Table IV cell."""
    return run_experiment(
        problem_by_name(problem), variant_by_name(variant), num_cgs, nsteps=nsteps
    ).time_per_step


# -- Sec. II: the Unified Scheduler on one MPE --------------------------------

MOTIVATION_STEPS = 3


@functools.cache
def motivation_data() -> dict[str, float]:
    """Time per step on 32x32x512 / 8 CGs: ``{scheduler: seconds}``."""
    grid = problem_by_name("32x32x512").grid()
    out = {
        f"unified-{n}t": _model_time(
            grid,
            8,
            MOTIVATION_STEPS,
            scheduler_factory=functools.partial(UnifiedHostScheduler, num_threads=n),
        )
        for n in (16, 1)
    }
    for vname in ("acc.sync", "acc.async", "acc_simd.async"):
        out[vname] = _variant_time("32x32x512", vname, 8, MOTIVATION_STEPS)
    return out


def motivation() -> str:
    data = motivation_data()
    base = data["unified-1t"]
    return render_table(
        "Sec. II motivation: Unified Scheduler vs the Sunway port (32x32x512, 8 CGs)",
        ["Scheduler", "Time/step", "Speedup vs unified-1t"],
        [(k, seconds(t), f"{base / t:.2f}x") for k, t in data.items()],
    )


# -- Sec. VI-C: the exponential library ---------------------------------------

EXP_LIBRARY_STEPS = 3
EXP_ACCURACY_STEPS = 5


def _exp_accuracy() -> float:
    """Max relative solution difference, fast vs IEEE exp, real numerics."""
    outs = {}
    for fast in (False, True):
        grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
        controller, burgers = burgers_controller(grid, 2, real=True, fast_exp=fast)
        res = controller.run(nsteps=EXP_ACCURACY_STEPS, dt=burgers.stable_dt())
        outs[fast] = np.concatenate(
            [v.interior.ravel() for dw in res.final_dws for v in dw.grid_variables()]
        )
    denom = np.maximum(np.abs(outs[False]), 1e-300)
    return float((np.abs(outs[True] - outs[False]) / denom).max())


@functools.cache
def exp_library_data() -> dict[str, float]:
    """Fast vs IEEE exponential: both times per step and the accuracy gap."""
    grid = problem_by_name("32x32x512").grid()
    ieee = calibration.cost_model(simd=True, fast_exp=False)
    return {
        "fast_time": _variant_time("32x32x512", "acc_simd.async", 8, EXP_LIBRARY_STEPS),
        "ieee_time": _model_time(grid, 8, EXP_LIBRARY_STEPS, cost_model=ieee),
        "max_rel_diff": _exp_accuracy(),
    }


def exp_library() -> str:
    r = exp_library_data()
    return render_table(
        "Ablation: exponential library (Sec. VI-C), 32x32x512, 8 CGs, simd.async",
        ["Quantity", "Value"],
        [
            ("fast library time/step", seconds(r["fast_time"])),
            ("IEEE library time/step", seconds(r["ieee_time"])),
            ("IEEE slowdown", f"{r['ieee_time'] / r['fast_time']:.2f}x"),
            ("max relative solution difference", f"{r['max_rel_diff']:.2e}"),
        ],
    )


# -- Sec. IX: future-work optimizations ---------------------------------------

FUTURE_WORK_STEPS = 5

#: Cost-model options of each configuration on top of acc_simd.async.
FUTURE_WORK = {
    "+async DMA": {"async_dma": True},
    "+tile packing": {"pack_tiles": True},
    "+async DMA +packing": {"async_dma": True, "pack_tiles": True},
    "4 CPE groups": {"cpe_groups": 4},
}


@functools.cache
def future_work_data() -> dict[str, float]:
    """Time per step on 32x64x512 / 8 CGs: ``{configuration: seconds}``."""
    grid = problem_by_name("32x64x512").grid()
    out = {
        "baseline (paper config)": _variant_time(
            "32x64x512", "acc_simd.async", 8, FUTURE_WORK_STEPS
        )
    }
    for name, options in FUTURE_WORK.items():
        cost_model = calibration.cost_model(simd=True, **options)
        out[name] = _model_time(grid, 8, FUTURE_WORK_STEPS, cost_model=cost_model)
    return out


def future_work() -> str:
    data = future_work_data()
    base = data["baseline (paper config)"]
    return render_table(
        "Ablation: Sec. IX future-work optimizations (32x64x512, 8 CGs, acc_simd.async)",
        ["Configuration", "Time/step", "Speedup vs baseline"],
        [(name, seconds(t), f"{base / t:.3f}x") for name, t in data.items()],
    )


# -- Extension: weak scaling --------------------------------------------------

WEAK_SCALING_STEPS = 5
WEAK_SCALING_CGS = (1, 2, 4, 8, 16, 32, 64)
#: Each CG owns a 2x2x1 blob of patches of this size.
WEAK_PATCH = (32, 32, 512)


def _weak_grid(num_cgs: int) -> Grid:
    """The grid holding 4 ``WEAK_PATCH`` patches per CG, ranks near-square in xy."""
    sx = max(f for f in range(1, math.isqrt(num_cgs) + 1) if num_cgs % f == 0)
    layout = (2 * sx, 2 * (num_cgs // sx), 1)
    return Grid(extent=tuple(p * n for p, n in zip(WEAK_PATCH, layout)), layout=layout)


@functools.cache
def weak_scaling_data() -> dict[int, float]:
    """acc_simd.async time per step: ``{cgs: seconds}``."""
    cost_model = calibration.cost_model(simd=True)
    return {
        cgs: _model_time(_weak_grid(cgs), cgs, WEAK_SCALING_STEPS, cost_model=cost_model)
        for cgs in WEAK_SCALING_CGS
    }


def weak_scaling() -> str:
    data = weak_scaling_data()
    base = data[1]
    return render_table(
        "Extension: weak scaling, 4x 32x32x512 patches per CG, acc_simd.async",
        ["CGs", "Time/step", "Weak efficiency"],
        [(cgs, seconds(t), pct(base / t)) for cgs, t in data.items()],
    )


# -- Validation: convergence order --------------------------------------------

CONVERGENCE_STEPS = 48
CONVERGENCE_SIZES = (8, 16, 32)
#: Fixed final time: dt shrinks with it over the fixed step count.
CONVERGENCE_FINAL_T = 1.5e-3


@functools.cache
def convergence_data() -> dict[int, float]:
    """L2 error of the real solution on n^3 grids: ``{n: error}``."""
    dt = CONVERGENCE_FINAL_T / CONVERGENCE_STEPS
    errors = {}
    for n in CONVERGENCE_SIZES:
        grid = Grid(extent=(n, n, n), layout=(2, 2, 2))
        controller, burgers = burgers_controller(grid, 4, real=True, fast_exp=False)
        result = controller.run(nsteps=CONVERGENCE_STEPS, dt=dt)
        errors[n] = solution_errors(grid, result.final_dws, burgers.u_label, t=result.sim_time)[
            "l2"
        ]
    return errors


def convergence_orders() -> dict[str, float]:
    """Observed order between successive resolutions: ``{"a->b": order}``."""
    errors = convergence_data()
    ns = sorted(errors)
    return {f"{a}->{b}": math.log2(errors[a] / errors[b]) for a, b in zip(ns, ns[1:])}


def convergence() -> str:
    errors = convergence_data()
    rows = [(n, f"{e:.3e}") for n, e in errors.items()]
    rows += [(f"order {k}", f"{v:.2f}") for k, v in convergence_orders().items()]
    return render_table(
        "Validation: L2 error vs resolution (real numerics, 4 ranks, async)",
        ["Grid (n^3)", "Value"],
        rows,
    )
