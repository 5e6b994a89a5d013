"""Tests for the Unified Scheduler model (the paper's Sec. II motivation)."""

import functools

import numpy as np
import pytest

from repro.burgers import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.unified import UnifiedHostScheduler
from repro.harness import calibration
from repro.harness.problems import problem_by_name


def run_unified(num_threads, num_ranks=2, nsteps=3, extent=(16, 16, 16),
                layout=(2, 2, 2), real=True, trace=False):
    grid = Grid(extent=extent, layout=layout)
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(),
        num_ranks=num_ranks, real=real, trace_enabled=trace,
        scheduler_factory=functools.partial(UnifiedHostScheduler, num_threads=num_threads),
    )
    return ctl.run(nsteps=nsteps, dt=prob.stable_dt())


def collect(res):
    return {
        v.patch.patch_id: v.interior.copy()
        for dw in res.final_dws
        for v in dw.grid_variables()
    }


def test_results_match_sunway_scheduler_bitwise():
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, mode="async", real=True
    )
    ref = collect(ctl.run(nsteps=3, dt=prob.stable_dt()))
    for threads in (1, 4):
        got = collect(run_unified(threads))
        for pid in ref:
            assert np.array_equal(ref[pid], got[pid]), (threads, pid)


def test_more_threads_is_faster():
    t1 = run_unified(1).time_per_step
    t2 = run_unified(2).time_per_step
    t8 = run_unified(8).time_per_step
    assert t2 < t1
    assert t8 <= t2


def test_thread_lanes_overlap_with_multiple_threads():
    res = run_unified(4, trace=True)
    lanes = {s.lane for s in res.trace.spans}
    assert {"thread0", "thread1"} <= lanes
    # two worker lanes busy at the same time
    assert res.trace.overlap_time(0, "thread0", "thread1") > 0


def test_single_thread_never_overlaps_itself():
    res = run_unified(1, trace=True)
    lanes = {s.lane for s in res.trace.spans}
    assert lanes <= {"thread0"}


def test_reductions_complete():
    res = run_unified(2)
    grid_prob = BurgersProblem(Grid(extent=(16, 16, 16), layout=(2, 2, 2)))
    assert res.final_dws[0].has_reduction(grid_prob.norm_label)
    assert res.stats.reductions > 0


def test_validation():
    with pytest.raises(ValueError):
        run_unified(0)


def test_paper_motivation_sunway_async_beats_unified_single_thread():
    """The quantitative form of Sec. II's challenge: on Sunway, the
    Unified Scheduler is limited to the MPE's single thread and cannot
    use the CPEs; the paper's async MPE+CPE scheduler wins by the
    offload factor (2.7-6.0x)."""
    problem = problem_by_name("16x16x512")
    grid = problem.grid()
    prob = BurgersProblem(grid)

    unified = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=8, real=False,
        cost_model=calibration.cost_model(),
        fabric_config=calibration.FABRIC,
        scheduler_factory=functools.partial(UnifiedHostScheduler, num_threads=1),
    ).run(nsteps=2, dt=1e-5)

    sunway = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=8, real=False,
        mode="async",
        cost_model=calibration.cost_model(),
        fabric_config=calibration.FABRIC,
        scheduler_kwargs=calibration.scheduler_kwargs(),
    ).run(nsteps=2, dt=1e-5)

    boost = unified.time_per_step / sunway.time_per_step
    assert 2.0 < boost < 8.0


# -- new-DW ghost exchange under several worker threads -------------------------

def _new_dw_ghost_tasks():
    """keepU; stage1: old u -> new a (ghosted); stage2: new a + ghosts -> b.

    stage2 reads stage1's *new*-DW output across patch faces, so with
    several worker threads a neighbour's ghost slab can arrive before
    this patch's own stage1 has allocated ``a``.
    """
    from repro.core.task import Task, TaskKind
    from repro.core.varlabel import VarLabel
    from repro.sunway.corerates import KernelCost

    u, a, b = VarLabel("u"), VarLabel("a"), VarLabel("b")
    cost = KernelCost(stencil_flops=1, exp_calls=0)

    def init(ctx):
        var = ctx.new_dw.allocate_and_put(u, ctx.patch, ghosts=1)
        rng = np.random.default_rng(ctx.patch.patch_id)
        var.interior[...] = rng.random(var.interior.shape)

    def keep_u(ctx):
        var = ctx.new_dw.allocate_and_put(u, ctx.patch, ghosts=1)
        var.interior[...] = ctx.old_dw.get(u, ctx.patch).interior

    def stage1(ctx):
        var = ctx.new_dw.allocate_and_put(a, ctx.patch, ghosts=1)
        var.interior[...] = 2.0 * ctx.old_dw.get(u, ctx.patch).interior + 1.0

    def stage2(ctx):
        src = ctx.new_dw.get(a, ctx.patch).data
        out = ctx.new_dw.allocate_and_put(b, ctx.patch, ghosts=0)
        out.interior[...] = src[:-2, 1:-1, 1:-1] + src[2:, 1:-1, 1:-1] - src[1:-1, 1:-1, 1:-1]

    t_init = Task("init", kind=TaskKind.MPE, action=init).computes_(u)
    t_keep = Task("keepU", action=keep_u, kernel_cost=cost)
    t_keep.requires_(u, dw="old").computes_(u)
    t_s1 = Task("stage1", action=stage1, kernel_cost=cost)
    t_s1.requires_(u, dw="old").computes_(a)
    t_s2 = Task("stage2", action=stage2, kernel_cost=cost)
    t_s2.requires_(a, dw="new", ghosts=1).computes_(b)
    return [t_keep, t_s1, t_s2], [t_init]


def _run_new_dw_ghosts(factory=None, validator=None):
    grid = Grid(extent=(8, 8, 8), layout=(4, 1, 1))
    tasks, init = _new_dw_ghost_tasks()
    ctl = SimulationController(
        grid, tasks, init, num_ranks=2, real=True,
        scheduler_factory=factory, validator=validator,
    )
    return ctl.run(nsteps=2, dt=1e-3)


@pytest.mark.parametrize("threads", [1, 3])
def test_new_dw_ghosts_arriving_early_match_sunway(threads):
    """A ghost slab of ``a`` that arrives before its destination patch's
    stage1 ran is stashed and applied on completion, as in the Sunway
    scheduler, and the validator sees a clean schedule."""
    from repro.verify import ScheduleValidator
    from repro.verify.differential import fields_identical, fields_of

    ref = fields_of(_run_new_dw_ghosts())
    validator = ScheduleValidator()
    got = fields_of(_run_new_dw_ghosts(
        functools.partial(UnifiedHostScheduler, num_threads=threads), validator
    ))
    assert {"a@p1", "b@p1"} <= set(got)
    assert fields_identical(ref, got)
    assert validator.report()["num_violations"] == 0


def test_scrub_stays_off():
    """The unified model never scrubs old-DW variables, even when asked."""
    grid = Grid(extent=(16, 16, 16), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=2, real=True,
        scheduler_kwargs={"scrub": True},
        scheduler_factory=functools.partial(UnifiedHostScheduler, num_threads=2),
    )
    res = ctl.run(nsteps=2, dt=prob.stable_dt())
    assert res.stats.scrubbed == 0
    assert all(sched.scrub is False for sched in ctl.schedulers)
