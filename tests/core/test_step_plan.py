"""The compiled step plan equals what the scheduler used to re-derive per step.

Every static fact the timestep loop now reads from a table — the grid's
patch table (boundary faces, boundary-cell counts), the graph's
dependents index and each rank's :class:`~repro.core.taskgraph.StepPlan`
— is checked against a slow recomputation from first principles
(``Grid.neighbor``, a linear scan of ``internal_deps``), in order, over
random grids, layouts, pipelines and patch assignments.  The caches hang
off the grid and graph instances, so dropping a controller frees them.
"""

import gc
import weakref

from hypothesis import given, settings, strategies as st

from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.costs import SunwayCostModel
from repro.core.grid import Grid
from repro.core.patch import FACES
from repro.core.taskgraph import TaskGraph

from tests.strategies import build_pipeline, grids, pipelines


def _slow_boundary_faces(grid, patch):
    return [(axis, side) for axis, side in FACES if grid.neighbor(patch, axis, side) is None]


def _slow_dependents(graph, dt):
    return [
        other
        for other in graph.local_tasks(dt.rank)
        if dt.dt_id in graph.internal_deps[other.dt_id]
    ]


@st.composite
def compiled_graphs(draw):
    """A random pipeline compiled on a random grid and patch assignment."""
    grid = draw(grids(max_per_axis=3))
    num_ranks = draw(st.integers(1, 4))
    owners = draw(
        st.lists(
            st.integers(0, num_ranks - 1),
            min_size=grid.num_patches,
            max_size=grid.num_patches,
        )
    )
    tasks, _init, _labels = build_pipeline(**draw(pipelines()))
    return TaskGraph(grid, tasks, dict(enumerate(owners)), num_ranks)


@settings(deadline=None, max_examples=60)
@given(grid=grids(max_per_axis=3))
def test_patch_table_matches_neighbor_recomputation(grid):
    costs = SunwayCostModel()
    tasks, _init, _labels = build_pipeline(2, [1], with_reduction=False)
    bc_task = tasks[0]  # ghosted stage: has an MPE part (the BC fill)
    assert bc_task.mpe_action is not None
    for patch in grid.patches():
        assert grid.patch(patch.index) is patch
        faces = _slow_boundary_faces(grid, patch)
        assert grid.boundary_faces(patch) == faces
        cells = sum(patch.ghost_region(axis, side).num_cells for axis, side in faces)
        assert grid.boundary_cells(patch) == cells
        # the MPE-part price is the same float as the per-step formula gave
        assert costs.mpe_part_time(bc_task, patch, grid) == cells * costs.sched.bc_s_per_cell
        for axis, side in FACES:
            nb = grid.neighbor(patch, axis, side)
            assert nb is None or nb is grid.patch(nb.index)


def test_patch_table_survives_caller_mutation():
    grid = Grid(extent=(8, 8, 8), layout=(2, 2, 2))
    first = grid.patches()
    snapshot = list(first)
    first.reverse()
    first.append(first[0])
    del first[:3]
    assert grid.patches() == snapshot
    assert all(a is b for a, b in zip(grid.patches(), snapshot))
    assert grid.patches() is not grid.patches()  # a fresh list each call
    faces = grid.boundary_faces(snapshot[0])
    faces.clear()
    assert grid.boundary_faces(snapshot[0]) == _slow_boundary_faces(grid, snapshot[0])


def test_region_geometry_is_cached_and_correct():
    grid = Grid(extent=(12, 8, 4), layout=(3, 2, 1))
    for patch in grid.patches():
        ex = tuple(h - lo for lo, h in zip(patch.low, patch.high))
        assert patch.extent == ex == patch.region.extent
        assert patch.num_cells == ex[0] * ex[1] * ex[2]
        assert patch.region.extent is patch.region.extent


@settings(deadline=None, max_examples=60)
@given(graph=compiled_graphs())
def test_dependents_index_matches_linear_scan(graph):
    for dt in graph.detailed_tasks:
        assert list(graph.dependents_of(dt)) == _slow_dependents(graph, dt)


@settings(deadline=None, max_examples=60)
@given(graph=compiled_graphs())
def test_step_plan_matches_per_step_derivation(graph):
    grid = graph.grid
    for rank in range(graph.num_ranks):
        plan = graph.step_plan(rank)
        assert graph.step_plan(rank) is plan
        local = graph.local_tasks(rank)
        assert plan.tasks == local
        slow_patches = [p for p in grid.patches() if graph.assignment[p.patch_id] == rank]
        assert list(plan.patches) == slow_patches
        assert list(plan.recvs) == [m for d in local for m in graph.recvs_for(d)]
        assert dict(plan.old_dw_consumers) == graph.old_dw_consumers(rank)
        for dt in local:
            slow_reads = []
            if dt.patch is not None:
                slow_reads = [
                    (dep.label.name, dt.patch.patch_id)
                    for dep in dt.task.requires
                    if dep.dw == "old" and not dep.label.is_reduction
                ]
            assert list(plan.old_reads.get(dt.dt_id, ())) == slow_reads


def _model_controller_refs():
    grid = Grid(extent=(16, 16, 32), layout=(2, 2, 2))
    prob = BurgersProblem(grid)
    ctl = SimulationController(
        grid, prob.tasks(), prob.init_tasks(), num_ranks=4, mode="async", real=False
    )
    ctl.run(nsteps=2, dt=1e-4)
    # the caches exist: patch table, plans, dependents index
    assert ctl.graph.step_plan(0) is ctl.schedulers[0].plan
    assert grid.patch((0, 0, 0)) is grid.patches()[0]
    return [weakref.ref(ctl.grid), weakref.ref(ctl.graph), weakref.ref(ctl.init_graph)]


def test_dropped_controller_frees_grid_and_graph():
    """No module-level cache keeps a cell's grid or graph alive."""
    refs = _model_controller_refs()
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
