"""Collection-layer tests: buckets and counters agree with the scheduler's
own stats for every scheduler, and attaching telemetry never perturbs the
simulated schedule."""

import dataclasses
import functools
import types

import pytest

from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.core.grid import Grid
from repro.core.schedulers.base import SchedulerStats
from repro.core.schedulers.lifecycle import COUNTER_TABLE
from repro.core.schedulers.unified import UnifiedHostScheduler
from repro.faults import FaultConfig, FaultInjector, ResiliencePolicy
from repro.telemetry import RunTelemetry
from repro.telemetry.ledger import _STEP_TOTAL_KEYS

from tests.telemetry.conftest import CGS, NSTEPS


def _counter(run, name):
    return run.telemetry.registry.counter(name).value


_FAULTS = FaultConfig(seed=3, dma_error_prob=0.3, kernel_stuck_prob=0.2)


def _unified(threads):
    return {"scheduler_factory": functools.partial(UnifiedHostScheduler, num_threads=threads)}


def _faulted():
    return {"faults": FaultInjector(_FAULTS), "resilience": ResiliencePolicy()}


#: Tiny real runs of every scheduler, as (mode, extra controller kwargs).
#: The fault plan of the faulted runs forces timeouts, retries and MPE
#: fallbacks.
TINY_RUNS = {
    "async": ("async", dict),
    "sync": ("sync", dict),
    "mpe_only": ("mpe_only", dict),
    "unified_t1": ("async", lambda: _unified(1)),
    "unified_t2": ("async", lambda: _unified(2)),
    "faulted_async": ("async", _faulted),
    "faulted_sync": ("sync", _faulted),
}


@pytest.fixture(scope="module", params=["instrumented", *TINY_RUNS])
def observed(request, bundle):
    """One observed run: the instrumented model-mode bundle or a tiny run."""
    if request.param == "instrumented":
        return bundle
    mode, extra = TINY_RUNS[request.param]
    kwargs = extra()
    tele = RunTelemetry()
    result = _tiny_run(tele, mode=mode, **kwargs)
    if "faults" in kwargs:
        stats = result.stats
        assert stats.mpe_fallbacks and stats.kernel_timeouts and stats.kernel_retries
    return types.SimpleNamespace(result=result, telemetry=tele)


def test_counters_agree_with_scheduler_stats(observed):
    stats = observed.result.stats
    assert stats.messages_sent > 0
    assert _counter(observed, "tasks.done") == stats.tasks_run
    assert _counter(observed, "kernels.offloaded") == stats.kernels_offloaded
    # an MPE fallback moves kernels_on_mpe but not kernels.mpe
    assert _counter(observed, "kernels.mpe") + _counter(
        observed, "resilience.mpe_fallbacks"
    ) == stats.kernels_on_mpe
    assert _counter(observed, "ghost.msgs.sent") == stats.messages_sent
    assert _counter(observed, "ghost.bytes.sent") == stats.bytes_sent
    assert _counter(observed, "ghost.msgs.recv") == stats.messages_received
    assert _counter(observed, "comm.local_copies") == stats.local_copies
    assert _counter(observed, "comm.reductions") == stats.reductions
    assert _counter(observed, "dw.scrubbed") == stats.scrubbed
    assert _counter(observed, "flops.counted") == stats.kernel_flops
    assert _counter(observed, "mpe.idle.seconds") == pytest.approx(
        sum(rs.idle_wait for rs in observed.result.rank_stats)
    )
    assert _counter(observed, "mpe.spin.seconds") == pytest.approx(stats.spin_wait)
    assert _counter(observed, "resilience.mpe_fallbacks") == stats.mpe_fallbacks
    assert _counter(observed, "resilience.kernel_retries") == stats.kernel_retries
    assert _counter(observed, "resilience.kernel_timeouts") == stats.kernel_timeouts
    assert _counter(observed, "resilience.stragglers") == stats.stragglers_detected


def test_wire_counters_agree_with_fabric(bundle):
    assert _counter(bundle, "net.messages") == bundle.result.messages_sent
    assert _counter(bundle, "net.bytes") == bundle.result.bytes_sent


def test_step_buckets_partition_run_totals(observed):
    """Per-(rank, step) buckets must sum to the whole-run counters.

    Nothing may leak into a step-0 bucket: the controller instruments
    the timestep schedulers only, so every event lands in steps 1..N.
    """
    tele, stats = observed.telemetry, observed.result.stats
    assert not any(s == 0 for (_r, s) in tele.step_buckets)
    for key, total in (
        ("tasks_done", stats.tasks_run),
        ("msgs_sent", stats.messages_sent),
        ("bytes_sent", stats.bytes_sent),
        ("msgs_recv", stats.messages_received),
        ("kernels_offloaded", stats.kernels_offloaded),
        ("kernels_mpe", stats.kernels_on_mpe - stats.mpe_fallbacks),
        ("flops", stats.kernel_flops),
        ("kernel_timeouts", stats.kernel_timeouts),
        ("kernel_retries", stats.kernel_retries),
        ("mpe_fallbacks", stats.mpe_fallbacks),
        ("stragglers", stats.stragglers_detected),
    ):
        folded = sum(tele.step_totals(s).get(key, 0) for s in range(1, NSTEPS + 1))
        assert folded == total, key


def test_counter_table_covers_every_stat_and_step_total():
    """Each stats field and ledger step total is fed by a table row.

    The three stats fields below are counted outside the lifecycle bus:
    the fabric's retransmissions and the recovery runner's restarts.
    ``dma_bytes`` comes from the kernel-launch hook.
    """
    fed_elsewhere = ("mpi_retries", "rank_recoveries", "steps_replayed")
    rows = [row for rows in COUNTER_TABLE.values() for row in rows]
    stat_fields = {row[0] for row in rows} - {None}
    buckets = {row[2] for row in rows} - {None}
    all_fields = {f.name for f in dataclasses.fields(SchedulerStats)}
    assert stat_fields <= all_fields
    assert all_fields - stat_fields == set(fed_elsewhere)
    assert set(_STEP_TOTAL_KEYS) - buckets == {"dma_bytes"}


def test_dma_volume_counters(bundle):
    """DMA traffic: every offloaded kernel moves its tile plan's bytes."""
    get_b = _counter(bundle, "dma.get.bytes")
    put_b = _counter(bundle, "dma.put.bytes")
    assert get_b > 0 and put_b > 0
    # ghosted reads always exceed interior writes for a stencil kernel
    assert get_b > put_b
    assert _counter(bundle, "dma.descriptors") > 0
    # per-step attribution folds to the same total
    folded = sum(
        bundle.telemetry.step_totals(s).get("dma_bytes", 0)
        for s in range(1, NSTEPS + 1)
    )
    assert folded == get_b + put_b


def test_queue_depth_histograms_sampled(bundle):
    reg = bundle.telemetry.registry
    for name in ("sched.ready_depth", "cpe.inflight", "comm.workq_depth"):
        h = reg.histogram(name)
        assert h.count > 0, name
    # one loop-iteration sample per histogram, same loop
    assert reg.histogram("sched.ready_depth").count == reg.histogram("cpe.inflight").count


def test_kernel_duration_histograms(bundle):
    reg = bundle.telemetry.registry
    h = reg.histogram("kernel.seconds")
    assert h.count == bundle.result.stats.kernels_offloaded
    # per-task-kind breakdown exists and folds back to the total
    per_task = reg.histogram("kernel.seconds.timeAdvance")
    assert per_task.count == h.count
    assert per_task.total == pytest.approx(h.total)


def test_resilience_counters_zero_in_fault_free_run(bundle):
    reg = bundle.telemetry.registry.snapshot()
    for name in (
        "resilience.kernel_timeouts",
        "resilience.kernel_retries",
        "resilience.mpe_fallbacks",
        "resilience.stragglers",
        "net.retransmits",
    ):
        assert reg.get(name, {"value": 0})["value"] == 0, name


def _tiny_run(telemetry=None, mode="async", **kwargs):
    grid = Grid(extent=(8, 8, 16), layout=(2, 2, 1))
    problem = BurgersProblem(grid)
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode=mode,
        real=True,
        telemetry=telemetry,
        **kwargs,
    )
    return controller.run(nsteps=3, dt=problem.stable_dt())


def test_telemetry_never_perturbs_the_schedule():
    """The golden-equivalence guarantee: observing changes nothing."""
    import numpy as np

    plain = _tiny_run()
    tele = RunTelemetry()
    observed = _tiny_run(telemetry=tele)
    assert observed.total_time == plain.total_time  # bit-identical, no approx
    assert observed.step_times == plain.step_times
    assert observed.rank_step_ends == plain.rank_step_ends
    for dw_a, dw_b in zip(plain.final_dws, observed.final_dws):
        for va, vb in zip(dw_a.grid_variables(), dw_b.grid_variables()):
            assert np.array_equal(va.interior, vb.interior)
    # and the observer did actually observe
    assert tele.registry.counter("tasks.done").value == observed.stats.tasks_run


def test_telemetry_reaches_timestep_schedulers_only():
    grid = Grid(extent=(8, 8, 16), layout=(2, 2, 1))
    problem = BurgersProblem(grid)
    tele = RunTelemetry()
    controller = SimulationController(
        grid,
        problem.tasks(),
        problem.init_tasks(),
        num_ranks=2,
        mode="async",
        real=True,
        telemetry=tele,
    )
    assert all(s.telemetry is tele for s in controller.schedulers)
    assert all(s.telemetry is None for s in controller.init_schedulers)
