"""Shared scheduler plumbing: stats, errors, readiness, step context.

:class:`SchedulerCore` is the common trunk of both scheduler families
(:class:`~repro.core.schedulers.scheduler.SunwayScheduler` and
:class:`~repro.core.schedulers.unified.UnifiedHostScheduler`): it owns
the construction-time wiring — cost model, noise stream, selection
policy, fault/resilience hooks, and the task-lifecycle event bus with
its stats/trace/retry subscribers.  Concrete schedulers add a backend
and the per-timestep orchestration; see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.core.schedulers.lifecycle import (
    RetryGovernor,
    StatsSubscriber,
    TaskLifecycle,
    TaskState,
    TraceSubscriber,
)
from repro.core.schedulers.selection import make_policy
from repro.core.task import TaskContext
from repro.core.trace import Tracer


class DeadlockError(RuntimeError):
    """The scheduler ran out of runnable work with tasks still pending.

    Indicates a task-graph bug (missing producer, wrong assignment) — the
    runtime refuses to hang silently.
    """


@dataclasses.dataclass
class SchedulerStats:
    """Counters accumulated by one rank's scheduler across a run."""

    tasks_run: int = 0
    kernels_offloaded: int = 0
    kernels_on_mpe: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    local_copies: int = 0
    reductions: int = 0
    #: Simulated seconds the MPE spent blocked with nothing runnable.
    idle_wait: float = 0.0
    #: Simulated seconds the sync mode spent spinning on the flag.
    spin_wait: float = 0.0
    #: Old-DW variables scrubbed after their last consumer (memory reclaim).
    scrubbed: int = 0
    #: Counted kernel flops (perf-counter convention).
    kernel_flops: int = 0
    # -- resilience counters (all zero in a fault-free run) ---------------
    #: Offloaded kernels the completion-timeout watchdog gave up on.
    kernel_timeouts: int = 0
    #: Kernel re-offloads after a timeout or DMA error.
    kernel_retries: int = 0
    #: Kernels executed on the MPE after exhausting re-offload attempts.
    mpe_fallbacks: int = 0
    #: Retransmissions of dropped MPI messages (attributed to the sender).
    mpi_retries: int = 0
    #: Completed kernels slower than the policy's straggler threshold.
    stragglers_detected: int = 0
    #: Whole-rank failures recovered from a checkpoint (recovery runner).
    rank_recoveries: int = 0
    #: Timesteps re-executed because a failure discarded them.
    steps_replayed: int = 0

    def merge(self, other: "SchedulerStats") -> None:
        """Fold another rank's counters into this one."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))


#: Queue key of ready entries without a ``.task`` (test stubs).
_NO_KIND = object()


class ReadinessTracker:
    """Blocker counting and ready queues for one timestep's local tasks.

    A task becomes ready when its internal producers have completed,
    every incoming message has been unpacked, and every intra-rank ghost
    copy feeding it has been performed.  ``on_ready`` (optional) fires
    once per task the moment it enters the ready queue — the lifecycle
    layer uses it for the PENDING → READY transition.

    Ready tasks wait in one queue per :class:`~repro.core.task.TaskKind`,
    so a pop for one kind never looks at another kind's tasks.  Each entry
    carries its arrival number; a pop without ``kind`` sees all queues
    merged in arrival order, as one ready list.  ``len(tracker)`` is the
    number of ready tasks.
    """

    def __init__(self, local_tasks, graph, on_ready=None):
        self.blockers: dict[int, int] = {}
        self._tasks: dict[int, object] = {}
        self._queues: dict[object, list] = {}
        #: dt_id -> queue key (the task's kind).
        self._kind_of: dict[int, object] = {}
        #: dt_id -> arrival number of its current queue entry.
        self._order: dict[int, int] = {}
        self._arrivals = 0
        self._retries = 0
        self._on_ready = on_ready
        for dt in local_tasks:
            kind = getattr(getattr(dt, "task", None), "kind", _NO_KIND)
            self._tasks[dt.dt_id] = dt
            self._kind_of[dt.dt_id] = kind
            if kind not in self._queues:
                self._queues[kind] = []
            n = len(graph.internal_deps[dt.dt_id])
            n += len(graph.recvs_for(dt))
            n += len(graph.copies_for(dt))
            self.blockers[dt.dt_id] = n
            if n == 0:
                self._enqueue(dt)

    def _enqueue(self, dt) -> None:
        self._order[dt.dt_id] = self._arrivals
        self._arrivals += 1
        self._queues[self._kind_of[dt.dt_id]].append(dt)
        if self._on_ready is not None:
            self._on_ready(dt)

    def release(self, dt_id: int) -> None:
        """One blocker of ``dt_id`` resolved; enqueue when count hits zero."""
        if dt_id not in self.blockers:
            return  # consumer lives on another rank
        self.blockers[dt_id] -= 1
        if self.blockers[dt_id] == 0:
            self._enqueue(self._tasks[dt_id])
        elif self.blockers[dt_id] < 0:
            raise RuntimeError(f"blocker count of task {dt_id} went negative")

    def requeue_front(self, dt) -> None:
        """Put a retried task back ahead of every queued task."""
        # front entries count down from -1, so the latest is the oldest
        self._retries += 1
        self._order[dt.dt_id] = -self._retries
        self._queues[self._kind_of[dt.dt_id]].insert(0, dt)

    def __len__(self) -> int:
        return sum(map(len, self._queues.values()))

    @property
    def any_ready(self) -> bool:
        """Whether any task is currently runnable."""
        return any(self._queues.values())

    def has_ready(self, kind) -> bool:
        """Whether a task of ``kind`` is currently runnable."""
        return bool(self._queues.get(kind))

    def _queue(self, kind):
        """Ready tasks of ``kind`` (all kinds if None), in queue order."""
        if kind is not None:
            return self._queues.get(kind, ())
        live = [q for q in self._queues.values() if q]
        if len(live) <= 1:
            return live[0] if live else ()
        order = self._order
        return sorted(itertools.chain(*live), key=lambda d: order[d.dt_id])

    def peek_ready(self, kind, predicate=None) -> object | None:
        """The first ready task of ``kind`` matching ``predicate``, left queued."""
        for dt in self._queue(kind):
            if predicate is None or predicate(dt):
                return dt
        return None

    def pop_ready(self, predicate=None, key=None, kind=None) -> object | None:
        """Remove and return a ready task.

        ``kind`` restricts the pop to that kind's queue; without it every
        ready task is a candidate, in arrival order.  ``predicate``
        (optional) filters the candidates.  ``key`` (optional) selects
        among them: the highest-scoring one is taken (ties keep queue
        order).  Without it, FIFO.
        """
        queue = self._queue(kind)
        if predicate is not None:
            queue = [d for d in queue if predicate(d)]
        if not queue:
            return None
        dt = queue[0] if key is None else max(queue, key=key)
        self._remove(dt)
        return dt

    def _remove(self, dt) -> None:
        queue = self._queues[self._kind_of[dt.dt_id]]
        for i, queued in enumerate(queue):
            if queued is dt:
                del queue[i]
                return


@dataclasses.dataclass
class StepContext:
    """Everything one timestep's engines share: DWs, tags, readiness.

    Built afresh by ``execute_timestep`` and handed to the comm/offload
    engines and the backend, so no per-step state leaks onto the
    scheduler object itself.
    """

    step: int
    time: float
    dt_value: float
    old_dw: object | None
    new_dw: object
    bootstrap: bool
    tracker: ReadinessTracker
    remaining: set
    tag_base: int
    next_tag_base: int
    #: dt_ids whose MPE part already ran (prefetch dedup).
    prepared: set = dataclasses.field(default_factory=set)

    def dw_for(self, which: str):
        if which == "old":
            if self.old_dw is None:
                raise RuntimeError("graph requires old-DW data but there is no old DW")
            return self.old_dw
        return self.new_dw


class SchedulerCore:
    """Construction-time wiring shared by every scheduler implementation."""

    def __init__(
        self,
        sim,
        rank: int,
        graph,
        comm,
        athread,
        cost_model,
        mode: str = "async",
        real: bool = True,
        trace: Tracer | None = None,
        interference_scalar: float = 0.04,
        interference_simd: float = 0.50,
        scrub: bool = True,
        select_policy: str = "fifo",
        noise=None,
        faults=None,
        resilience=None,
        telemetry=None,
        validator=None,
    ):
        self.sim = sim
        self.rank = rank
        self.graph = graph
        self.comm = comm
        self.athread = athread
        self.costs = cost_model
        self.mode = mode
        self.real = real
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self.stats = SchedulerStats()
        self.interference = (
            interference_simd if getattr(cost_model, "simd", False) else interference_scalar
        )
        #: This rank's static share of the graph, compiled once per graph.
        self.plan = graph.step_plan(rank)
        #: Seconds of each local task's MPE part (step 3(b)iii), priced once.
        self.mpe_part_cost = {
            dt.dt_id: cost_model.mpe_part_time(dt.task, dt.patch, graph.grid)
            for dt in self.plan.tasks
        }
        #: Cross-step sends still in flight from previous timesteps.
        self._carryover_sends: list = []
        #: Fault injector and resilience policy (both optional; the
        #: fault-free fast path must stay byte-identical to the seed).
        self.faults = faults
        self.policy = resilience
        #: Scrub old-DW variables once their last consumer has read them.
        self.scrub = scrub
        #: Machine-noise stream (paper Sec. VII-A instabilities); quiet
        #: by default.
        from repro.core.noise import NO_NOISE

        self._noise = (noise if noise is not None else NO_NOISE).for_rank(rank)
        #: Ready-queue ordering strategy for step 3(b)ii "select a ready
        #: offloadable task" — see :mod:`repro.core.schedulers.selection`.
        self.select = make_policy(select_policy, graph, rank)
        self.select_policy = select_policy
        #: The task-lifecycle event bus; stats, tracing and the retry
        #: governor observe the run through it (never hand-threaded).
        #: Inert observers are not subscribed at all — a disabled tracer
        #: or absent resilience policy must not tax every event.
        self.lifecycle = TaskLifecycle(clock=sim)
        self.retry_governor = RetryGovernor(resilience)
        self.lifecycle.subscribe(StatsSubscriber(self.stats))
        if self.trace.enabled:
            self.lifecycle.subscribe(TraceSubscriber(self.trace, rank))
        if resilience is not None:
            self.lifecycle.subscribe(self.retry_governor)
        #: Observability sink (:class:`repro.telemetry.collect.RunTelemetry`);
        #: like the other observers it is only subscribed when present, so
        #: the default run pays nothing for it.
        self.telemetry = telemetry
        if telemetry is not None:
            self.lifecycle.subscribe(telemetry.subscriber_for(rank))
        #: Online schedule validator (:class:`repro.verify.ScheduleValidator`);
        #: a pure observer of the lifecycle bus — off by default and, when
        #: on, provably non-perturbing (it charges no simulated time).
        self.validator = validator
        if validator is not None:
            self.lifecycle.subscribe(validator.subscriber_for(rank, graph, cost_model))

    def _mark_ready(self, dt) -> None:
        """ReadinessTracker ``on_ready`` hook: PENDING → READY."""
        self.lifecycle.transition(dt, TaskState.READY)

    def _begin_step(
        self, step: int, time: float, dt_value: float, old_dw, new_dw, bootstrap: bool
    ) -> StepContext:
        """Fault hook, lifecycle reset, and a fresh :class:`StepContext`."""
        graph, rank = self.graph, self.rank
        if self.faults is not None:
            # Whole-rank failure strikes at timestep boundaries; the
            # raised RankFailure propagates through the driver process
            # and aborts Simulator.run for checkpoint recovery.
            self.faults.on_step_begin(rank, step)
        local = self.plan.tasks
        self.lifecycle.begin_step(local, step=step)
        return StepContext(
            step=step,
            time=time,
            dt_value=dt_value,
            old_dw=old_dw,
            new_dw=new_dw,
            bootstrap=bootstrap,
            tracker=ReadinessTracker(local, graph, on_ready=self._mark_ready),
            remaining={d.dt_id for d in local},
            tag_base=step * graph.num_tags,
            next_tag_base=(step + 1) * graph.num_tags,
        )

    def finish_task(self, st: StepContext, comm, dt) -> None:
        """Retire a completed task: queue its sends/copies on ``comm``, release dependents."""
        self.lifecycle.retire(dt)
        st.remaining.discard(dt.dt_id)
        comm.flush_stash(dt)
        graph = self.graph
        for spec in graph.sends_after(dt):
            comm.queue_send(spec)
        for spec in graph.copies_after(dt):
            comm.queue_copy(spec)
        for dep in graph.dependents_of(dt):
            st.tracker.release(dep.dt_id)
        for label_name, pid in self.plan.old_reads.get(dt.dt_id, ()):
            comm.consume_old(label_name, pid)

    def _ctx(self, patch, st: StepContext) -> TaskContext:
        return TaskContext(
            grid=self.graph.grid,
            patch=patch,
            old_dw=st.old_dw,
            new_dw=st.new_dw,
            time=st.time,
            dt=st.dt_value,
            step=st.step,
            params=getattr(self, "params", {}),
        )
