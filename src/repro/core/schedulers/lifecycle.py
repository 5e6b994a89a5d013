"""Task-lifecycle state machine and event layer.

Every scheduler drives its tasks through one explicit state machine::

    pending -> ready -> dispatched -> running -> retiring -> done
                  ^                      |
                  |                      v
                  +------ retry ------ failed ---- fallback --> running

and announces each move as a :class:`LifecycleEvent`.  Cross-cutting
concerns *subscribe* to the stream instead of being hand-threaded
through the scheduling loop:

* :class:`StatsSubscriber` folds events into
  :class:`~repro.core.schedulers.base.SchedulerStats` counters;
* :class:`TraceSubscriber` forwards span-carrying events to the
  :class:`~repro.core.trace.Tracer`;
* :class:`RetryGovernor` — the ``repro.faults`` resilience hook — counts
  ``FAILED`` transitions per task and answers whether the policy allows
  another re-offload or demands the MPE fallback.

Besides transitions, schedulers emit *named* events (``msg-sent``,
``local-copy``, ``scrubbed``, ``idle`` …) for work that is real but not
a task state change.  The mapping from events to counters lives in one
place, ``COUNTER_TABLE``; the stats and telemetry subscribers both fold
through it.  See ``docs/ARCHITECTURE.md`` for the layer
diagram.
"""

from __future__ import annotations

import enum
import typing as _t


class TaskState(enum.Enum):
    """Where one detailed task is in its per-timestep life."""

    PENDING = "pending"
    READY = "ready"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    RETIRING = "retiring"
    DONE = "done"
    FAILED = "failed"

    # Members are singletons, so hash by identity in C (as ``TaskKind``
    # does): every transition looks its states up in ``_ALLOWED``.
    __hash__ = object.__hash__


#: Legal moves.  FAILED -> READY is a re-offload retry; FAILED -> RUNNING
#: is the sync-mode in-place respawn or the MPE fallback execution.
_ALLOWED: dict[TaskState, frozenset[TaskState]] = {
    TaskState.PENDING: frozenset({TaskState.READY}),
    TaskState.READY: frozenset({TaskState.DISPATCHED}),
    TaskState.DISPATCHED: frozenset({TaskState.RUNNING}),
    TaskState.RUNNING: frozenset({TaskState.RETIRING, TaskState.FAILED}),
    TaskState.RETIRING: frozenset({TaskState.DONE}),
    TaskState.FAILED: frozenset({TaskState.READY, TaskState.RUNNING}),
    TaskState.DONE: frozenset(),
}


class IllegalTransition(RuntimeError):
    """A scheduler tried a move the state machine forbids (runtime bug)."""


class LifecycleEvent:
    """One announcement: a state transition or a named runtime event.

    ``info`` carries free-form details; two keys have layer-wide meaning:
    ``span=(lane, name, t0, t1)`` asks the trace subscriber to record a
    busy interval, and counter-specific keys (``nbytes``, ``seconds``,
    ``n``, ``retry``, ``cause``, ``backend``) drive the stats mapping.
    """

    __slots__ = ("kind", "dt", "state", "t", "info")

    def __init__(self, kind, dt, state, t, info):
        self.kind = kind
        self.dt = dt
        self.state = state
        self.t = t
        self.info = info

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        what = self.state.name if self.state is not None else self.kind
        who = self.dt.name if self.dt is not None else "-"
        return f"<LifecycleEvent {what} {who} t={self.t:.6g}>"


class _ZeroClock:
    """Stand-in clock for lifecycles detached from a simulator."""

    now = 0.0


class TaskLifecycle:
    """Per-scheduler state machine; reset at every timestep boundary.

    ``clock`` is anything with a ``.now`` attribute (normally the DES
    simulator).  The subscriber loop is inlined into :meth:`transition`
    and :meth:`emit` — this sits inside the hottest scheduler path, and
    every event fires tens of thousands of times per run.
    """

    def __init__(self, clock=None):
        self._clock = clock if clock is not None else _ZeroClock
        self._subs: list[_t.Callable[[LifecycleEvent], None]] = []
        self._state: dict[int, TaskState] = {}

    def subscribe(self, fn: _t.Callable[[LifecycleEvent], None]) -> None:
        """Register an observer called synchronously on every event."""
        self._subs.append(fn)

    def begin_step(self, tasks, step: int = 0) -> None:
        """Register this timestep's tasks (all PENDING) and announce it.

        The event's ``info`` carries the task list and the step number so
        observers that mirror the state machine (the schedule validator)
        know the step's population without threading it separately.
        """
        tasks = list(tasks)
        self._state = {dt.dt_id: TaskState.PENDING for dt in tasks}
        ev = LifecycleEvent(
            "step-begin", None, None, self._clock.now, {"tasks": tasks, "step": step}
        )
        for fn in self._subs:
            fn(ev)

    def state_of(self, dt) -> TaskState | None:
        """Current state of one task (None when not registered)."""
        return self._state.get(dt.dt_id)

    def transition(self, dt, state: TaskState, **info) -> None:
        """Move ``dt`` to ``state``, validating legality, and announce."""
        cur = self._state.get(dt.dt_id)
        if cur is None:
            raise IllegalTransition(f"task {dt.dt_id} is not part of this timestep")
        if state not in _ALLOWED[cur]:
            raise IllegalTransition(f"{dt.name}: illegal transition {cur.name} -> {state.name}")
        self._state[dt.dt_id] = state
        ev = LifecycleEvent("transition", dt, state, self._clock.now, info)
        for fn in self._subs:
            fn(ev)

    def retire(self, dt, **info) -> None:
        """Finish a task: RETIRING (unless already there) then DONE."""
        if self._state.get(dt.dt_id) is not TaskState.RETIRING:
            self.transition(dt, TaskState.RETIRING)
        self.transition(dt, TaskState.DONE, **info)

    def emit(self, kind: str, dt=None, **info) -> None:
        """Announce a named (non-transition) runtime event."""
        ev = LifecycleEvent(kind, dt, None, self._clock.now, info)
        for fn in self._subs:
            fn(ev)


#: One counter an event moves, as ``(SchedulerStats field, registry
#: metric, ledger bucket key, info key)``: the info key's value is added,
#: or 1 when it is None, and a None sink is left alone.
_RETRY = ("kernel_retries", "resilience.kernel_retries", "kernel_retries", None)
_TIMEOUT = ("kernel_timeouts", "resilience.kernel_timeouts", "kernel_timeouts", None)

#: The one event -> counter mapping: a named event's kind, or a transition
#: class ``(state, qualifier)`` (see :func:`counter_rows`), to the rows it
#: moves.  An ``mpe_fallback`` run moves ``kernels_on_mpe`` in the stats
#: but not ``kernels.mpe``, which counts planned MPE kernels only.  The
#: stats fields ``mpi_retries``, ``rank_recoveries`` and ``steps_replayed``
#: are fed by the fabric and the recovery runner, not by the bus.
COUNTER_TABLE: dict[object, tuple[tuple, ...]] = {
    "msg-sent": (
        ("messages_sent", "ghost.msgs.sent", "msgs_sent", None),
        ("bytes_sent", "ghost.bytes.sent", "bytes_sent", "nbytes"),
    ),
    "msg-recv": (
        ("messages_received", "ghost.msgs.recv", "msgs_recv", None),
        (None, "ghost.bytes.recv", None, "nbytes"),
    ),
    "local-copy": (("local_copies", "comm.local_copies", "local_copies", None),),
    "reduction": (("reductions", "comm.reductions", "reductions", None),),
    "scrubbed": (("scrubbed", "dw.scrubbed", "scrubbed", None),),
    "flops": (("kernel_flops", "flops.counted", "flops", "n"),),
    "idle": (("idle_wait", "mpe.idle.seconds", "idle_seconds", "seconds"),),
    "spin": (("spin_wait", "mpe.spin.seconds", "spin_seconds", "seconds"),),
    "straggler": (("stragglers_detected", "resilience.stragglers", "stragglers", None),),
    "kernel-timeout": (_TIMEOUT,),
    "kernel-retry": (_RETRY,),
    (TaskState.DONE, None): (("tasks_run", "tasks.done", "tasks_done", None),),
    (TaskState.RUNNING, "cpe"): (
        ("kernels_offloaded", "kernels.offloaded", "kernels_offloaded", None),
    ),
    (TaskState.RUNNING, "cpe+retry"): (_RETRY,),
    (TaskState.RUNNING, "mpe"): (("kernels_on_mpe", "kernels.mpe", "kernels_mpe", None),),
    (TaskState.RUNNING, "mpe_fallback"): (
        ("mpe_fallbacks", "resilience.mpe_fallbacks", "mpe_fallbacks", None),
        ("kernels_on_mpe", None, None, None),
    ),
    (TaskState.READY, "retry"): (_RETRY,),
    (TaskState.FAILED, "timeout"): (_TIMEOUT,),
}


def counter_rows(ev: LifecycleEvent) -> tuple[tuple, ...]:
    """The ``COUNTER_TABLE`` rows one event moves (empty when none).

    A named event is looked up by its kind.  A transition is classed as
    ``(state, qualifier)``: RUNNING by its ``backend`` (``cpe+retry`` for
    a respawn), READY by ``retry``, FAILED by its ``cause``.
    """
    kind = ev.kind
    if kind != "transition":
        return COUNTER_TABLE.get(kind, ())
    state, info = ev.state, ev.info
    if state is TaskState.RUNNING:
        qual = info.get("backend")
        if qual == "cpe" and info.get("retry"):
            qual = "cpe+retry"
    elif state is TaskState.READY:
        qual = "retry" if info.get("retry") else None
    elif state is TaskState.FAILED:
        qual = info.get("cause")
    else:
        qual = None
    return COUNTER_TABLE.get((state, qual), ())


class StatsSubscriber:
    """Folds lifecycle events into ``SchedulerStats`` through ``COUNTER_TABLE``.

    Schedulers and engines never touch the stats object.
    """

    def __init__(self, stats):
        self.stats = stats

    def __call__(self, ev: LifecycleEvent) -> None:
        s = self.stats
        for field, _metric, _bucket, key in counter_rows(ev):
            if field is not None:
                setattr(s, field, getattr(s, field) + (1 if key is None else ev.info[key]))


class TraceSubscriber:
    """Records every span-carrying event on the execution tracer."""

    def __init__(self, trace, rank: int):
        self.trace = trace
        self.rank = rank

    def __call__(self, ev: LifecycleEvent) -> None:
        span = ev.info.get("span")
        if span is not None:
            lane, name, t0, t1 = span
            self.trace.record(self.rank, lane, name, t0, t1)


class RetryGovernor:
    """Resilience-policy arbiter fed by FAILED transitions.

    Subscribes to the lifecycle stream, counts how often each task has
    failed this timestep (timeouts and DMA errors alike), and decides —
    per :class:`~repro.faults.policies.ResiliencePolicy` — whether the
    offload engine may retry or must fall back to the MPE.
    """

    def __init__(self, policy):
        self.policy = policy
        self.failures: dict[int, int] = {}

    def __call__(self, ev: LifecycleEvent) -> None:
        if ev.kind == "step-begin":
            self.failures.clear()
        elif ev.kind == "transition" and ev.state is TaskState.FAILED:
            self.failures[ev.dt.dt_id] = self.failures.get(ev.dt.dt_id, 0) + 1

    def should_retry(self, dt) -> bool:
        """Whether the policy grants this task another offload attempt."""
        return (
            self.policy is not None
            and self.failures.get(dt.dt_id, 0) <= self.policy.max_offload_retries
        )
