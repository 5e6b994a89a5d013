"""Per-kind ready queues pop exactly what the single ready list popped.

:class:`~repro.core.schedulers.base.ReadinessTracker` keeps one queue per
task kind.  The reference below is the single-list tracker it replaced,
kept verbatim in spirit: a kind pop was a predicate scan over the whole
list, a retry was ``ready.insert(0, dt)`` and the unified scheduler took
``ready.pop(0)``.  Random release / pop / requeue / peek sequences must
return the same task at every step, in both FIFO and keyed selection.
"""

from hypothesis import given, settings, strategies as st

from repro.core.schedulers.base import ReadinessTracker
from repro.core.task import DetailedTask, Task, TaskKind
from repro.sunway.corerates import KernelCost

KINDS = tuple(TaskKind)


def _task(kind: TaskKind) -> Task:
    if kind is TaskKind.CPE_KERNEL:
        return Task("k", kind=kind, kernel_cost=KernelCost(stencil_flops=1, exp_calls=0))
    if kind is TaskKind.REDUCTION:
        return Task("r", kind=kind, reduction_op=max)
    return Task("m", kind=kind)


class _Graph:
    """Only the blocker sources the tracker reads."""

    def __init__(self, blockers):
        self.internal_deps = {i: set(range(-n, 0)) for i, n in enumerate(blockers)}

    def recvs_for(self, dt):
        return ()

    def copies_for(self, dt):
        return ()


class _ListTracker:
    """The former single-list tracker (the reference)."""

    def __init__(self, local_tasks, graph, on_ready):
        self.blockers = {}
        self.ready = []
        self._tasks = {dt.dt_id: dt for dt in local_tasks}
        self._on_ready = on_ready
        for dt in local_tasks:
            n = len(graph.internal_deps[dt.dt_id])
            self.blockers[dt.dt_id] = n
            if n == 0:
                self.ready.append(dt)
                on_ready(dt)

    def release(self, dt_id):
        self.blockers[dt_id] -= 1
        if self.blockers[dt_id] == 0:
            self.ready.append(self._tasks[dt_id])
            self._on_ready(self._tasks[dt_id])

    def pop_ready(self, predicate, key=None):
        ready = self.ready
        if key is None:
            for i, dt in enumerate(ready):
                if predicate(dt):
                    ready.pop(i)
                    return dt
            return None
        matches = [(i, dt) for i, dt in enumerate(ready) if predicate(dt)]
        if not matches:
            return None
        i, dt = max(matches, key=lambda pair: key(pair[1]))
        ready.pop(i)
        return dt


OPS = st.one_of(
    st.tuples(st.just("release"), st.integers(0, 11)),
    st.tuples(st.just("pop"), st.sampled_from(KINDS), st.booleans()),
    st.tuples(st.just("pop_any"), st.just(None)),
    st.tuples(st.just("pop_even"), st.booleans()),
    st.tuples(st.just("requeue"), st.just(None)),
    st.tuples(st.just("peek"), st.sampled_from(KINDS)),
)


@settings(deadline=None, max_examples=300)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    blockers=st.lists(st.integers(0, 2), min_size=12, max_size=12),
    scores=st.lists(st.integers(0, 2), min_size=12, max_size=12),
    ops=st.lists(OPS, max_size=60),
)
def test_per_kind_queues_match_single_list(kinds, blockers, scores, ops):
    tasks = [DetailedTask(i, _task(kind), None, 0) for i, kind in enumerate(kinds)]
    blockers = blockers[: len(tasks)]
    new_seen, ref_seen = [], []
    new = ReadinessTracker(tasks, _Graph(blockers), on_ready=new_seen.append)
    ref = _ListTracker(tasks, _Graph(blockers), on_ready=ref_seen.append)

    def key(d):
        return scores[d.dt_id]  # scores in 0..2: plenty of ties

    popped = []  # tasks out of the queue that a retry may put back
    for op, arg, *rest in ops:
        want = None
        if op == "release":
            if arg < len(tasks) and ref.blockers[arg] > 0:
                ref.release(arg)
                new.release(arg)
        elif op == "pop":
            keyed = key if rest[0] else None
            want = ref.pop_ready(lambda d: d.task.kind is arg, key=keyed)
            got = new.pop_ready(kind=arg, key=keyed) if new.has_ready(arg) else None
            assert got is want
        elif op == "pop_any":
            want = ref.ready.pop(0) if ref.ready else None
            assert new.pop_ready() is want
        elif op == "pop_even":
            keyed = key if arg else None
            want = ref.pop_ready(lambda d: d.dt_id % 2 == 0, key=keyed)
            assert new.pop_ready(lambda d: d.dt_id % 2 == 0, key=keyed) is want
        elif op == "requeue":
            if popped:
                dt = popped.pop()
                ref.ready.insert(0, dt)
                new.requeue_front(dt)
        elif op == "peek":
            assert new.peek_ready(arg) is next((d for d in ref.ready if d.task.kind is arg), None)
        if want is not None:
            popped.append(want)
        assert len(new) == len(ref.ready)
        assert new.any_ready == bool(ref.ready)
        for kind in KINDS:
            assert new.has_ready(kind) == any(d.task.kind is kind for d in ref.ready)
    assert new_seen == ref_seen
    # drain in arrival order: the queues hold the same tasks in the same order
    assert [new.pop_ready() for _ in range(len(new))] == ref.ready
