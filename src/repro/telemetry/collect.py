"""One run's telemetry collection: registry + per-(rank, step) buckets.

:class:`RunTelemetry` is the object a run carries when observability is
on.  It owns the :class:`~repro.telemetry.metrics.MetricsRegistry` and
the per-``(rank, step)`` counter buckets the ledger is built from, and
exposes the *explicit hook* methods the engines call directly for data
the lifecycle bus does not carry (queue depths, kernel durations, DMA
volume, fabric traffic).  Every hook is a no-op-by-absence: callers hold
``telemetry = None`` by default and guard with one ``is not None`` test,
so a run without telemetry executes the pre-telemetry code path exactly.

:class:`TelemetrySubscriber` is the lifecycle-bus side: one per rank,
subscribed by :class:`~repro.core.schedulers.base.SchedulerCore` next to
the stats/trace subscribers.  It folds the same event -> counter rows as
the stats subscriber, so every scheduler that emits an event reports its
counters alike.  It attributes every event to the emitting rank's
*current timestep* (counted from ``step-begin`` events), which is
what makes per-timestep accounting possible without threading step
numbers through every engine.

None of this may ever charge simulated time: telemetry observes the DES,
it must not perturb it.  The schedule with telemetry attached is
bit-identical to the schedule without (pinned by the telemetry tests).
"""

from __future__ import annotations

import collections

from repro.core.schedulers.lifecycle import LifecycleEvent, counter_rows
from repro.telemetry.metrics import MetricsRegistry


class RunTelemetry:
    """Everything one instrumented run collects."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: Per-(rank, step) counter buckets; step 0 is initialization
        #: spillover (schedulers emit before their first step-begin only
        #: if instrumented during init, which the controller avoids).
        self.step_buckets: dict[tuple[int, int], collections.Counter] = {}
        self._cur_step: dict[int, int] = {}

    # ------------------------------------------------------------ wiring
    def subscriber_for(self, rank: int) -> "TelemetrySubscriber":
        """The lifecycle-bus observer for one rank's scheduler."""
        return TelemetrySubscriber(self, rank)

    def begin_step(self, rank: int) -> None:
        self._cur_step[rank] = self._cur_step.get(rank, 0) + 1

    def current_step(self, rank: int) -> int:
        return self._cur_step.get(rank, 0)

    def bump(self, rank: int, key: str, n=1) -> None:
        """Add ``n`` to ``key`` in rank's current-step bucket."""
        bkey = (rank, self._cur_step.get(rank, 0))
        bucket = self.step_buckets.get(bkey)
        if bucket is None:
            bucket = self.step_buckets[bkey] = collections.Counter()
        bucket[key] += n

    def step_totals(self, step: int) -> collections.Counter:
        """Bucket values of one step summed over all ranks."""
        out: collections.Counter = collections.Counter()
        for (_rank, s), bucket in self.step_buckets.items():
            if s == step:
                out.update(bucket)
        return out

    # ------------------------------------------------ explicit hooks
    # Called directly from the engines, never via the bus.  Each carries
    # data the bus events do not: depths, durations, volumes.

    def on_loop_sample(self, ready: int, inflight: int, workq: int) -> None:
        """Scheduler-loop sample: queue depths at one iteration."""
        reg = self.registry
        reg.observe("sched.ready_depth", ready)
        reg.observe("cpe.inflight", inflight)
        reg.observe("comm.workq_depth", workq)

    def on_kernel_launch(self, rank: int, task_name: str, duration: float, volume) -> None:
        """A kernel left for the CPE cluster: duration and DMA volume."""
        reg = self.registry
        base = task_name.split("@", 1)[0]
        reg.observe("kernel.seconds", duration)
        reg.observe(f"kernel.seconds.{base}", duration)
        self.bump(rank, "cpe_kernel_seconds", duration)
        if volume is not None:
            reg.inc("dma.get.bytes", volume.get_bytes)
            reg.inc("dma.put.bytes", volume.put_bytes)
            reg.inc("dma.descriptors", volume.descriptors)
            self.bump(rank, "dma_bytes", volume.get_bytes + volume.put_bytes)

    def on_wire_message(self, nbytes: int) -> None:
        """Fabric-level traffic (includes retransmitted/duplicated bytes)."""
        reg = self.registry
        reg.inc("net.messages")
        reg.inc("net.bytes", nbytes)

    def on_retransmit(self, source: int, nbytes: int) -> None:
        reg = self.registry
        reg.inc("net.retransmits")
        reg.inc("net.bytes", nbytes)


class TelemetrySubscriber:
    """Folds one rank's lifecycle events into the run's telemetry.

    The registry metric and the bucket key of every event come from
    :data:`~repro.core.schedulers.lifecycle.COUNTER_TABLE`, the same rows
    the stats subscriber folds; ``step-begin`` advances the rank's step.
    """

    __slots__ = ("tele", "rank")

    def __init__(self, tele: RunTelemetry, rank: int):
        self.tele = tele
        self.rank = rank

    def __call__(self, ev: LifecycleEvent) -> None:
        tele, rank = self.tele, self.rank
        if ev.kind == "step-begin":
            tele.begin_step(rank)
            return
        for _field, metric, bucket, key in counter_rows(ev):
            n = 1 if key is None else ev.info[key]
            if metric is not None:
                tele.registry.inc(metric, n)
            if bucket is not None:
                tele.bump(rank, bucket, n)
