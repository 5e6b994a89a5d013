"""The DES event path: same-instant FIFO order, error paths, no cycles.

Every event source ends in one heap push of ``(time, sequence, item)``,
so events due at the same instant fire in push order whichever source
pushed them and whichever ``run`` form drives the loop.  These tests pin
that order, the loop's error paths, and that a finished process is freed
by reference counting alone.
"""

import gc
import weakref

import pytest

from repro.des import Simulator, Timeout
from repro.des.process import Process

#: The order the scenario below pushes its same-instant events in.
PUSH_ORDER = [
    "early-timeout",  # pushed at t=0 for t=1
    "early-succeed",  # pushed at t=0 for t=1
    "timeout",  # from here on pushed at t=1 by the driver
    "succeed",
    "boot",
    "any_of",
    "all_of",
    "shim",
    "fail",
    "last-timeout",
    "done",  # pushed while "boot" is processed
]


def _nothing():
    """A process body that finishes at once."""
    yield from ()


def _scenario(sim: Simulator):
    """Push one same-instant event from every source; return (log, driver process)."""
    log: list[str] = []

    def logger(label):
        return lambda _ev: log.append(label)

    fired = sim.event()
    fired.succeed()
    failing = sim.event()

    def waiter():
        try:
            yield failing
        except KeyError:
            log.append("fail")

    def child():
        log.append("boot")
        yield from _nothing()

    def driver():
        yield sim.timeout(1.0)
        sim.timeout(0.0)._add_callback(logger("timeout"))
        ev = sim.event()
        ev._add_callback(logger("succeed"))
        ev.succeed(delay=0.0)
        sim.process(child())._add_callback(logger("done"))
        sim.any_of([fired])._add_callback(logger("any_of"))
        sim.all_of([fired, fired])._add_callback(logger("all_of"))
        fired._add_callback(logger("shim"))  # late subscriber: a _CallbackShim
        failing.fail(KeyError("injected"))
        sim.timeout(0.0)._add_callback(logger("last-timeout"))
        yield sim.timeout(1.0)
        return "finished"

    sim.process(waiter())
    # the driver boots at t=0, after the two pushes below, so its first
    # timeout (for t=1) is pushed after them and it resumes right after
    # "early-succeed"
    proc = sim.process(driver())
    sim.timeout(1.0)._add_callback(logger("early-timeout"))
    early = sim.event()
    early._add_callback(logger("early-succeed"))
    early.succeed(delay=1.0)
    return log, proc


RUN_FORMS = {
    "drain": (lambda sim, proc, cap: sim.run(max_events=cap), 2.0),
    "until-float": (lambda sim, proc, cap: sim.run(until=1.5, max_events=cap), 1.5),
    "until-event": (lambda sim, proc, cap: sim.run(until=proc, max_events=cap), 2.0),
}


@pytest.mark.parametrize("cap", [None, 1000], ids=["unbounded", "max_events"])
@pytest.mark.parametrize("form", sorted(RUN_FORMS))
def test_same_instant_events_fire_in_push_order(form, cap):
    run, end = RUN_FORMS[form]
    sim = Simulator()
    log, proc = _scenario(sim)
    result = run(sim, proc, cap)
    assert log == PUSH_ORDER
    assert sim.now == end
    if form == "until-event":
        assert result == "finished"


def test_run_until_float_leaves_later_events_queued():
    sim = Simulator()
    log, proc = _scenario(sim)
    sim.run(until=1.0)  # events due exactly at the horizon still fire
    assert log == PUSH_ORDER
    assert proc.is_alive and sim.peek() == 2.0
    sim.run()
    assert proc.value == "finished"


# -- error paths -------------------------------------------------------------------


def test_negative_delays_are_rejected_before_any_push():
    sim = Simulator()
    with pytest.raises(ValueError, match="negative delay"):
        sim.timeout(-1e-9)
    with pytest.raises(ValueError, match="negative delay"):
        sim.event().succeed(delay=-1.0)
    with pytest.raises(ValueError, match="negative delay"):
        sim.event().fail(RuntimeError(), delay=-1.0)
    assert sim.peek() == float("inf")


def test_yielding_a_non_event_raises_type_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(TypeError, match="must yield Event objects"):
        sim.run()


def test_yielding_another_simulators_event_raises_value_error():
    sim, other = Simulator(), Simulator()

    def bad():
        yield other.timeout(1.0)

    sim.process(bad())
    with pytest.raises(ValueError, match="another simulator"):
        sim.run()


@pytest.mark.parametrize("until", [None, 5.0], ids=["drain", "until-float"])
def test_unhandled_failure_is_reraised(until):
    sim = Simulator()
    sim.event().fail(KeyError("nobody waits"), delay=1.0)
    with pytest.raises(KeyError, match="nobody waits"):
        sim.run(until=until)
    assert sim.now == 1.0


def test_run_until_failed_event_raises_its_exception():
    sim = Simulator()

    def crash():
        yield sim.timeout(1.0)
        raise OSError("crashed")

    proc = sim.process(crash())
    with pytest.raises(OSError, match="crashed"):
        sim.run(until=proc)


def test_run_until_event_that_never_fires_reports_deadlock():
    sim = Simulator()
    sim.timeout(1.0)
    with pytest.raises(RuntimeError, match="ran out of events"):
        sim.run(until=sim.event())
    assert sim.now == 1.0


@pytest.mark.parametrize("form", ["drain", "until-float", "until-event"])
def test_max_events_counts_exactly(form):
    """A schedule of n events passes with max_events=n and fails with n-1."""
    n = 5

    def build():
        sim = Simulator()
        last = None
        for i in range(n):
            last = sim.timeout(float(i + 1))
        until = {"drain": None, "until-float": float(n), "until-event": last}[form]
        return sim, until

    sim, until = build()
    sim.run(until=until, max_events=n)
    assert sim.now == float(n)
    sim, until = build()
    message = r"exceeded max_events=4 at t=5\.0 \(zero-delay loop\?\)"
    with pytest.raises(RuntimeError, match=message):
        sim.run(until=until, max_events=n - 1)


# -- lifetime: no reference cycles -------------------------------------------------


class _WeakTimeout(Timeout):
    __slots__ = ("__weakref__",)


class _WeakProcess(Process):
    __slots__ = ("__weakref__",)


def test_finished_process_is_freed_by_reference_counting():
    """A process, its generator and its timeouts need no cyclic collection."""
    refs = []

    def worker(sim):
        for delay in (1.0, 0.0, 2.0):
            timeout = _WeakTimeout(sim, delay)
            refs.append(weakref.ref(timeout))
            yield timeout
        yield sim.process(_nothing())  # waiting on a child process too
        yield sim.any_of([sim.timeout(1.0), sim.timeout(1.0)])
        return "ok"

    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        gen = worker(sim)
        proc = _WeakProcess(sim, gen)
        refs += [weakref.ref(gen), weakref.ref(proc), weakref.ref(sim)]
        sim.run()
        assert proc.value == "ok"
        del gen, proc, sim
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


# -- debug reprs, built on demand --------------------------------------------------


def test_timeout_repr_shows_its_delay():
    sim = Simulator()
    timeout = sim.timeout(2.5e-06)
    assert timeout.name == "Timeout(2.5e-06)"
    assert repr(timeout).startswith("<Timeout(2.5e-06) triggered at ")
    sim.run()
    assert repr(timeout).startswith("<Timeout(2.5e-06) processed at ")
