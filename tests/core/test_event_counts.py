"""Pin the DES schedule of the cross-check cell, bare and observed.

The 16x16x512 / 8-CG / async / 10-step model-mode cell processes a known
number of DES events and creates a known number of timeouts.  Host-time
work on the event path must keep both counts and the simulated time
exactly: one ``Simulator.step`` per event and one ``Timeout.__init__``
per timeout, so a loop that bypasses ``step`` or a timeout built another
way fails here.  Merging MPE charges into fewer timeouts would change the
counts on purpose and re-pin them.

Attached observers must be free in simulated terms: telemetry, a silent
fault injector with an armed resilience policy, and span tracing each
run the very same schedule — no extra DES event, no extra timeout, the
same final clock to the last bit.  These count gates replace wall-clock
overhead gates, which host noise alone could pass or fail.
"""

import functools

import pytest

from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.des import Simulator, Timeout
from repro.faults import FaultConfig, FaultInjector, ResiliencePolicy
from repro.harness import calibration
from repro.harness.problems import problem_by_name
from repro.telemetry import RunTelemetry

XCHECK_EVENTS = 20_377
XCHECK_TIMEOUTS = 12_919
XCHECK_TOTAL_TIME = 1.880818043885694

#: Controller options of each observed run of the cell.
OBSERVERS = {
    "telemetry": lambda: {"telemetry": RunTelemetry()},
    "silent_faults": lambda: {
        "faults": FaultInjector(FaultConfig()),
        "resilience": ResiliencePolicy(),
    },
    "traced": lambda: {"trace_enabled": True},
}


def _counting(monkeypatch, cls, name: str, counts: dict) -> None:
    original = getattr(cls, name)
    counts[name] = 0

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def _assert_cross_check_schedule(monkeypatch, **observers) -> None:
    grid = problem_by_name("16x16x512").grid()
    burgers = BurgersProblem(grid)
    ctl = SimulationController(
        grid,
        burgers.tasks(),
        burgers.init_tasks(),
        num_ranks=8,
        mode="async",
        real=False,
        cost_model=calibration.cost_model(),
        fabric_config=calibration.FABRIC,
        scheduler_kwargs=calibration.scheduler_kwargs(),
        **observers,
    )
    counts: dict[str, int] = {}
    _counting(monkeypatch, Simulator, "step", counts)
    _counting(monkeypatch, Timeout, "__init__", counts)
    result = ctl.run(nsteps=10, dt=1e-5)
    assert counts == {"step": XCHECK_EVENTS, "__init__": XCHECK_TIMEOUTS}
    assert result.total_time == XCHECK_TOTAL_TIME


def test_cross_check_cell_event_and_timeout_counts(monkeypatch):
    _assert_cross_check_schedule(monkeypatch)


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
def test_observed_cross_check_cell_keeps_counts(monkeypatch, observer):
    _assert_cross_check_schedule(monkeypatch, **OBSERVERS[observer]())
