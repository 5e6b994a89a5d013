"""Pin the DES schedule of the scheduler-overhead cross-check cell.

The 16x16x512 / 8-CG / async / 10-step model-mode cell processes a known
number of DES events and creates a known number of timeouts.  Host-time
work on the event path must keep both counts and the simulated time
exactly: one ``Simulator.step`` per event and one ``Timeout.__init__``
per timeout, so a loop that bypasses ``step`` or a timeout built another
way fails here.  Merging MPE charges into fewer timeouts would change the
counts on purpose and re-pin them.
"""

import functools

from repro.burgers.component import BurgersProblem
from repro.core.controller import SimulationController
from repro.des import Simulator, Timeout
from repro.harness import calibration
from repro.harness.problems import problem_by_name

XCHECK_EVENTS = 20_377
XCHECK_TIMEOUTS = 12_919
XCHECK_TOTAL_TIME = 1.880818043885694


def _counting(monkeypatch, cls, name: str, counts: dict) -> None:
    original = getattr(cls, name)
    counts[name] = 0

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def test_cross_check_cell_event_and_timeout_counts(monkeypatch):
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
    )
    counts: dict[str, int] = {}
    _counting(monkeypatch, Simulator, "step", counts)
    _counting(monkeypatch, Timeout, "__init__", counts)
    result = ctl.run(nsteps=10, dt=1e-5)
    assert counts == {"step": XCHECK_EVENTS, "__init__": XCHECK_TIMEOUTS}
    assert result.total_time == XCHECK_TOTAL_TIME
