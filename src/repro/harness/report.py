"""One-shot evaluation report: every table, figure and study, judged.

Used by ``python -m repro report`` — the one way the evaluation is
regenerated — and by anyone wanting it in a file::

    from repro.harness.report import full_report
    text, failed = full_report(nsteps=10)

The heavy sweeps share the runner's memoization, so the report costs the
same as its most expensive table.  The last section checks every
:mod:`~repro.harness.claims` claim against the data the sections above
rendered; ``failed`` lists the ids of the claims that do not hold.
"""

from __future__ import annotations

import time as _time

from repro.harness import claims, figures, studies, tables


#: The report's sections: the paper's evaluation in paper order, then the
#: studies beyond it (fixed step counts; they ignore ``nsteps``).
#: Each is (title, callable(nsteps) -> str).
SECTIONS = (
    ("Table I", lambda nsteps: tables.table1()),
    ("Table II", lambda nsteps: tables.table2()),
    ("Table III", lambda nsteps: tables.table3()),
    ("Table IV", lambda nsteps: tables.table4()),
    ("Figure 5", lambda nsteps: figures.fig5(nsteps=nsteps)),
    ("Table V", lambda nsteps: tables.table5(nsteps=nsteps)),
    ("Table VI", lambda nsteps: tables.table6(nsteps=nsteps)),
    ("Table VII", lambda nsteps: tables.table7(nsteps=nsteps)),
    ("Figures 6-8", lambda nsteps: figures.fig678(nsteps=nsteps)),
    ("Figure 9", lambda nsteps: figures.fig9(nsteps=nsteps)),
    ("Figure 10", lambda nsteps: figures.fig10(nsteps=nsteps)),
    ("Sec. II motivation", lambda nsteps: studies.motivation()),
    ("Sec. VI-C exp library", lambda nsteps: studies.exp_library()),
    ("Sec. IX future work", lambda nsteps: studies.future_work()),
    ("Weak scaling", lambda nsteps: studies.weak_scaling()),
    ("Convergence", lambda nsteps: studies.convergence()),
)


def _timed(title: str, fn, progress):
    if progress is not None:
        progress(f"[report] generating {title} ...")
    t0 = _time.perf_counter()
    out = fn()
    if progress is not None:
        progress(f"[report] {title} done in {_time.perf_counter() - t0:.1f}s")
    return out


def full_report(nsteps: int = 10, progress=None) -> tuple[str, list[str]]:
    """Regenerate and judge the complete evaluation.

    Returns the report text and the ids of the failed claims.
    ``progress`` (optional) is called with a status line before and
    after each section — the CLI passes ``print``.
    """
    banner = (
        "Reproduction of 'A Preliminary Port and Evaluation of the Uintah "
        "AMT Runtime\non Sunway TaihuLight' (IPDPS Workshops 2018) — full "
        f"evaluation, {nsteps} timesteps/case.\n"
        "All times are simulated Sunway time from the calibrated model; "
        "see EXPERIMENTS.md."
    )
    parts = [banner]
    for title, fn in SECTIONS:
        parts.append(_timed(title, lambda: fn(nsteps), progress))
    verdicts = _timed("Paper claims", lambda: claims.evaluate(nsteps), progress)
    parts.append(claims.claims_table(verdicts))
    failed = [c.id for c, ok, _measured in verdicts if not ok]
    return "\n\n\n".join(parts) + "\n", failed
