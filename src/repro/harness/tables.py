"""Regenerate every table of the paper's evaluation.

Each ``table*_data`` function returns structured rows; each ``table*``
function renders them as aligned text.  ``repro report`` prints the
rendered form and checks the paper's claims against the data functions
(:mod:`repro.harness.claims`); EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

from repro.burgers.flops import table1_row
from repro.harness import metrics
from repro.harness.problems import PROBLEMS
from repro.harness.reportfmt import mem, pct, render_table
from repro.harness.runner import run_experiment
from repro.harness.variants import VARIANTS, variant_by_name
from repro.sunway.config import table2_rows


# -- Table I: FLOPs per cell ------------------------------------------------------

def table1_data(problems=PROBLEMS) -> list[dict]:
    """Counted flops per cell for each problem's grid."""
    out = []
    for p in problems:
        row = table1_row(p.grid())
        row["problem"] = p.name
        out.append(row)
    return out


def table1(problems=PROBLEMS) -> str:
    rows = [
        (
            r["problem"],
            r["total_cells"],
            r["total_flops"],
            f"{r['flops_per_cell']:.0f}",
        )
        for r in table1_data(problems)
    ]
    return render_table(
        "Table I: FLOP per cell for the model problem",
        ["Problem Size", "Total Cells", "Total FLOPs", "FLOPs per Cell"],
        rows,
    )


# -- Table II: system parameters -----------------------------------------------------

def table2() -> str:
    return render_table(
        "Table II: Major system parameters of Sunway TaihuLight",
        ["Item", "Description"],
        table2_rows(),
    )


# -- Table III: problem settings ------------------------------------------------------

def table3_data(problems=PROBLEMS) -> list[dict]:
    return [
        {
            "problem": p.name,
            "patch_size": p.name,
            "grid_size": "x".join(str(e) for e in p.grid_extent),
            "memory_bytes": p.memory_bytes,
            "min_cgs": p.min_cgs,
        }
        for p in problems
    ]


def table3(problems=PROBLEMS) -> str:
    rows = [
        (
            r["problem"],
            r["patch_size"],
            r["grid_size"],
            mem(r["memory_bytes"]),
            f"{r['min_cgs']}CG" + ("s" if r["min_cgs"] > 1 else ""),
        )
        for r in table3_data(problems)
    ]
    return render_table(
        "Table III: Problem settings in the evaluations",
        ["Problem", "Patch Size", "Grid Size", "Mem", "Min"],
        rows,
    )


# -- Table IV: variants -----------------------------------------------------------------

def table4() -> str:
    rows = [
        (v.name, v.scheduler_label, "Yes" if v.tiling else "No", "Yes" if v.simd else "No")
        for v in VARIANTS.values()
    ]
    return render_table(
        "Table IV: Experimental variants in the evaluations",
        ["Variant", "Scheduler Mode", "Tiling", "Vectorization"],
        rows,
    )


# -- Table V: strong-scaling efficiency ------------------------------------------------------

#: Table V's column order (paper names the simd columns without 'acc_').
TABLE5_VARIANTS = ("acc.sync", "acc.async", "acc_simd.sync", "acc_simd.async")


def table5_data(problems=PROBLEMS, nsteps=10) -> list[dict]:
    """Strong-scaling efficiency from each problem's min CGs to 128 CGs."""
    out = []
    for p in problems:
        row: dict = {"problem": p.name, "min_cgs": p.min_cgs}
        for vname in TABLE5_VARIANTS:
            v = variant_by_name(vname)
            base = run_experiment(p, v, p.min_cgs, nsteps=nsteps)
            top = run_experiment(p, v, 128, nsteps=nsteps)
            row[vname] = metrics.scaling_efficiency(base, top)
        out.append(row)
    return out


def table5(problems=PROBLEMS, nsteps=10) -> str:
    rows = [
        (
            r["problem"] + ("*" if r["min_cgs"] > 1 else ""),
            pct(r["acc.sync"]),
            pct(r["acc.async"]),
            pct(r["acc_simd.sync"]),
            pct(r["acc_simd.async"]),
        )
        for r in table5_data(problems, nsteps)
    ]
    return render_table(
        "Table V: Strong scaling efficiency of different problems",
        ["Problem", "acc.sync", "acc.async", "simd.sync", "simd.async"],
        rows,
    )


# -- Tables VI / VII: async-over-sync improvement ---------------------------------------------

def _improvement_data(sync_name: str, async_name: str, problems, nsteps) -> list[dict]:
    sync_v, async_v = variant_by_name(sync_name), variant_by_name(async_name)
    out = []
    for p in problems:
        row: dict = {"problem": p.name}
        for cgs in p.cg_counts():
            s = run_experiment(p, sync_v, cgs, nsteps=nsteps)
            a = run_experiment(p, async_v, cgs, nsteps=nsteps)
            row[cgs] = metrics.async_improvement(s, a)
        out.append(row)
    return out


def table6_data(problems=PROBLEMS, nsteps=10) -> list[dict]:
    """Async improvement, non-vectorized kernel (Table VI)."""
    return _improvement_data("acc.sync", "acc.async", problems, nsteps)


def table7_data(problems=PROBLEMS, nsteps=10) -> list[dict]:
    """Async improvement, vectorized kernel (Table VII)."""
    return _improvement_data("acc_simd.sync", "acc_simd.async", problems, nsteps)


def _improvement_table(title: str, data: list[dict]) -> str:
    from repro.harness.problems import CG_COUNTS

    rows = []
    for r in data:
        rows.append(
            (r["problem"],)
            + tuple(pct(r[c]) if c in r else "-" for c in CG_COUNTS)
        )
    return render_table(title, ("Problem",) + tuple(str(c) for c in CG_COUNTS), rows)


def table6(problems=PROBLEMS, nsteps=10) -> str:
    return _improvement_table(
        "Table VI: Performance improvement of the asynchronous mode "
        "for the non-vectorized kernel",
        table6_data(problems, nsteps),
    )


def table7(problems=PROBLEMS, nsteps=10) -> str:
    return _improvement_table(
        "Table VII: Performance improvement of the asynchronous mode "
        "for the vectorized kernel",
        table7_data(problems, nsteps),
    )
