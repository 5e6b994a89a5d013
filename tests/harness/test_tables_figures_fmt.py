"""Tests for table/figure generators and the report formatter.

The paper-scale shape assertions are the claims of
:mod:`repro.harness.claims`, judged by ``repro report``; these tests
check the generators' structure quickly (1-step runs, subset of
problems).
"""

import pytest

from repro.harness import figures, tables
from repro.harness.problems import PROBLEMS, problem_by_name
from repro.harness.reportfmt import mem, pct, render_table, seconds

SMALL = [problem_by_name("16x16x512")]


# -- reportfmt -----------------------------------------------------------------

def test_render_table_alignment():
    text = render_table("T", ["a", "bb"], [["1", "222"], ["33", "4"]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert set(lines[1]) == {"="}
    widths = {len(line) for line in lines[2:]}
    assert len(widths) == 1  # all rows equal width


def test_pct():
    assert pct(0.317) == "31.7%"
    assert pct(0.0117, 2) == "1.17%"


def test_seconds_units():
    assert seconds(2.5) == "2.500s"
    assert seconds(0.0025) == "2.50ms"
    assert seconds(2.5e-6) == "2.5us"


def test_mem_binary_units():
    assert mem(256 * 1024**2) == "256MB"
    assert mem(16 * 1024**3) == "16GB"
    assert mem(1536) == "1.5KB"
    assert mem(512) == "512B"


# -- static tables --------------------------------------------------------------

def test_table1_text_has_all_problems():
    text = tables.table1()
    for p in PROBLEMS:
        assert p.name in text


def test_table2_text():
    assert "Interconnect Latency" in tables.table2()


def test_table3_text_stars_none():
    # the text form marks min CGs; the starred problems carry "CGs"
    text = tables.table3()
    assert "8CGs" in text and "1CG" in text


def test_table4_lists_modes():
    text = tables.table4()
    assert "MPE-only" in text and "asynchronous MPE+CPE" in text


# -- swept tables/figures on a reduced scale -------------------------------------------

def test_table5_reduced():
    rows = tables.table5_data(problems=SMALL, nsteps=1)
    assert len(rows) == 1
    r = rows[0]
    for v in ("acc.sync", "acc.async", "acc_simd.sync", "acc_simd.async"):
        assert 0.0 < r[v] <= 1.0
    text = tables.table5(problems=SMALL, nsteps=1)
    assert "16x16x512" in text


def test_table6_7_reduced():
    for fn in (tables.table6_data, tables.table7_data):
        rows = fn(problems=SMALL, nsteps=1)
        assert set(rows[0]) == {"problem", 1, 2, 4, 8, 16, 32, 64, 128}


def test_fig5_reduced():
    data = figures.fig5_data(problems=SMALL, nsteps=1)
    series = data["16x16x512"]["acc.async"]
    assert list(sorted(series)) == [1, 2, 4, 8, 16, 32, 64, 128]
    assert all(t > 0 for t in series.values())
    assert "Fig. 5" in figures.fig5(problems=SMALL, nsteps=1)


def test_boost_data_reduced():
    small = problem_by_name("16x16x512")
    data = figures.boost_data(small, nsteps=1)
    assert set(data) == {"acc.async", "acc_simd.async"}
    assert all(b > 1.0 for b in data["acc.async"].values())


def test_fig9_10_reduced():
    g = figures.fig9_data(problems=SMALL, nsteps=1)
    e = figures.fig10_data(problems=SMALL, nsteps=1)
    for cgs, gf in g["16x16x512"].items():
        assert e["16x16x512"][cgs] == pytest.approx(gf * 1e9 / (cgs * 765.6e9), rel=1e-9)


def test_report_sections_cover_all_tables_and_figures():
    from repro.harness.report import SECTIONS

    titles = [t for t, _ in SECTIONS]
    assert titles == [
        "Table I", "Table II", "Table III", "Table IV", "Figure 5",
        "Table V", "Table VI", "Table VII", "Figures 6-8", "Figure 9",
        "Figure 10", "Sec. II motivation", "Sec. VI-C exp library",
        "Sec. IX future work", "Weak scaling", "Convergence",
    ]


def test_claim_ids_unique_and_sections_known():
    from repro.harness.claims import CLAIMS
    from repro.harness.report import SECTIONS

    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids)) == 57
    titles = {t for t, _ in SECTIONS}
    assert {c.section for c in CLAIMS} <= titles
