"""The paper's claims, checked against the regenerated evaluation.

Each :class:`Claim` is one statement the reproduction must uphold — a
shape of the paper's tables and figures ("every Fig. 5 curve falls with
CG count"), a band around one of its numbers, or a finding of one of
the extra studies — written as a predicate over the same memoized
``*_data`` results the report's sections render.  ``repro report``
appends every verdict to the report and exits non-zero when one fails.

Claims over the strong-scaling sweep read it at the report's ``nsteps``;
the paper runs 10 timesteps, and a few bands only hold there (the
transient of a 1-step run shifts boosts and efficiencies).  The studies
of :mod:`repro.harness.studies` run at their own fixed step counts.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.harness import figures, studies, tables
from repro.harness.problems import CG_COUNTS
from repro.harness.reportfmt import render_table
from repro.harness.variants import VARIANTS
from repro.sunway.config import SW26010, SunwayMachine


@dataclasses.dataclass(frozen=True)
class Claim:
    """One checked statement about a report section's data."""

    id: str
    #: Title of the report section whose data the claim reads.
    section: str
    #: The bound, as printed in the claims table.
    expected: str
    #: ``check(nsteps) -> (holds, measured value as text)``.
    check: _t.Callable[[int], tuple[bool, str]]


#: Every claim, in report order.
CLAIMS: list[Claim] = []


def claim(id: str, section: str, expected: str):
    """Register the decorated ``check(nsteps)`` as a :class:`Claim`."""

    def register(check):
        CLAIMS.append(Claim(id, section, expected, check))
        return check

    return register


def _values(rows: list[dict]) -> list[float]:
    """The numeric cells of Table VI/VII rows."""
    return [v for r in rows for k, v in r.items() if k != "problem"]


def _pairs(seq) -> list[tuple]:
    return list(zip(seq, seq[1:]))


# -- Table I: flops per cell --------------------------------------------------


def _table1() -> dict[str, dict]:
    return {r["problem"]: r for r in tables.table1_data()}


@claim("table1.smallest_flops", "Table I", "16x16x512 in [296, 305] (paper 299)")
def _(nsteps):
    v = _table1()["16x16x512"]["flops_per_cell"]
    return 296 <= v <= 305, f"{v:.1f}"


@claim("table1.largest_flops", "Table I", "128x128x512 in [306, 312] (paper 311)")
def _(nsteps):
    v = _table1()["128x128x512"]["flops_per_cell"]
    return 306 <= v <= 312, f"{v:.1f}"


@claim("table1.rising_flops", "Table I", "flops/cell rises with problem size")
def _(nsteps):
    seq = [r["flops_per_cell"] for r in _table1().values()]
    return seq == sorted(seq), f"{seq[0]:.1f} .. {seq[-1]:.1f}"


@claim("table1.exp_share", "Table I", "128x128x512 exp share in [0.66, 0.72] (~215/311)")
def _(nsteps):
    v = _table1()["128x128x512"]["exp_share"]
    return 0.66 <= v <= 0.72, f"{v:.3f}"


# -- Table II: system parameters ----------------------------------------------


@claim("table2.total_cores", "Table II", "128 CGs have 8320 cores")
def _(nsteps):
    v = SunwayMachine(num_cgs=128).total_cores
    return v == 8320, str(v)


@claim("table2.cg_peak", "Table II", "CG peak 765.6 Gflop/s")
def _(nsteps):
    v = SW26010.peak_flops
    return abs(v - 765.6e9) <= 765.6e9 * 1e-6, f"{v / 1e9:.1f} Gflop/s"


@claim("table2.node_peak_text", "Table II", "table lists 3.06 Tflop/s")
def _(nsteps):
    ok = "3.06 Tflop/s" in tables.table2()
    return ok, "listed" if ok else "missing"


# -- Table III: problem settings ----------------------------------------------


def _table3() -> dict[str, dict]:
    return {r["problem"]: r for r in tables.table3_data()}


@claim("table3.mem_smallest", "Table III", "16x16x512 needs 256 MiB")
def _(nsteps):
    v = _table3()["16x16x512"]["memory_bytes"]
    return v == 256 * 1024**2, f"{v / 1024**2:g} MiB"


@claim("table3.mem_largest", "Table III", "128x128x512 needs 16 GiB")
def _(nsteps):
    v = _table3()["128x128x512"]["memory_bytes"]
    return v == 16 * 1024**3, f"{v / 1024**3:g} GiB"


def _min_cgs_claim(problem: str, cgs: int) -> None:
    @claim(f"table3.min_cgs_{problem}", "Table III", f"{problem} needs >= {cgs} CGs")
    def _(nsteps):
        v = _table3()[problem]["min_cgs"]
        return v == cgs, str(v)


for _problem, _cgs in (("64x64x512", 2), ("64x128x512", 4), ("128x128x512", 8)):
    _min_cgs_claim(_problem, _cgs)


# -- Table IV: variants -------------------------------------------------------


@claim("table4.five_variants", "Table IV", "5 variants")
def _(nsteps):
    return len(VARIANTS) == 5, str(len(VARIANTS))


@claim("table4.names_listed", "Table IV", "table lists every variant name")
def _(nsteps):
    text = tables.table4()
    names = ("host.sync", "acc.sync", "acc_simd.sync", "acc.async", "acc_simd.async")
    missing = [n for n in names if n not in text]
    return not missing, ", ".join(missing) or "all listed"


# -- Figure 5: strong-scaling wall time ---------------------------------------


@claim("fig5.monotone", "Figure 5", "every accelerated curve falls with CGs")
def _(nsteps):
    worst = max(
        t2 / t1
        for per_variant in figures.fig5_data(nsteps=nsteps).values()
        for series in per_variant.values()
        for t1, t2 in _pairs([series[c] for c in sorted(series)])
    )
    return worst < 1.0, f"max t(2P)/t(P) {worst:.3f}"


def _fig5_points(fast: str, slow: str, nsteps: int) -> list[tuple[float, float]]:
    """``(fast, slow)`` time pairs at every (problem, CG count) of Fig. 5."""
    data = figures.fig5_data(nsteps=nsteps)
    return [(data[p][fast][c], data[p][slow][c]) for p in data for c in sorted(data[p][slow])]


def _max_ratio(points) -> str:
    return f"max ratio {max(a / b for a, b in points):.4f}"


@claim("fig5.async_le_sync", "Figure 5", "acc.async <= acc.sync * 1.001")
def _(nsteps):
    points = _fig5_points("acc.async", "acc.sync", nsteps)
    return all(a <= s * 1.001 for a, s in points), _max_ratio(points)


@claim("fig5.simd_async_le_sync", "Figure 5", "acc_simd.async <= acc_simd.sync * 1.001")
def _(nsteps):
    points = _fig5_points("acc_simd.async", "acc_simd.sync", nsteps)
    return all(a <= s * 1.001 for a, s in points), _max_ratio(points)


@claim("fig5.simd_faster", "Figure 5", "acc_simd.async < acc.async everywhere")
def _(nsteps):
    points = _fig5_points("acc_simd.async", "acc.async", nsteps)
    return all(v < a for v, a in points), _max_ratio(points)


# -- Table V: strong-scaling efficiency ---------------------------------------


def _table5(nsteps: int) -> dict[str, dict]:
    return {r["problem"]: r for r in tables.table5_data(nsteps=nsteps)}


@claim("table5.band", "Table V", "every efficiency in [0.28, 1.0] (paper 31.7-97.7%)")
def _(nsteps):
    values = [r[v] for r in _table5(nsteps).values() for v in tables.TABLE5_VARIANTS]
    return all(0.28 <= v <= 1.0 for v in values), f"{min(values):.3f} .. {max(values):.3f}"


@claim("table5.small_simd_async", "Table V", "16x16x512 simd.async 0.35 +- 0.08 (paper 31.7%)")
def _(nsteps):
    v = _table5(nsteps)["16x16x512"]["acc_simd.async"]
    return abs(v - 0.35) <= 0.08, f"{v:.3f}"


@claim("table5.large_simd_async", "Table V", "128x128x512 simd.async 0.85 +- 0.10 (paper 89.9%)")
def _(nsteps):
    v = _table5(nsteps)["128x128x512"]["acc_simd.async"]
    return abs(v - 0.85) <= 0.10, f"{v:.3f}"


@claim("table5.monotone", "Table V", "bigger problems scale better, per variant")
def _(nsteps):
    rows = list(_table5(nsteps).values())
    falling = [
        v for v in tables.TABLE5_VARIANTS if [r[v] for r in rows] != sorted(r[v] for r in rows)
    ]
    return not falling, ", ".join(falling) or "all rising"


def _simd_vs_plain(simd: str, plain: str, nsteps: int) -> tuple[bool, str]:
    """Vectorized efficiency at most 0.02 above the plain kernel's, per problem."""
    rows = _table5(nsteps).values()
    worst = max(r[simd] - r[plain] for r in rows)
    return all(r[simd] <= r[plain] + 0.02 for r in rows), f"max excess {worst:+.3f}"


@claim("table5.simd_async_le_acc_async", "Table V", "simd.async <= acc.async + 0.02")
def _(nsteps):
    return _simd_vs_plain("acc_simd.async", "acc.async", nsteps)


@claim("table5.simd_sync_le_acc_sync", "Table V", "simd.sync <= acc.sync + 0.02")
def _(nsteps):
    return _simd_vs_plain("acc_simd.sync", "acc.sync", nsteps)


# -- Table VI: async-over-sync improvement, non-vectorized --------------------


@claim("table6.never_loses", "Table VI", "every improvement >= -0.01")
def _(nsteps):
    worst = min(_values(tables.table6_data(nsteps=nsteps)))
    return worst >= -0.01, f"min {worst:+.3f}"


@claim("table6.best", "Table VI", "best in [0.30, 0.50] (paper 39.3%)")
def _(nsteps):
    best = max(_values(tables.table6_data(nsteps=nsteps)))
    return 0.30 <= best <= 0.50, f"{best:.3f}"


@claim("table6.average", "Table VI", "average in [0.08, 0.22] (paper ~13.5%)")
def _(nsteps):
    values = _values(tables.table6_data(nsteps=nsteps))
    avg = sum(values) / len(values)
    return 0.08 <= avg <= 0.22, f"{avg:.3f}"


@claim("table6.one_cg", "Table VI", "every 1-CG improvement > 0.05")
def _(nsteps):
    worst = min(r[1] for r in tables.table6_data(nsteps=nsteps) if 1 in r)
    return worst > 0.05, f"min {worst:.3f}"


@claim("table6.at_128", "Table VI", "every 128-CG |improvement| < 0.05")
def _(nsteps):
    worst = max(abs(r[128]) for r in tables.table6_data(nsteps=nsteps) if 128 in r)
    return worst < 0.05, f"max {worst:.3f}"


# -- Table VII: async-over-sync improvement, vectorized -----------------------


@claim("table7.never_loses", "Table VII", "every improvement >= -0.01")
def _(nsteps):
    worst = min(_values(tables.table7_data(nsteps=nsteps)))
    return worst >= -0.01, f"min {worst:+.3f}"


@claim("table7.best", "Table VII", "best in [0.10, 0.30] (paper 22.8%)")
def _(nsteps):
    best = max(_values(tables.table7_data(nsteps=nsteps)))
    return 0.10 <= best <= 0.30, f"{best:.3f}"


@claim("table7.below_table6", "Table VII", "< Table VI + 0.02 where Table VI > 0.05")
def _(nsteps):
    novec, vec = tables.table6_data(nsteps=nsteps), tables.table7_data(nsteps=nsteps)
    points = [
        (r7[cgs], r6[cgs])
        for r6, r7 in zip(novec, vec)
        for cgs in CG_COUNTS
        if cgs in r6 and r6[cgs] > 0.05
    ]
    worst = max(v - n for v, n in points)
    return all(v < n + 0.02 for v, n in points), f"max excess {worst:+.3f}"


@claim("table7.average_below_table6", "Table VII", "average < Table VI's average")
def _(nsteps):
    novec = _values(tables.table6_data(nsteps=nsteps))
    vec = _values(tables.table7_data(nsteps=nsteps))
    avg6, avg7 = sum(novec) / len(novec), sum(vec) / len(vec)
    return avg7 < avg6, f"{avg7:.3f} vs {avg6:.3f}"


# -- Figures 6-8: the optimization ladder -------------------------------------


def _boosts(nsteps: int, variant: str) -> list[float]:
    data = figures.fig678_data(nsteps=nsteps)
    return [b for entry in data.values() for b in entry["boost"][variant].values()]


@claim("fig678.offload_band", "Figures 6-8", "acc.async boost in [2.0, 7.5] (paper 2.7-6.0x)")
def _(nsteps):
    v = _boosts(nsteps, "acc.async")
    return 2.0 <= min(v) and max(v) <= 7.5, f"{min(v):.2f} .. {max(v):.2f}"


@claim("fig678.total_band", "Figures 6-8", "acc_simd.async boost in [2.5, 15] (paper 3.6-13.3x)")
def _(nsteps):
    v = _boosts(nsteps, "acc_simd.async")
    return 2.5 <= min(v) and max(v) <= 15.0, f"{min(v):.2f} .. {max(v):.2f}"


@claim("fig678.simd_extra_band", "Figures 6-8", "SIMD extra boost in [1.15, 2.4] (paper 1.3-2.2x)")
def _(nsteps):
    extra = [
        entry["boost"]["acc_simd.async"][cgs] / acc
        for entry in figures.fig678_data(nsteps=nsteps).values()
        for cgs, acc in entry["boost"]["acc.async"].items()
    ]
    return all(1.15 <= e <= 2.4 for e in extra), f"{min(extra):.2f} .. {max(extra):.2f}"


def _gain_at_8(nsteps: int, variant: str) -> tuple[float, float]:
    data = figures.fig678_data(nsteps=nsteps)
    return (
        data["fig6_small"]["boost"][variant][8],
        data["fig8_large"]["boost"][variant][8],
    )


@claim("fig678.larger_gains_offload", "Figures 6-8", "acc.async at 8 CGs: small < large")
def _(nsteps):
    small, large = _gain_at_8(nsteps, "acc.async")
    return small < large, f"{small:.2f}x < {large:.2f}x"


@claim("fig678.larger_gains_total", "Figures 6-8", "acc_simd.async at 8 CGs: small < large")
def _(nsteps):
    small, large = _gain_at_8(nsteps, "acc_simd.async")
    return small < large, f"{small:.2f}x < {large:.2f}x"


# -- Figure 9: Gflop/s --------------------------------------------------------


@claim("fig9.headline", "Figure 9", "128x128x512 at 128 CGs in [700, 1200] (paper 974.5)")
def _(nsteps):
    top = figures.fig9_data(nsteps=nsteps)["128x128x512"][128]
    return 700 <= top <= 1200, f"{top:.1f} Gflop/s"


@claim("fig9.grows_with_cgs", "Figure 9", "Gflop/s grows with CGs, per problem")
def _(nsteps):
    data = figures.fig9_data(nsteps=nsteps)
    falling = [p for p, s in data.items() if [s[c] for c in sorted(s)] != sorted(s.values())]
    return not falling, ", ".join(falling) or "all rising"


@claim("fig9.grows_with_size", "Figure 9", "Gflop/s at 128 CGs grows with problem size")
def _(nsteps):
    at_128 = [s[128] for s in figures.fig9_data(nsteps=nsteps).values()]
    return at_128 == sorted(at_128), f"{at_128[0]:.1f} .. {at_128[-1]:.1f}"


# -- Figure 10: floating-point efficiency -------------------------------------


@claim("fig10.best", "Figure 10", "best in [0.9%, 1.6%] of peak (paper 1.17%)")
def _(nsteps):
    best = max(v for s in figures.fig10_data(nsteps=nsteps).values() for v in s.values())
    return 0.009 <= best <= 0.016, f"{best:.2%}"


@claim("fig10.larger_more_efficient", "Figure 10", "next problem >= 0.98x at each shared CG")
def _(nsteps):
    data = figures.fig10_data(nsteps=nsteps)
    points = [
        (data[b][cgs], data[a][cgs])
        for a, b in _pairs(list(data))
        for cgs in sorted(set(data[a]) & set(data[b]))
    ]
    worst = min(larger / smaller for larger, smaller in points)
    return all(larger >= smaller * 0.98 for larger, smaller in points), f"min ratio {worst:.3f}"


@claim("fig10.declines_with_cgs", "Figure 10", "each CG count >= 0.98x the next, per problem")
def _(nsteps):
    points = [
        (x, y)
        for s in figures.fig10_data(nsteps=nsteps).values()
        for x, y in _pairs([s[c] for c in sorted(s)])
    ]
    worst = min(x / y for x, y in points)
    return all(x >= y * 0.98 for x, y in points), f"min ratio {worst:.3f}"


# -- Sec. II motivation -------------------------------------------------------


@claim("motivation.unified_1t_slowest", "Sec. II motivation", "unified-1t is the slowest")
def _(nsteps):
    data = studies.motivation_data()
    slowest = max(data, key=data.get)
    return all(data["unified-1t"] >= t for t in data.values()), f"slowest {slowest}"


@claim("motivation.async_recovers_offload", "Sec. II motivation", "acc.async speedup in (2.0, 7.5)")
def _(nsteps):
    data = studies.motivation_data()
    v = data["unified-1t"] / data["acc.async"]
    return 2.0 < v < 7.5, f"{v:.2f}x"


@claim("motivation.unified_16t_beats_async", "Sec. II motivation", "unified-16t < acc.async")
def _(nsteps):
    data = studies.motivation_data()
    v = data["acc.async"] / data["unified-16t"]
    return data["unified-16t"] < data["acc.async"], f"{v:.2f}x faster"


# -- Sec. VI-C exponential library --------------------------------------------


@claim("exp_library.ieee_slowdown", "Sec. VI-C exp library", "IEEE slowdown > 1.3x")
def _(nsteps):
    r = studies.exp_library_data()
    v = r["ieee_time"] / r["fast_time"]
    return v > 1.3, f"{v:.2f}x"


@claim("exp_library.accuracy", "Sec. VI-C exp library", "max relative difference < 1e-3")
def _(nsteps):
    v = studies.exp_library_data()["max_rel_diff"]
    return v < 1e-3, f"{v:.2e}"


# -- Sec. IX future work ------------------------------------------------------


def _future_work() -> tuple[dict[str, float], float]:
    data = studies.future_work_data()
    return data, data["baseline (paper config)"]


@claim("future_work.async_dma_helps", "Sec. IX future work", "+async DMA < baseline")
def _(nsteps):
    data, base = _future_work()
    return data["+async DMA"] < base, f"{base / data['+async DMA']:.3f}x"


@claim("future_work.packing_helps", "Sec. IX future work", "+tile packing <= baseline")
def _(nsteps):
    data, base = _future_work()
    return data["+tile packing"] <= base, f"{base / data['+tile packing']:.3f}x"


@claim("future_work.combined", "Sec. IX future work", "both <= +async DMA (+1e-12 s)")
def _(nsteps):
    data, _base = _future_work()
    both, dma = data["+async DMA +packing"], data["+async DMA"]
    return both <= dma + 1e-12, f"{dma / both:.3f}x"


@claim("future_work.cpe_groups_within_2x", "Sec. IX future work", "4 CPE groups within 2x")
def _(nsteps):
    data, base = _future_work()
    v = data["4 CPE groups"]
    return 0.5 * base < v < 2.0 * base, f"{base / v:.3f}x"


# -- Weak scaling -------------------------------------------------------------


@claim("weak_scaling.efficiency", "Weak scaling", "weak efficiency > 60% up to 64 CGs")
def _(nsteps):
    data = studies.weak_scaling_data()
    worst = min(data[1] / t for t in data.values())
    return worst > 0.60, f"min {worst:.1%}"


@claim("weak_scaling.worst_at_64", "Weak scaling", "64 CGs is the slowest")
def _(nsteps):
    data = studies.weak_scaling_data()
    return data[64] == max(data.values()), f"slowest at {max(data, key=data.get)} CGs"


# -- Convergence --------------------------------------------------------------


@claim("convergence.error_decreases", "Convergence", "L2 error falls: n=8 > 16 > 32")
def _(nsteps):
    e = studies.convergence_data()
    return e[8] > e[16] > e[32], f"{e[8]:.2e} > {e[16]:.2e} > {e[32]:.2e}"


@claim("convergence.first_order", "Convergence", "observed order in (0.5, 2.0)")
def _(nsteps):
    orders = studies.convergence_orders().values()
    return all(0.5 < v < 2.0 for v in orders), " ".join(f"{v:.2f}" for v in orders)


# -- verdicts -----------------------------------------------------------------


def evaluate(nsteps: int) -> list[tuple[Claim, bool, str]]:
    """Every claim's ``(claim, holds, measured)`` at ``nsteps`` timesteps."""
    return [(c, *c.check(nsteps)) for c in CLAIMS]


def claims_table(verdicts: list[tuple[Claim, bool, str]]) -> str:
    """The report's "Paper claims" table."""
    failed = sum(not ok for _c, ok, _m in verdicts)
    return render_table(
        f"Paper claims: {len(verdicts) - failed} of {len(verdicts)} hold",
        ["Claim", "Expected", "Measured", "Verdict"],
        [(c.id, c.expected, measured, "PASS" if ok else "FAIL") for c, ok, measured in verdicts],
    )
