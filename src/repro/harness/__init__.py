"""The evaluation harness: everything behind the paper's Sec. VII.

* :mod:`~repro.harness.calibration` — the calibrated cost-model constants
  and their provenance.
* :mod:`~repro.harness.problems` — Table III problem settings.
* :mod:`~repro.harness.variants` — Table IV experimental variants.
* :mod:`~repro.harness.runner` — build every experiment's controller,
  run one (problem, variant, CG-count) experiment and cache results
  across tables.
* :mod:`~repro.harness.metrics` — scaling efficiency, async improvement,
  optimization boost, Gflop/s, floating-point efficiency.
* :mod:`~repro.harness.tables` / :mod:`~repro.harness.figures` —
  regenerate every table and figure of the evaluation.
* :mod:`~repro.harness.studies` — the studies beyond them (motivation,
  ablations, weak scaling, convergence).
* :mod:`~repro.harness.claims` / :mod:`~repro.harness.report` — the
  paper's claims as predicates, and ``repro report``, which renders
  every section and judges every claim.
"""

from repro.harness.problems import ProblemSetting, PROBLEMS, problem_by_name, CG_COUNTS
from repro.harness.variants import Variant, VARIANTS, variant_by_name
from repro.harness.runner import run_experiment, ExperimentResult, clear_cache

__all__ = [
    "ProblemSetting",
    "PROBLEMS",
    "problem_by_name",
    "CG_COUNTS",
    "Variant",
    "VARIANTS",
    "variant_by_name",
    "run_experiment",
    "ExperimentResult",
    "clear_cache",
]
