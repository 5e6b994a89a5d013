"""Machine-noise model: the instabilities the paper measured around.

Sec. VII-A: "To mitigate the instabilities in the machine, each case is
repeated multiple times and the best result is selected."  The DES is
deterministic, so by default there is nothing to mitigate; this module
makes the paper's protocol meaningful on demand by perturbing charged
durations with seeded, reproducible multiplicative noise (lognormal-ish
via a clipped normal), letting the harness run genuine best-of-N repeats.

Noise is OFF (all coefficients zero) in the calibrated evaluation.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class NoiseModel:
    """Multiplicative duration noise, per component.

    ``*_cv`` are coefficients of variation (std/mean); factors are
    clipped to [1, 1 + 5*cv] — machine interference only ever *slows*
    work down, which is also why best-of-N converges to the quiet-machine
    time the calibration models.
    """

    seed: int = 0
    kernel_cv: float = 0.0
    mpe_cv: float = 0.0

    def for_rank(self, rank: int) -> "RankNoise":
        """A per-rank stream (distinct but reproducible per rank)."""
        return RankNoise(self, rank)


class RankNoise:
    """One rank's noise stream."""

    def __init__(self, model: NoiseModel, rank: int):
        self.model = model
        self.rank = rank
        #: Seeded on the first draw: a quiet model never draws, and every
        #: scheduler builds a stream (one per rank and graph).
        self._rng: np.random.Generator | None = None

    def _factor(self, cv: float) -> float:
        if cv <= 0:
            return 1.0
        if self._rng is None:
            self._rng = np.random.default_rng((self.model.seed, self.rank))
        draw = abs(self._rng.normal(0.0, cv))
        return 1.0 + min(draw, 5.0 * cv)

    def kernel(self, duration: float) -> float:
        """Perturb a CPE kernel duration."""
        return duration * self._factor(self.model.kernel_cv)

    def mpe(self, duration: float) -> float:
        """Perturb an MPE work duration."""
        return duration * self._factor(self.model.mpe_cv)


#: The quiet machine: what the calibrated evaluation uses.
NO_NOISE = NoiseModel()
