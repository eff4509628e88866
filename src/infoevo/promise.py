"""Promise estimation over the evaluated population.

The promise of a sample blends its (normalized) score with two heuristic
ratios: how well it dominates its local neighborhood and how close it
comes to the best score seen so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ResolvedMetric, knn, normalize_scores
from .errors import LedgerTooSmall


@dataclass(frozen=True)
class PromiseWeights:
    w_zeta: float = 1.0
    w_lm: float = 0.5
    w_gm: float = 0.5
    k_local: int = 5

    def __post_init__(self):
        if min(self.w_zeta, self.w_lm, self.w_gm) < 0:
            raise ValueError("promise weights must be nonnegative")
        if self.w_zeta + self.w_lm + self.w_gm <= 0:
            raise ValueError("at least one promise weight must be positive")
        if self.k_local < 1:
            raise ValueError("k_local must be positive")


@dataclass(frozen=True)
class PromiseVector:
    """Promise values over the population, indexed like the view samples."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def local_max_prob(
    i: int,
    k_local: int,
    rm: ResolvedMetric,
    norm: np.ndarray,
) -> float:
    """How close view sample i comes to dominating its k nearest neighbors.

    The ratio of its normalized score ``norm[i]`` to the max over the
    neighborhood including itself; 1 iff it ties or beats every neighbor.
    """
    if len(rm.view) < 2:
        raise LedgerTooSmall("local_max_prob needs at least 2 samples")
    idx, _ = knn(rm.view.samples[i].genotype, rm, k_local + 1)
    hood = [norm[j] for j in idx if j != i][:k_local]
    denom = max([norm[i]] + hood)
    if denom <= 0:
        return 1.0
    return float(norm[i] / denom)


def global_max_prob(i: int, norm: np.ndarray) -> float:
    """Ratio of sample i's normalized score to the population maximum."""
    denom = norm.max()
    if denom <= 0:
        return 1.0
    return float(norm[i] / denom)


def promise_vector(weights: PromiseWeights, rm: ResolvedMetric) -> PromiseVector:
    """Weighted blend of normalized score and the two heuristic ratios."""
    view = rm.view
    n = len(view)
    norm = normalize_scores(view.scores, view)
    values = weights.w_zeta * norm
    if weights.w_gm > 0:
        gm = np.array([global_max_prob(i, norm) for i in range(n)])
        values = values + weights.w_gm * gm
    if weights.w_lm > 0 and n >= 2:
        lm = np.array([local_max_prob(i, weights.k_local, rm, norm) for i in range(n)])
        values = values + weights.w_lm * lm
    elif weights.w_lm > 0:
        values = values + weights.w_lm
    if values.max() <= 0:
        # degenerate ledger (single sample at the score floor): fall back
        # to uniform promise so a distribution can still be formed
        values = np.ones(n)
    return PromiseVector(values)
