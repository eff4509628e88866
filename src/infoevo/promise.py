"""Promise estimation over the evaluated population.

The promise of a sample blends its (normalized) score with one heuristic
ratio: how well it dominates its local neighborhood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ResolvedMetric, knn, normalize_scores
from .errors import LedgerTooSmall


@dataclass(frozen=True)
class PromiseWeights:
    w_zeta: float = 1.5
    w_lm: float = 0.5
    k_local: int = 5

    def __post_init__(self):
        if min(self.w_zeta, self.w_lm) < 0:
            raise ValueError("promise weights must be nonnegative")
        if self.w_zeta + self.w_lm <= 0:
            raise ValueError("at least one promise weight must be positive")
        if self.k_local < 1:
            raise ValueError("k_local must be positive")


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


def local_max_ratios(orders: np.ndarray, norm: np.ndarray, k_local: int) -> np.ndarray:
    """``local_max_prob`` of every view sample at once, from the view's
    order block ``orders`` (row i is sample i's) and normalized scores."""
    n = len(norm)
    idx = orders[:, : k_local + 1]
    others = idx != np.arange(n)[:, None]
    # a sample's neighborhood: the first k_local of its k_local + 1
    # nearest other than itself
    hood = others & (np.cumsum(others, axis=1) <= k_local)
    denom = np.maximum(norm, np.where(hood, norm[idx], -np.inf).max(axis=1))
    ratios = np.ones(n)
    np.divide(norm, denom, out=ratios, where=denom > 0)
    return ratios


def promise_vector(weights: PromiseWeights, rm: ResolvedMetric) -> np.ndarray:
    """Weighted blend of normalized score and the local-max ratio.

    A read-only array indexed like the view samples. The view's best
    sample has promise ``w_zeta + w_lm > 0``. With ``w_lm > 0`` a view of
    one sample raises ``LedgerTooSmall``.
    """
    view = rm.view
    norm = normalize_scores(view.scores, view)
    values = weights.w_zeta * norm
    if weights.w_lm > 0:
        if len(view) < 2:
            raise LedgerTooSmall("the local-max ratio needs at least 2 samples")
        lm = local_max_ratios(rm.view_orders, norm, weights.k_local)
        values = values + weights.w_lm * lm
    values.flags.writeable = False
    return values
