"""Modified promise fitness, kNN fitness estimation, and candidate filtering.

Each ray's stepped distribution is a guide: a candidate's directionality
measure omega, the probability mass that distribution puts on its k
nearest view samples, is combined with its normalized score through the
monotone map ``h``, and candidates whose estimated guided fitness falls
below a ledger quantile are skipped before any expensive evaluation.
Every function here reads the round's view through its
``ResolvedMetric``; neighbor queries answer in view positions, which
index distributions and per-sample arrays directly. ``omega_block``,
``modified_fitness``, ``ledger_modified_fitness`` and
``filter_estimates`` read stacked orders (and distances), a block of
candidates at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ResolvedMetric, fittest_first, knn, normalize_scores
from .manifold import LogDistribution

OMEGA_BASELINE = 0.05  # keeps the product form from annihilating zero-omega candidates


def h(zeta_norm, omega_val):
    """The guided fitness of a normalized score and an omega:
    zeta_norm * (omega_val + OMEGA_BASELINE), elementwise on arrays."""
    return zeta_norm * (omega_val + OMEGA_BASELINE)


@dataclass(frozen=True)
class FilterPolicy:
    """The kNN filter's settings. ``lam`` is the genotypic weight of the
    distance it and omega read (1 purely genotypic, 0 purely phenotypic)."""

    k: int = 7
    threshold_quantile: float = 0.25
    lam: float = 0.5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0.0 <= self.threshold_quantile < 1.0:
            raise ValueError("threshold_quantile must lie in [0, 1)")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")

    def warm(self, view_size: int) -> bool:
        """Whether a view of ``view_size`` samples holds the 2k the filter
        needs to estimate a candidate; on a smaller (cold) view every
        candidate is evaluated."""
        return view_size >= 2 * self.k


def omega_block(orders: np.ndarray, dist: LogDistribution, k: int) -> np.ndarray:
    """Omega of each row of a nonempty order block: the mass ``dist``
    puts on the row's k nearest view samples, summed in neighbor order."""
    masses = dist.p[orders[:, :k]]
    # column by column: each row's sum runs left to right, as a sequential
    # sum does; np.sum adds 8 or more terms in another order
    total = masses[:, 0].copy()
    for j in range(1, masses.shape[1]):
        total += masses[:, j]
    return total


def modified_fitness(
    xs, zeta: np.ndarray, target: LogDistribution, k: int, rm: ResolvedMetric, keys=None
) -> np.ndarray:
    """Guided fitness h(zeta_norm, omega) of each genotype of ``xs`` (a
    nonempty list of scored genotypes; canonical keys ``keys``, computed
    when omitted), omega being the mass ``target`` puts on its k nearest
    view samples: one neighbor query for the block, then ``omega_block``.

    ``zeta`` holds their normalized scores under the view's min-max
    convention.
    """
    idx, _ = knn(xs, rm, k, keys)
    return h(zeta, omega_block(idx, target, k))


def ledger_modified_fitness(
    target: LogDistribution, k: int, rm: ResolvedMetric
) -> np.ndarray:
    """Modified fitness under ``target`` of every sample in rm's view,
    read from the view's order block."""
    view = rm.view
    norm = normalize_scores(view.scores, view)
    return h(norm, omega_block(rm.view_orders, target, k))


def filter_estimates(
    dists: np.ndarray, orders: np.ndarray, k: int, ledger_mf: np.ndarray
) -> np.ndarray:
    """The filter's estimate of each row of a nonempty block of rows (as
    ``ResolvedMetric.rows_of`` stacks them: each row's distances to its
    nearest view samples, ascending, and their positions): the mean of
    ``ledger_mf``, the view's per-sample modified fitness, over the row's
    k nearest view samples, weighted by inverse distance. Each distance
    is offset by 1e-9 times (the median of the k, plus 1e-30), so that a
    sample at distance zero weighs most without dividing by zero."""
    idx, dists = orders[:, :k], dists[:, :k]
    # the median of each row's ascending distances: the middle one, or the
    # mean of the middle two, the same double numpy's median gives
    mid = idx.shape[1] // 2
    if idx.shape[1] % 2:
        median = dists[:, mid]
    else:
        median = (dists[:, mid - 1] + dists[:, mid]) / 2
    delta = 1e-9 * (median + 1e-30)
    weights = 1.0 / (dists + delta[:, None])
    return (weights * ledger_mf[idx]).sum(axis=1) / weights.sum(axis=1)


def should_evaluate(estimate: float, threshold: float) -> tuple[bool, float]:
    """Decide whether a candidate whose filter estimate is ``estimate``
    is worth an expensive evaluation.

    Returns (evaluate?, estimate).
    """
    estimate = float(estimate)
    return estimate >= threshold, estimate


def rank_rays(candidates, promise) -> list[int]:
    """Order stepped distributions by expected promise, best first.

    Returns indices into ``candidates``; ties keep the original order.
    """
    gains = [float(np.sum(c.p * promise)) for c in candidates]
    return fittest_first(gains).tolist()
