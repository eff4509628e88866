"""Modified promise fitness, kNN fitness estimation, and candidate filtering.

Each ray's stepped distribution is a guide: a candidate's directionality
measure omega, the probability mass that distribution puts on its k
nearest view samples, is combined with its normalized score through the
monotone map ``h``, and candidates whose estimated guided fitness falls
below a ledger quantile are skipped before any expensive evaluation.
Every function here reads the round's view through its
``ResolvedMetric``; neighbor queries answer in view positions, which
index distributions and per-sample arrays directly. The block forms
(``omega_block``, ``ledger_modified_fitness``, ``filter_estimates``) read
stacked rows and orders and give, bit for bit, what the one-candidate
forms (``omega_knn``, ``modified_fitness``, ``estimate_fitness``) give
each row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ResolvedMetric, knn, normalize_scores
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


def omega_knn(x, dist: LogDistribution, k: int, rm: ResolvedMetric) -> float:
    """Probability mass the distribution puts on x's k nearest neighbors."""
    idx, _ = knn(x, rm, k)
    # a sequential sum, in neighbor order: np.sum adds 8 or more terms
    # in another order
    return float(sum(dist.p[idx].tolist()))


def omega_block(orders: np.ndarray, dist: LogDistribution, k: int) -> np.ndarray:
    """``omega_knn`` of each row of a nonempty order block: the mass
    ``dist`` puts on the row's k nearest view samples."""
    masses = dist.p[orders[:, :k]]
    # column by column: the sequential sum omega_knn takes
    total = masses[:, 0].copy()
    for j in range(1, masses.shape[1]):
        total += masses[:, j]
    return total


def _ascending_median(values) -> float:
    """The median of nonempty ascending values: the middle one, or the
    mean of the middle two, the same double numpy's median gives."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return float((values[mid - 1] + values[mid]) / 2)


def _inverse_distance_weights(x, k: int, rm: ResolvedMetric):
    """x's k nearest view positions and their inverse-distance weights."""
    idx, dists = knn(x, rm, k)
    delta = 1e-9 * (_ascending_median(dists) + 1e-30)
    return idx, 1.0 / (dists + delta)


def modified_fitness(
    x, zeta_value: float, target: LogDistribution, k: int, rm: ResolvedMetric
) -> float:
    """Guided fitness h(zeta_norm, omega) for a genotype with known score,
    omega being the mass ``target`` puts on its k nearest view samples.

    ``zeta_value`` is the normalized score under the view's min-max
    convention.
    """
    return h(zeta_value, omega_knn(x, target, k, rm))


def ledger_modified_fitness(
    target: LogDistribution, k: int, rm: ResolvedMetric
) -> np.ndarray:
    """Modified fitness under ``target`` of every sample in rm's view,
    read from the view's order block."""
    view = rm.view
    norm = normalize_scores(view.scores, view)
    return h(norm, omega_block(rm.view_orders, target, k))


def estimate_fitness(
    x,
    policy: FilterPolicy,
    rm: ResolvedMetric,
    ledger_mf: np.ndarray,
) -> float:
    """Distance-weighted average of neighbors' modified fitness.

    ``ledger_mf`` is the view's per-sample modified fitness, computed
    once for a whole batch of candidates.
    """
    idx, weights = _inverse_distance_weights(x, policy.k, rm)
    return float(np.sum(weights * ledger_mf[idx]) / np.sum(weights))


def filter_estimates(
    rows: np.ndarray, orders: np.ndarray, k: int, ledger_mf: np.ndarray
) -> np.ndarray:
    """``estimate_fitness`` of each row of a nonempty block of rows and
    their orders (as ``ResolvedMetric.rows_of`` stacks them)."""
    idx = orders[:, :k]
    dists = rows[np.arange(len(idx))[:, None], idx]
    # the median of each row's ascending distances, as _ascending_median
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

    Returns (evaluate?, estimate). A NaN estimate, which a cold view
    gives (see ``FilterPolicy.warm``), always evaluates.
    """
    estimate = float(estimate)
    if np.isnan(estimate):
        return True, estimate
    return estimate >= threshold, estimate


def rank_rays(candidates, promise) -> list[int]:
    """Order stepped distributions by expected promise, best first.

    Returns indices into ``candidates``; ties keep the original order.
    """
    gains = [float(np.sum(c.p * promise)) for c in candidates]
    return sorted(range(len(candidates)), key=lambda i: (-gains[i], i))
