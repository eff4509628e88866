"""Modified promise fitness, kNN fitness estimation, and candidate filtering.

Each stepped distribution becomes a guide: a candidate's directionality
measure omega (kNN probability mass or projection magnitude) is combined
with its normalized score through a monotone map h, and candidates whose
estimated guided fitness falls below a ledger quantile are skipped
before any expensive evaluation. Every function here reads the round's
view through its ``ResolvedMetric``; neighbor queries answer in view
positions, which index distributions and per-sample arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manifold
from .core import ResolvedMetric, knn, normalize_scores
from .errors import DegenerateLine
from .manifold import LogDistribution

OMEGA_BASELINE = 0.05  # keeps the product form from annihilating zero-omega candidates
H_ALPHA = 0.5  # weight of the normalized score in the weighted-sum form of h
H_KINDS = ("product", "weighted_sum")
OMEGA_KINDS = ("knn_mass", "projection")


@dataclass(frozen=True)
class ModifiedPromise:
    """A guided fitness h(zeta, omega) anchored between two distributions."""

    base: LogDistribution
    target: LogDistribution
    omega: str = "knn_mass"  # one of OMEGA_KINDS
    k: int = 7  # neighbors omega looks at
    h_kind: str = "product"  # one of H_KINDS

    def __post_init__(self):
        if self.base.n != self.target.n:
            raise ValueError("base and target must share a population")
        if self.omega not in OMEGA_KINDS:
            raise ValueError(f"unknown omega kind {self.omega!r}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.h_kind not in H_KINDS:
            raise ValueError(f"unknown h kind {self.h_kind!r}")

    def h(self, zeta_norm: float, omega_val: float) -> float:
        if self.h_kind == "product":
            return zeta_norm * (omega_val + OMEGA_BASELINE)
        return H_ALPHA * zeta_norm + (1 - H_ALPHA) * omega_val


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


def omega_knn(x, dist: LogDistribution, k: int, rm: ResolvedMetric) -> float:
    """Probability mass the distribution puts on x's k nearest neighbors."""
    idx, _ = knn(x, rm, k)
    # a sequential sum, in neighbor order: np.sum adds 8 or more terms
    # in another order
    return float(sum(dist.p[idx].tolist()))


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


def embed_candidate(x, k: int, rm: ResolvedMetric) -> LogDistribution:
    """Represent a genotype as a distribution on its k nearest samples.

    Mass is proportional to inverse distance, so an exact ledger match
    is a near-point-mass.
    """
    idx, weights = _inverse_distance_weights(x, k, rm)
    w = np.zeros(len(rm.view))
    w[idx] = weights
    return manifold.from_weights(w)


def omega_projection(x, mp: ModifiedPromise, k: int, rm: ResolvedMetric) -> float:
    """Projection of x's embedding onto the base-to-target direction.

    Negative projections clamp to zero so h stays monotone-compatible.
    """
    u = manifold.log_map(mp.base, mp.target)
    u_norm = u.norm
    if u_norm < 1e-12:
        raise DegenerateLine("base and target distributions coincide")
    e = manifold.log_map(mp.base, embed_candidate(x, k, rm))
    proj = manifold.inner(mp.base, e.f, u.f) / u_norm
    return max(0.0, float(proj))


def omega_value(x, mp: ModifiedPromise, rm: ResolvedMetric) -> float:
    if mp.omega == "knn_mass":
        return omega_knn(x, mp.target, mp.k, rm)
    return omega_projection(x, mp, mp.k, rm)


def modified_fitness(
    x, zeta_value: float, mp: ModifiedPromise, rm: ResolvedMetric
) -> float:
    """Guided fitness h(zeta_norm, omega) for a genotype with known score.

    ``zeta_value`` is the normalized score under the view's min-max
    convention.
    """
    return mp.h(zeta_value, omega_value(x, mp, rm))


def ledger_modified_fitness(mp: ModifiedPromise, rm: ResolvedMetric) -> np.ndarray:
    """Modified fitness of every sample in rm's view."""
    view = rm.view
    norm = normalize_scores(view.scores, view)
    return np.array(
        [
            mp.h(norm[i], omega_value(s.genotype, mp, rm))
            for i, s in enumerate(view.samples)
        ]
    )


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


def should_evaluate(
    x,
    policy: FilterPolicy,
    rm: ResolvedMetric,
    ledger_mf: np.ndarray,
    threshold: float,
) -> tuple[bool, float]:
    """Decide whether a candidate is worth an expensive evaluation.

    Returns (evaluate?, estimate). Cold start (fewer than 2k view
    samples) always evaluates.
    """
    if len(rm.view) < 2 * policy.k:
        return True, float("nan")
    est = estimate_fitness(x, policy, rm, ledger_mf)
    return est >= threshold, est


def rank_rays(candidates, promise) -> list[int]:
    """Order stepped distributions by expected promise, best first.

    Returns indices into ``candidates``; ties keep the original order.
    """
    gains = [float(np.sum(c.p * promise)) for c in candidates]
    return sorted(range(len(candidates)), key=lambda i: (-gains[i], i))
