"""Modified promise fitness, kNN fitness estimation, and candidate filtering.

Each stepped distribution becomes a guide: a candidate's directionality
measure omega (kNN probability mass or projection magnitude) is combined
with its normalized score through a monotone map h, and candidates whose
estimated guided fitness falls below a ledger quantile are skipped
before any expensive evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manifold
from .core import DistanceMetric, ResolvedMetric, knn, normalize_scores
from .errors import DegenerateLine, EmptyLedger
from .manifold import LogDistribution

OMEGA_BASELINE = 0.05  # keeps the product form from annihilating zero-omega candidates
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
    alpha: float = 0.5
    omega_baseline: float = OMEGA_BASELINE

    def __post_init__(self):
        if self.base.n != self.target.n:
            raise ValueError("base and target must share a population")
        if self.omega not in OMEGA_KINDS:
            raise ValueError(f"unknown omega kind {self.omega!r}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.h_kind not in H_KINDS:
            raise ValueError(f"unknown h kind {self.h_kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    def h(self, zeta_norm: float, omega_val: float) -> float:
        if self.h_kind == "product":
            return zeta_norm * (omega_val + self.omega_baseline)
        return self.alpha * zeta_norm + (1 - self.alpha) * omega_val


@dataclass(frozen=True)
class FilterPolicy:
    k: int = 7
    threshold_quantile: float = 0.25
    metric: DistanceMetric = DistanceMetric.blended(0.5)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0.0 <= self.threshold_quantile < 1.0:
            raise ValueError("threshold_quantile must lie in [0, 1)")


def omega_knn(
    x,
    dist: LogDistribution,
    population,
    k: int,
    rm: ResolvedMetric,
) -> float:
    """Probability mass the distribution puts on x's k nearest neighbors."""
    if len(population.samples) == 0:
        raise EmptyLedger("omega_knn on empty ledger")
    neighbors = knn(x, population, k, rm)
    p = dist.p
    return float(sum(p[population.pos_by_id[s.id]] for s, _ in neighbors))


def embed_candidate(
    x,
    population,
    k: int,
    rm: ResolvedMetric,
) -> LogDistribution:
    """Represent a genotype as a distribution on its k nearest samples.

    Mass is proportional to inverse distance, so an exact ledger match
    is a near-point-mass.
    """
    if len(population.samples) == 0:
        raise EmptyLedger("embed_candidate on empty ledger")
    neighbors = knn(x, population, k, rm)
    dists = np.array([d for _, d in neighbors])
    delta = 1e-9 * (float(np.median(dists)) + 1e-30)
    w = np.zeros(len(population.samples))
    for (s, d) in neighbors:
        w[population.pos_by_id[s.id]] = 1.0 / (d + delta)
    return manifold.from_weights(w)


def omega_projection(
    x,
    mp: ModifiedPromise,
    population,
    k: int,
    rm: ResolvedMetric,
) -> float:
    """Projection of x's embedding onto the base-to-target direction.

    Negative projections clamp to zero so h stays monotone-compatible.
    """
    u = manifold.log_map(mp.base, mp.target)
    u_norm = u.norm
    if u_norm < 1e-12:
        raise DegenerateLine("base and target distributions coincide")
    e = manifold.log_map(mp.base, embed_candidate(x, population, k, rm))
    proj = manifold.inner(mp.base, e.f, u.f) / u_norm
    return max(0.0, float(proj))


def omega_value(x, mp: ModifiedPromise, population, rm: ResolvedMetric) -> float:
    if mp.omega == "knn_mass":
        return omega_knn(x, mp.target, population, mp.k, rm)
    return omega_projection(x, mp, population, mp.k, rm)


def modified_fitness(
    x,
    zeta_value: float,
    mp: ModifiedPromise,
    population,
    rm: ResolvedMetric,
) -> float:
    """Guided fitness h(zeta_norm, omega) for a genotype with known score.

    ``zeta_value`` is the normalized score under the snapshot's min-max
    convention.
    """
    return mp.h(zeta_value, omega_value(x, mp, population, rm))


def ledger_modified_fitness(
    mp: ModifiedPromise, population, rm: ResolvedMetric
) -> np.ndarray:
    """Modified fitness of every sample in the snapshot."""
    norm = normalize_scores(population.scores, population)
    return np.array(
        [
            mp.h(norm[i], omega_value(s.genotype, mp, population, rm))
            for i, s in enumerate(population.samples)
        ]
    )


def estimate_fitness(
    x,
    population,
    policy: FilterPolicy,
    rm: ResolvedMetric,
    ledger_mf: np.ndarray,
) -> float:
    """Distance-weighted average of neighbors' modified fitness.

    ``ledger_mf`` is the snapshot's per-sample modified fitness, computed
    once for a whole batch of candidates.
    """
    if len(population.samples) == 0:
        raise EmptyLedger("estimate_fitness on empty ledger")
    neighbors = knn(x, population, policy.k, rm)
    dists = np.array([d for _, d in neighbors])
    delta = 1e-9 * (float(np.median(dists)) + 1e-30)
    weights = 1.0 / (dists + delta)
    vals = np.array([ledger_mf[population.pos_by_id[s.id]] for s, _ in neighbors])
    return float(np.sum(weights * vals) / np.sum(weights))


def should_evaluate(
    x,
    population,
    policy: FilterPolicy,
    rm: ResolvedMetric,
    ledger_mf: np.ndarray,
    threshold: float,
) -> tuple[bool, float]:
    """Decide whether a candidate is worth an expensive evaluation.

    Returns (evaluate?, estimate). Cold start (fewer than 2k samples)
    always evaluates.
    """
    n = len(population.samples)
    if n < 2 * policy.k:
        return True, float("nan")
    est = estimate_fitness(x, population, policy, rm, ledger_mf)
    return est >= threshold, est


def rank_rays(candidates, base_promise) -> list[int]:
    """Order stepped distributions by expected promise, best first.

    Returns indices into ``candidates``; ties keep the original order.
    """
    values = np.asarray(base_promise.values, dtype=float)
    gains = [float(np.sum(c.p * values)) for c in candidates]
    return sorted(range(len(candidates)), key=lambda i: (-gains[i], i))
