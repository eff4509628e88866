"""Evaluation ledger, memoized scoring, and nearest-neighbor queries.

The ledger is the single source of truth for which genotypes have been
evaluated, that is, charged to the budget. It is also the run's memo of
objective values and behavior vectors, which also memoizes genotypes it
has not charged (candidates the filter scored and skipped), so no
genotype's ``score`` or ``behavior`` is computed twice in a run. All
other modules treat the ledger (or a frozen view of it) as an immutable
snapshot per loop iteration; only ``evaluate`` charges it. A
``ResolvedMetric`` is the one handle on such a view: neighbor queries go
through it and answer in view positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .domains.base import Problem
from .errors import BudgetExhausted, EmptyLedger

PAIR_SAMPLE_LIMIT = 1000  # pairs sampled when scaling the blended metric


@dataclass(frozen=True)
class ScoredSample:
    """One evaluated genotype with its memoized score; ``id`` is its
    position in its ledger's evaluation order."""

    id: int
    genotype: Any
    score: float


@dataclass(frozen=True)
class DistanceMetric:
    """Selector for the genotype-space metric.

    ``kind`` is one of ``genotypic``, ``phenotypic``, ``blended``;
    ``lam`` is the genotypic weight of the blend (lam=1 is purely
    genotypic, lam=0 purely phenotypic).
    """

    kind: str = "blended"
    lam: float = 0.5

    def __post_init__(self):
        if self.kind not in ("genotypic", "phenotypic", "blended"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("blend weight must lie in [0, 1]")

    @staticmethod
    def genotypic() -> "DistanceMetric":
        return DistanceMetric("genotypic")

    @staticmethod
    def phenotypic() -> "DistanceMetric":
        return DistanceMetric("phenotypic")

    @staticmethod
    def blended(lam: float = 0.5) -> "DistanceMetric":
        return DistanceMetric("blended", lam)


class EvaluationLedger:
    """Append-only record of evaluated genotypes with a hard budget.

    Also the run's memo, keyed by canonical key, of every objective value
    and behavior vector the run has computed, charged or not.
    ``objective_calls`` counts the ``score`` and ``behavior`` calls the
    memo made, one per miss.
    """

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        self.budget = budget
        self.samples: list[ScoredSample] = []
        self._by_key: dict[Any, ScoredSample] = {}
        self._scores: dict[Any, float] = {}
        self._behaviors: dict[Any, np.ndarray] = {}
        self.objective_calls = 0

    @property
    def eval_count(self) -> int:
        return len(self.samples)

    @property
    def remaining(self) -> int:
        return self.budget - self.eval_count

    def lookup(self, key: Any) -> ScoredSample | None:
        return self._by_key.get(key)

    def score_of(self, genotype, problem, key) -> float:
        """The objective value of genotype (canonical key ``key``), from the
        memo; computed on a miss. Charges no budget."""
        value = self._scores.get(key)
        if value is None:
            value = self._scores[key] = float(problem.score(genotype))
            self.objective_calls += 1
        return value

    def behavior_of(self, genotype, problem, key) -> np.ndarray:
        """The behavior vector of genotype, from the memo.

        A domain that keeps the default ``Problem.behavior`` (the score
        itself) gets its memoized score, so no second objective call.
        """
        if type(problem).behavior is Problem.behavior:
            return np.array([self.score_of(genotype, problem, key)], dtype=float)
        value = self._behaviors.get(key)
        if value is None:
            value = np.array(problem.behavior(genotype), dtype=float)
            value.flags.writeable = False  # shared by every reader of key
            self._behaviors[key] = value
            self.objective_calls += 1
        return value

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class PopulationView:
    """Frozen subset of a ledger used as the population S_n.

    Distribution coordinates elsewhere in the package index positions
    in ``samples``, not global genotype ids.
    """

    samples: tuple[ScoredSample, ...]

    @staticmethod
    def of(samples: Sequence[ScoredSample]) -> "PopulationView":
        return PopulationView(tuple(samples))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def scores(self) -> np.ndarray:
        return np.array([s.score for s in self.samples], dtype=float)


def view_of(ledger: EvaluationLedger, cap: int | None = None) -> PopulationView:
    """Snapshot the ledger, keeping at most ``cap`` best-scoring samples.

    The kept samples are ordered by ascending id so coordinates are
    stable for a given membership set.
    """
    samples = ledger.samples
    if cap is not None and len(samples) > cap:
        ranked = sorted(samples, key=lambda s: (-s.score, s.id))[:cap]
        samples = sorted(ranked, key=lambda s: s.id)
    return PopulationView.of(samples)


def evaluate(genotype, problem, ledger: EvaluationLedger) -> ScoredSample:
    """Charge a genotype to the ledger, memoizing by canonical form.

    A cached genotype is returned without consuming budget. The score
    comes from the ledger's memo, so a genotype the filter already scored
    costs no second objective call.
    """
    key = problem.canonical_key(genotype)
    cached = ledger.lookup(key)
    if cached is not None:
        return cached
    if ledger.eval_count >= ledger.budget:
        raise BudgetExhausted(
            f"budget of {ledger.budget} evaluations exhausted"
        )
    sample = ScoredSample(
        id=len(ledger.samples),
        genotype=genotype,
        score=ledger.score_of(genotype, problem, key),
    )
    ledger.samples.append(sample)
    ledger._by_key[key] = sample
    return sample


def best_score(population) -> float:
    """Maximum score over the ledger or view."""
    if len(population.samples) == 0:
        raise EmptyLedger("best_score on empty ledger")
    return max(s.score for s in population.samples)


def best_sample(population) -> ScoredSample:
    if len(population.samples) == 0:
        raise EmptyLedger("best_sample on empty ledger")
    return max(population.samples, key=lambda s: (s.score, -s.id))


def normalize_scores(scores, population) -> np.ndarray:
    """Min-max rescale scores against the population's score range.

    Scores outside that range clamp to [0, 1]; a population whose
    scores are all equal maps every score to 1.
    """
    if len(population.samples) == 0:
        raise EmptyLedger("normalize_scores on empty ledger")
    ref = population.scores
    lo, hi = ref.min(), ref.max()
    scores = np.asarray(scores, dtype=float)
    if hi == lo:
        return np.ones_like(scores)
    return np.clip((scores - lo) / (hi - lo), 0.0, 1.0)


class ResolvedMetric:
    """A DistanceMetric bound to a problem and a population view.

    The view it was built from is ``view``; every neighbor query answers
    in positions of that view. Computes the view's distance table once,
    at construction: one row per sample, from the behavior vectors and
    genotypic rows stored here, so no genotypic distance is computed
    twice. Behavior vectors come from ``memo``, the run's ledger, and new
    ones are added to it, so none is computed twice in a run; without a
    memo the metric keeps a private one. A genotype outside the view gets
    its row on its first query; later queries of the same genotype (equal
    canonical key) reuse it. For the blended kind, median scales over a
    deterministic sample of view pairs, read from the genotypic rows,
    make the genotypic and phenotypic terms comparable.
    """

    def __init__(
        self,
        problem,
        view,
        metric: DistanceMetric,
        memo: EvaluationLedger | None = None,
    ):
        self.problem = problem
        self.metric = metric
        self.view = view
        self._memo = EvaluationLedger(0) if memo is None else memo
        self._genos = [s.genotype for s in view.samples]
        keys = [problem.canonical_key(g) for g in self._genos]
        self._kind = metric.kind
        # blend extremes must reduce to the pure metrics exactly
        if metric.kind == "blended" and metric.lam in (0.0, 1.0):
            self._kind = "genotypic" if metric.lam == 1.0 else "phenotypic"
        self._behaviors = None
        if self._kind != "genotypic":
            self._behaviors = np.array(
                [
                    self._memo.behavior_of(g, problem, key)
                    for g, key in zip(self._genos, keys)
                ],
                dtype=float,
            )
        geno_rows = [None] * len(self._genos)
        if self._kind != "phenotypic":
            geno_rows = [problem.geno_distances(g, self._genos) for g in self._genos]
        self._geno_scale = 1.0
        self._pheno_scale = 1.0
        if self._kind == "blended":
            self._geno_scale, self._pheno_scale = self._median_scales(geno_rows)
        self._rows = {}
        for i, (g, key) in enumerate(zip(self._genos, keys)):
            bx = None if self._behaviors is None else self._behaviors[i]
            self._rows[key] = self._row(g, bx, geno_rows[i])

    def _median_scales(self, geno_rows) -> tuple[float, float]:
        n = len(self._genos)
        if n < 2:
            return 1.0, 1.0
        rng = np.random.default_rng(0xC0FFEE)
        total = n * (n - 1) // 2
        if total <= PAIR_SAMPLE_LIMIT:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        else:
            ii = rng.integers(0, n, size=2 * PAIR_SAMPLE_LIMIT)
            jj = rng.integers(0, n, size=2 * PAIR_SAMPLE_LIMIT)
            pairs = [(int(i), int(j)) for i, j in zip(ii, jj) if i != j][
                :PAIR_SAMPLE_LIMIT
            ]
        dg = [geno_rows[i][j] for i, j in pairs]
        bp = self._behaviors
        dp = [float(np.linalg.norm(bp[i] - bp[j])) for i, j in pairs]
        mg = float(np.median(dg))
        mp = float(np.median(dp))
        return (mg if mg > 0 else 1.0), (mp if mp > 0 else 1.0)

    def _row(self, x, bx, dg=None) -> np.ndarray:
        """Distances from x, with behavior vector bx, to every sample.

        ``dg`` is x's genotypic row when it is already known.
        """
        if self._kind != "phenotypic" and dg is None:
            dg = self.problem.geno_distances(x, self._genos)
        if self._kind != "genotypic":
            dp = np.linalg.norm(self._behaviors - bx[None, :], axis=1)
        if self._kind == "genotypic":
            row = dg
        elif self._kind == "phenotypic":
            row = dp
        else:
            lam = self.metric.lam
            row = lam * dg / self._geno_scale + (1 - lam) * dp / self._pheno_scale
        row = np.asarray(row, dtype=float)
        row.flags.writeable = False  # shared by every query of x
        return row

    def to_all(self, x) -> np.ndarray:
        """Distances from genotype x to every sample in the view."""
        key = self.problem.canonical_key(x)
        row = self._rows.get(key)
        if row is None:
            bx = None
            if self._behaviors is not None:
                bx = self._memo.behavior_of(x, self.problem, key)
            row = self._rows[key] = self._row(x, bx)
        return row


def knn(x, rm: ResolvedMetric, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, n) nearest samples of rm's view to x, ascending by distance.

    Returns their view positions and their distances. Ties break toward
    the earlier position, which is the smaller id in a view from
    ``view_of``.
    """
    n = len(rm.view)
    if n == 0:
        raise EmptyLedger("knn on empty ledger")
    if k < 1:
        raise ValueError("k must be positive")
    dists = rm.to_all(x)
    idx = np.argsort(dists, kind="stable")[: min(k, n)]
    return idx, dists[idx]
