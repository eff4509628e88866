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
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .domains.base import Problem
from .errors import BudgetExhausted, EmptyLedger

PAIR_SAMPLE_LIMIT = 1000  # pairs sampled when scaling the blended metric
# blocks of fewer entries take the sliced full sort, which costs less
# there than the selection's fixed overhead
TOP_K_SELECT_MIN = 3072


@dataclass(frozen=True)
class ScoredSample:
    """One evaluated genotype with its memoized score; ``id`` is its
    position in its ledger's evaluation order."""

    id: int
    genotype: Any
    score: float


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

    def score_memo(self, key) -> float | None:
        """The memoized objective value of canonical key ``key``, or None
        if the run has not computed it."""
        return self._scores.get(key)

    def has_behavior(self, problem, key) -> bool:
        """Whether ``behavior_of`` would answer for ``key`` from the memo,
        without an objective call."""
        if type(problem).behavior is Problem.behavior:
            return key in self._scores
        return key in self._behaviors

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

    @cached_property
    def scores(self) -> np.ndarray:
        """The samples' scores, a read-only array built on first use."""
        scores = np.array([s.score for s in self.samples], dtype=float)
        scores.flags.writeable = False
        return scores


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
    # a score far outside a tiny range overflows to +-inf, which clamps
    with np.errstate(over="ignore"):
        return np.clip((scores - lo) / (hi - lo), 0.0, 1.0)


def stable_top_k(rows: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of ``np.argsort(rows, axis=-1, kind="stable")``,
    bit for bit: each row's k nearest positions, ties toward the earlier.

    A block of at least TOP_K_SELECT_MIN entries selects rather than
    sorts: each row's k-th smallest value by partition, then a stable
    sort of only the columns at or below it, taken in column order, so
    every tie at the boundary is kept and ordered as the full sort orders
    it. A smaller or empty block, a block with a NaN, or k >= n takes
    the full stable sort.
    """
    n = rows.shape[-1]
    small = not len(rows) or rows.size < TOP_K_SELECT_MIN
    if k >= n or small or np.isnan(rows).any():
        return np.ascontiguousarray(np.argsort(rows, axis=-1, kind="stable")[..., :k])
    m = len(rows)
    kth = np.partition(rows, k - 1, axis=1)[:, k - 1]
    r, c = np.nonzero(rows <= kth[:, None])  # row-major: columns in order
    counts = np.bincount(r, minlength=m)
    pos = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = np.zeros((m, counts.max()), dtype=np.intp)
    # padding sorts after the kept values: a row with fewer than the
    # widest row's count has a finite k-th value
    vals = np.full(cols.shape, np.inf)
    cols[r, pos] = c
    vals[r, pos] = rows[r, c]
    pick = np.argsort(vals, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cols, pick, axis=1)


class ResolvedMetric:
    """The filter's distance, bound to a problem and a population view.

    The distance blends genotype distance, weight ``lam``, with behavior
    distance, weight ``1 - lam``; ``lam = 1`` is the genotypic metric and
    ``lam = 0`` the phenotypic one, exactly, and each reads only its own
    distance. The view it was built from is ``view``; every neighbor
    query answers in positions of that view. Each row's order keeps only
    its ``width`` nearest view positions, ``min(k, n)`` (every position
    when ``k`` is None): the most neighbors any query of the run reads.
    Stacks the view's genotypes and computes its distance table once, at
    construction, as one n-by-n block: one genotypic block from a single
    ``geno_distances`` call, one behavior block, their blend, and each
    row's k nearest in one ``stable_top_k`` call, so no distance is
    computed or ordered twice. ``view_rows`` (n by n) and ``view_orders``
    (n by width) are those blocks, row i being view sample i's, and
    each sample's row and order are read-only views of them. Behavior
    vectors come from ``memo``, the run's ledger, and new ones are added
    to it, so none is computed twice in a run; without a memo the metric
    keeps a private one. Genotypes outside the view get their rows on
    their first query, ``rows_of`` building those of a list of genotypes
    in one block and ``neighbors`` that of one; later queries of the same
    genotype (equal canonical key) reuse it. ``add_genotypic_rows``
    computes the genotypic part of such rows for a batch of genotypes in
    one block beforehand. Strictly between the extremes, median scales
    over a deterministic sample of view pairs, read from the two blocks,
    make the genotypic and phenotypic terms comparable.
    """

    def __init__(
        self,
        problem,
        view,
        lam: float,
        memo: EvaluationLedger | None = None,
        k: int | None = None,
    ):
        if k is not None and k < 1:
            raise ValueError("k must be positive")
        self.problem = problem
        self.lam = lam
        self.view = view
        self.width = len(view) if k is None else min(k, len(view))
        self._memo = EvaluationLedger(0) if memo is None else memo
        genos = [s.genotype for s in view.samples]
        keys = [problem.canonical_key(g) for g in genos]
        # blend extremes must reduce to the pure metrics exactly
        self._kind = {1.0: "genotypic", 0.0: "phenotypic"}.get(lam, "blended")
        dg = dp = self._behaviors = None
        if self._kind != "genotypic":
            self._behaviors = b = np.array(
                [self._memo.behavior_of(g, problem, key) for g, key in zip(genos, keys)],
                dtype=float,
            )
            # over the last axis, so that an empty view, whose behaviors
            # stack to shape (0,), gives empty blocks
            dp = np.linalg.norm(b[None] - b[:, None], axis=-1)
        if self._kind != "phenotypic":
            self._stacked = problem.stack(genos)
            dg = problem.geno_distances(self._stacked, self._stacked)
        self._geno_scale = 1.0
        self._pheno_scale = 1.0
        if self._kind == "blended":
            self._geno_scale, self._pheno_scale = self._median_scales(dg, dp)
        rows = self._blend(dg, dp)
        orders = stable_top_k(rows, self.width)
        # shared by every query of a view sample
        rows.flags.writeable = orders.flags.writeable = False
        self.view_rows, self.view_orders = rows, orders
        self._rows = dict(zip(keys, zip(rows, orders)))
        # genotypic rows of genotypes outside the view, not yet queried
        self._pending: dict = {}

    @staticmethod
    def _median_scales(dg, dp) -> tuple[float, float]:
        n = len(dg)
        if n < 2:
            return 1.0, 1.0
        if n * (n - 1) // 2 <= PAIR_SAMPLE_LIMIT:
            ii, jj = np.triu_indices(n, 1)
        else:
            rng = np.random.default_rng(0xC0FFEE)
            ii = rng.integers(0, n, size=2 * PAIR_SAMPLE_LIMIT)
            jj = rng.integers(0, n, size=2 * PAIR_SAMPLE_LIMIT)
            distinct = ii != jj
            ii = ii[distinct][:PAIR_SAMPLE_LIMIT]
            jj = jj[distinct][:PAIR_SAMPLE_LIMIT]
        mg = float(np.median(dg[ii, jj]))
        mp = float(np.median(dp[ii, jj]))
        return (mg if mg > 0 else 1.0), (mp if mp > 0 else 1.0)

    def _blend(self, dg, dp) -> np.ndarray:
        """The metric's distances from genotypic distances ``dg`` and
        behavior distances ``dp`` (either None where lam omits it)."""
        if self._kind == "genotypic":
            return dg
        if self._kind == "phenotypic":
            return dp
        lam = self.lam
        return lam * dg / self._geno_scale + (1 - lam) * dp / self._pheno_scale

    def add_genotypic_rows(self, genotypes) -> None:
        """Compute, in one block, the genotypic rows of those ``genotypes``
        this metric holds no row for yet.

        Calls no objective: the behavior part of each row, and its order,
        are computed on the genotype's first query.
        """
        if self._kind == "phenotypic":
            return
        fresh = {}
        for g in genotypes:
            key = self.problem.canonical_key(g)
            if key not in self._rows and key not in self._pending:
                fresh.setdefault(key, g)
        self._add_pending(fresh)

    def _add_pending(self, fresh: dict) -> None:
        """The genotypic rows, in one block, of the genotypes that
        ``fresh`` maps their canonical keys to."""
        if fresh:
            xs = self.problem.stack(list(fresh.values()))
            block = self.problem.geno_distances(xs, self._stacked)
            self._pending.update(zip(fresh, block))

    def row_calls_objective(self, key) -> bool:
        """Whether the first query of the genotype with canonical key
        ``key`` calls the objective: the metric holds no row for it, reads
        behaviors, and the memo holds none for it."""
        return (
            self._behaviors is not None
            and key not in self._rows
            and not self._memo.has_behavior(self.problem, key)
        )

    def _add_rows(self, fresh: dict) -> None:
        """The rows and orders, in one block, of the genotypes that
        ``fresh`` maps their canonical keys to, none of which has a row:
        their behaviors through the memo, in order, one m-by-n behavior
        block, their genotypic rows, one blend and one ``stable_top_k``."""
        dg = dp = None
        if self._behaviors is not None:
            bx = np.array(
                [self._memo.behavior_of(g, self.problem, key) for key, g in fresh.items()],
                dtype=float,
            )
            dp = np.linalg.norm(self._behaviors[None] - bx[:, None], axis=-1)
        if self._kind != "phenotypic":
            self._add_pending({k: g for k, g in fresh.items() if k not in self._pending})
            dg = np.array([self._pending.pop(key) for key in fresh])
        rows = self._blend(dg, dp)
        orders = stable_top_k(rows, self.width)
        # shared by every query of these genotypes
        rows.flags.writeable = orders.flags.writeable = False
        self._rows.update(zip(fresh, zip(rows, orders)))

    def rows_of(self, genotypes) -> tuple[np.ndarray, np.ndarray]:
        """The rows and orders of ``genotypes`` (a nonempty list), stacked
        m by n and m by width: each genotype's distances to the view and
        its nearest view positions by ascending distance, as ``neighbors``
        gives them. The rows not built yet are built in one block."""
        keys = [self.problem.canonical_key(g) for g in genotypes]
        fresh = {}
        for key, g in zip(keys, genotypes):
            if key not in self._rows:
                fresh.setdefault(key, g)
        if fresh:
            self._add_rows(fresh)
        found = [self._rows[key] for key in keys]
        return np.array([row for row, _ in found]), np.array([order for _, order in found])

    def neighbors(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Distances from genotype x to every sample in the view, and the
        positions of its ``width`` nearest by ascending distance, ties
        toward the earlier."""
        key = self.problem.canonical_key(x)
        if key not in self._rows:
            self._add_rows({key: x})
        return self._rows[key]


def knn(x, rm: ResolvedMetric, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, n) nearest samples of rm's view to x, ascending by distance.

    Returns their view positions and their distances. Ties break toward
    the earlier position, which is the smaller id in a view from
    ``view_of``. Raises ValueError when rm's orders hold fewer than
    min(k, n) positions.
    """
    if len(rm.view) == 0:
        raise EmptyLedger("knn on empty ledger")
    if k < 1:
        raise ValueError("k must be positive")
    if min(k, len(rm.view)) > rm.width:
        raise ValueError(
            f"knn asks for {k} neighbors, but the metric's orders hold {rm.width}"
        )
    dists, order = rm.neighbors(x)
    idx = order[:k]
    return idx, dists[idx]
