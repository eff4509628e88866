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
    memo made, one per miss. ``keys[i]`` is sample i's canonical key, and
    ``best`` the sample of highest score, the earliest of equal ones
    (None while the ledger is empty).
    """

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        self.budget = budget
        self.samples: list[ScoredSample] = []
        self.keys: list = []
        self.best: ScoredSample | None = None
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

    def _append(self, sample: ScoredSample, key) -> None:
        self.samples.append(sample)
        self.keys.append(key)
        self._by_key[key] = sample
        # only a strictly greater score replaces the best, so ties keep
        # the earliest sample, as max by (score, -id) does
        if self.best is None or sample.score > self.best.score:
            self.best = sample

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
        if behavior_is_score(problem):
            return key in self._scores
        return key in self._behaviors

    def behavior_of(self, genotype, problem, key) -> np.ndarray:
        """The behavior vector of genotype, from the memo.

        A domain that keeps the default ``Problem.behavior`` (the score
        itself) gets its memoized score, so no second objective call.
        """
        if behavior_is_score(problem):
            return np.array([self.score_of(genotype, problem, key)], dtype=float)
        value = self._behaviors.get(key)
        if value is None:
            value = np.array(problem.behavior(genotype), dtype=float)
            value.flags.writeable = False  # shared by every reader of key
            self._behaviors[key] = value
            self.objective_calls += 1
        return value

    def behaviors_of(self, genotypes, problem, keys) -> np.ndarray:
        """The behavior vectors of ``genotypes`` (canonical keys ``keys``),
        from the memo in order, stacked one row per genotype: the rows of
        ``behavior_of``. A domain whose behavior is its score gets the
        column of its memoized scores."""
        if behavior_is_score(problem):
            scores = [self.score_of(g, problem, key) for g, key in zip(genotypes, keys)]
            return np.array(scores, dtype=float)[:, None]
        return np.array(
            [self.behavior_of(g, problem, key) for g, key in zip(genotypes, keys)],
            dtype=float,
        )

    def __len__(self) -> int:
        return len(self.samples)


def behavior_is_score(problem) -> bool:
    """Whether ``problem`` keeps the default ``Problem.behavior``, the
    one-entry vector of its score."""
    return type(problem).behavior is Problem.behavior


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
    ledger._append(sample, key)
    return sample


def best_score(population) -> float:
    """Maximum score over the ledger or view."""
    if len(population.samples) == 0:
        raise EmptyLedger("best_score on empty ledger")
    return max(s.score for s in population.samples)


def best_sample(ledger: EvaluationLedger) -> ScoredSample:
    """The ledger's sample of highest score, the earliest of equal ones."""
    if ledger.best is None:
        raise EmptyLedger("best_sample on empty ledger")
    return ledger.best


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
    its ``width`` nearest view positions, ``min(k, n)``: the most
    neighbors any query of the run reads.
    Stacks the view's genotypes and computes its distance table once, at
    construction, as one n-by-n block: one genotypic block from a single
    ``geno_distances`` call, one behavior block, their blend, and each
    row's k nearest in one ``stable_top_k`` call, so no distance is
    computed or ordered twice. ``view_rows`` (n by n) and ``view_orders``
    (n by width) are those blocks, row i being view sample i's, and
    each sample's row and order are read-only views of them. Behavior
    vectors come from ``memo``, the run's ledger the view was taken from,
    and new ones are added to it, so none is computed twice in a run;
    the view samples' canonical keys are the memo's ``keys``. A domain
    whose behavior is its score reads the view's scores as its behavior
    column. Genotypes outside the view get their rows on their first
    query, ``rows_of`` building those of a list of genotypes in one
    block; later queries of the same genotype (equal canonical key)
    reuse it. ``add_genotypic_rows`` computes the genotypic part of such
    rows for a batch of genotypes in one block beforehand. Strictly
    between the extremes, median scales over a deterministic sample of
    view pairs, read from the two blocks, make the genotypic and
    phenotypic terms comparable.
    """

    def __init__(self, problem, view, lam: float, memo: EvaluationLedger, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.problem = problem
        self.lam = lam
        self.view = view
        self.width = min(k, len(view))
        self._memo = memo
        genos = [s.genotype for s in view.samples]
        keys = [memo.keys[s.id] for s in view.samples]
        # blend extremes must reduce to the pure metrics exactly
        self._kind = {1.0: "genotypic", 0.0: "phenotypic"}.get(lam, "blended")
        dg = dp = self._behaviors = None
        if self._kind != "genotypic":
            if behavior_is_score(problem):
                b = view.scores[:, None]
            else:
                b = self._memo.behaviors_of(genos, problem, keys)
            self._behaviors = b
            # over the last axis, so that an empty view, whose behaviors
            # may stack to shape (0,), gives empty blocks
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

    def _keys(self, genotypes, keys) -> list:
        """The canonical keys of ``genotypes``: ``keys`` when given."""
        if keys is None:
            return [self.problem.canonical_key(g) for g in genotypes]
        return keys

    def add_genotypic_rows(self, genotypes, keys=None) -> None:
        """Compute, in one block, the genotypic rows of those ``genotypes``
        (canonical keys ``keys``, computed when omitted) this metric holds
        no row for yet.

        Calls no objective: the behavior part of each row, and its order,
        are computed on the genotype's first query.
        """
        if self._kind == "phenotypic":
            return
        fresh = {}
        for key, g in zip(self._keys(genotypes, keys), genotypes):
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
            bx = self._memo.behaviors_of(fresh.values(), self.problem, fresh)
            dp = np.linalg.norm(self._behaviors[None] - bx[:, None], axis=-1)
        if self._kind != "phenotypic":
            self._add_pending({k: g for k, g in fresh.items() if k not in self._pending})
            dg = np.array([self._pending.pop(key) for key in fresh])
        rows = self._blend(dg, dp)
        orders = stable_top_k(rows, self.width)
        # shared by every query of these genotypes
        rows.flags.writeable = orders.flags.writeable = False
        self._rows.update(zip(fresh, zip(rows, orders)))

    def rows_of(self, genotypes, keys=None) -> tuple[np.ndarray, np.ndarray]:
        """The rows and orders of ``genotypes`` (a nonempty list; canonical
        keys ``keys``, computed when omitted), stacked m by n and m by
        width: each genotype's distances to the view and its ``width``
        nearest view positions by ascending distance, ties toward the
        earlier. The rows not built yet are built in one block."""
        keys = self._keys(genotypes, keys)
        fresh = {}
        for key, g in zip(keys, genotypes):
            if key not in self._rows:
                fresh.setdefault(key, g)
        if fresh:
            self._add_rows(fresh)
        found = [self._rows[key] for key in keys]
        return np.array([row for row, _ in found]), np.array([order for _, order in found])


def knn(xs, rm: ResolvedMetric, k: int, keys=None) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, n) nearest samples of rm's view to each genotype of
    ``xs`` (a nonempty list; canonical keys ``keys``, computed when
    omitted), ascending by distance; one genotype's query is ``[x]``.

    Returns two m by min(k, n) blocks: row i holds the view positions of
    genotype i's nearest samples and their distances. Ties break toward
    the earlier position, which is the smaller id in a view from
    ``view_of``. The rows not built yet are built in one block (see
    ``ResolvedMetric.rows_of``). Raises ValueError when rm's orders hold
    fewer than min(k, n) positions.
    """
    if len(rm.view) == 0:
        raise EmptyLedger("knn on empty ledger")
    if k < 1:
        raise ValueError("k must be positive")
    if min(k, len(rm.view)) > rm.width:
        raise ValueError(
            f"knn asks for {k} neighbors, but the metric's orders hold {rm.width}"
        )
    rows, orders = rm.rows_of(xs, keys)
    idx = orders[:, :k]
    return idx, np.take_along_axis(rows, idx, axis=1)
