"""Evaluation ledger, memoized scoring, and nearest-neighbor queries.

The ledger is the single source of truth for which genotypes have been
evaluated, that is, charged to the budget, and the run's memo of their
objective values: only ``evaluate`` charges it and calls the objective,
once per new genotype. All other modules treat the ledger (or a frozen
view of it) as an immutable snapshot per loop iteration. A
``ResolvedMetric`` is the one handle on such a view: neighbor queries,
by genotypic distance, go through it and answer in view positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExhausted, EmptyLedger

# blocks of fewer entries take the sliced full sort: timed against the
# argmin passes at k = 7 on tie-heavy blocks 64, 96 and 256 columns wide,
# the sort won below about 1,300 entries, the two were within about 10%
# at 1,536, and the passes won on every width from about 2,000
TOP_K_SELECT_MIN = 1536


class ScoredSample(NamedTuple):
    """One evaluated genotype with its memoized score; ``id`` is its
    position in its ledger's evaluation order. An immutable record, a
    tuple, which is cheaper to build than a frozen dataclass."""

    id: int
    genotype: Any
    score: float


class EvaluationLedger:
    """Append-only record of evaluated genotypes with a hard budget.

    ``objective_calls`` counts the ``score`` calls ``evaluate`` made, one
    per new genotype. ``keys[i]`` and ``scores[i]`` are sample i's
    canonical key and score, and ``best`` the sample of highest score,
    the earliest of equal ones (None while the ledger is empty).
    """

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        self.budget = budget
        self.samples: list[ScoredSample] = []
        self.keys: list = []
        self.scores: list[float] = []
        self.best: ScoredSample | None = None
        self._by_key: dict[Any, ScoredSample] = {}
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
        self.scores.append(sample.score)
        self._by_key[key] = sample
        # only a strictly greater score replaces the best, so ties keep
        # the earliest sample, as max by (score, -id) does
        if self.best is None or sample.score > self.best.score:
            self.best = sample

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


def fittest_first(fitness) -> np.ndarray:
    """Positions of ``fitness`` (a sequence of floats, none NaN), fittest
    first, ties to the earlier: one stable argsort of the negated values,
    the order of a sort by the key ``(-fitness[i], i)``.

    The two orders differ only where a value is NaN, and none is: every
    domain maps a non-finite objective value to a finite score, and a
    guided fitness h = zeta * (omega + OMEGA_BASELINE) is built from
    finite terms.
    """
    return np.argsort(-np.asarray(fitness, dtype=float), kind="stable")


def view_of(ledger: EvaluationLedger, cap: int | None = None) -> PopulationView:
    """Snapshot the ledger, keeping at most ``cap`` best-scoring samples,
    the earliest of equal scores first.

    The kept samples are ordered by ascending id so coordinates are
    stable for a given membership set. They are ranked by
    ``fittest_first`` of the ledger's scores: sample i has id i, so that
    orders them by ``(-score, id)``, as a sort by that key does.
    """
    samples = ledger.samples
    if cap is not None and len(samples) > cap:
        ranked = fittest_first(ledger.scores)[:cap]
        ranked.sort()
        samples = [samples[i] for i in ranked.tolist()]
    return PopulationView.of(samples)


def evaluate(genotype, problem, ledger: EvaluationLedger) -> ScoredSample:
    """Charge a genotype to the ledger, memoizing by canonical form.

    A cached genotype is returned without consuming budget; a new one
    costs one ``problem.score`` call.
    """
    key = problem.canonical_key(genotype)
    cached = ledger._by_key.get(key)
    if cached is not None:
        return cached
    count = len(ledger.samples)
    if count >= ledger.budget:
        raise BudgetExhausted(
            f"budget of {ledger.budget} evaluations exhausted"
        )
    sample = ScoredSample(count, genotype, float(problem.score(genotype)))
    ledger.objective_calls += 1
    ledger._append(sample, key)
    return sample


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


def nearest(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's min(k, n) nearest positions and their distances, two m
    by min(k, n) blocks: the first k columns of
    ``np.argsort(block, axis=-1, kind="stable")`` and the entries of
    ``block`` there, bit for bit, so ties go to the earlier position.

    A block of at least TOP_K_SELECT_MIN entries is selected in place:
    k passes of ``argmin``, each taking every row's least entry, the
    first of equal ones, recording it and setting it to +inf, so the
    passes take the entries in the stable sort's order. ``block`` is
    the caller's to give up: those passes overwrite it, and it is not
    read again. A smaller or empty block, a block with a non-finite
    entry (a +inf there would tie with a taken entry, a NaN sorts
    last), or k >= n takes the full stable sort and is left as it was.
    """
    m, n = block.shape
    small = not m or block.size < TOP_K_SELECT_MIN
    if k >= n or small or not block.max() < np.inf:
        idx = np.ascontiguousarray(np.argsort(block, axis=1, kind="stable")[:, :k])
        return idx, block[np.arange(m)[:, None], idx]
    taken = np.empty((k, m), dtype=np.intp)
    dists = np.empty((k, m))
    flat = np.arange(0, m * n, n)  # each row's first entry in the flat block
    for j in range(k):
        block.argmin(axis=1, out=taken[j])
        at = flat + taken[j]
        block.take(at, out=dists[j])
        block.put(at, np.inf)
    return np.ascontiguousarray(taken.T), np.ascontiguousarray(dists.T)


class ResolvedMetric:
    """The filter's genotypic distance, bound to a problem and a
    population view.

    The view it was built from is ``view``; every neighbor query answers
    in positions of that view. Each genotype's row keeps only its
    ``width`` nearest view positions, ``min(k, n)``: the most neighbors
    any query of the run reads, and its distances to them. Stacks the
    view's genotypes and computes its distance table once, at
    construction, as one n-by-n block from a single ``geno_distances``
    call, and selects each row's width nearest from that block in place
    by one ``nearest`` call, so no distance is computed or ordered twice,
    and the block is dropped. ``view_orders`` (n by width) and the
    distances at those positions are what is kept, row i being view
    sample i's, and each sample's row is two read-only views of them.
    The view samples' canonical keys are ``memo.keys``, of the run's
    ledger the view was taken from. Genotypes outside the view get their
    rows on their first query, ``rows_of`` building those of a list of
    genotypes in one block; later queries of the same genotype (equal
    canonical key) reuse it. No row calls the objective.
    """

    def __init__(self, problem, view, memo: EvaluationLedger, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.problem = problem
        self.view = view
        self.width = min(k, len(view))
        self._stacked = problem.stack([s.genotype for s in view.samples])
        block = problem.geno_distances(self._stacked, self._stacked)
        orders, dists = nearest(block, self.width)
        # shared by every query of a view sample
        orders.flags.writeable = dists.flags.writeable = False
        self.view_orders = orders
        keys = [memo.keys[s.id] for s in view.samples]
        self._rows = dict(zip(keys, zip(dists, orders)))

    def rows_of(self, genotypes, keys=None) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``genotypes`` (a nonempty list; canonical keys
        ``keys``, computed when omitted), as two m-by-width blocks: each
        genotype's distances to its ``width`` nearest view positions,
        ascending, ties toward the earlier position, and those positions.
        The rows not built yet are built in one block."""
        if keys is None:
            keys = [self.problem.canonical_key(g) for g in genotypes]
        rows = self._rows
        fresh = {}
        for key, g in zip(keys, genotypes):
            if key not in rows:
                fresh.setdefault(key, g)
        if fresh:
            xs = self.problem.stack(list(fresh.values()))
            orders, dists = nearest(self.problem.geno_distances(xs, self._stacked), self.width)
            # shared by every query of these genotypes
            orders.flags.writeable = dists.flags.writeable = False
            rows.update(zip(fresh, zip(dists, orders)))
        found = [rows[key] for key in keys]
        return np.array([d for d, _ in found]), np.array([o for _, o in found])


def knn(xs, rm: ResolvedMetric, k: int, keys=None) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, n) nearest samples of rm's view to each genotype of
    ``xs`` (a nonempty list; canonical keys ``keys``, computed when
    omitted), ascending by distance; one genotype's query is ``[x]``.

    Returns two m by min(k, n) blocks: row i holds the view positions of
    genotype i's nearest samples and their distances. Ties break toward
    the earlier position, which is the smaller id in a view from
    ``view_of``. The rows not built yet are built in one block (see
    ``ResolvedMetric.rows_of``). Raises ValueError when rm's rows hold
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
    dists, orders = rm.rows_of(xs, keys)
    return orders[:, :k], dists[:, :k]
