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
from functools import cached_property, lru_cache
from typing import Any, NamedTuple, Sequence

import numpy as np

from .domains.base import Problem
from .errors import BudgetExhausted, EmptyLedger

PAIR_SAMPLE_LIMIT = 1000  # pairs sampled when scaling the blended metric
BLEND_ROWS = 16  # rows of behavior distances a blend adds at a time
SCALE_PAIR_SIZES = 16  # view sizes whose scale pairs are kept
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

    Also the run's memo, keyed by canonical key, of every objective value
    and behavior vector the run has computed, charged or not.
    ``objective_calls`` counts the ``score`` and ``behavior`` calls the
    memo made, one per miss. ``keys[i]`` and ``scores[i]`` are sample
    i's canonical key and score, and ``best`` the sample of highest
    score, the earliest of equal ones (None while the ledger is empty).
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
        self.scores.append(sample.score)
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

    def behaviors_of(self, genotypes, problem, keys) -> np.ndarray:
        """The behavior vectors of ``genotypes`` (canonical keys ``keys``),
        from the memo in order, stacked one row per genotype; a miss calls
        ``problem.behavior`` and stores its read-only row. A domain whose
        behavior is its score gets the column of its memoized scores, so
        no second objective call."""
        if behavior_is_score(problem):
            memo = self._scores
            scores = []
            for g, key in zip(genotypes, keys):
                value = memo.get(key)
                scores.append(self.score_of(g, problem, key) if value is None else value)
            return np.array(scores, dtype=float)[:, None]
        rows = []
        for g, key in zip(genotypes, keys):
            value = self._behaviors.get(key)
            if value is None:
                value = np.array(problem.behavior(g), dtype=float)
                value.flags.writeable = False  # shared by every reader of key
                self._behaviors[key] = value
                self.objective_calls += 1
            rows.append(value)
        return np.array(rows, dtype=float)

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

    A cached genotype is returned without consuming budget. The score
    comes from the ledger's score memo, read and, on a miss, written
    here as ``EvaluationLedger.score_of`` would (the same float, one
    ``objective_calls`` per ``problem.score`` call), so a genotype the
    filter already scored costs no second objective call.
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
    score = ledger._scores.get(key)
    if score is None:
        score = ledger._scores[key] = float(problem.score(genotype))
        ledger.objective_calls += 1
    sample = ScoredSample(count, genotype, score)
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


def behavior_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Euclidean distances between two stacks of behavior vectors: an
    m-by-n block whose entry ``[i, j]`` is the distance from row i of
    ``xs`` to row j of ``ys``, the same doubles as
    ``np.linalg.norm(ys[None] - xs[:, None], axis=-1)``.

    One-entry vectors (a domain whose behavior is its score) skip the
    norm's reduction: the norm is ``sqrt(add.reduce(d * d))`` over the
    last axis, and reducing one entry returns that entry, so
    ``sqrt(d * d)`` of the plain differences gives the same doubles,
    whatever ``d * d`` underflows or overflows to. Wider vectors, and
    an empty stack that stacks to shape (0,), take the norm over the last
    axis.
    """
    if xs.ndim == ys.ndim == 2 and xs.shape[1] == ys.shape[1] == 1:
        d = ys[None, :, 0] - xs[:, 0, None]
        np.multiply(d, d, out=d)
        return np.sqrt(d, out=d)
    return np.linalg.norm(ys[None] - xs[:, None], axis=-1)


def pair_behavior_distances(b: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The entries ``[ii, jj]`` of ``behavior_distances(b, b)``, the same
    doubles, computed for those pairs alone: ``sqrt(d * d)`` of the
    plain differences for one-entry vectors, else the norm over the last
    axis of the pairs' differences."""
    if b.shape[1] == 1:
        d = b[jj, 0] - b[ii, 0]
        return np.sqrt(d * d)
    return np.linalg.norm(b[jj] - b[ii], axis=-1)


@lru_cache(maxsize=SCALE_PAIR_SIZES)
def _scale_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The view pairs (i, j), i != j, whose median distances scale a
    blended metric on a view of n >= 2 samples, as two read-only index
    arrays: every pair i < j when there are at most PAIR_SAMPLE_LIMIT,
    else the first PAIR_SAMPLE_LIMIT distinct pairs of a fixed draw. The
    same n gives the same pairs, so each n's are drawn once."""
    if n * (n - 1) // 2 <= PAIR_SAMPLE_LIMIT:
        ii, jj = np.triu_indices(n, 1)
    else:
        rng = np.random.default_rng(0xC0FFEE)
        ii = rng.integers(0, n, size=2 * PAIR_SAMPLE_LIMIT)
        jj = rng.integers(0, n, size=2 * PAIR_SAMPLE_LIMIT)
        distinct = ii != jj
        ii = ii[distinct][:PAIR_SAMPLE_LIMIT]
        jj = jj[distinct][:PAIR_SAMPLE_LIMIT]
    ii.flags.writeable = jj.flags.writeable = False
    return ii, jj


class ResolvedMetric:
    """The filter's distance, bound to a problem and a population view.

    The distance blends genotype distance, weight ``lam``, with behavior
    distance, weight ``1 - lam``; ``lam = 1`` is the genotypic metric and
    ``lam = 0`` the phenotypic one, exactly, and each reads only its own
    distance. The view it was built from is ``view``; every neighbor
    query answers in positions of that view. Each genotype's row keeps
    only its ``width`` nearest view positions, ``min(k, n)``: the most
    neighbors any query of the run reads, and its distances to them.
    Stacks the view's genotypes and computes its distance table once, at
    construction, as one n-by-n block: one genotypic block from a single
    ``geno_distances`` call, into which a blend adds the behavior
    distances a few rows at a time (``BLEND_ROWS``), so no second n-by-n
    block is made, and each row's width nearest selected from that block
    in place by one ``nearest`` call, so no distance is computed or
    ordered twice, and the block is dropped. ``view_orders`` (n by
    width) and the distances at those positions are what is kept, row i
    being view sample i's, and each sample's row is two read-only views
    of them. Behavior vectors come from ``memo``, the run's ledger the view was taken from,
    and new ones are added to it, so none is computed twice in a run;
    the view samples' canonical keys are the memo's ``keys``, and a
    domain whose behavior is its score reads the view's scores. Genotypes
    outside the view get their rows on their first query, ``rows_of``
    building those of a list of genotypes in one block; later queries of
    the same genotype (equal canonical key) reuse it. ``screen_rows``
    builds the rows of the chunk of candidates a burst screens in one
    block, and decides where that chunk ends.
    Strictly between the extremes, median scales over a deterministic
    sample of view pairs make the genotypic and phenotypic terms
    comparable: the genotypic pairs are read from the block, the
    behavior pairs computed alone (``pair_behavior_distances``).
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
        dg = b = None
        if self._kind != "genotypic":
            if behavior_is_score(problem):
                # the memo's scores of the view samples, the same doubles
                b = view.scores[:, None]
            else:
                b = memo.behaviors_of(genos, problem, keys)
        self._behaviors = b
        if self._kind != "phenotypic":
            self._stacked = problem.stack(genos)
            dg = problem.geno_distances(self._stacked, self._stacked)
        self._geno_scale = 1.0
        self._pheno_scale = 1.0
        if self._kind == "blended" and len(view) >= 2:
            ii, jj = _scale_pairs(len(view))
            mg = float(np.median(dg[ii, jj]))
            mp = float(np.median(pair_behavior_distances(b, ii, jj)))
            self._geno_scale = mg if mg > 0 else 1.0
            self._pheno_scale = mp if mp > 0 else 1.0
        orders, dists = nearest(self._distances(dg, b), self.width)
        # shared by every query of a view sample
        orders.flags.writeable = dists.flags.writeable = False
        self.view_orders = orders
        self._rows = dict(zip(keys, zip(dists, orders)))
        # genotypic rows of genotypes outside the view, not yet queried
        self._pending: dict = {}

    def _distances(self, dg, bx) -> np.ndarray:
        """The metric's distances from the view of the genotypes whose
        genotypic rows are ``dg`` and whose behaviors are ``bx`` (either
        None where lam omits it). A blend overwrites ``dg``, adding the
        behavior distances into it BLEND_ROWS rows at a time."""
        if self._kind == "genotypic":
            return dg
        if self._kind == "phenotypic":
            return behavior_distances(bx, self._behaviors)
        lam = self.lam
        # lam * dg / geno_scale + (1 - lam) * dp / pheno_scale, in that
        # operation order, in place
        np.multiply(lam, dg, out=dg)
        dg /= self._geno_scale
        for start in range(0, len(dg), BLEND_ROWS):
            rows = slice(start, start + BLEND_ROWS)
            dp = behavior_distances(bx[rows], self._behaviors)
            np.multiply(1 - lam, dp, out=dp)
            dp /= self._pheno_scale
            dg[rows] += dp
        return dg

    def _keys(self, genotypes, keys) -> list:
        """The canonical keys of ``genotypes``: ``keys`` when given."""
        if keys is None:
            return [self.problem.canonical_key(g) for g in genotypes]
        return keys

    def _add_pending(self, fresh: dict) -> None:
        """The genotypic rows, in one block, of the genotypes that
        ``fresh`` maps their canonical keys to."""
        if fresh:
            xs = self.problem.stack(list(fresh.values()))
            block = self.problem.geno_distances(xs, self._stacked)
            self._pending.update(zip(fresh, block))

    def _add_rows(self, fresh: dict) -> None:
        """The rows, in one block, of the genotypes that ``fresh`` maps
        their canonical keys to, none of which has a row: their behaviors
        through the memo, in order, one m-by-n behavior block, their
        genotypic rows, one blend and one ``nearest``."""
        dg = bx = None
        if self._behaviors is not None:
            bx = self._memo.behaviors_of(fresh.values(), self.problem, fresh)
        if self._kind != "phenotypic":
            self._add_pending({k: g for k, g in fresh.items() if k not in self._pending})
            dg = np.array([self._pending.pop(key) for key in fresh])
        orders, dists = nearest(self._distances(dg, bx), self.width)
        # shared by every query of these genotypes
        orders.flags.writeable = dists.flags.writeable = False
        self._rows.update(zip(fresh, zip(dists, orders)))

    def rows_of(self, genotypes, keys=None) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``genotypes`` (a nonempty list; canonical keys
        ``keys``, computed when omitted), as two m-by-width blocks: each
        genotype's distances to its ``width`` nearest view positions,
        ascending, ties toward the earlier position, and those positions.
        The rows not built yet are built in one block."""
        keys = self._keys(genotypes, keys)
        rows = self._rows
        fresh = {}
        for key, g in zip(keys, genotypes):
            if key not in rows:
                fresh.setdefault(key, g)
        if fresh:
            self._add_rows(fresh)
        found = [rows[key] for key in keys]
        return np.array([d for d, _ in found]), np.array([o for _, o in found])

    def screen_rows(self, genotypes, keys, start: int) -> tuple[int, np.ndarray, np.ndarray]:
        """The chunk of ``genotypes`` (canonical keys ``keys``) that a burst
        screens from ``start`` in one block: where it ends, and its rows
        (see ``rows_of``). At ``start == 0`` the genotypic rows of every
        genotype this metric holds no row for are first computed in one
        block, calling no objective.

        The burst screens candidates in order until one ends it (see
        ``evolve.run_subpopulation``) and makes no objective call for the
        candidates after that one, so neither may the block. The chunk
        therefore stops before a candidate whose row calls the objective
        (the metric holds no row for it, reads behaviors, and the memo
        holds none for it) once the burst could end before it: after a
        new genotype (one the ledger lacks) whose score, with its row
        built, is missing or reaches the target, or at a new genotype
        that comes after as many new ones as the budget has left. The
        behaviors the chunk's rows need are memoized here, in order (the
        score itself for a domain whose behavior is its score), so that
        the rule knows the score of each new genotype whose behavior is
        its score.
        """
        ledger, problem, rows = self._memo, self.problem, self._rows
        if start == 0 and self._kind != "phenotypic":
            fresh = {}
            for key, g in zip(keys, genotypes):
                if key not in rows and key not in self._pending:
                    fresh.setdefault(key, g)
            self._add_pending(fresh)
        target = problem.target
        by_score = behavior_is_score(problem)
        held, scores = ledger._by_key, ledger._scores
        memo = scores if by_score else ledger._behaviors
        reads_behaviors = self._behaviors is not None
        remaining = ledger.remaining  # memoizing charges nothing
        new_keys: set = set()
        may_end = False
        end = len(genotypes)
        for i in range(start, len(genotypes)):
            key = keys[i]
            new = key not in held and key not in new_keys
            may_end = may_end or (new and len(new_keys) >= remaining)
            if reads_behaviors and key not in rows and key not in memo:
                if may_end:
                    end = i
                    break
                if by_score:
                    ledger.score_of(genotypes[i], problem, key)
                else:
                    ledger.behaviors_of([genotypes[i]], problem, [key])
            if new:
                new_keys.add(key)
                score = scores.get(key)
                may_end = may_end or score is None or (target is not None and score >= target)
        return (end, *self.rows_of(genotypes[start:end], keys[start:end]))


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
