import numpy as np
import pytest

from infoevo.core import EvaluationLedger, evaluate, knn
from infoevo.demes import run_demes
from infoevo.domains.base import Problem
from infoevo.errors import LedgerTooSmall
from infoevo.geodesic_search import GeodesicPolyline
from infoevo.manifold import LogDistribution


class ScalarProblem(Problem):
    """1-d toy domain: the genotype is a float and scores as itself."""

    name = "scalar"
    dimension = 1

    def __init__(self, target=None):
        self.target = target

    def score(self, genotype):
        return float(genotype)

    def canonical_key(self, genotype):
        return float(genotype)

    def random_genotype(self, rng):
        return float(rng.uniform(0.0, 10.0))

    def mutate(self, genotype, rate, rng):
        return float(genotype + rng.normal(0.0, 0.5))

    def crossover(self, a, b, rng):
        w = rng.random()
        return float(w * a + (1 - w) * b)

    def geno_distances(self, xs, stacked):
        xs, gs = np.asarray(xs, dtype=float), np.asarray(stacked, dtype=float)
        return np.abs(np.subtract.outer(xs, gs))


class OneOffspringBits:
    """A bitstring problem with the one-offspring operators rebuilt from
    its row forms, each drawing what ``vary`` once drew per offspring:
    one uniform per bit from ``rng.random(dimension)`` for ``mutate`` and
    ``crossover``, none for ``from_loci``. Every other attribute is the
    problem's."""

    def __init__(self, problem):
        self.problem = problem

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def mutate(self, genotype, rate, rng):
        return self.problem.mutate_rows(genotype, rate, rng.random(self.problem.dimension))

    def crossover(self, a, b, rng):
        return self.problem.crossover_rows(a, b, rng.random(self.problem.dimension))

    def from_loci(self, values, rng):
        return self.problem.from_loci_rows(values)


def one_offspring(problem):
    """``problem`` with the one-offspring operators ``mutate``,
    ``crossover`` and ``from_loci``: its own, or, for a domain that
    varies in row form only (bitstrings), those rebuilt from the row
    forms (see ``OneOffspringBits``)."""
    return OneOffspringBits(problem) if hasattr(problem, "mutate_rows") else problem


def count_objective_calls(problem):
    """Wrap the instance's ``score`` to count calls, as the benchmark's
    own wrapper does; returns the list each call appends ``"score"`` to."""
    calls = []
    score = problem.score

    def wrapper(genotype):
        calls.append("score")
        return score(genotype)

    problem.score = wrapper
    return calls


def knn_one(x, rm, k):
    """One genotype's neighbor query: the row of ``knn([x], rm, k)``,
    x's nearest view positions and their distances."""
    idx, dists = knn([x], rm, k)
    return idx[0], dists[0]


def metric_row(rm, x):
    """Genotype x's row: the one row of ``rm.rows_of([x])``, its
    distances to its ``rm.width`` nearest view samples, ascending, and
    their view positions."""
    dists, orders = rm.rows_of([x])
    return dists[0], orders[0]


def reference_nearest(row, width):
    """What a metric keeps of a full distance row: the distances at its
    ``width`` nearest positions, by a stable sort of the row, and those
    positions."""
    order = np.argsort(row, kind="stable")[:width]
    return row[order], order


def reference_rows(problem, view, queries):
    """Each query's genotypic distances to every view sample, built one
    row at a time from ``geno_distances``."""
    stacked = problem.stack([s.genotype for s in view.samples])
    return [problem.geno_distances(problem.stack([x]), stacked)[0] for x in queries]


# One-candidate forms of the guidance and promise layers, each a
# candidate's own neighbor query and Python-level arithmetic: the
# references that ``guidance.omega_block``, ``guidance.filter_estimates``
# and ``promise.local_max_ratios`` are held to, bit for bit.


def omega_knn(x, dist, k, rm) -> float:
    """Probability mass the distribution puts on x's k nearest neighbors."""
    idx, _ = knn_one(x, rm, k)
    # a sequential sum, in neighbor order: np.sum adds 8 or more terms
    # in another order
    return float(sum(dist.p[idx].tolist()))


def ascending_median(values) -> float:
    """The median of nonempty ascending values: the middle one, or the
    mean of the middle two, the same double numpy's median gives."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return float((values[mid - 1] + values[mid]) / 2)


def inverse_distance_weights(x, k, rm):
    """x's k nearest view positions and their inverse-distance weights."""
    idx, dists = knn_one(x, rm, k)
    delta = 1e-9 * (ascending_median(dists) + 1e-30)
    return idx, 1.0 / (dists + delta)


def estimate_fitness(x, policy, rm, ledger_mf) -> float:
    """The filter's estimate of x: the distance-weighted average of its
    neighbors' modified fitness ``ledger_mf`` (one value per view
    sample)."""
    idx, weights = inverse_distance_weights(x, policy.k, rm)
    return float(np.sum(weights * ledger_mf[idx]) / np.sum(weights))


def local_max_prob(i, k_local, rm, norm) -> float:
    """How close view sample i comes to dominating its k nearest neighbors.

    The ratio of its normalized score ``norm[i]`` to the max over the
    neighborhood including itself; 1 iff it ties or beats every neighbor.
    """
    if len(rm.view) < 2:
        raise LedgerTooSmall("local_max_prob needs at least 2 samples")
    idx = knn([rm.view.samples[i].genotype], rm, k_local + 1)[0][0]
    hood = [norm[j] for j in idx if j != i][:k_local]
    denom = max([norm[i]] + hood)
    if denom <= 0:
        return 1.0
    return float(norm[i] / denom)


# Key-sort and dot-product forms of the rankings and distance kernels: the
# references that ``core.view_of``, ``core.fittest_first`` (the seed
# order and ``_ranking``), ``evolve._next_generation`` and
# ``BitstringProblem.geno_distances`` are held to, bit for bit.


def fitness_order(fitness) -> list[int]:
    """Positions of ``fitness``, fittest first, ties to the earlier: a
    sort by the key ``(-fitness[i], i)``."""
    return sorted(range(len(fitness)), key=lambda i: (-fitness[i], i))


def key_sorted_view(ledger, cap):
    """The samples ``view_of(ledger, cap)`` keeps, by two key sorts: the
    ``cap`` best by ``(-score, id)``, then by id."""
    samples = ledger.samples
    if cap is not None and len(samples) > cap:
        ranked = sorted(samples, key=lambda s: (-s.score, s.id))[:cap]
        samples = sorted(ranked, key=lambda s: s.id)
    return tuple(samples)


def key_sorted_next_generation(parents, fitness, new_samples, new_fitness, elitism):
    """The next generation's parents and fitness, its pool ordered by a
    stable sort with the key ``-fitness``."""
    pool = list(zip(parents, fitness)) + list(zip(new_samples, new_fitness))
    pool.sort(key=lambda t: -t[1])
    elites, elite_ids = [], set()
    for s, f in pool:
        if len(elites) >= elitism:
            break
        if s.id not in elite_ids:
            elite_ids.add(s.id)
            elites.append((s, f))
    nxt = elites + [(s, f) for s, f in zip(new_samples, new_fitness) if s.id not in elite_ids]
    return [s for s, _ in nxt], [f for _, f in nxt]


def dot_hamming(xs, stacked) -> np.ndarray:
    """Hamming distances between two 0/1 bit matrices as
    ``|a| + |b| - 2 a.b`` in float64."""
    a = np.asarray(xs, dtype=float)
    b = np.asarray(stacked, dtype=float)
    return a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :] - 2.0 * (a @ b.T)


def one_pair_distance(a, b):
    """geodesic_distance_exact written out for one pair alone."""
    bc = float(np.sum(np.exp(0.5 * (a.phi + b.phi))))
    return 2.0 * float(np.arccos(np.clip(bc, 0.0, 1.0)))


def one_pair_polyline(points):
    """The polyline through the points (distributions), each segment
    measured one pair alone and the length their left-to-right sum."""
    segments = tuple(one_pair_distance(a, b) for a, b in zip(points, points[1:]))
    return GeodesicPolyline(np.array([pt.phi for pt in points]), sum(segments), segments)


def polyline_points(poly):
    """The polyline's rows as distributions."""
    return [LogDistribution(row) for row in poly.phi]


def run_one(problem, cfg):
    """The state of a one-deme run of ``cfg`` on ``problem``, seeded by
    ``cfg.seed``, as ``info-evo run`` runs it."""
    (state,), _ = run_demes(problem, cfg, np.random.default_rng(cfg.seed))
    return state


@pytest.fixture
def scalar_problem():
    return ScalarProblem()


def make_scalar_ledger(values, budget=None):
    """Ledger whose samples are the given floats, scored as themselves."""
    problem = ScalarProblem()
    ledger = EvaluationLedger(budget if budget is not None else len(values) + 10)
    for v in values:
        evaluate(v, problem, ledger)
    return problem, ledger


@pytest.fixture
def rng():
    return np.random.default_rng(42)
