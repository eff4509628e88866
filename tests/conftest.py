import numpy as np
import pytest

from infoevo.core import EvaluationLedger, evaluate, knn
from infoevo.demes import run_demes
from infoevo.domains.base import Problem
from infoevo.errors import LedgerTooSmall


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


def count_objective_calls(problem):
    """Wrap the instance's ``score`` (and ``behavior``, where its class
    overrides the default) to count calls, as the benchmark's own
    wrapper does; returns the list each call appends its name to."""
    calls = []

    def counting(name):
        fn = getattr(problem, name)

        def wrapper(genotype):
            calls.append(name)
            return fn(genotype)

        return wrapper

    problem.score = counting("score")
    if type(problem).behavior is not Problem.behavior:
        problem.behavior = counting("behavior")
    return calls


def knn_one(x, rm, k):
    """One genotype's neighbor query: the row of ``knn([x], rm, k)``,
    x's nearest view positions and their distances."""
    idx, dists = knn([x], rm, k)
    return idx[0], dists[0]


def metric_row(rm, x):
    """Genotype x's row and order: the one row of ``rm.rows_of([x])``,
    its distances to every view sample and its nearest view positions."""
    rows, orders = rm.rows_of([x])
    return rows[0], orders[0]


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
