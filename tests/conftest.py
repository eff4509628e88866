import numpy as np
import pytest

from infoevo.core import EvaluationLedger, evaluate, knn
from infoevo.demes import run_demes
from infoevo.domains.base import Problem


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
