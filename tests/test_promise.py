import numpy as np
import pytest

from infoevo.core import ResolvedMetric, view_of
from infoevo.errors import EmptyLedger, LedgerTooSmall
from infoevo.promise import PromiseWeights, normalize_scores, promise_vector

from conftest import local_max_prob, make_scalar_ledger


def scalar_setup(values):
    problem, ledger = make_scalar_ledger(values)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    return view, rm


def test_normalize_scores_affine():
    view, _ = scalar_setup([-2.0, 0.0, 2.0])
    assert np.allclose(normalize_scores(view.scores, view), [0.0, 0.5, 1.0])


def test_normalize_scores_degenerate():
    view, _ = scalar_setup([7.0, 7.0000])
    assert np.allclose(normalize_scores(view.scores, view), [1.0, 1.0])


def test_normalize_scores_two_points():
    view, _ = scalar_setup([0.0, 10.0])
    assert np.allclose(normalize_scores(view.scores, view), [0.0, 1.0])


def test_normalize_scores_empty():
    view, _ = scalar_setup([1.0])
    from infoevo.core import PopulationView

    empty = PopulationView.of([])
    with pytest.raises(EmptyLedger):
        normalize_scores(empty.scores, empty)


def test_local_max_prob_dominant_sample():
    # genotype value == score, so 9.0 dominates its neighborhood
    view, rm = scalar_setup([1.0, 2.0, 9.0])
    assert local_max_prob(2, 2, rm, normalize_scores(view.scores, view)) == 1.0


def test_local_max_prob_direct_ratio():
    # normalized scores 0, 0.5, 1; the middle sample's best neighbor is 1.0
    view, rm = scalar_setup([0.0, 5.0, 10.0])
    assert local_max_prob(1, 2, rm, normalize_scores(view.scores, view)) == pytest.approx(0.5)


class EqualScoreProblem:
    """Distinct genotypes, identical scores."""

    target = None

    def score(self, genotype):
        return 3.0

    def canonical_key(self, genotype):
        return float(genotype)

    def stack(self, genotypes):
        return np.array(genotypes, dtype=float)

    def geno_distances(self, xs, stacked):
        return np.abs(xs[:, None] - stacked[None, :])


def test_local_max_prob_all_equal():
    from infoevo.core import EvaluationLedger, evaluate, view_of

    problem = EqualScoreProblem()
    ledger = EvaluationLedger(budget=5)
    for v in (0.0, 1.0, 2.0):
        evaluate(v, problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    norm = normalize_scores(view.scores, view)
    for i in range(3):
        assert local_max_prob(i, 2, rm, norm) == 1.0


def test_local_max_prob_needs_two_samples():
    view, rm = scalar_setup([1.0])
    with pytest.raises(LedgerTooSmall):
        local_max_prob(0, 1, rm, normalize_scores(view.scores, view))


def test_promise_vector_score_only_reduction():
    view, rm = scalar_setup([3.0, 8.0, 1.0])
    pv = promise_vector(PromiseWeights(w_lm=0), rm)
    assert not pv.flags.writeable
    assert np.allclose(pv, 1.5 * normalize_scores(view.scores, view))
    assert int(np.argmax(pv)) == int(np.argmax(view.scores))


def test_promise_vector_hand_derived():
    # normalized scores (0, 0.5, 1); w_lm = 0, so only the score's
    # weight 1.5 acts: values = 1.5 * norm = (0, 0.75, 1.5)
    view, rm = scalar_setup([0.0, 5.0, 10.0])
    pv = promise_vector(PromiseWeights(w_lm=0), rm)
    assert np.allclose(pv, [0.0, 0.75, 1.5])


def test_promise_argmax_invariance_random(rng):
    for _ in range(100):
        scores = rng.uniform(-5, 5, size=8)
        view, rm = scalar_setup(list(scores))
        pv = promise_vector(PromiseWeights(w_lm=0), rm)
        assert int(np.argmax(pv)) == int(np.argmax(view.scores))


def test_promise_monotone_in_own_score(rng):
    base_scores = [1.0, 4.0, 2.5, 3.0, 0.5]
    weights = PromiseWeights(w_lm=0.5, k_local=2)
    view, rm = scalar_setup(base_scores)
    before = promise_vector(weights, rm)[2]
    bumped = list(base_scores)
    bumped[2] += 0.8
    view2, rm2 = scalar_setup(bumped)
    after = promise_vector(weights, rm2)[2]
    assert after >= before - 1e-12


def test_promise_values_bounded(rng):
    weights = PromiseWeights(w_lm=0.5, k_local=3)
    for _ in range(20):
        view, rm = scalar_setup(list(rng.uniform(-3, 3, size=10)))
        pv = promise_vector(weights, rm)
        assert np.all(pv >= 0)
        assert np.all(pv <= 1.5 + weights.w_lm + 1e-12)


def test_promise_weights_validation():
    with pytest.raises(ValueError):
        PromiseWeights(w_lm=-1)
    with pytest.raises(ValueError):
        PromiseWeights(k_local=0)
    PromiseWeights(w_lm=0)  # the score's weight alone is a promise
