import numpy as np
import pytest

from infoevo import core
from infoevo.core import (
    EvaluationLedger,
    PopulationView,
    ResolvedMetric,
    evaluate,
    knn,
    view_of,
)
from infoevo.domains import OneMax, make_problem
from infoevo.errors import BudgetExhausted, EmptyLedger

from conftest import (
    ScalarProblem,
    count_objective_calls,
    knn_one,
    make_scalar_ledger,
    metric_row,
    reference_nearest,
    reference_rows,
)


def hamming_row(x, genos) -> np.ndarray:
    """Hamming distances from bitstring x to each of ``genos``, one pair
    at a time."""
    return np.array([np.count_nonzero(x != g) for g in genos], dtype=float)


def test_evaluate_onemax_all_ones():
    problem = OneMax(bits=50)
    ledger = EvaluationLedger(budget=10)
    sample = evaluate(np.ones(50, dtype=np.uint8), problem, ledger)
    assert sample.score == 50
    assert ledger.eval_count == 1


def test_evaluate_memoizes():
    problem = OneMax(bits=8)
    ledger = EvaluationLedger(budget=10)
    g = np.ones(8, dtype=np.uint8)
    first = evaluate(g, problem, ledger)
    second = evaluate(g.copy(), problem, ledger)
    assert second is first
    assert ledger.eval_count == 1


def test_evaluate_budget_exhausted():
    problem = ScalarProblem()
    ledger = EvaluationLedger(budget=1)
    evaluate(1.0, problem, ledger)
    with pytest.raises(BudgetExhausted):
        evaluate(2.0, problem, ledger)
    # cached genotype still returned at full budget
    assert evaluate(1.0, problem, ledger).score == 1.0


def test_memoization_counts_distinct_genotypes(rng):
    problem = ScalarProblem()
    ledger = EvaluationLedger(budget=100)
    values = [float(rng.integers(0, 10)) for _ in range(50)]
    for v in values:
        evaluate(v, problem, ledger)
    assert ledger.eval_count == len(set(values))


def test_knn_self_distance_zero():
    problem, ledger = make_scalar_ledger([1.0, 4.0, 9.0])
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    idx, dists = knn_one(4.0, rm, 1)
    assert len(idx) == 1
    assert view.samples[idx[0]].genotype == 4.0
    assert dists[0] == 0.0


def test_knn_one_bit_example():
    problem = OneMax(bits=1)
    ledger = EvaluationLedger(budget=4)
    evaluate(np.array([0], dtype=np.uint8), problem, ledger)
    evaluate(np.array([1], dtype=np.uint8), problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    _, dists = knn_one(np.array([0], dtype=np.uint8), rm, 2)
    assert list(dists) == [0.0, 1.0]


def test_knn_clamps_to_population_size():
    problem, ledger = make_scalar_ledger([1.0, 2.0, 3.0, 4.0, 5.0])
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    idx, dists = knn_one(0.0, rm, 10)
    assert len(idx) == len(dists) == 5


def test_knn_distances_nondecreasing(rng):
    problem, ledger = make_scalar_ledger(list(rng.uniform(0, 10, 20)))
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    dists = list(knn_one(3.3, rm, 20)[1])
    assert dists == sorted(dists)


def test_knn_ties_break_by_smaller_id():
    problem, ledger = make_scalar_ledger([2.0, 6.0])  # both distance 2 from 4
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    idx, _ = knn_one(4.0, rm, 2)
    assert [view.samples[i].id for i in idx] == [0, 1]


def test_knn_empty_ledger():
    problem = ScalarProblem()
    view = PopulationView.of([])
    with pytest.raises(EmptyLedger):
        knn_one(1.0, ResolvedMetric(problem, view, EvaluationLedger(0), 1), 1)


def test_resolved_metric_rows_match_direct_distances(rng):
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=30)
    for _ in range(12):
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    calls = count_objective_calls(problem)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    genos = [s.genotype for s in view.samples]
    for g in genos + [problem.random_genotype(rng)]:
        row = hamming_row(g, genos)
        dists, order = metric_row(rm, g)
        assert np.array_equal(dists, row[order])
        assert np.array_equal(order, np.argsort(row, kind="stable"))
        stored = rm._rows[problem.canonical_key(g)]  # shared by every query
        assert not any(a.flags.writeable for a in stored)
    assert calls == []  # a row reads genotypes only


def test_resolved_metric_keeps_only_each_rows_nearest(rng):
    # 12 samples queried for at most 3 neighbors: every stored row, of a
    # view sample or of a genotype outside the view, is 3 positions and
    # their 3 distances, the first 3 of the full row's stable order
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=30)
    while ledger.eval_count < 12:
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, 3)
    assert rm.width == 3 and rm.view_orders.shape == (12, 3)
    assert not hasattr(rm, "view_rows")
    genos = [s.genotype for s in view.samples]
    outside = [problem.random_genotype(rng) for _ in range(4)]
    for xs in (genos, outside):
        dists, orders = rm.rows_of(xs)
        assert dists.shape == orders.shape == (len(xs), 3)
    queries = genos + outside
    for x, row in zip(queries, reference_rows(problem, view, queries)):
        stored = rm._rows[problem.canonical_key(x)]
        assert [a.shape for a in stored] == [(3,), (3,)]
        assert not any(a.flags.writeable for a in stored)
        for a, b in zip(stored, reference_nearest(row, 3)):
            assert a.tobytes() == b.tobytes()


def test_knn_refuses_more_neighbors_than_the_orders_hold():
    problem, ledger = make_scalar_ledger([float(v) for v in range(8)])
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, 3)
    assert rm.width == 3 and rm.view_orders.shape == (8, 3)
    assert len(knn_one(2.5, rm, 3)[0]) == 3
    for k in (4, 8, 20):  # 20 asks for all 8 samples
        with pytest.raises(ValueError, match=f"{k} neighbors.* hold 3"):
            knn_one(2.5, rm, k)
    # orders as wide as the view answer any k
    full = ResolvedMetric(problem, view, ledger, 20)
    assert full.width == 8
    assert len(knn_one(2.5, full, 20)[0]) == 8
    with pytest.raises(ValueError):
        ResolvedMetric(problem, view, ledger, 0)


def test_resolved_metric_orders_are_the_same_by_selection_and_by_sort(rng, monkeypatch):
    # 64 samples of OneMax-12 tie often; a 64-by-64 block is past
    # TOP_K_SELECT_MIN, and a one-row block below it
    problem = OneMax(bits=12)
    ledger = EvaluationLedger(budget=64)
    while ledger.eval_count < 64:
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    offspring = [problem.random_genotype(rng) for _ in range(60)]
    extra = problem.random_genotype(np.random.default_rng(5))
    assert 64 * 64 >= core.TOP_K_SELECT_MIN > 64
    genos = [s.genotype for s in view.samples]
    got = {}
    for select_min in (core.TOP_K_SELECT_MIN, np.inf):
        monkeypatch.setattr(core, "TOP_K_SELECT_MIN", select_min)
        rm = ResolvedMetric(problem, view, ledger, 7)
        dists, orders = rm.rows_of(offspring)  # one 60-row block
        single = metric_row(rm, extra)
        view_dists, view_orders = rm.rows_of(genos)  # the 64-row view block's
        got[select_min] = (view_dists, view_orders, dists, orders, *single)
        queries = genos + offspring
        kept = zip(np.concatenate([view_dists, dists]), np.concatenate([view_orders, orders]))
        for (d, o), row in zip(kept, reference_rows(problem, view, queries)):
            expected_dists, expected_order = reference_nearest(row, 7)
            assert o.tobytes() == expected_order.tobytes()
            assert d.tobytes() == expected_dists.tobytes()
    for a, b in zip(got[core.TOP_K_SELECT_MIN], got[np.inf]):
        assert a.tobytes() == b.tobytes()


def test_resolved_metric_computes_one_distance_block_per_batch(rng):
    problem = make_problem("symreg")
    ledger = EvaluationLedger(budget=30)
    for _ in range(12):
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    shapes = []
    geno_distances = problem.geno_distances

    def counting(xs, stacked):
        shapes.append((len(xs), len(stacked)))
        return geno_distances(xs, stacked)

    problem.geno_distances = counting
    calls = count_objective_calls(problem)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    assert shapes == [(len(view), len(view))]
    offspring = [problem.random_genotype(rng) for _ in range(5)]
    generation = offspring + [view.samples[0].genotype, offspring[0]]
    keys = [problem.canonical_key(g) for g in generation]
    fresh = set(keys) - {problem.canonical_key(s.genotype) for s in view.samples}
    # a generation's rows: one block of its genotypes the metric holds no
    # row for, each once, and no objective call
    dists, orders = rm.rows_of(generation, keys)
    assert fresh and shapes[1:] == [(len(fresh), len(view))]
    assert dists.shape == orders.shape == (len(generation), len(view))
    assert calls == []
    rm.rows_of(offspring)  # every row is held already
    for g in offspring:
        knn_one(g, rm, 3)
    assert len(shapes) == 2
    # a genotype never queried gets its own one-row block on its query
    knn_one(("-", ("c", 123.0), ("x", 0)), rm, 3)
    assert shapes[2:] == [(1, len(view))]
    assert calls == []


def test_view_of_caps_by_score():
    _, ledger = make_scalar_ledger([5.0, 1.0, 9.0, 3.0, 7.0])
    view = view_of(ledger, cap=3)
    assert sorted(s.genotype for s in view.samples) == [5.0, 7.0, 9.0]
    # view keeps ascending-id order
    assert [s.id for s in view.samples] == sorted(s.id for s in view.samples)


def test_view_scores_are_built_once_and_read_only():
    _, ledger = make_scalar_ledger([5.0, 1.0, 9.0])
    view = view_of(ledger)
    assert view.scores is view.scores
    assert view.scores.tolist() == [5.0, 1.0, 9.0]
    with pytest.raises(ValueError):
        view.scores[0] = 0.0
