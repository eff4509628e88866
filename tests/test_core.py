import numpy as np
import pytest

from infoevo import core
from infoevo.core import (
    EvaluationLedger,
    PopulationView,
    ResolvedMetric,
    best_score,
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
)


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
    rm = ResolvedMetric(problem, view, 1.0, ledger, len(view))
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
    rm = ResolvedMetric(problem, view, 1.0, ledger, len(view))
    _, dists = knn_one(np.array([0], dtype=np.uint8), rm, 2)
    assert list(dists) == [0.0, 1.0]


def test_knn_clamps_to_population_size():
    problem, ledger = make_scalar_ledger([1.0, 2.0, 3.0, 4.0, 5.0])
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, 1.0, ledger, len(view))
    idx, dists = knn_one(0.0, rm, 10)
    assert len(idx) == len(dists) == 5


def test_knn_distances_nondecreasing(rng):
    problem, ledger = make_scalar_ledger(list(rng.uniform(0, 10, 20)))
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, 1.0, ledger, len(view))
    dists = list(knn_one(3.3, rm, 20)[1])
    assert dists == sorted(dists)


def test_knn_ties_break_by_smaller_id():
    problem, ledger = make_scalar_ledger([2.0, 6.0])  # both distance 2 from 4
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, 1.0, ledger, len(view))
    idx, _ = knn_one(4.0, rm, 2)
    assert [view.samples[i].id for i in idx] == [0, 1]


def test_knn_empty_ledger():
    problem = ScalarProblem()
    view = PopulationView.of([])
    with pytest.raises(EmptyLedger):
        knn_one(1.0, ResolvedMetric(problem, view, 1.0, EvaluationLedger(0), 1), 1)


def test_best_score_cases():
    _, ledger = make_scalar_ledger([1.0, 5.0, 3.0])
    assert best_score(ledger) == 5.0
    _, single = make_scalar_ledger([-2.0])
    assert best_score(single) == -2.0
    _, equal = make_scalar_ledger([7.0])
    assert best_score(equal) == 7.0
    with pytest.raises(EmptyLedger):
        best_score(EvaluationLedger(budget=1))


def test_blended_metric_extremes_match_pure_metrics(rng):
    # lam = 1 is genotype distance alone and calls no objective; lam = 0
    # is behavior distance alone and computes no genotype distance
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=30)
    for _ in range(12):
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    genos = [s.genotype for s in view.samples]
    x = problem.random_genotype(rng)
    dg = problem.geno_distances(problem.stack([x]), problem.stack(genos))[0]
    behaviors = np.array([problem.behavior(g) for g in genos], dtype=float)
    dp = np.linalg.norm(behaviors - problem.behavior(x)[None, :], axis=1)
    calls = count_objective_calls(problem)
    for lam in (1.0, 1):
        dists, _ = metric_row(ResolvedMetric(problem, view, lam, ledger, len(view)), x)
        assert dists.tobytes() == dg.tobytes()
    assert calls == []
    problem.geno_distances = None  # lam = 0 must not call it
    for lam in (0.0, 0):
        dists, _ = metric_row(ResolvedMetric(problem, view, lam, ledger, len(view)), x)
        assert dists.tobytes() == dp.tobytes()


def test_resolved_metric_computes_each_behavior_once(rng):
    # OneMax keeps the default behavior, its score: the view's scores are
    # in the ledger's memo, so building the metric calls no objective
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=30)
    for _ in range(12):
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    calls = count_objective_calls(problem)
    rm = ResolvedMetric(problem, view, 0.5, ledger, len(view))
    for s in view.samples:
        knn_one(s.genotype, rm, 3)
    assert calls == []
    outside = problem.random_genotype(rng)
    first = knn_one(outside, rm, 3)
    again = knn_one(outside, rm, 3)
    assert all(np.array_equal(a, b) for a, b in zip(again, first))
    assert calls == ["score"]
    assert ledger.objective_calls == 12 + 1

    # symreg overrides behavior: each sample's is computed once, across
    # two metrics whose views overlap
    problem = make_problem("symreg")
    ledger = EvaluationLedger(budget=30)
    for _ in range(12):
        evaluate(problem.random_genotype(rng), problem, ledger)
    calls = count_objective_calls(problem)
    first = PopulationView.of(ledger.samples[:8])
    second = PopulationView.of(ledger.samples[4:])
    for view in (first, second):
        rm = ResolvedMetric(problem, view, 0.0, ledger, len(view))
        for s in view.samples:
            knn_one(s.genotype, rm, 3)
    assert calls == ["behavior"] * len(ledger)


def test_resolved_metric_rows_match_direct_distances(rng):
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=30)
    for _ in range(12):
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    geno = ResolvedMetric(problem, view, 1.0, ledger, len(view))
    pheno = ResolvedMetric(problem, view, 0.0, ledger, len(view))
    genos = [s.genotype for s in view.samples]
    behaviors = np.array([problem.behavior(g) for g in genos], dtype=float)
    stacked = problem.stack(genos)
    for g in genos + [problem.random_genotype(rng)]:
        dp = np.linalg.norm(behaviors - problem.behavior(g)[None, :], axis=1)
        dg = problem.geno_distances(problem.stack([g]), stacked)[0]
        for rm, row in ((geno, dg), (pheno, dp)):
            dists, order = metric_row(rm, g)
            assert np.array_equal(dists, row)
            assert np.array_equal(order, np.argsort(row, kind="stable"))
            stored = rm._rows[problem.canonical_key(g)]  # shared by every query
            assert not any(a.flags.writeable for a in stored)


def test_knn_refuses_more_neighbors_than_the_orders_hold():
    problem, ledger = make_scalar_ledger([float(v) for v in range(8)])
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, 1.0, ledger, 3)
    assert rm.width == 3 and rm.view_orders.shape == (8, 3)
    assert len(knn_one(2.5, rm, 3)[0]) == 3
    for k in (4, 8, 20):  # 20 asks for all 8 samples
        with pytest.raises(ValueError, match=f"{k} neighbors.* hold 3"):
            knn_one(2.5, rm, k)
    # orders as wide as the view answer any k
    full = ResolvedMetric(problem, view, 1.0, ledger, 20)
    assert full.width == 8
    assert len(knn_one(2.5, full, 20)[0]) == 8
    with pytest.raises(ValueError):
        ResolvedMetric(problem, view, 1.0, ledger, 0)


def test_resolved_metric_orders_are_the_same_by_selection_and_by_sort(rng, monkeypatch):
    # 64 samples of OneMax-12 tie often; a 64-by-64 block is past
    # TOP_K_SELECT_MIN, and a one-row chunk below it
    problem = OneMax(bits=12)
    ledger = EvaluationLedger(budget=64)
    while ledger.eval_count < 64:
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    offspring = [problem.random_genotype(rng) for _ in range(60)]
    assert 64 * 64 >= core.TOP_K_SELECT_MIN > 64
    got = {}
    for select_min in (core.TOP_K_SELECT_MIN, np.inf):
        monkeypatch.setattr(core, "TOP_K_SELECT_MIN", select_min)
        for lam in (0.0, 0.5, 1.0):
            rm = ResolvedMetric(problem, view, lam, ledger, 7)
            rows, orders = rm.rows_of(offspring)  # one 60-row block
            _, single = metric_row(rm, problem.random_genotype(np.random.default_rng(5)))
            got[select_min, lam] = (rm.view_orders, orders, single)
            for block, order in ((rm.view_rows, rm.view_orders), (rows, orders)):
                expected = np.argsort(block, axis=-1, kind="stable")[:, :7]
                assert order.tobytes() == expected.tobytes()
    for lam in (0.0, 0.5, 1.0):
        selected, sorted_ = got[core.TOP_K_SELECT_MIN, lam], got[np.inf, lam]
        for a, b in zip(selected, sorted_):
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
    rm = ResolvedMetric(problem, view, 0.5, ledger, len(view))
    assert shapes == [(len(view), len(view))]
    offspring = [problem.random_genotype(rng) for _ in range(5)]
    fresh = {problem.canonical_key(g) for g in offspring}
    fresh -= {problem.canonical_key(s.genotype) for s in view.samples}
    calls = ledger.objective_calls
    rm.add_genotypic_rows(offspring + [view.samples[0].genotype])
    assert ledger.objective_calls == calls
    assert fresh and shapes[1:] == [(len(fresh), len(view))]
    rm.add_genotypic_rows(offspring)  # every row is held already
    for g in offspring:
        knn_one(g, rm, 3)
    assert len(shapes) == 2
    # a genotype never added gets its own one-row block on its query
    knn_one(("-", ("c", 123.0), ("x", 0)), rm, 3)
    assert shapes[2:] == [(1, len(view))]


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
