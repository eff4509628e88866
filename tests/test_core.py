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
    dg = hamming_row(x, genos)
    behaviors = np.array([problem.behavior(g) for g in genos], dtype=float)
    dp = np.linalg.norm(behaviors - problem.behavior(x)[None, :], axis=1)
    calls = count_objective_calls(problem)
    for lam in (1.0, 1):
        got = metric_row(ResolvedMetric(problem, view, lam, ledger, len(view)), x)
        for a, b in zip(got, reference_nearest(dg, len(view))):
            assert a.tobytes() == b.tobytes()
    assert calls == []
    problem.geno_distances = None  # lam = 0 must not call it
    for lam in (0.0, 0):
        got = metric_row(ResolvedMetric(problem, view, lam, ledger, len(view)), x)
        for a, b in zip(got, reference_nearest(dp, len(view))):
            assert a.tobytes() == b.tobytes()


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
    for g in genos + [problem.random_genotype(rng)]:
        dp = np.linalg.norm(behaviors - problem.behavior(g)[None, :], axis=1)
        dg = hamming_row(g, genos)
        for rm, row in ((geno, dg), (pheno, dp)):
            dists, order = metric_row(rm, g)
            assert np.array_equal(dists, row[order])
            assert np.array_equal(order, np.argsort(row, kind="stable"))
            stored = rm._rows[problem.canonical_key(g)]  # shared by every query
            assert not any(a.flags.writeable for a in stored)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_resolved_metric_keeps_only_each_rows_nearest(rng, lam):
    # 12 samples queried for at most 3 neighbors: every stored row, of a
    # view sample or of a genotype outside the view, is 3 positions and
    # their 3 distances, the first 3 of the full row's stable order
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=30)
    while ledger.eval_count < 12:
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, lam, ledger, 3)
    assert rm.width == 3 and rm.view_orders.shape == (12, 3)
    assert not hasattr(rm, "view_rows")
    genos = [s.genotype for s in view.samples]
    outside = [problem.random_genotype(rng) for _ in range(4)]
    for xs in (genos, outside):
        dists, orders = rm.rows_of(xs)
        assert dists.shape == orders.shape == (len(xs), 3)
    queries = genos + outside
    for x, row in zip(queries, reference_rows(problem, view, lam, queries)):
        stored = rm._rows[problem.canonical_key(x)]
        assert [a.shape for a in stored] == [(3,), (3,)]
        assert not any(a.flags.writeable for a in stored)
        for a, b in zip(stored, reference_nearest(row, 3)):
            assert a.tobytes() == b.tobytes()


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
    extra = problem.random_genotype(np.random.default_rng(5))
    assert 64 * 64 >= core.TOP_K_SELECT_MIN > 64
    genos = [s.genotype for s in view.samples]
    got = {}
    for select_min in (core.TOP_K_SELECT_MIN, np.inf):
        monkeypatch.setattr(core, "TOP_K_SELECT_MIN", select_min)
        for lam in (0.0, 0.5, 1.0):
            rm = ResolvedMetric(problem, view, lam, ledger, 7)
            dists, orders = rm.rows_of(offspring)  # one 60-row block
            single = metric_row(rm, extra)
            view_dists, view_orders = rm.rows_of(genos)  # the 64-row view block's
            got[select_min, lam] = (view_dists, view_orders, dists, orders, *single)
            queries = genos + offspring
            kept = zip(np.concatenate([view_dists, dists]), np.concatenate([view_orders, orders]))
            for (d, o), row in zip(kept, reference_rows(problem, view, lam, queries)):
                expected_dists, expected_order = reference_nearest(row, 7)
                assert o.tobytes() == expected_order.tobytes()
                assert d.tobytes() == expected_dists.tobytes()
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
    generation = offspring + [view.samples[0].genotype]
    keys = [problem.canonical_key(g) for g in generation]
    fresh = set(keys) - {problem.canonical_key(s.genotype) for s in view.samples}
    # each objective call sees how many distance blocks came before it
    blocks_at_call = []
    behavior = problem.behavior

    def behaving(genotype):
        blocks_at_call.append(len(shapes))
        return behavior(genotype)

    problem.behavior = behaving
    calls = ledger.objective_calls
    start = 0
    while start < len(generation):
        end, _, _ = rm.screen_rows(generation, keys, start)
        assert end > start
        start = end
    # the first chunk computed the generation's genotypic rows in one
    # block, before the chunks' objective calls, one per new genotype
    assert fresh and shapes[1:] == [(len(fresh), len(view))]
    assert blocks_at_call == [2] * len(fresh)
    assert ledger.objective_calls - calls == len(fresh)
    rm.screen_rows(offspring, keys[:5], 0)  # every row is held already
    for g in offspring:
        knn_one(g, rm, 3)
    assert len(shapes) == 2
    # a genotype never screened gets its own one-row block on its query
    knn_one(("-", ("c", 123.0), ("x", 0)), rm, 3)
    assert shapes[2:] == [(1, len(view))]


# --- where a screened chunk ends ---


def new_genotypes(problem, count, rng, ledger) -> list:
    """``count`` random genotypes of ``problem`` below its target, with
    distinct canonical keys that ``ledger`` has not evaluated."""
    found = {}
    while len(found) < count:
        g = problem.random_genotype(rng)
        key = problem.canonical_key(g)
        if key not in found and ledger.lookup(key) is None and problem.score(g) < problem.target:
            found[key] = g
    return list(found.values())


def screening_metric(problem, rng, lam, remaining=100):
    """A metric on a view of 20 random evaluations of ``problem``, in a
    ledger with ``remaining`` evaluations left, and the ledger."""
    ledger = EvaluationLedger(budget=20 + remaining)
    for g in new_genotypes(problem, 20, rng, ledger):
        evaluate(g, problem, ledger)
    return ResolvedMetric(problem, view_of(ledger), lam, ledger, 5), ledger


def screen(rm, generation, start=0):
    """``rm.screen_rows`` of ``generation`` from ``start``, with the
    objective calls it made; checks that its rows are ``rows_of``'s."""
    keys = [rm.problem.canonical_key(g) for g in generation]
    calls = rm._memo.objective_calls
    end, dists, orders = rm.screen_rows(generation, keys, start)
    expected = rm.rows_of(generation[start:end], keys[start:end])
    assert dists.tobytes() == expected[0].tobytes()
    assert orders.tobytes() == expected[1].tobytes()
    return end, rm._memo.objective_calls - calls


@pytest.mark.parametrize("k", [1, 3])
def test_screen_rows_stops_after_the_new_candidate_that_reaches_the_target(rng, k):
    problem = OneMax(bits=12)
    rm, ledger = screening_metric(problem, rng, 0.5)
    held = ledger.samples[3].genotype
    new = new_genotypes(problem, 3, rng, ledger)
    top = np.ones(12, dtype=np.uint8)
    # a held genotype, then k new candidates, the k-th reaching the target
    generation = [held, *new[: k - 1], top, *new[k - 1 :]]
    end, calls = screen(rm, generation)
    # the chunk stops before the next candidate whose row calls the
    # objective, and scored exactly the new candidates up to the target
    assert end == 1 + k and calls == k
    # the rest is the next chunk
    end, calls = screen(rm, generation, end)
    assert end == len(generation) and calls == 3 - (k - 1)


@pytest.mark.parametrize("scored", [False, True])
def test_screen_rows_stops_where_the_budget_can_end_the_burst(rng, scored):
    problem = OneMax(bits=12)
    rm, ledger = screening_metric(problem, rng, 0.5, remaining=2)
    held = ledger.samples[3].genotype
    new = new_genotypes(problem, 4, rng, ledger)
    if scored:
        # a candidate the filter scored before: its row calls no objective
        ledger.score_of(new[2], problem, problem.canonical_key(new[2]))
    generation = [new[0], held, new[1], new[2], new[3]]
    end, calls = screen(rm, generation)
    # the third new genotype that needs an objective call ends the chunk
    assert end == (4 if scored else 3) and calls == 2


def test_screen_rows_stops_after_a_new_genotype_whose_behavior_is_not_its_score(rng):
    problem = make_problem("symreg")
    rm, ledger = screening_metric(problem, rng, 0.5)
    held = [s.genotype for s in ledger.samples[:2]]
    new = new_genotypes(problem, 2, rng, ledger)
    generation = [held[0], new[0], held[1], new[1]]
    end, calls = screen(rm, generation)
    # new[0]'s score is unknown once its behavior is: the chunk ends at
    # the next candidate that needs a call, past a held one
    assert end == 3 and calls == 1
    assert ledger.lookup(problem.canonical_key(new[0])) is None


def test_screen_rows_on_the_genotypic_metric_is_one_chunk_without_calls(rng):
    problem = OneMax(bits=12)
    rm, ledger = screening_metric(problem, rng, 1.0, remaining=1)
    new = new_genotypes(problem, 4, rng, ledger)
    generation = [new[0], np.ones(12, dtype=np.uint8), *new[1:]]
    assert screen(rm, generation) == (len(generation), 0)


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
