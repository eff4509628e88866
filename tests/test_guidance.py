import numpy as np
import pytest

from infoevo import guidance, manifold
from infoevo.core import (
    EvaluationLedger,
    ResolvedMetric,
    evaluate,
    knn,
    normalize_scores,
    view_of,
)
from infoevo.domains import OneMax
from infoevo.errors import EmptyLedger
from infoevo.evolve import EvolutionConfig, RunState, run_subpopulation
from infoevo.guidance import (
    FilterPolicy,
    filter_estimates,
    h,
    ledger_modified_fitness,
    modified_fitness,
    omega_block,
    rank_rays,
    should_evaluate,
)

from conftest import ScalarProblem, count_objective_calls, make_scalar_ledger


def scalar_setup(values):
    problem, ledger = make_scalar_ledger(values)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    return view, rm


def omega_of(x, dist, k, rm) -> float:
    """Omega of one candidate: a one-row block of its neighbor order."""
    idx, _ = knn([x], rm, k)
    return float(omega_block(idx, dist, k)[0])


def estimate_of(x, k, rm, ledger_mf) -> float:
    """The filter's estimate of one candidate: a one-row block."""
    rows, orders = rm.rows_of([x])
    return float(filter_estimates(rows, orders, k, ledger_mf)[0])


def point_mass(index, n):
    w = np.zeros(n)
    w[index] = 1.0
    return manifold.from_weights(w)


# --- normalization ---


def test_normalize_against_examples():
    view, _ = scalar_setup([0.0, 10.0])
    assert normalize_scores(5.0, view) == 0.5
    assert normalize_scores(0.0, view) == 0.0
    assert normalize_scores(10.0, view) == 1.0
    # values outside the snapshot range clamp
    assert normalize_scores(-3.0, view) == 0.0
    assert normalize_scores(14.0, view) == 1.0


def test_normalize_against_degenerate():
    view, _ = scalar_setup([4.0])
    assert normalize_scores(4.0, view) == 1.0
    assert normalize_scores(99.0, view) == 1.0


# --- omega: knn mass ---


def test_omega_knn_point_mass_on_neighbor():
    view, rm = scalar_setup([0.0, 5.0, 10.0])
    dist = point_mass(0, 3)
    # nearest 1 neighbor of 0.2 is sample 0, which carries ~all mass
    assert omega_of(0.2, dist, 1, rm) == pytest.approx(1.0, abs=1e-6)
    # nearest neighbor of 9.9 is sample 2, which carries ~no mass
    assert omega_of(9.9, dist, 1, rm) == pytest.approx(0.0, abs=1e-6)


def test_omega_knn_monotone_in_k():
    view, rm = scalar_setup([0.0, 2.0, 4.0, 6.0, 8.0])
    dist = manifold.uniform(5)
    vals = [omega_of(3.0, dist, k, rm) for k in (1, 2, 3, 4, 5)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12
    assert vals[-1] == pytest.approx(1.0)


def test_omega_knn_uniform_mass_fraction():
    view, rm = scalar_setup([0.0, 2.0, 4.0, 6.0])
    dist = manifold.uniform(4)
    assert omega_of(0.1, dist, 2, rm) == pytest.approx(0.5)


def test_omega_knn_empty():
    from infoevo.core import PopulationView

    empty = PopulationView.of([])
    rm = ResolvedMetric(ScalarProblem(), empty, EvaluationLedger(0), 1)
    with pytest.raises(EmptyLedger):
        omega_of(1.0, manifold.uniform(1), 1, rm)


# --- modified fitness ---


def test_h_product_form():
    assert h(0.8, 0.5) == pytest.approx(0.8 * 0.55)
    assert h(0.0, 1.0) == 0.0
    # the baseline keeps zero-omega candidates alive
    assert h(1.0, 0.0) == pytest.approx(0.05)
    # elementwise on arrays
    assert np.allclose(h(np.array([0.8, 1.0]), np.array([0.5, 0.0])), [0.44, 0.05])


def test_h_monotone_in_both_arguments(rng):
    for _ in range(200):
        z, w = rng.uniform(0, 1, 2)
        dz, dw = rng.uniform(0, 0.5, 2)
        assert h(z + dz, w) >= h(z, w) - 1e-12
        assert h(z, w + dw) >= h(z, w) - 1e-12


def test_modified_fitness_prefers_near_target():
    view, rm = scalar_setup([0.0, 5.0, 10.0])
    target = point_mass(2, 3)
    high, low = modified_fitness([9.8, 0.2], np.array([1.0, 1.0]), target, 1, rm)
    assert high > low


# --- estimation and filtering ---


def test_ledger_modified_fitness_matches_pointwise():
    view, rm = scalar_setup([0.0, 5.0, 10.0])
    target = point_mass(2, 3)
    batch = ledger_modified_fitness(target, 2, rm)
    for i, s in enumerate(view.samples):
        zn = normalize_scores(s.score, view)
        assert batch[i] == pytest.approx(modified_fitness([s.genotype], zn, target, 2, rm)[0])


def test_estimate_fitness_exact_match_recovers_sample_value():
    view, rm = scalar_setup([0.0, 5.0, 10.0])
    ledger_mf = ledger_modified_fitness(point_mass(2, 3), 2, rm)
    est = estimate_of(10.0, 2, rm, ledger_mf)
    # a candidate sitting on a ledger sample is dominated by that sample
    assert est == pytest.approx(ledger_mf[2], rel=1e-6)


def test_estimate_fitness_between_neighbors():
    view, rm = scalar_setup([0.0, 10.0])
    ledger_mf = ledger_modified_fitness(point_mass(1, 2), 1, rm)
    est = estimate_of(5.0, 2, rm, ledger_mf)
    lo, hi = sorted(ledger_mf)
    assert lo - 1e-12 <= est <= hi + 1e-12


def test_should_evaluate_cold_start(monkeypatch):
    # a guided burst on a view of fewer than 2k samples cannot estimate a
    # candidate, so it screens none and evaluates every one
    problem, ledger = make_scalar_ledger([0.0, 5.0, 9.0], budget=100)
    view = view_of(ledger)
    policy = FilterPolicy(k=7, threshold_quantile=0.5)
    assert not policy.warm(len(view)) and FilterPolicy(k=1).warm(len(view))
    rm = ResolvedMetric(problem, view, ledger, len(view))
    screened = []

    def recording(*args):
        screened.append(args)
        return should_evaluate(*args)

    monkeypatch.setattr(guidance, "should_evaluate", recording)
    state = RunState(
        ledger=ledger,
        problem=problem,
        rng=np.random.default_rng(0),
        gamma=0.25,
        threshold_quantile=policy.threshold_quantile,
    )
    config = EvolutionConfig(subpop_size=3, generations_per_round=3, elitism=1)
    report = run_subpopulation(view, config, state, policy, rm, point_mass(2, 3))
    assert report.candidates_generated > 0 and not screened
    assert report.candidates_evaluated == report.candidates_generated


def test_should_evaluate_quantile_zero_accepts_all(rng):
    values = list(rng.uniform(0, 10, 20))
    view, rm = scalar_setup(values)
    policy = FilterPolicy(k=3, threshold_quantile=0.0)
    ledger_mf = ledger_modified_fitness(point_mass(0, len(view.samples)), 3, rm)
    thr = float(np.quantile(ledger_mf, 0.0))
    for x in rng.uniform(0, 10, 30):
        est = estimate_of(float(x), policy.k, rm, ledger_mf)
        ok, _ = should_evaluate(est, thr)
        # only candidates estimated below the ledger minimum can be skipped
        assert ok or est < thr


def test_should_evaluate_threshold_behavior(rng):
    values = list(rng.uniform(0, 10, 20))
    view, rm = scalar_setup(values)
    n = len(view.samples)
    best = int(np.argmax(view.scores))
    policy = FilterPolicy(k=3, threshold_quantile=0.25)
    ledger_mf = ledger_modified_fitness(point_mass(best, n), 3, rm)
    thr = float(np.quantile(ledger_mf, 0.25))
    for x in rng.uniform(0, 10, 50):
        est = estimate_of(float(x), policy.k, rm, ledger_mf)
        ok, got = should_evaluate(est, thr)
        assert ok == (est >= thr) and got == est


def test_screened_then_evaluated_candidate_costs_one_objective_call(rng):
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=30)
    for _ in range(12):
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    calls = count_objective_calls(problem)
    x = problem.random_genotype(rng)
    while ledger.lookup(problem.canonical_key(x)) is not None:
        x = problem.random_genotype(rng)
    policy = FilterPolicy(k=3)
    est = estimate_of(x, policy.k, rm, view.scores)
    ok, _ = should_evaluate(est, float("-inf"))
    assert ok and calls == []  # screening reads genotypes only
    sample = evaluate(x, problem, ledger)
    assert calls == ["score"]
    assert sample.score == float(x.sum())
    assert ledger.eval_count == len(view) + 1


def test_filter_policy_validation():
    with pytest.raises(ValueError):
        FilterPolicy(k=0)
    with pytest.raises(ValueError):
        FilterPolicy(threshold_quantile=1.0)
    with pytest.raises(ValueError):
        FilterPolicy(threshold_quantile=-0.1)


# --- ray ranking ---


def test_rank_rays_by_expected_promise():
    pv = np.array([0.0, 0.5, 1.0])
    low = point_mass(0, 3)
    mid = manifold.uniform(3)
    high = point_mass(2, 3)
    order = rank_rays([low, mid, high], pv)
    assert order == [2, 1, 0]


def test_rank_rays_ties_stable():
    pv = np.array([1.0, 1.0, 1.0])
    a, b, c = manifold.uniform(3), manifold.uniform(3), manifold.uniform(3)
    assert rank_rays([a, b, c], pv) == [0, 1, 2]
