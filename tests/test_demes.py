import numpy as np
import pytest

from infoevo.demes import (
    DemeBudget,
    aggregate_best,
    behavior_to_distribution,
    program_fisher_distance,
    run_deme_round,
    run_demes,
    spawn_demes,
)
from infoevo.domains import OneMax
from infoevo.errors import NonFiniteOutput
from infoevo.evolve import EvolutionConfig
from infoevo.geodesic_search import StepParams
from infoevo.guidance import FilterPolicy
from infoevo.promise import PromiseWeights


def deme_args():
    return dict(
        promise_weights=PromiseWeights(),
        step_params=StepParams(ray_count=3, grid_resolution=8, refinement_levels=1),
        policy=FilterPolicy(k=3),
        h_kind="product",
    )


def small_config(**kw):
    base = dict(
        subpop_size=10,
        generations_per_round=2,
        elitism=2,
        seed=0,
        init_population=15,
    )
    base.update(kw)
    return EvolutionConfig(**base)


# --- spawning ---


def test_spawn_demes_count_and_subsets():
    problem = OneMax(bits=12)
    demes = spawn_demes(problem, 4, np.random.default_rng(1), DemeBudget(total=200))
    assert len(demes) == 4
    for i, d in enumerate(demes):
        assert d.deme_id == i
        assert 1 <= len(d.feature_subset) <= 12
        assert len(set(d.feature_subset)) == len(d.feature_subset)
        assert all(0 <= f < 12 for f in d.feature_subset)
        assert d.ledger.budget == 50
        assert d.status == "active"
        assert d.exemplar.shape == (12,)


def test_spawn_demes_split_the_whole_budget():
    problem = OneMax(bits=12)
    demes = spawn_demes(problem, 7, np.random.default_rng(1), DemeBudget(total=1500))
    budgets = [d.ledger.budget for d in demes]
    assert sum(budgets) == 1500
    assert max(budgets) - min(budgets) <= 1


def test_spawn_demes_deterministic():
    problem = OneMax(bits=10)
    a = spawn_demes(problem, 3, np.random.default_rng(7), DemeBudget(total=60))
    b = spawn_demes(problem, 3, np.random.default_rng(7), DemeBudget(total=60))
    for da, db in zip(a, b):
        assert da.feature_subset == db.feature_subset
        assert np.array_equal(da.exemplar, db.exemplar)


def test_spawn_demes_validation():
    problem = OneMax(bits=8)
    with pytest.raises(ValueError):
        spawn_demes(problem, 0, np.random.default_rng(0), DemeBudget(total=10))
    with pytest.raises(ValueError):
        DemeBudget(total=0)
    with pytest.raises(ValueError):
        DemeBudget(total=10, subdemes_per_deme=0)


# --- rounds ---


def test_run_deme_round_budget_and_subdeme_count():
    problem = OneMax(bits=16)
    problem.target = 17.0  # unreachable: the round runs to plan
    budget = DemeBudget(total=200, subdemes_per_deme=3)
    demes = spawn_demes(problem, 1, np.random.default_rng(3), budget)
    deme = demes[0]
    result = run_deme_round(
        deme, problem, small_config(), budget, **deme_args(), max_rounds=1
    )
    assert deme.ledger.eval_count <= 200
    for report in result.reports:
        # kept sub-demes per round: ceil(3 / 2) = 2
        assert report.rays_used <= 2
        assert len(report.subdemes) <= 2


def test_run_deme_round_marks_exhausted():
    problem = OneMax(bits=8)  # tiny: target reachable fast
    budget = DemeBudget(total=400)
    demes = spawn_demes(problem, 1, np.random.default_rng(5), budget)
    deme = demes[0]
    run_deme_round(
        deme, problem, small_config(), budget, **deme_args(), max_rounds=50
    )
    assert deme.status == "exhausted"
    with pytest.raises(ValueError):
        run_deme_round(deme, problem, small_config(), budget, **deme_args())


def test_run_demes_isolated_ledgers():
    problem = OneMax(bits=12)
    problem.target = 13.0  # unreachable; every deme spends its own budget
    budget = DemeBudget(total=120)
    demes, states, reports, _ = run_demes(
        problem,
        3,
        small_config(),
        budget,
        **deme_args(),
        rng=np.random.default_rng(2),
    )
    assert all(d.status == "exhausted" for d in demes)
    ids = [id(d.ledger) for d in demes]
    assert len(set(ids)) == 3
    for d, state in zip(demes, states):
        assert d.ledger.eval_count <= 40
        assert len(state.trace) == d.ledger.eval_count
        assert all(row["deme_id"] == d.deme_id for row in state.trace)


def test_aggregate_best_across_demes():
    problem = OneMax(bits=10)
    budget = DemeBudget(total=120)
    demes, _, _, _ = run_demes(
        problem,
        2,
        small_config(),
        budget,
        **deme_args(),
        rng=np.random.default_rng(4),
    )
    best = aggregate_best(demes)
    assert best is not None
    per_deme = [
        max(s.score for s in d.ledger.samples)
        for d in demes
        if d.ledger.eval_count
    ]
    assert best.score == max(per_deme)
    assert aggregate_best([]) is None


# --- behavior distributions and program distance ---


def test_behavior_to_distribution_positive_vector():
    d = behavior_to_distribution([1.0, 3.0], eps_b=0.0)
    assert np.allclose(d.p, [0.25, 0.75])


def test_behavior_to_distribution_negative_shift():
    # min is shifted to zero, then eps_b of the spread is mixed in
    d = behavior_to_distribution([-1.0, 1.0], eps_b=0.0)
    assert np.allclose(d.p, [0.0, 1.0], atol=1e-8)


def test_behavior_to_distribution_constant_is_uniform():
    d = behavior_to_distribution([4.0, 4.0, 4.0])
    assert np.allclose(d.p, 1.0 / 3.0)
    z = behavior_to_distribution([0.0, 0.0])
    assert np.allclose(z.p, 0.5)


def test_behavior_to_distribution_nonfinite():
    with pytest.raises(NonFiniteOutput):
        behavior_to_distribution([1.0, np.inf])
    with pytest.raises(NonFiniteOutput):
        behavior_to_distribution([np.nan, 0.0])


def program_distance(a, b, probes):
    from infoevo.domains.symreg import SymbolicRegression

    problem = SymbolicRegression()
    return program_fisher_distance(a, b, probes, problem)


def test_program_fisher_distance_identical_outputs_zero():
    # x+1 and (x+0.5)+0.5 differ syntactically but agree on every probe
    x = ("x", 0)
    a = ("+", x, ("c", 1.0))
    b = ("+", ("+", x, ("c", 0.5)), ("c", 0.5))
    assert program_distance(a, a, [(0.0,), (1.0,), (2.0,)]) == 0.0
    assert program_distance(a, b, [(0.0,), (1.0,), (2.0,)]) == pytest.approx(0.0, abs=1e-6)


def test_program_fisher_distance_known_value():
    # outputs (1, 3) vs (3, 1): distributions (0.25, 0.75) and
    # (0.75, 0.25), geodesic distance 2*arccos(sqrt(3)/2) = pi/3
    x = ("x", 0)
    two_x_plus_1 = ("+", ("*", ("c", 2.0), x), ("c", 1.0))
    three_minus_2x = ("-", ("c", 3.0), ("*", ("c", 2.0), x))
    d = program_distance(two_x_plus_1, three_minus_2x, [(0.0,), (1.0,)])
    assert d == pytest.approx(np.pi / 3, abs=1e-4)


def test_program_fisher_distance_symmetry_and_triangle(rng):
    from infoevo.domains.symreg import SymbolicRegression

    problem = SymbolicRegression()
    probes = [(-1.0,), (0.0,), (1.0,), (2.0,)]
    trees = [problem.random_genotype(rng) for _ in range(6)]
    ds = {}
    for i, a in enumerate(trees):
        for j, b in enumerate(trees):
            try:
                ds[i, j] = program_fisher_distance(a, b, probes, problem)
            except NonFiniteOutput:
                pytest.skip("random tree overflowed on the probes")
    for i in range(6):
        assert ds[i, i] == pytest.approx(0.0, abs=1e-6)
        for j in range(6):
            assert ds[i, j] == pytest.approx(ds[j, i], abs=1e-12)
            for k in range(6):
                assert ds[i, j] <= ds[i, k] + ds[k, j] + 1e-9
