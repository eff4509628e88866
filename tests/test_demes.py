import numpy as np
import pytest

from infoevo.demes import (
    aggregate_best,
    behavior_to_distribution,
    program_fisher_distance,
    run_deme_round,
    run_demes,
    spawn_demes,
)
from infoevo.domains import OneMax
from infoevo.errors import NonFiniteOutput
from infoevo.evolve import EvolutionConfig, RunConfig, RunState
from infoevo.geodesic_search import StepParams
from infoevo.guidance import FilterPolicy
from infoevo.promise import PromiseWeights


def deme_config(budget, deme_count=1, evolution=None, **kw):
    base = dict(
        weights=PromiseWeights(),
        step=StepParams(ray_count=3, grid_resolution=8, refinement_levels=1),
        policy=FilterPolicy(k=3),
        h_kind="product",
    )
    base.update(kw)
    return RunConfig(
        budget=budget,
        seed=0,
        deme_count=deme_count,
        evolution=evolution or small_config(),
        **base,
    )


def deme_state(deme, problem):
    return RunState(ledger=deme.ledger, problem=problem, deme_id=deme.deme_id)


def small_config(**kw):
    base = dict(
        subpop_size=10,
        generations_per_round=2,
        elitism=2,
        init_population=15,
    )
    base.update(kw)
    return EvolutionConfig(**base)


# --- spawning ---


def test_spawn_demes_count_and_subsets():
    demes = spawn_demes(4, np.random.default_rng(1), 200)
    assert len(demes) == 4
    for i, d in enumerate(demes):
        assert d.deme_id == i
        assert d.ledger.budget == 50
        assert d.status == "active"


def test_spawn_demes_split_the_whole_budget():
    demes = spawn_demes(7, np.random.default_rng(1), 1500)
    budgets = [d.ledger.budget for d in demes]
    assert sum(budgets) == 1500
    assert max(budgets) - min(budgets) <= 1


def test_spawn_demes_deterministic():
    a = spawn_demes(3, np.random.default_rng(7), 60)
    b = spawn_demes(3, np.random.default_rng(7), 60)
    for da, db in zip(a, b):
        assert da.ledger.budget == db.ledger.budget
        assert np.array_equal(da.rng.integers(2**63, size=4), db.rng.integers(2**63, size=4))
    streams = [d.rng.integers(2**63) for d in a]
    assert len(set(streams)) == 3  # each deme draws its own stream


def test_spawn_demes_validation():
    with pytest.raises(ValueError):
        spawn_demes(0, np.random.default_rng(0), 10)
    with pytest.raises(ValueError):
        spawn_demes(1, np.random.default_rng(0), 0)


# --- rounds ---


def test_run_deme_round_budget_and_subdeme_count():
    problem = OneMax(bits=16)
    problem.target = 17.0  # unreachable: the round runs to plan
    cfg = deme_config(200)
    demes = spawn_demes(1, np.random.default_rng(3), cfg.budget)
    deme = demes[0]
    result = run_deme_round(
        deme, problem, cfg, state=deme_state(deme, problem), max_rounds=1
    )
    assert deme.ledger.eval_count <= 200
    for report in result.reports:
        # kept sub-demes per round: ceil(3 / 2) = 2
        assert report.rays_used <= 2
        assert len(report.subdemes) <= 2


def test_run_deme_round_marks_exhausted():
    problem = OneMax(bits=8)  # tiny: target reachable fast
    cfg = deme_config(400)
    demes = spawn_demes(1, np.random.default_rng(5), cfg.budget)
    deme = demes[0]
    state = deme_state(deme, problem)
    run_deme_round(deme, problem, cfg, state=state, max_rounds=50)
    assert deme.status == "exhausted"
    with pytest.raises(ValueError):
        run_deme_round(deme, problem, cfg, state=state)


def test_run_demes_isolated_ledgers():
    problem = OneMax(bits=12)
    problem.target = 13.0  # unreachable; every deme spends its own budget
    demes, states, reports, _ = run_demes(
        problem, deme_config(120, deme_count=3), np.random.default_rng(2)
    )
    assert all(d.status == "exhausted" for d in demes)
    ids = [id(d.ledger) for d in demes]
    assert len(set(ids)) == 3
    for d, state in zip(demes, states):
        assert d.ledger.eval_count <= 40
        assert len(state.trace) == d.ledger.eval_count
        assert all(row["deme_id"] == d.deme_id for row in state.trace)


def test_run_demes_continue_each_deme_loop():
    problem = OneMax(bits=12)
    problem.target = 13.0  # unreachable: gamma halves once the best stalls
    cfg = deme_config(200, deme_count=2)
    _, _, reports, _ = run_demes(problem, cfg, np.random.default_rng(2))
    for deme_reports in reports:
        assert [r.round_index for r in deme_reports] == list(range(len(deme_reports)))
        assert min(r.gamma_used for r in deme_reports) < cfg.step.gamma


def test_run_deme_round_stalled_loop_exhausts_deme():
    problem = OneMax(bits=12)
    problem.target = 13.0
    # no round evaluates
    cfg = deme_config(200, evolution=small_config(generations_per_round=0))
    deme = spawn_demes(1, np.random.default_rng(1), cfg.budget)[0]
    state = deme_state(deme, problem)
    for _ in range(3):
        assert deme.status == "active"
        run_deme_round(deme, problem, cfg, state=state)
    assert state.stop and state.round_index == 3
    assert deme.status == "exhausted"


def test_run_demes_end_when_no_deme_can_grow_its_ledger():
    problem = OneMax(bits=3)  # 8 genotypes, far fewer than each deme's budget
    problem.target = 4.0  # unreachable
    demes, _, reports, trace = run_demes(
        problem, deme_config(200, deme_count=2), np.random.default_rng(2)
    )
    assert all(d.status == "exhausted" for d in demes)
    assert all(d.ledger.remaining > 0 for d in demes)
    assert all(d.ledger.eval_count <= 8 for d in demes)
    assert len(trace) == sum(d.ledger.eval_count for d in demes)
    assert all(deme_reports for deme_reports in reports)


def test_run_demes_end_when_no_deme_has_an_initial_population():
    problem = OneMax(bits=12)
    cfg = deme_config(200, deme_count=2, evolution=small_config(init_population=0))
    demes, _, reports, trace = run_demes(problem, cfg, np.random.default_rng(2))
    assert all(d.status == "exhausted" for d in demes)
    assert trace == [] and reports == [[], []]


def test_aggregate_best_across_demes():
    problem = OneMax(bits=10)
    demes, _, _, _ = run_demes(
        problem, deme_config(120, deme_count=2), np.random.default_rng(4)
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
