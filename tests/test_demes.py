from dataclasses import replace

import numpy as np
import pytest

from infoevo.cli import execute_run
from infoevo.demes import run_demes, spawn_demes
from infoevo.domains import OneMax
from infoevo.domains.symreg import behavior_to_distribution, program_fisher_distance
from infoevo.errors import NonFiniteOutput
from infoevo.evolve import EvolutionConfig, RunConfig, run_round
from infoevo.geodesic_search import StepParams
from infoevo.guidance import FilterPolicy
from infoevo.promise import PromiseWeights


def deme_config(budget, deme_count=1, evolution=None, **kw):
    base = dict(
        weights=PromiseWeights(),
        step=StepParams(ray_count=3, grid_resolution=8, refinement_levels=1),
        policy=FilterPolicy(k=3),
    )
    base.update(kw)
    return RunConfig(
        budget=budget,
        seed=0,
        deme_count=deme_count,
        evolution=evolution or small_config(),
        **base,
    )


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
    problem = OneMax(bits=8)
    cfg = deme_config(200, deme_count=4)
    states = spawn_demes(problem, cfg, np.random.default_rng(1))
    assert len(states) == 4
    for i, st in enumerate(states):
        assert st.deme_id == i
        assert st.problem is problem
        assert st.ledger.budget == 50
        assert not st.stop and st.reports == []
        # each deme starts at the run's schedule
        assert st.gamma == cfg.step.gamma
        assert st.threshold_quantile == cfg.policy.threshold_quantile


def test_spawn_demes_split_the_whole_budget():
    states = spawn_demes(
        OneMax(bits=8), deme_config(1500, deme_count=7), np.random.default_rng(1)
    )
    budgets = [st.ledger.budget for st in states]
    assert sum(budgets) == 1500
    assert max(budgets) - min(budgets) <= 1


def test_spawn_demes_deterministic():
    problem = OneMax(bits=8)
    a = spawn_demes(problem, deme_config(60, deme_count=3), np.random.default_rng(7))
    b = spawn_demes(problem, deme_config(60, deme_count=3), np.random.default_rng(7))
    for da, db in zip(a, b):
        assert da.ledger.budget == db.ledger.budget
        assert np.array_equal(da.rng.integers(2**63, size=4), db.rng.integers(2**63, size=4))
    streams = [st.rng.integers(2**63) for st in a]
    assert len(set(streams)) == 3  # each deme draws its own stream
    # deme 0 continues the stream it was given, so one deme is a single run
    rng = np.random.default_rng(7)
    (only,) = spawn_demes(problem, deme_config(60), rng)
    assert only.rng is rng
    assert np.array_equal(
        only.rng.integers(2**63, size=4),
        np.random.default_rng(7).integers(2**63, size=4),
    )


def test_spawn_demes_validation():
    for cfg in (
        deme_config(10, deme_count=0),
        deme_config(0),
        deme_config(10, mode="turbo"),
        deme_config(10, mode="paired"),  # two runs, which the CLI makes
    ):
        with pytest.raises(ValueError):
            spawn_demes(OneMax(bits=8), cfg, np.random.default_rng(0))


# --- rounds ---


def test_run_deme_round_budget_and_subdeme_count():
    problem = OneMax(bits=16)
    problem.target = 17.0  # unreachable: the round runs to plan
    cfg = deme_config(200)
    (state,) = spawn_demes(problem, cfg, np.random.default_rng(3))
    run_round(state, cfg)
    assert state.ledger.eval_count <= 200
    assert len(state.reports) == 1
    for report in state.reports:
        # kept sub-demes per round: ceil(3 / 2) = 2
        assert report.rays_used <= 2
        assert len(report.subdemes) <= 2


def test_run_deme_round_marks_exhausted():
    problem = OneMax(bits=8)  # tiny: target reachable fast
    cfg = deme_config(400)
    (state,) = spawn_demes(problem, cfg, np.random.default_rng(5))
    for _ in range(50):
        run_round(state, cfg)
    assert state.stop
    # a stopped deme runs no further round and draws nothing
    rounds, evals = len(state.reports), state.ledger.eval_count
    draws = state.rng.bit_generator.state
    run_round(state, cfg)
    assert len(state.reports) == rounds and state.ledger.eval_count == evals
    assert state.rng.bit_generator.state == draws


def test_run_demes_isolated_ledgers():
    problem = OneMax(bits=12)
    problem.target = 13.0  # unreachable; every deme spends its own budget
    states, _ = run_demes(
        problem, deme_config(120, deme_count=3), np.random.default_rng(2)
    )
    assert all(st.stop for st in states)
    ids = [id(st.ledger) for st in states]
    assert len(set(ids)) == 3
    for st in states:
        assert st.ledger.eval_count <= 40
        assert len(st.trace) == st.ledger.eval_count
        assert all(row["deme_id"] == st.deme_id for row in st.trace)


def test_run_demes_continue_each_deme_loop():
    problem = OneMax(bits=12)
    problem.target = 13.0  # unreachable: gamma halves once the best stalls
    cfg = deme_config(200, deme_count=2)
    states, _ = run_demes(problem, cfg, np.random.default_rng(2))
    for st in states:
        assert [r.round_index for r in st.reports] == list(range(len(st.reports)))
        assert min(r.gamma_used for r in st.reports) < cfg.step.gamma


def test_run_deme_round_stalled_loop_exhausts_deme():
    problem = OneMax(bits=12)
    problem.target = 13.0
    # no round evaluates
    cfg = deme_config(200, evolution=small_config(generations_per_round=0))
    (state,) = spawn_demes(problem, cfg, np.random.default_rng(1))
    for _ in range(3):
        assert not state.stop
        run_round(state, cfg)
    assert state.stop_reason == "stall" and len(state.reports) == 3


def test_run_demes_end_when_no_deme_can_grow_its_ledger():
    problem = OneMax(bits=3)  # 8 genotypes, far fewer than each deme's budget
    problem.target = 4.0  # unreachable
    states, trace = run_demes(
        problem, deme_config(200, deme_count=2), np.random.default_rng(2)
    )
    assert all(st.stop_reason == "stall" for st in states)
    assert all(st.ledger.remaining > 0 for st in states)
    assert all(st.ledger.eval_count <= 8 for st in states)
    assert len(trace) == sum(st.ledger.eval_count for st in states)
    assert all(st.reports for st in states)


@pytest.mark.parametrize("mode", ["info_evo", "baseline"])
def test_run_draws_its_initial_population_once(mode):
    # 8 genotypes and an unreachable target: the first round draws until
    # its attempts run out, and a round after it that drew the initial
    # population again would draw as many more
    problem = OneMax(bits=3)
    problem.target = 4.0
    draws = []
    random_genotype = problem.random_genotype
    problem.random_genotype = lambda rng: draws.append(1) or random_genotype(rng)
    cfg = deme_config(200, mode=mode, evolution=small_config(init_population=15))
    (state,), trace = run_demes(problem, cfg, np.random.default_rng(2))
    assert len(draws) == 50 * 15
    assert state.stop_reason == "stall" and len(state.reports) >= 3
    assert len(trace) == state.ledger.eval_count <= 8


def test_run_demes_with_more_demes_than_budget():
    # demes 3 and 4 have no budget: each stops on its first turn, draws
    # nothing from its stream and adds no trace row
    problem = OneMax(bits=12)
    cfg = deme_config(3, deme_count=5)
    states, trace = run_demes(problem, cfg, np.random.default_rng(2))
    fresh = spawn_demes(problem, cfg, np.random.default_rng(2))
    assert [st.ledger.budget for st in states] == [1, 1, 1, 0, 0]
    assert [st.stop_reason for st in states] == ["budget"] * 5
    for st, unrun in zip(states[3:], fresh[3:]):
        assert st.reports == [] and st.trace == []
        assert st.rng.bit_generator.state == unrun.rng.bit_generator.state
    assert sum(st.ledger.eval_count for st in states) == len(trace) == 3
    cfg = replace(cfg, problem="onemax", problem_params={"bits": 12})
    record = execute_run(cfg, "info_evo", 2)
    assert record["eval_count"] == 3 and len(record["trace"]) == 3


def test_run_demes_end_when_no_deme_has_an_initial_population():
    problem = OneMax(bits=12)
    cfg = deme_config(200, deme_count=2, evolution=small_config(init_population=0))
    states, trace = run_demes(problem, cfg, np.random.default_rng(2))
    assert [st.stop_reason for st in states] == ["stall", "stall"]
    assert trace == [] and all(st.reports == [] for st in states)


def test_aggregate_best_across_demes():
    problem = OneMax(bits=10)
    states, _ = run_demes(
        problem, deme_config(120, deme_count=2), np.random.default_rng(4)
    )
    for st in states:
        assert st.best.score == max(s.score for s in st.ledger.samples)
    (unrun,) = spawn_demes(problem, deme_config(10), np.random.default_rng(4))
    assert unrun.best is None
    # a run's best is the best of its demes; at this seed deme 1 holds it
    cfg = RunConfig(
        problem="sphere", problem_params={"dim": 5}, budget=120, deme_count=2
    )
    record = execute_run(cfg, "info_evo", 6)
    best_row = max(record["trace"], key=lambda row: row["score"])
    assert best_row["deme_id"] == 1
    assert record["best_score"] == best_row["score"]


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


def test_program_fisher_distance_identical_outputs_zero():
    # x+1 and (x+0.5)+0.5 differ syntactically but agree on every probe
    x = ("x", 0)
    a = ("+", x, ("c", 1.0))
    b = ("+", ("+", x, ("c", 0.5)), ("c", 0.5))
    probes = [(0.0,), (1.0,), (2.0,)]
    assert program_fisher_distance(a, a, probes) == 0.0
    assert program_fisher_distance(a, b, probes) == pytest.approx(0.0, abs=1e-6)


def test_program_fisher_distance_known_value():
    # outputs (1, 3) vs (3, 1): distributions (0.25, 0.75) and
    # (0.75, 0.25), geodesic distance 2*arccos(sqrt(3)/2) = pi/3
    x = ("x", 0)
    two_x_plus_1 = ("+", ("*", ("c", 2.0), x), ("c", 1.0))
    three_minus_2x = ("-", ("c", 3.0), ("*", ("c", 2.0), x))
    d = program_fisher_distance(two_x_plus_1, three_minus_2x, [(0.0,), (1.0,)])
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
                ds[i, j] = program_fisher_distance(a, b, probes)
            except NonFiniteOutput:
                pytest.skip("random tree overflowed on the probes")
    for i in range(6):
        assert ds[i, i] == pytest.approx(0.0, abs=1e-6)
        for j in range(6):
            assert ds[i, j] == pytest.approx(ds[j, i], abs=1e-12)
            for k in range(6):
                assert ds[i, j] <= ds[i, k] + ds[k, j] + 1e-9
