from dataclasses import replace

import numpy as np
import pytest

from infoevo.core import EvaluationLedger, ScoredSample, evaluate, view_of
from infoevo.demes import run_demes, spawn_demes
from infoevo.domains import OneMax, Sphere, make_problem
from infoevo.evolve import (
    EvolutionConfig,
    RunConfig,
    RunState,
    _next_generation,
    run_round,
    run_subpopulation,
    vary,
)
from infoevo.geodesic_search import StepParams
from infoevo.guidance import FilterPolicy
from infoevo.promise import PromiseWeights

from conftest import ScalarProblem, count_objective_calls, run_one

# the schedule a run starts from, for bursts run outside a run
SCHEDULE = dict(
    gamma=StepParams().gamma, threshold_quantile=FilterPolicy().threshold_quantile
)


def run_config(evolution, seed=0, **kw):
    base = dict(
        weights=PromiseWeights(),
        step=StepParams(ray_count=3, grid_resolution=8, refinement_levels=1),
        policy=FilterPolicy(k=3),
    )
    base.update(kw)
    return RunConfig(evolution=evolution, seed=seed, **base)


def small_config(**kw):
    base = dict(
        subpop_size=10,
        generations_per_round=2,
        elitism=2,
        init_population=20,
    )
    base.update(kw)
    return EvolutionConfig(**base)


# --- config validation ---


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(subpop_size=0)
    with pytest.raises(ValueError):
        EvolutionConfig(mutation_rate=0.0)
    with pytest.raises(ValueError):
        EvolutionConfig(elitism=40, subpop_size=40)
    with pytest.raises(ValueError):
        EvolutionConfig(eda_fraction=1.5)
    for bad in ({"population_cap": 0}, {"generations_per_round": -1}, {"init_population": -1}):
        with pytest.raises(ValueError):
            EvolutionConfig(**bad)
    # zero counts stay valid: a run of them stalls and stops
    EvolutionConfig(generations_per_round=0, init_population=0, population_cap=1)


# --- variation ---


def test_vary_offspring_count(rng):
    problem = OneMax(bits=16)
    ledger = EvaluationLedger(budget=50)
    parents = [evaluate(problem.random_genotype(rng), problem, ledger) for _ in range(8)]
    config = small_config()
    kids = vary(parents, [p.score for p in parents], config, problem, rng)
    assert len(kids) == config.subpop_size - config.elitism
    assert all(k.shape == (16,) for k in kids)


def test_vary_deterministic_given_seed():
    problem = OneMax(bits=12)
    ledger = EvaluationLedger(budget=50)
    init = np.random.default_rng(7)
    parents = [evaluate(problem.random_genotype(init), problem, ledger) for _ in range(6)]
    fitness = [p.score for p in parents]
    config = small_config()
    a = vary(parents, fitness, config, problem, np.random.default_rng(11))
    b = vary(parents, fitness, config, problem, np.random.default_rng(11))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_vary_eda_degenerate_marginal(rng):
    # all top-quartile parents share a locus value: the smoothed marginal
    # still gives the other symbol probability eps = 1/subpop_size
    problem = OneMax(bits=4)
    ledger = EvaluationLedger(budget=50)
    parents = [
        evaluate(np.array(bits, dtype=np.uint8), problem, ledger)
        for bits in ([1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1])
    ]
    config = small_config(subpop_size=20, eda_fraction=1.0, elitism=0)
    kids = vary(parents, [p.score for p in parents], config, problem, rng)
    # first locus is 1 in every top parent: offspring still occasionally
    # flip it, but overwhelmingly keep it
    first = [int(k[0]) for k in kids]
    assert sum(first) >= len(first) // 2


def test_vary_requires_parents(rng):
    with pytest.raises(ValueError):
        vary([], [], small_config(), OneMax(4), rng)


@pytest.mark.parametrize(
    "elitism, expected",
    [(0, [3, 4]), (1, [2, 3, 4]), (2, [2, 1, 3, 4])],
)
def test_next_generation_keeps_exactly_elitism_elites(elitism, expected):
    # parents scored 10-12, new samples scored 0 and 1
    parents = [ScoredSample(i, float(i), 10.0 + i) for i in range(3)]
    new = [ScoredSample(3 + i, float(i), float(i)) for i in range(2)]
    fitness = [p.score for p in parents]
    nxt, nxt_fitness = _next_generation(
        parents, fitness, new, [s.score for s in new], small_config(elitism=elitism)
    )
    assert [s.id for s in nxt] == expected
    assert nxt_fitness == [s.score for s in nxt]


# --- subpopulation bursts ---


def test_run_subpopulation_budget_zero(rng):
    problem = ScalarProblem()
    ledger = EvaluationLedger(budget=3)
    for v in (1.0, 2.0, 3.0):
        evaluate(float(v), problem, ledger)
    view = view_of(ledger)
    state = RunState(ledger=ledger, problem=problem, rng=rng, **SCHEDULE)
    config = small_config()
    report = run_subpopulation(view, config, state, FilterPolicy())
    assert report.candidates_evaluated == 0
    assert report.early_stop


def test_run_subpopulation_unguided_accounting(rng):
    problem = ScalarProblem()
    ledger = EvaluationLedger(budget=200)
    for v in (1.0, 2.0, 3.0, 4.0):
        evaluate(float(v), problem, ledger)
    view = view_of(ledger)
    state = RunState(ledger=ledger, problem=problem, rng=rng, **SCHEDULE)
    config = small_config(generations_per_round=3)
    report = run_subpopulation(view, config, state, FilterPolicy())
    assert report.generations_run == 3
    assert report.candidates_generated == 3 * (config.subpop_size - config.elitism)
    assert report.candidates_skipped == 0  # unguided runs never filter
    assert report.candidates_evaluated <= report.candidates_generated


def test_run_subpopulation_improves_best(rng):
    problem = OneMax(bits=24)
    ledger = EvaluationLedger(budget=500)
    parents = [evaluate(problem.random_genotype(rng), problem, ledger) for _ in range(12)]
    before = max(p.score for p in parents)
    view = view_of(ledger)
    state = RunState(ledger=ledger, problem=problem, rng=rng, **SCHEDULE)
    config = small_config(subpop_size=20, generations_per_round=6)
    run_subpopulation(view, config, state, FilterPolicy())
    after = max(s.score for s in ledger.samples)
    assert after >= before


# --- the guided loop ---


def test_loop_target_reached_during_init():
    problem = ScalarProblem(target=0.0)  # any genotype scores >= 0
    config = small_config(init_population=5)
    result = run_one(problem, run_config(config, budget=50))
    assert result.success
    assert result.ledger.eval_count == 1  # stops on the first evaluation
    assert result.best is not None


def test_loop_respects_budget():
    problem = OneMax(bits=40)
    problem.target = 41.0  # unreachable target
    config = small_config(init_population=15)
    result = run_one(problem, run_config(config, budget=120))
    assert result.ledger.eval_count <= 120
    assert not result.success


def test_loop_reaches_onemax_optimum():
    problem = OneMax(bits=20)
    config = EvolutionConfig(
        subpop_size=20, generations_per_round=4, init_population=40
    )
    result = run_one(problem, run_config(config, seed=3, budget=4000))
    assert result.success
    assert result.best.score == 20


def test_loop_baseline_mode():
    problem = OneMax(bits=20)
    config = EvolutionConfig(
        subpop_size=20, generations_per_round=4, init_population=40
    )
    result = run_one(
        problem, run_config(config, seed=3, budget=4000, mode="baseline")
    )
    assert result.success
    for report in result.reports:
        assert report.rays_generated == 0
        assert report.candidates_skipped == 0


def test_loop_baseline_one_objective_call_per_evaluation():
    problem = OneMax(bits=20)
    calls = []
    score = problem.score
    problem.score = lambda g: calls.append(1) or score(g)
    config = EvolutionConfig(
        subpop_size=20, generations_per_round=4, init_population=40
    )
    result = run_one(
        problem, run_config(config, seed=3, budget=600, mode="baseline")
    )
    assert len(result.reports) > 0
    assert len(calls) == result.ledger.eval_count


@pytest.mark.parametrize(
    "make, budget, stop",
    [
        pytest.param(lambda: OneMax(bits=20), 5000, "target", id="onemax-20"),
        pytest.param(lambda: Sphere(dim=5), 5000, "target", id="sphere-5"),
        pytest.param(lambda: Sphere(dim=5), 800, "budget", id="sphere-5-budget-800"),
    ],
)
def test_guided_loop_scores_each_genotype_once(make, budget, stop):
    # every evaluated genotype costs one objective call, and a candidate
    # the filter skipped costs none, also in a run ended by its budget; at
    # quantile 0.75 the filter skips candidates on OneMax too
    problem = make()
    calls = count_objective_calls(problem)
    config = EvolutionConfig(subpop_size=20, generations_per_round=4, init_population=40)
    policy = FilterPolicy(k=3, threshold_quantile=0.75)
    result = run_one(problem, run_config(config, seed=3, budget=budget, policy=policy))
    ledger = result.ledger
    assert result.stop_reason == stop and result.skipped_total > 0
    assert len(calls) == ledger.eval_count == ledger.objective_calls


@pytest.mark.parametrize(
    "name, params, budget, stop",
    [
        pytest.param("onemax", {"bits": 50}, 20000, "target", id="onemax-50-target"),
        pytest.param("trap5", {"bits": 30}, 3000, "budget", id="trap5-30-budget-3000"),
    ],
)
def test_screening_in_blocks_makes_no_speculative_objective_call(name, params, budget, stop):
    # each run ends mid-generation, at an offspring that reaches the target
    # or that the spent budget cannot take; the block that screened that
    # generation computed no objective value for the offspring after it
    problem = make_problem(name, **params)
    calls = count_objective_calls(problem)
    policy = FilterPolicy(threshold_quantile=0.5)  # OneMax skips nothing at 0.25
    cfg = RunConfig(problem=name, problem_params=params, budget=budget, seed=1, policy=policy)
    result = run_one(problem, cfg)
    assert result.stop_reason == stop and result.skipped_total > 0
    last = result.reports[-1].subdemes[-1]
    per_generation = cfg.evolution.subpop_size - cfg.evolution.elitism
    assert last.candidates_generated % per_generation != 0
    assert len(calls) == result.ledger.eval_count


def test_filter_that_skips_a_whole_round_is_loosened_not_stalled():
    # trap5-20 with one ray per round at quantile 0.5 draws rounds whose
    # every new candidate the filter skips; each halves the quantile in
    # force, a round that adds to the ledger restores the policy's, and
    # the run goes on to its budget instead of stopping as stalled
    cfg = RunConfig(
        problem="trap5",
        problem_params={"bits": 20},
        budget=3000,
        seed=1,
        step=StepParams(ray_count=1),
        policy=FilterPolicy(threshold_quantile=0.5),
    )
    problem = make_problem("trap5", bits=20)
    (state,) = spawn_demes(problem, cfg, np.random.default_rng(cfg.seed))
    halved = 0
    while not state.stop:
        evals, quantile = state.ledger.eval_count, state.threshold_quantile
        run_round(state, cfg)
        round_ = state.reports[-1]
        if state.ledger.eval_count > evals:
            assert state.threshold_quantile == cfg.policy.threshold_quantile
        elif round_.candidates_skipped:
            assert state.threshold_quantile == quantile / 2
            halved += 1
    assert halved > 0
    assert state.stop_reason == "budget"


def test_skipped_candidates_the_ledger_held_are_counted_apart():
    # guided trap5-20 with one ray draws many genotypes it already scored,
    # and the filter skips some of them: those skips would have cost no
    # objective call
    cfg = RunConfig(
        problem="trap5",
        problem_params={"bits": 20},
        budget=3000,
        seed=1,
        step=StepParams(ray_count=1),
    )
    state = run_one(make_problem("trap5", bits=20), cfg)
    assert sum(r.candidates_skipped_held for r in state.reports) > 0
    for report in state.reports:
        for burst in report.subdemes:
            assert 0 <= burst.candidates_skipped_held <= burst.candidates_skipped
        assert report.candidates_skipped_held == sum(
            burst.candidates_skipped_held for burst in report.subdemes
        )


@pytest.mark.parametrize("mode", ["info_evo", "baseline"])
def test_budget_ended_run_counts_every_candidate(mode):
    # the last round's burst ends before a candidate the spent budget
    # cannot take is counted, so every count adds up to the end
    result = run_one(
        OneMax(bits=50), RunConfig(budget=500, seed=1, mode=mode)
    )
    assert result.stop_reason == "budget"
    for report in result.reports:
        for part in [report, *report.subdemes]:
            assert part.candidates_generated == (
                part.candidates_skipped + part.candidates_evaluated
            )
    assert result.reports[-1].subdemes[-1].early_stop


def test_loop_without_initial_population_stalls():
    problem = OneMax(bits=12)
    cfg = run_config(small_config(init_population=0), budget=100)
    result = run_one(problem, cfg)
    assert result.stop_reason == "stall"
    assert result.reports == [] and result.trace == []
    assert result.best is None and not result.success


def test_loop_unknown_mode():
    cfg = run_config(small_config(), budget=10, mode="turbo")
    with pytest.raises(ValueError):
        run_demes(OneMax(8), cfg, np.random.default_rng(0))


def test_loop_reproducible():
    problem = OneMax(bits=24)
    problem.target = 25.0
    cfg = run_config(small_config(init_population=30), seed=9, budget=300)
    a = run_one(problem, cfg)
    b = run_one(problem, cfg)
    assert a.trace == b.trace
    assert a.best.score == b.best.score
    assert a.skipped_total == b.skipped_total


def test_loop_trace_contract():
    problem = OneMax(bits=16)
    problem.target = 17.0
    config = small_config(init_population=20)
    result = run_one(problem, run_config(config, budget=100))
    assert len(result.trace) == result.ledger.eval_count
    orders = [row["eval_order"] for row in result.trace]
    assert orders == list(range(len(orders)))
    for row in result.trace:
        assert set(row) == {"eval_order", "score", "deme_id", "skipped"}
    skipped = [row["skipped"] for row in result.trace]
    assert skipped == sorted(skipped)
    assert skipped[-1] == result.skipped_total or result.skipped_total >= skipped[-1]


def test_loop_round_accounting():
    problem = OneMax(bits=24)
    problem.target = 25.0
    cfg = run_config(small_config(init_population=30), budget=400)
    result = run_one(problem, cfg)
    kept = -(-cfg.step.ray_count // 2)
    total_evals = sum(r.candidates_evaluated for r in result.reports)
    # memoized duplicates count as evaluated candidates but spend no budget
    assert total_evals >= result.ledger.eval_count - 30
    for report in result.reports:
        assert report.rays_used <= kept
        assert report.candidates_evaluated + report.candidates_skipped <= report.candidates_generated
        assert report.best_score_after >= report.best_score_before


class FlatScalar(ScalarProblem):
    """Every genotype scores 0, so every promise is uniform."""

    def score(self, genotype):
        return 0.0


def test_flat_promise_rounds_report_it():
    # a uniform promise has no ascent direction, so build_chart falls
    # back to a random frame, and the round says so
    config = small_config(subpop_size=6, generations_per_round=1, init_population=10)
    result = run_one(FlatScalar(), run_config(config, seed=1, budget=60))
    guided = [r for r in result.reports if r.rays_generated]
    assert guided
    assert all(r.promise_flat for r in guided)


@pytest.mark.parametrize("mode", ["info_evo", "baseline"])
def test_onemax_rounds_report_no_flat_promise(mode):
    result = run_one(OneMax(bits=50), RunConfig(budget=500, seed=1, mode=mode))
    assert any(r.rays_generated for r in result.reports) == (mode == "info_evo")
    assert not any(r.promise_flat for r in result.reports)


def test_loop_filter_disabled_evaluates_everything():
    problem = OneMax(bits=24)
    problem.target = 25.0
    config = small_config(init_population=30)
    policy = FilterPolicy(k=3, threshold_quantile=0.0)
    result = run_one(problem, run_config(config, budget=400, policy=policy))
    assert result.skipped_total == 0
    for report in result.reports:
        assert report.candidates_skipped == 0


def test_loop_gamma_halves_after_stall():
    problem = ScalarProblem(target=None)

    class CappedScalar(ScalarProblem):
        def score(self, genotype):
            return min(float(genotype), 1.0)  # flat landscape above 1

    problem = CappedScalar()
    cfg = run_config(small_config(init_population=20), seed=2, budget=200)
    (result,) = spawn_demes(problem, cfg, np.random.default_rng(cfg.seed))
    for _ in range(6):
        run_round(result, cfg)
    gammas = [r.gamma_used for r in result.reports]
    assert gammas[0] == cfg.step.gamma
    # the score saturates, so gamma must shrink over non-improving rounds
    assert any(g < gammas[0] for g in gammas[1:])


def test_loop_continuous_domain_progress():
    problem = Sphere(dim=4)
    config = EvolutionConfig(
        subpop_size=20, generations_per_round=4, init_population=40
    )
    result = run_one(problem, run_config(config, seed=1, budget=2500))
    assert result.best.score > -0.5  # started from uniform in [-5, 5]^4


def test_loop_paired_modes_share_init():
    # same seed: both modes evaluate the identical initial population
    problem = OneMax(bits=30)
    problem.target = 31.0
    cfg = run_config(small_config(init_population=25), seed=17, budget=60)
    a = run_one(problem, cfg)
    b = run_one(problem, replace(cfg, mode="baseline"))
    init_a = [row["score"] for row in a.trace[:25]]
    init_b = [row["score"] for row in b.trace[:25]]
    assert init_a == init_b
