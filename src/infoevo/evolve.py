"""Evolutionary engine and the top-level guided optimization loop.

Each loop iteration estimates a promise distribution over the evaluated
population, steps along geodesic rays to get candidate direction
distributions, and runs one guided subpopulation per kept ray; newly
evaluated genotypes feed the next iteration's population.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import geodesic_search, guidance, manifold
from .core import (
    EvaluationLedger,
    ResolvedMetric,
    ScoredSample,
    best_sample,
    evaluate,
    normalize_scores,
    view_of,
)
from .errors import BudgetExhausted
from .geodesic_search import StepParams
from .guidance import FilterPolicy, ModifiedPromise, OmegaKind
from .promise import PromiseWeights, promise_vector

logger = logging.getLogger(__name__)

GAMMA_FLOOR = 0.01
EDA_MIN_PARENT_POOL = 4


@dataclass(frozen=True)
class EvolutionConfig:
    subpop_size: int = 40
    generations_per_round: int = 4
    mutation_rate: float = 0.05
    crossover_rate: float = 0.7
    elitism: int = 2
    eda_fraction: float = 0.2
    tournament_size: int = 3
    seed: int = 0
    init_population: int = 96
    population_cap: int = 256

    def __post_init__(self):
        if self.subpop_size < 1:
            raise ValueError("subpop_size must be positive")
        if not 0 < self.mutation_rate <= 1:
            raise ValueError("mutation_rate must lie in (0, 1]")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not 0 <= self.eda_fraction <= 1:
            raise ValueError("eda_fraction must lie in [0, 1]")
        if self.elitism < 0 or self.elitism >= self.subpop_size:
            raise ValueError("elitism must lie in [0, subpop_size)")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be positive")


@dataclass
class SubdemeReport:
    ray_index: int
    generations_run: int = 0
    candidates_generated: int = 0
    candidates_skipped: int = 0
    candidates_evaluated: int = 0
    early_stop: bool = False

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RoundReport:
    round_index: int
    rays_generated: int = 0
    rays_used: int = 0
    candidates_generated: int = 0
    candidates_skipped: int = 0
    candidates_evaluated: int = 0
    best_score_before: float = float("-inf")
    best_score_after: float = float("-inf")
    gamma_used: float = 0.0
    subdemes: list[SubdemeReport] = field(default_factory=list)

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["subdemes"] = [s.as_dict() for s in self.subdemes]
        return d


@dataclass
class RunState:
    """Mutable bookkeeping shared across one run.

    The loop's schedule (step size, round index and the counters of
    rounds without improvement and without evaluations) lives here, so a
    loop called for a few rounds at a time continues where it stopped.
    """

    ledger: EvaluationLedger
    problem: object
    deme_id: int = 0
    trace: list[dict] = field(default_factory=list)
    skipped_total: int = 0
    stop: bool = False
    gamma: float | None = None  # the step size; None until the first round
    round_index: int = 0
    no_improve: int = 0
    stalled_rounds: int = 0

    def record(self, genotype) -> ScoredSample:
        before = self.ledger.eval_count
        sample = evaluate(genotype, self.problem, self.ledger)
        if self.ledger.eval_count > before:
            self.trace.append(
                {
                    "eval_order": sample.eval_order,
                    "score": sample.score,
                    "deme_id": self.deme_id,
                    "skipped": self.skipped_total,
                }
            )
            target = self.problem.target
            if target is not None and sample.score >= target:
                self.stop = True
        return sample


@dataclass
class RunResult:
    best: ScoredSample | None
    success: bool
    reports: list[RoundReport]
    trace: list[dict]
    ledger: EvaluationLedger
    skipped_total: int


def _eda_model(parents, fitness, problem, m: int):
    """Per-locus marginals of the top-quartile parents, Laplace smoothed."""
    order = sorted(range(len(parents)), key=lambda i: (-fitness[i], i))
    q = max(1, math.ceil(len(parents) / 4))
    top = [parents[i] for i in order[:q]]
    loci_lists = [problem.loci(s.genotype) for s in top]
    if loci_lists[0] is None:
        return None
    n_loci = len(loci_lists[0])
    eps = 1.0 / m
    model = []
    for locus in range(n_loci):
        observed = [ll[locus] for ll in loci_lists]
        alphabet = problem.locus_alphabet(locus)
        if alphabet is None:
            alphabet = sorted(set(observed))
        counts = np.array([observed.count(v) for v in alphabet], dtype=float)
        probs = counts / counts.sum()
        probs = (1.0 - len(alphabet) * eps) * probs + eps
        probs = np.maximum(probs, 0.0)
        model.append((list(alphabet), probs / probs.sum()))
    return model


def _sample_eda(model, problem, rng):
    values = [alpha[rng.choice(len(alpha), p=probs)] for alpha, probs in model]
    # rng.choice over indices keeps the alphabet type intact
    return problem.from_loci([v for v in values], rng)


def _tournament(parents, fitness, size, rng):
    idx = rng.integers(0, len(parents), size=size)
    best = max(idx, key=lambda i: (fitness[i], -i))
    return parents[best]


def vary(parents, fitness, config: EvolutionConfig, problem, rng) -> list:
    """Produce subpop_size - elitism offspring genotypes.

    Tournament selection with crossover+mutation; an eda_fraction share
    is sampled from smoothed per-locus marginals of the top quartile
    instead, when the domain defines loci.
    """
    if not parents:
        raise ValueError("parents must be nonempty")
    fitness = list(fitness)
    count = config.subpop_size - config.elitism
    model = None
    if config.eda_fraction > 0 and len(parents) >= EDA_MIN_PARENT_POOL:
        model = _eda_model(parents, fitness, problem, config.subpop_size)
    offspring = []
    for _ in range(count):
        if model is not None and rng.random() < config.eda_fraction:
            offspring.append(_sample_eda(model, problem, rng))
            continue
        a = _tournament(parents, fitness, config.tournament_size, rng)
        child = a.genotype
        if rng.random() < config.crossover_rate:
            b = _tournament(parents, fitness, config.tournament_size, rng)
            child = problem.crossover(a.genotype, b.genotype, rng)
        offspring.append(problem.mutate(child, config.mutation_rate, rng))
    return offspring


def run_subpopulation(
    view_fitness,
    mp: ModifiedPromise | None,
    config: EvolutionConfig,
    problem,
    state: RunState,
    view,
    rm: ResolvedMetric | None,
    policy: FilterPolicy,
    rng,
    ray_index: int = 0,
) -> SubdemeReport:
    """One guided (or unguided, mp=None) evolutionary burst.

    ``view_fitness`` is the fitness of each view sample: its score when
    unguided, its ledger modified fitness under ``mp`` when guided. The
    subpop_size fittest view samples seed the parents. Candidate
    filtering and fitness use the frozen population view and its metric
    ``rm`` (unused, and may be None, when unguided); new evaluations
    append to the shared ledger.
    """
    report = SubdemeReport(ray_index=ray_index)
    seed_idx = sorted(range(len(view)), key=lambda i: (-view_fitness[i], i))
    seed_idx = seed_idx[: config.subpop_size]
    parents = [view.samples[i] for i in seed_idx]
    fitness = [view_fitness[i] for i in seed_idx]
    filtering = mp is not None and policy.threshold_quantile > 0
    if filtering:
        threshold = float(np.quantile(view_fitness, policy.threshold_quantile))

    def fitness_of(sample: ScoredSample) -> float:
        if mp is None:
            return sample.score
        zn = normalize_scores(sample.score, view)
        return guidance.modified_fitness(sample.genotype, zn, mp, view, rm)

    for _ in range(config.generations_per_round):
        if state.stop or state.ledger.remaining <= 0:
            report.early_stop = True
            break
        offspring = vary(parents, fitness, config, problem, rng)
        new_samples: list[ScoredSample] = []
        out_of_budget = False
        for child in offspring:
            if state.stop:
                break
            report.candidates_generated += 1
            if filtering and len(view) >= 2 * policy.k:
                ok, _est = guidance.should_evaluate(
                    child, view, policy, rm, view_fitness, threshold
                )
                if not ok:
                    report.candidates_skipped += 1
                    state.skipped_total += 1
                    continue
            try:
                new_samples.append(state.record(child))
            except BudgetExhausted:
                out_of_budget = True
                break
            report.candidates_evaluated += 1
        report.generations_run += 1
        if out_of_budget or state.stop:
            report.early_stop = out_of_budget
            if new_samples:
                parents, fitness = _next_generation(
                    parents, fitness, new_samples, fitness_of, config
                )
            break
        if new_samples:
            parents, fitness = _next_generation(
                parents, fitness, new_samples, fitness_of, config
            )
    return report


def _next_generation(parents, fitness, new_samples, fitness_of, config):
    new_fit = [fitness_of(s) for s in new_samples]
    pool = list(zip(parents, fitness)) + list(zip(new_samples, new_fit))
    pool.sort(key=lambda t: -t[1])
    elites = []
    seen = set()
    for s, f in pool:
        if s.id in seen:
            continue
        seen.add(s.id)
        elites.append((s, f))
        if len(elites) >= config.elitism:
            break
    nxt = elites + [
        (s, f) for s, f in zip(new_samples, new_fit) if s.id not in {e[0].id for e in elites}
    ]
    parents = [s for s, _ in nxt]
    fitness = [f for _, f in nxt]
    return parents, fitness


def info_evo_loop(
    problem,
    config: EvolutionConfig,
    promise_weights: PromiseWeights,
    step_params: StepParams,
    policy: FilterPolicy,
    budget: int | None = None,
    *,
    mode: str = "info_evo",
    omega: OmegaKind = OmegaKind(),
    h_kind: str = "product",
    ledger: EvaluationLedger | None = None,
    state: RunState | None = None,
    rng: np.random.Generator | None = None,
    deme_id: int = 0,
    max_rounds: int | None = None,
) -> RunResult:
    """Run the full guided loop (or the unguided baseline) to budget.

    Seeds the ledger with a random initial population, then repeats
    promise estimation, ray stepping, ray ranking, and one guided
    subpopulation per kept ray until the budget is spent, the problem's
    target is reached or three rounds in a row evaluate nothing (which
    sets ``state.stop``). With ``max_rounds``, returns after that many
    rounds; calling it again with the same ``state`` continues the run.
    """
    if mode not in ("info_evo", "baseline"):
        raise ValueError(f"unknown mode {mode!r}")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if state is None:
        if ledger is None:
            if budget is None:
                raise ValueError("either budget or ledger must be given")
            ledger = EvaluationLedger(budget)
        state = RunState(ledger=ledger, problem=problem, deme_id=deme_id)
    ledger = state.ledger

    # random initial population; duplicates cost attempts but no budget
    init_goal = min(config.init_population, ledger.budget)
    attempts = 0
    while ledger.eval_count < init_goal and attempts < 50 * init_goal and not state.stop:
        attempts += 1
        state.record(problem.random_genotype(rng))

    reports: list[RoundReport] = []
    if state.gamma is None:
        state.gamma = step_params.gamma
    kept_count = math.ceil(step_params.ray_count / 2)

    while not state.stop and ledger.remaining > 0 and ledger.eval_count > 0:
        if max_rounds is not None and len(reports) >= max_rounds:
            break
        gamma = state.gamma
        report = RoundReport(round_index=state.round_index, gamma_used=gamma)
        report.best_score_before = best_sample(ledger).score
        view = view_of(ledger, config.population_cap)

        if mode == "baseline" or len(view) < 3:
            frag = run_subpopulation(
                view.scores, None, config, problem, state, view, None, policy, rng
            )
            report.subdemes.append(frag)
        else:
            rm = ResolvedMetric(problem, view, policy.metric)
            pv = promise_vector(view, promise_weights, rm)
            base = manifold.from_weights(pv.values)
            d = min(step_params.chart_dim, len(view) - 1)
            chart = geodesic_search.build_chart(
                base, pv.values, d, rng, radius=2 * gamma
            )
            rays = geodesic_search.geodesic_rays(chart, step_params, rng)
            report.rays_generated = len(rays)
            # a ray that folds back at the simplex boundary can be shorter
            # than gamma; step to its end in that case
            stepped = [
                geodesic_search.step_along(r, min(gamma, r.polyline.length))
                for r in rays
            ]
            order = guidance.rank_rays(stepped, pv)
            kept = order[:kept_count]
            report.rays_used = len(kept)
            for ray_index in kept:
                if state.stop or ledger.remaining <= 0:
                    break
                target_dist = stepped[ray_index]
                if manifold.geodesic_distance_exact(base, target_dist) < 1e-12:
                    # degenerate step: fall back to the base distribution
                    continue
                mp = ModifiedPromise(
                    base=base, target=target_dist, omega=omega, h_kind=h_kind
                )
                frag = run_subpopulation(
                    guidance.ledger_modified_fitness(mp, view, rm),
                    mp,
                    config,
                    problem,
                    state,
                    view,
                    rm,
                    policy,
                    rng,
                    ray_index=ray_index,
                )
                report.subdemes.append(frag)

        report.candidates_generated = sum(f.candidates_generated for f in report.subdemes)
        report.candidates_skipped = sum(f.candidates_skipped for f in report.subdemes)
        report.candidates_evaluated = sum(f.candidates_evaluated for f in report.subdemes)
        report.best_score_after = best_sample(ledger).score
        reports.append(report)
        state.round_index += 1

        if report.best_score_after > report.best_score_before:
            state.no_improve = 0
        else:
            state.no_improve += 1
            if state.no_improve >= 2:
                state.gamma = max(gamma / 2.0, GAMMA_FLOOR)
                state.no_improve = 0
        # a round that consumed no budget cannot make progress; bail out
        # after a few in a row rather than spinning forever
        if report.candidates_evaluated == 0:
            state.stalled_rounds += 1
            if state.stalled_rounds >= 3:
                logger.warning("three rounds without evaluations; stopping early")
                state.stop = True
        else:
            state.stalled_rounds = 0

    best = best_sample(ledger) if ledger.eval_count else None
    success = (
        best is not None
        and problem.target is not None
        and best.score >= problem.target
    )
    return RunResult(
        best=best,
        success=success,
        reports=reports,
        trace=state.trace,
        ledger=ledger,
        skipped_total=state.skipped_total,
    )
