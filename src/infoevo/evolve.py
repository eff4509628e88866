"""Evolutionary engine and one round of the guided optimization loop.

Each round estimates a promise distribution over the evaluated
population, steps along geodesic rays to get candidate direction
distributions, and runs one guided subpopulation per kept ray; newly
evaluated genotypes feed the next round's population. ``demes.run_demes``
runs the rounds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geodesic_search, guidance, manifold
from .core import (
    EvaluationLedger,
    PopulationView,
    ResolvedMetric,
    ScoredSample,
    best_sample,
    evaluate,
    normalize_scores,
    view_of,
)
from .domains import make_problem
from .errors import ConfigError
from .geodesic_search import StepParams
from .guidance import FilterPolicy
from .manifold import LogDistribution
from .promise import PromiseWeights, promise_vector

logger = logging.getLogger(__name__)

GAMMA_FLOOR = 0.01
EDA_MIN_PARENT_POOL = 4
# the tolerance Generator.choice allows on the sum of p
_CHOICE_ATOL = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class EvolutionConfig:
    subpop_size: int = 40
    generations_per_round: int = 4
    mutation_rate: float = 0.05
    crossover_rate: float = 0.7
    elitism: int = 2
    eda_fraction: float = 0.2
    tournament_size: int = 3
    init_population: int = 96
    population_cap: int = 256

    def __post_init__(self):
        if self.subpop_size < 1:
            raise ValueError("subpop_size must be positive")
        if self.population_cap < 1:
            raise ValueError("population_cap must be positive")
        if self.generations_per_round < 0:
            raise ValueError("generations_per_round must be nonnegative")
        if self.init_population < 0:
            raise ValueError("init_population must be nonnegative")
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
class RunConfig:
    """Every setting of one run, from the command line to the loop."""

    problem: str = "onemax"
    problem_params: dict = field(default_factory=dict)
    budget: int = 20000
    seed: int | None = None
    mode: str = "info_evo"
    weights: PromiseWeights = field(default_factory=PromiseWeights)
    step: StepParams = field(default_factory=StepParams)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    policy: FilterPolicy = field(default_factory=FilterPolicy)
    deme_count: int = 1

    def validate(self):
        """Raise ConfigError, naming the setting, unless the run can start."""
        if self.seed is None:
            raise ConfigError("seed", "a seed is mandatory")
        if self.budget < 1:
            raise ConfigError("budget", "budget must be positive")
        if self.mode not in ("info_evo", "baseline", "paired"):
            raise ConfigError("mode", f"unknown mode {self.mode!r}")
        if self.deme_count < 1:
            raise ConfigError("deme_count", "must be at least 1")
        make_problem(self.problem, **self.problem_params)


@dataclass
class SubdemeReport:
    """One ray's burst. ``candidates_evaluated`` counts the candidates
    passed to the ledger, duplicates that cost no budget included."""

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
    """One run: its ledger, random stream, schedule and rounds.

    The loop's schedule (step size, the filter's quantile in force, round
    index and the counters of rounds without improvement and of stalled
    rounds) lives here, so each ``run_round`` continues where the last
    one stopped. ``reports`` holds every round the state ran, and
    ``trace`` one row per new evaluation. ``stop_reason`` says
    why the run ended: ``"target"`` (an evaluation reached the problem's
    target), ``"budget"`` (the budget is spent) or ``"stall"`` (three
    rounds that neither added to the ledger nor skipped a candidate, with
    none between them that added to it, or an empty ledger, so no round
    can run); it is None while the run can go on. A deme is one RunState.
    """

    ledger: EvaluationLedger
    problem: object
    rng: np.random.Generator = field(repr=False)
    gamma: float  # the step size
    threshold_quantile: float  # the filter's quantile in force
    deme_id: int = 0
    trace: list[dict] = field(default_factory=list)
    reports: list[RoundReport] = field(default_factory=list)
    skipped_total: int = 0
    stop_reason: str | None = None
    round_index: int = 0
    no_improve: int = 0
    stalled_rounds: int = 0

    @property
    def stop(self) -> bool:
        return self.stop_reason is not None

    @property
    def best(self) -> ScoredSample | None:
        return self.ledger.best

    @property
    def success(self) -> bool:
        best, target = self.best, self.problem.target
        return best is not None and target is not None and best.score >= target

    def record(self, genotype, key) -> ScoredSample:
        """Charge ``genotype``, whose canonical key is ``key``, to the
        ledger: the ledger's sample of that key when it holds one, else a
        new evaluation, which gets a trace row."""
        cached = self.ledger.lookup(key)
        if cached is not None:
            return cached
        sample = evaluate(genotype, self.problem, self.ledger)
        self.trace.append(
            {
                "eval_order": sample.id,
                "score": sample.score,
                "deme_id": self.deme_id,
                "skipped": self.skipped_total,
            }
        )
        target = self.problem.target
        if target is not None and sample.score >= target:
            self.stop_reason = "target"
        return sample


def _eda_model(parents, order, problem, m: int):
    """Per-locus marginals of the top-quartile parents, Laplace smoothed;
    ``order`` ranks the parents, fittest first.

    Returns the domain's alphabet, as an array, and each locus's
    cumulative distribution over it, normalised as ``Generator.choice``
    normalises ``p``; None when the domain defines no loci. Raises
    ValueError, as ``choice`` would at each draw, unless every row is a
    distribution.
    """
    q = max(1, math.ceil(len(parents) / 4))
    loci = [problem.loci(parents[i].genotype) for i in order[:q]]
    if loci[0] is None:
        return None
    top = np.array(loci)
    alphabet = np.array(problem.alphabet)
    counts = (top[:, :, None] == alphabet).sum(axis=0).astype(float)
    probs = counts / counts.sum(axis=1, keepdims=True)
    eps = 1.0 / m
    probs = (1.0 - len(alphabet) * eps) * probs + eps
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    # choice's checks of p; the clamp above keeps every entry non-negative
    if not np.all(np.isfinite(probs)) or np.any(
        np.abs(probs.sum(axis=1) - 1.0) > _CHOICE_ATOL
    ):
        raise ValueError("EDA marginals are not probability distributions")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return alphabet, cdf


def _sample_eda(model, problem, rng):
    """One offspring: one uniform per locus against its row of the CDF.

    ``(cdf <= u).sum()`` is ``searchsorted(u, side="right")`` on a
    non-decreasing row, which is how ``rng.choice(len(alphabet), p=probs)``
    turns its one uniform into an index; drawing all loci at once keeps
    the random stream of one ``choice`` call per locus.
    """
    alphabet, cdf = model
    u = rng.random(cdf.shape[0])
    idx = (cdf <= u[:, None]).sum(axis=1)
    return problem.from_loci(alphabet[idx], rng)


def _ranking(fitness) -> tuple[list[int], list[int]]:
    """(order, rank) of the parents: ``order`` lists them fittest first,
    ties to the earlier, and ``rank[i]`` is parent i's place in it."""
    order = sorted(range(len(fitness)), key=lambda i: (-fitness[i], i))
    rank = [0] * len(order)
    for place, i in enumerate(order):
        rank[i] = place
    return order, rank


def _tournament(parents, order, rank, size, rng):
    """The winner of ``size`` parents drawn with replacement: the one of
    least rank (see ``_ranking``), which is the one of greatest
    ``(fitness, -index)``."""
    idx = rng.integers(0, len(parents), size=size)
    return parents[order[min(map(rank.__getitem__, idx.tolist()))]]


def vary(parents, fitness, config: EvolutionConfig, problem, rng) -> list:
    """Produce subpop_size - elitism offspring genotypes.

    Tournament selection with crossover+mutation; an eda_fraction share
    is sampled from smoothed per-locus marginals of the top quartile
    instead, when the domain defines loci. The parents are ranked once
    per call, the marginals' CDFs are built once per call, and each EDA
    offspring takes one uniform per locus.
    """
    if not parents:
        raise ValueError("parents must be nonempty")
    count = config.subpop_size - config.elitism
    order, rank = _ranking(fitness)
    model = None
    if config.eda_fraction > 0 and len(parents) >= EDA_MIN_PARENT_POOL:
        model = _eda_model(parents, order, problem, config.subpop_size)
    size = config.tournament_size
    offspring = []
    for _ in range(count):
        if model is not None and rng.random() < config.eda_fraction:
            offspring.append(_sample_eda(model, problem, rng))
            continue
        a = _tournament(parents, order, rank, size, rng)
        child = a.genotype
        if rng.random() < config.crossover_rate:
            b = _tournament(parents, order, rank, size, rng)
            child = problem.crossover(a.genotype, b.genotype, rng)
        offspring.append(problem.mutate(child, config.mutation_rate, rng))
    return offspring


def _chunk_end(offspring, keys, start: int, rm: ResolvedMetric, state: RunState) -> int:
    """Where the chunk of ``offspring`` (canonical keys ``keys``) that
    starts at ``start``, a candidate the burst screens, ends; the chunk
    is screened in one block.

    The burst screens candidates in order until one ends it (see
    ``run_subpopulation``) and makes no objective call for the candidates
    after that one, so neither may the block. The chunk therefore stops
    before a candidate whose row calls the objective once the burst could
    end before it: after a new genotype (one the ledger lacks) whose
    score, with its row built, is missing or reaches the target, or at a
    new genotype that comes after as many new ones as the budget has
    left. The behaviors the chunk's rows need are computed here, in
    order, so that the rule knows the score of each new genotype whose
    behavior is its score.
    """
    ledger, problem = state.ledger, state.problem
    target = problem.target
    new_keys: set = set()
    may_end = False
    for end in range(start, len(offspring)):
        child, key = offspring[end], keys[end]
        new = ledger.lookup(key) is None and key not in new_keys
        may_end = may_end or (new and len(new_keys) >= ledger.remaining)
        if rm.row_calls_objective(key):
            if may_end:
                return end
            ledger.behavior_of(child, problem, key)
        if new:
            new_keys.add(key)
            score = ledger.score_memo(key)
            may_end = may_end or score is None or (target is not None and score >= target)
    return len(offspring)


def run_subpopulation(
    view: PopulationView,
    config: EvolutionConfig,
    state: RunState,
    policy: FilterPolicy,
    rm: ResolvedMetric | None = None,
    target: LogDistribution | None = None,
    ray_index: int = 0,
) -> SubdemeReport:
    """One evolutionary burst of ``state``'s run from the round's
    population ``view``, drawing from its random stream.

    The burst is guided exactly when ``target``, a ray's stepped
    distribution, is given. A sample's fitness is then its modified
    fitness under ``target``, and candidate filtering and fitness read
    the view through ``rm``, its ResolvedMetric; unguided, a sample's
    fitness is its score. The subpop_size fittest view samples seed the
    parents; new evaluations append to the shared ledger. Each
    generation's offspring are screened in order, and the burst ends at
    the first that reaches the target or that the spent budget cannot
    take. The filter's rows and estimates are built a chunk of offspring
    at a time, in one block (see ``_chunk_end``).
    """
    problem, rng = state.problem, state.rng
    guided = target is not None
    if guided:
        view_fitness = guidance.ledger_modified_fitness(target, policy.k, rm)
    else:
        view_fitness = view.scores
    report = SubdemeReport(ray_index=ray_index)
    seed_idx = sorted(range(len(view)), key=lambda i: (-view_fitness[i], i))
    seed_idx = seed_idx[: config.subpop_size]
    parents = [view.samples[i] for i in seed_idx]
    fitness = [view_fitness[i] for i in seed_idx]
    filtering = guided and policy.threshold_quantile > 0
    estimating = filtering and policy.warm(len(view))
    if filtering:
        threshold = float(np.quantile(view_fitness, policy.threshold_quantile))

    for _ in range(config.generations_per_round):
        if state.stop or state.ledger.remaining <= 0:
            report.early_stop = True
            break
        offspring = vary(parents, fitness, config, problem, rng)
        keys = [problem.canonical_key(child) for child in offspring]
        if filtering:
            rm.add_genotypic_rows(offspring, keys)
        new_samples: list[ScoredSample] = []
        sample_keys = []  # new_samples' canonical keys
        out_of_budget = False
        chunk_start = chunk_end = 0
        for i, (child, key) in enumerate(zip(offspring, keys)):
            if state.stop:
                break
            # once the budget is spent only a genotype the ledger holds can
            # be recorded; any other ends the burst before it is counted
            # or screened
            if state.ledger.remaining <= 0 and state.ledger.lookup(key) is None:
                out_of_budget = True
                break
            report.candidates_generated += 1
            if filtering:
                estimate = float("nan")
                if estimating:
                    if i >= chunk_end:
                        chunk_start, chunk_end = i, _chunk_end(offspring, keys, i, rm, state)
                        rows, orders = rm.rows_of(
                            offspring[chunk_start:chunk_end], keys[chunk_start:chunk_end]
                        )
                        estimates = guidance.filter_estimates(
                            rows, orders, policy.k, view_fitness
                        )
                    estimate = estimates[i - chunk_start]
                ok, _est = guidance.should_evaluate(estimate, threshold)
                if not ok:
                    report.candidates_skipped += 1
                    state.skipped_total += 1
                    continue
            new_samples.append(state.record(child, key))
            sample_keys.append(key)
            report.candidates_evaluated += 1
        report.generations_run += 1
        if out_of_budget or state.stop:
            report.early_stop = out_of_budget
            break
        if new_samples:
            if guided:
                new_fitness = _guided_fitness(new_samples, target, policy.k, rm, sample_keys)
            else:
                new_fitness = [s.score for s in new_samples]
            parents, fitness = _next_generation(
                parents, fitness, new_samples, new_fitness, config
            )
    return report


def _guided_fitness(samples, target: LogDistribution, k: int, rm: ResolvedMetric, keys=None):
    """The modified fitness under ``target`` of each of ``samples``
    (canonical keys ``keys``, computed when omitted) in one block: their
    scores normalized against rm's view, and their omegas from one
    neighbor query."""
    zeta = normalize_scores([s.score for s in samples], rm.view)
    genotypes = [s.genotype for s in samples]
    return guidance.modified_fitness(genotypes, zeta, target, k, rm, keys).tolist()


def _next_generation(parents, fitness, new_samples, new_fitness, config):
    pool = list(zip(parents, fitness)) + list(zip(new_samples, new_fitness))
    pool.sort(key=lambda t: -t[1])
    elites = []
    elite_ids = set()
    for s, f in pool:
        if len(elites) >= config.elitism:
            break
        if s.id in elite_ids:
            continue
        elite_ids.add(s.id)
        elites.append((s, f))
    nxt = elites + [
        (s, f) for s, f in zip(new_samples, new_fitness) if s.id not in elite_ids
    ]
    parents = [s for s, _ in nxt]
    fitness = [f for _, f in nxt]
    return parents, fitness


def run_round(state: RunState, cfg: RunConfig) -> None:
    """Run one round of ``state``'s guided loop (or unguided baseline).

    Reads the run's settings from ``cfg`` and its problem from ``state``.
    A state's first round first seeds its ledger with a random initial
    population. A round estimates the promise, steps along geodesic
    rays, ranks them, and runs one guided subpopulation per kept ray
    (one unguided subpopulation in baseline mode, or while the view
    holds fewer than three samples). A round that adds nothing to the
    ledger while its filter skipped candidates halves the filter's
    quantile for the rounds after it, down to zero, which filters
    nothing, so the filter cannot stall a run; the quantile is the
    policy's again after a round that adds to the ledger. A stopped
    state runs no round and draws nothing; ``state.stop_reason`` says
    why it stopped (see ``RunState``).
    """
    problem, ledger, rng = state.problem, state.ledger, state.rng
    config, step_params, policy = cfg.evolution, cfg.step, cfg.policy

    if state.round_index == 0:
        # random initial population; duplicates cost attempts but no budget
        init_goal = min(config.init_population, ledger.budget)
        attempts = 0
        while (
            ledger.eval_count < init_goal
            and attempts < 50 * init_goal
            and not state.stop
        ):
            attempts += 1
            genotype = problem.random_genotype(rng)
            state.record(genotype, problem.canonical_key(genotype))

    if not state.stop and ledger.remaining > 0 and ledger.eval_count > 0:
        evals_before = ledger.eval_count
        gamma = state.gamma
        round_policy = replace(policy, threshold_quantile=state.threshold_quantile)
        report = RoundReport(round_index=state.round_index, gamma_used=gamma)
        report.best_score_before = best_sample(ledger).score
        view = view_of(ledger, config.population_cap)

        if cfg.mode == "baseline" or len(view) < 3:
            frag = run_subpopulation(view, config, state, policy)
            report.subdemes.append(frag)
        else:
            # the most neighbors the round reads: the filter's and omega's
            # k, and the promise's k_local nearest besides each sample
            k = max(policy.k, cfg.weights.k_local + 1)
            rm = ResolvedMetric(problem, view, policy.lam, ledger, k)
            pv = promise_vector(cfg.weights, rm)
            base = manifold.from_weights(pv)
            d = min(step_params.chart_dim, len(view) - 1)
            chart = geodesic_search.build_chart(
                base, pv, d, rng, radius=2 * gamma
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
            kept = order[: math.ceil(step_params.ray_count / 2)]
            report.rays_used = len(kept)
            for ray_index in kept:
                if state.stop or ledger.remaining <= 0:
                    break
                target = stepped[ray_index]
                if manifold.geodesic_distance_exact(base, target) < 1e-12:
                    # degenerate step: fall back to the base distribution
                    continue
                frag = run_subpopulation(
                    view, config, state, round_policy, rm, target, ray_index
                )
                report.subdemes.append(frag)

        report.candidates_generated = sum(f.candidates_generated for f in report.subdemes)
        report.candidates_skipped = sum(f.candidates_skipped for f in report.subdemes)
        report.candidates_evaluated = sum(f.candidates_evaluated for f in report.subdemes)
        report.best_score_after = best_sample(ledger).score
        state.reports.append(report)
        state.round_index += 1

        if report.best_score_after > report.best_score_before:
            state.no_improve = 0
        else:
            state.no_improve += 1
            if state.no_improve >= 2:
                state.gamma = max(gamma / 2.0, GAMMA_FLOOR)
                state.no_improve = 0
        if ledger.eval_count > evals_before:
            state.stalled_rounds = 0
            state.threshold_quantile = policy.threshold_quantile
        elif report.candidates_skipped:
            # the filter held back every candidate that could have grown
            # the ledger; loosen it rather than count the round as stalled
            state.threshold_quantile /= 2
        else:
            # a round that drew only genotypes already scored made no
            # progress; bail out after a few rather than spinning forever
            state.stalled_rounds += 1
            if state.stalled_rounds >= 3:
                logger.warning("three rounds without new evaluations; stopping early")
                state.stop_reason = "stall"
    if not state.stop and ledger.remaining <= 0:
        state.stop_reason = "budget"
    elif not state.stop and ledger.eval_count == 0:
        state.stop_reason = "stall"  # no initial population to start from
