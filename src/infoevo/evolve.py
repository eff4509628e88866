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
    evaluate,
    fittest_first,
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
    passed to the ledger, duplicates that cost no budget included.
    ``early_stop`` is True exactly when the burst ended because the
    budget was spent, before all its generations ran."""

    ray_index: int
    generations_run: int = 0
    candidates_generated: int = 0
    candidates_skipped: int = 0
    candidates_evaluated: int = 0
    early_stop: bool = False


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


@dataclass
class RunState:
    """One run: its ledger, random stream, schedule and rounds.

    The loop's schedule (step size, the filter's quantile in force and
    the counters of rounds without improvement and of stalled rounds)
    lives here, so each ``run_round`` continues where the last one
    stopped. ``reports`` holds every round the state ran (so its length
    is the next round's index) and ``trace`` one row per new evaluation.
    ``stop_reason`` says why the run ended: ``"target"`` (an evaluation
    reached the problem's target), ``"budget"`` (the budget is spent) or
    ``"stall"`` (three rounds that neither added to the ledger nor
    skipped a candidate, with none between them that added to it, or an
    empty ledger, so no round can run); it is None while the run can go
    on. A deme is one RunState.
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


def _eda_model(top, problem, m: int):
    """Per-locus marginals of the top-quartile parents, Laplace smoothed;
    ``top`` holds their loci, one row per parent, fittest first.

    Returns the domain's alphabet, as an array, and each locus's
    cumulative distribution over it, normalised as ``Generator.choice``
    normalises ``p``, so its last column is exactly 1.0; None when the
    domain defines no loci.
    """
    if top[0] is None:
        return None
    top = np.asarray(top)
    alphabet = np.array(problem.alphabet)
    counts = (top[:, :, None] == alphabet).sum(axis=0).astype(float)
    probs = counts / counts.sum(axis=1, keepdims=True)
    eps = 1.0 / m
    probs = (1.0 - len(alphabet) * eps) * probs + eps
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum(axis=1, keepdims=True)
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return alphabet, cdf


def _eda_values(model, u):
    """The locus values that uniforms ``u`` (one per locus along the last
    axis) pick from the loci's CDFs.

    ``(cdf <= u).sum()`` is ``searchsorted(u, side="right")`` on a
    non-decreasing row, which is how ``rng.choice(len(alphabet), p=probs)``
    turns its one uniform into an index, so one uniform per locus keeps
    the random stream of one ``choice`` call per locus. Each uniform is
    compared with every column but the last: that column is exactly 1.0
    and a uniform from ``Generator.random`` lies below 1, so it never
    counts.
    """
    alphabet, cdf = model
    return alphabet[(cdf[:, :-1] <= u[..., None]).sum(axis=-1)]


def _sample_eda(model, problem, rng):
    """One offspring: one uniform per locus against its row of the CDF."""
    u = rng.random(model[1].shape[0])
    return problem.from_loci(_eda_values(model, u), rng)


def _ranking(fitness) -> tuple[np.ndarray, np.ndarray]:
    """(order, rank) of the parents, two index arrays: ``order`` lists
    them fittest first, ties to the earlier, and ``rank[i]`` is parent
    i's place in it."""
    order = fittest_first(fitness)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return order, rank


def _tournament(parents, order, rank, size, rng):
    """The winner of ``size`` parents drawn with replacement: the one of
    least rank (``_ranking``'s order and rank, as lists), which is the
    one of greatest ``(fitness, -index)``."""
    drawn = rng.integers(0, len(parents), size=size).tolist()
    return parents[order[min(map(rank.__getitem__, drawn))]]


def vary(parents, fitness, config: EvolutionConfig, problem, rng) -> list:
    """Produce subpop_size - elitism offspring genotypes.

    Tournament selection with crossover+mutation; an eda_fraction share
    is sampled from smoothed per-locus marginals of the top quartile
    instead, when the domain defines loci. The parents are ranked once
    per call, the marginals' CDFs are built once per call, and each EDA
    offspring takes one uniform per locus.

    A domain whose variation has row forms fed uniforms (bitstrings) is
    varied from a few block draws (see ``_vary_rows``); any other goes
    offspring by offspring. Each offspring has the same distribution on
    either path; only which draws make which choice differs. The row
    path stacks the parents' genotypes once, and that stack is their
    loci too (see ``Problem``).
    """
    if not parents:
        raise ValueError("parents must be nonempty")
    count = config.subpop_size - config.elitism
    order, rank = _ranking(fitness)
    rows = None
    if hasattr(problem, "mutate_rows"):
        rows = np.asarray([p.genotype for p in parents])
    model = None
    if config.eda_fraction > 0 and len(parents) >= EDA_MIN_PARENT_POOL:
        top = order[: max(1, math.ceil(len(parents) / 4))]
        if rows is None:
            top = [problem.loci(parents[i].genotype) for i in top.tolist()]
        else:
            top = rows[top]
        model = _eda_model(top, problem, config.subpop_size)
    if rows is not None:
        return _vary_rows(rows, order, rank, model, config, problem, rng)
    order, rank = order.tolist(), rank.tolist()
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


def _vary_rows(rows, order, rank, model, config: EvolutionConfig, problem, rng) -> list:
    """``vary``'s offspring of the parents' stacked genotypes ``rows``,
    ranked by ``order`` and ``rank`` (see ``_ranking``), from seven
    block draws, in this order: one
    uniform per offspring against the EDA share, only when there is an
    EDA model; ``tournament_size`` parent draws per other offspring, in
    slot order, each row won by its parent of least rank (see
    ``_ranking``); one uniform per tournament offspring against the
    crossover rate; the second tournaments of those that cross over;
    their per-bit crossover uniforms; every tournament offspring's
    per-bit mutation uniforms; and the EDA offspring's per-locus
    uniforms. The domain's row operators then cross, mutate (a crossed
    offspring after crossover) and sample every offspring at once.
    """
    count = config.subpop_size - config.elitism
    n, size, dim = len(order), config.tournament_size, problem.dimension
    eda = np.zeros(count, dtype=bool)
    if model is not None:
        eda = rng.random(count) < config.eda_fraction
    slots = np.flatnonzero(~eda)
    firsts = order[rank[rng.integers(0, n, size=(len(slots), size))].min(axis=1)]
    crossed = np.flatnonzero(rng.random(len(slots)) < config.crossover_rate)
    seconds = order[rank[rng.integers(0, n, size=(len(crossed), size))].min(axis=1)]

    offspring = [None] * count
    if len(slots):
        children = rows[firsts]
        if len(crossed):
            children[crossed] = problem.crossover_rows(
                children[crossed], rows[seconds], rng.random((len(crossed), dim))
            )
        rows = problem.mutate_rows(
            children, config.mutation_rate, rng.random((len(slots), dim))
        )
        for slot, row in zip(slots.tolist(), rows):
            offspring[slot] = row
    eda_slots = np.flatnonzero(eda)
    if len(eda_slots):
        values = _eda_values(model, rng.random((len(eda_slots), model[1].shape[0])))
        for slot, row in zip(eda_slots.tolist(), problem.from_loci_rows(values)):
            offspring[slot] = row
    return offspring


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
    generation's offspring are taken in order, and the burst ends at
    the first that reaches the target or that the spent budget cannot
    take. A guided burst with a positive quantile filters them, unless
    its view is too small to estimate a candidate (see
    ``FilterPolicy.warm``); the filter's rows and estimates of a
    generation are built in one block (see ``ResolvedMetric.rows_of``).
    """
    problem, rng = state.problem, state.rng
    guided = target is not None
    if guided:
        view_fitness = guidance.ledger_modified_fitness(target, policy.k, rm)
    else:
        view_fitness = view.scores
    report = SubdemeReport(ray_index=ray_index)
    seed_idx = fittest_first(view_fitness)[: config.subpop_size]
    parents = [view.samples[i] for i in seed_idx.tolist()]
    fitness = view_fitness[seed_idx].tolist()
    filtering = guided and policy.threshold_quantile > 0 and policy.warm(len(view))
    if filtering:
        threshold = float(np.quantile(view_fitness, policy.threshold_quantile))

    ledger = state.ledger
    for _ in range(config.generations_per_round):
        if state.stop or ledger.remaining <= 0:
            report.early_stop = True
            break
        offspring = vary(parents, fitness, config, problem, rng)
        keys = [problem.canonical_key(child) for child in offspring]
        new_samples: list[ScoredSample] = []
        sample_keys = []  # new_samples' canonical keys
        generated = skipped = 0
        out_of_budget = False
        if filtering:
            dists, orders = rm.rows_of(offspring, keys)
            estimates = guidance.filter_estimates(dists, orders, policy.k, view_fitness).tolist()
        for i, key in enumerate(keys):
            if state.stop_reason is not None:
                break
            # once the budget is spent only a genotype the ledger holds can
            # be recorded; any other ends the burst before it is counted
            # or screened
            if len(ledger.samples) >= ledger.budget and ledger.lookup(key) is None:
                out_of_budget = True
                break
            generated += 1
            if filtering:
                # one call per candidate: perfbench counts the filter through it
                ok, _est = guidance.should_evaluate(estimates[i], threshold)
                if not ok:
                    skipped += 1
                    state.skipped_total += 1
                    continue
            new_samples.append(state.record(offspring[i], key))
            sample_keys.append(key)
        report.candidates_generated += generated
        report.candidates_skipped += skipped
        report.candidates_evaluated += len(new_samples)
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
    """The next generation's parents and their fitness: the ``elitism``
    fittest distinct samples of the parents and the new samples (ties to
    the earlier, parents first), then every other new sample, in order."""
    pool = [*parents, *new_samples]
    pool_fitness = [*fitness, *new_fitness]
    elites = []
    elite_ids = set()
    for i in fittest_first(pool_fitness).tolist():
        if len(elites) >= config.elitism:
            break
        s = pool[i]
        if s.id in elite_ids:
            continue
        elite_ids.add(s.id)
        elites.append((s, pool_fitness[i]))
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

    if not state.reports:
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
        report = RoundReport(round_index=len(state.reports), gamma_used=gamma)
        report.best_score_before = ledger.best.score
        view = view_of(ledger, config.population_cap)

        if cfg.mode == "baseline" or len(view) < 3:
            frag = run_subpopulation(view, config, state, policy)
            report.subdemes.append(frag)
        else:
            # the most neighbors the round reads: the filter's and omega's
            # k, and the promise's k_local nearest besides each sample
            k = max(policy.k, cfg.weights.k_local + 1)
            rm = ResolvedMetric(problem, view, ledger, k)
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
        report.best_score_after = ledger.best.score
        state.reports.append(report)

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
