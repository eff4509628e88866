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
from .domains import make_problem
from .errors import ConfigError
from .geodesic_search import StepParams
from .guidance import H_KINDS, OMEGA_KINDS, FilterPolicy, ModifiedPromise
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
    omega: str = "knn_mass"  # one of OMEGA_KINDS; its k is policy.k
    h_kind: str = "product"  # one of H_KINDS
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
        if self.omega not in OMEGA_KINDS:
            raise ConfigError("omega", f"unknown omega kind {self.omega!r}")
        if self.h_kind not in H_KINDS:
            raise ConfigError("h_kind", f"unknown h kind {self.h_kind!r}")
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

    The loop's schedule (step size, round index and the counters of
    rounds without improvement and without new evaluations) lives here, so a
    loop called for a few rounds at a time continues where it stopped.
    ``reports`` holds every round the state ran, and ``trace`` one row per
    new evaluation. ``stop_reason`` says why the run ended: ``"target"``
    (an evaluation reached the problem's target), ``"budget"`` (the budget
    is spent) or ``"stall"`` (three rounds in a row added nothing to the
    ledger, or the ledger is empty, so no round can run); it is None while
    the run can go on. A deme is one RunState.
    """

    ledger: EvaluationLedger
    problem: object
    rng: np.random.Generator = field(repr=False)
    deme_id: int = 0
    trace: list[dict] = field(default_factory=list)
    reports: list[RoundReport] = field(default_factory=list)
    skipped_total: int = 0
    stop_reason: str | None = None
    gamma: float | None = None  # the step size; None until the first round
    round_index: int = 0
    no_improve: int = 0
    stalled_rounds: int = 0

    @property
    def stop(self) -> bool:
        return self.stop_reason is not None

    @property
    def best(self) -> ScoredSample | None:
        return best_sample(self.ledger) if self.ledger.eval_count else None

    @property
    def success(self) -> bool:
        best, target = self.best, self.problem.target
        return best is not None and target is not None and best.score >= target

    def record(self, genotype) -> ScoredSample:
        before = self.ledger.eval_count
        sample = evaluate(genotype, self.problem, self.ledger)
        if self.ledger.eval_count > before:
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


def _eda_model(parents, fitness, problem, m: int):
    """Per-locus marginals of the top-quartile parents, Laplace smoothed.

    Returns the (loci x alphabet) table of locus values and each row's
    cumulative distribution, normalised as ``Generator.choice`` normalises
    ``p``; None when the domain defines no loci. Raises ValueError, as
    ``choice`` would at each draw, unless every row is a distribution.
    """
    order = sorted(range(len(parents)), key=lambda i: (-fitness[i], i))
    q = max(1, math.ceil(len(parents) / 4))
    loci = [problem.loci(parents[i].genotype) for i in order[:q]]
    if loci[0] is None:
        return None
    top = np.array(loci)
    alphabet = np.array([problem.locus_alphabet(j) for j in range(top.shape[1])])
    counts = (top[:, :, None] == alphabet[None, :, :]).sum(axis=0).astype(float)
    probs = counts / counts.sum(axis=1, keepdims=True)
    eps = 1.0 / m
    probs = (1.0 - alphabet.shape[1] * eps) * probs + eps
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
    return problem.from_loci(alphabet[np.arange(cdf.shape[0]), idx], rng)


def _tournament(parents, fitness, size, rng):
    idx = rng.integers(0, len(parents), size=size)
    best = max(idx, key=lambda i: (fitness[i], -i))
    return parents[best]


def vary(parents, fitness, config: EvolutionConfig, problem, rng) -> list:
    """Produce subpop_size - elitism offspring genotypes.

    Tournament selection with crossover+mutation; an eda_fraction share
    is sampled from smoothed per-locus marginals of the top quartile
    instead, when the domain defines loci. The marginals' CDFs are built
    once per call, and each EDA offspring takes one uniform per locus.
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
    source,
    policy: FilterPolicy,
    rng,
    ray_index: int = 0,
) -> SubdemeReport:
    """One guided (or unguided, mp=None) evolutionary burst.

    ``source`` is the round's population view when unguided, and the
    view's ResolvedMetric when guided: candidate filtering and fitness
    read the view through it. ``view_fitness`` is the fitness of each
    view sample: its score when unguided, its ledger modified fitness
    under ``mp`` when guided. The subpop_size fittest view samples seed
    the parents; new evaluations append to the shared ledger.
    """
    rm = source if mp is not None else None
    view = source if rm is None else rm.view
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
        return guidance.modified_fitness(sample.genotype, zn, mp, rm)

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
            # once the budget is spent only a genotype the ledger holds can
            # be recorded; any other ends the burst before it is counted
            # or screened
            if state.ledger.remaining <= 0 and (
                state.ledger.lookup(problem.canonical_key(child)) is None
            ):
                out_of_budget = True
                break
            report.candidates_generated += 1
            if filtering:
                ok, _est = guidance.should_evaluate(
                    child, policy, rm, view_fitness, threshold
                )
                if not ok:
                    report.candidates_skipped += 1
                    state.skipped_total += 1
                    continue
            new_samples.append(state.record(child))
            report.candidates_evaluated += 1
        report.generations_run += 1
        if out_of_budget or state.stop:
            report.early_stop = out_of_budget
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
    cfg: RunConfig,
    *,
    state: RunState | None = None,
    max_rounds: int | None = None,
) -> RunState:
    """Run the full guided loop (or the unguided baseline) to budget.

    Reads the run's settings from ``cfg``. Seeds the ledger with a random
    initial population, then repeats promise estimation, ray stepping,
    ray ranking, and one guided subpopulation per kept ray until the
    budget is spent, the problem's target is reached or three rounds in
    a row add nothing to the ledger (``state.stop_reason`` says which).
    Without ``state`` the run gets a ledger of ``cfg.budget`` evaluations
    and a stream seeded by ``cfg.seed``. With ``max_rounds``, returns
    after that many rounds; calling it again with the same ``state``
    continues the run, and one round per call gives the same run as a
    single call. Returns the state it advanced.
    """
    if cfg.mode not in ("info_evo", "baseline"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if state is None:
        if cfg.seed is None:
            raise ValueError("a fresh run needs cfg.seed")
        state = RunState(
            ledger=EvaluationLedger(cfg.budget),
            problem=problem,
            rng=np.random.default_rng(cfg.seed),
        )
    ledger, rng = state.ledger, state.rng
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
            state.record(problem.random_genotype(rng))

    rounds_run = 0
    if state.gamma is None:
        state.gamma = step_params.gamma
    kept_count = math.ceil(step_params.ray_count / 2)

    while not state.stop and ledger.remaining > 0 and ledger.eval_count > 0:
        if max_rounds is not None and rounds_run >= max_rounds:
            break
        evals_before = ledger.eval_count
        gamma = state.gamma
        report = RoundReport(round_index=state.round_index, gamma_used=gamma)
        report.best_score_before = best_sample(ledger).score
        view = view_of(ledger, config.population_cap)

        if cfg.mode == "baseline" or len(view) < 3:
            frag = run_subpopulation(
                view.scores, None, config, problem, state, view, policy, rng
            )
            report.subdemes.append(frag)
        else:
            rm = ResolvedMetric(problem, view, policy.metric, ledger)
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
                    base=base,
                    target=target_dist,
                    omega=cfg.omega,
                    k=policy.k,
                    h_kind=cfg.h_kind,
                )
                frag = run_subpopulation(
                    guidance.ledger_modified_fitness(mp, rm),
                    mp,
                    config,
                    problem,
                    state,
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
        state.reports.append(report)
        state.round_index += 1
        rounds_run += 1

        if report.best_score_after > report.best_score_before:
            state.no_improve = 0
        else:
            state.no_improve += 1
            if state.no_improve >= 2:
                state.gamma = max(gamma / 2.0, GAMMA_FLOOR)
                state.no_improve = 0
        # a round that added nothing to the ledger (it drew only genotypes
        # already scored) made no progress; bail out after a few in a row
        # rather than spinning forever
        if ledger.eval_count == evals_before:
            state.stalled_rounds += 1
            if state.stalled_rounds >= 3:
                logger.warning("three rounds without new evaluations; stopping early")
                state.stop_reason = "stall"
        else:
            state.stalled_rounds = 0
    if not state.stop and ledger.remaining <= 0:
        state.stop_reason = "budget"
    elif not state.stop and ledger.eval_count == 0:
        state.stop_reason = "stall"  # no initial population to start from
    return state
