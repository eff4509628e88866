"""Island-style orchestration and the behavior-vector program distance.

Demes are independent islands, each with its own feature subset,
exemplar, and evaluation ledger; every guided round inside a deme spawns
per-ray sub-demes. The distance between two programs is the closed-form
geodesic distance between the distributions induced by their behavior
vectors on a shared probe set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import manifold
from .core import EvaluationLedger, best_sample
from .errors import NonFiniteOutput
from .evolve import (
    EvolutionConfig,
    RunResult,
    RunState,
    info_evo_loop,
)
from .geodesic_search import StepParams
from .guidance import FilterPolicy, OmegaKind
from .promise import PromiseWeights

BEHAVIOR_EPS = 1e-6  # relative uniform mass mixed into behavior distributions


@dataclass
class Deme:
    deme_id: int
    feature_subset: tuple[int, ...]
    exemplar: object
    ledger: EvaluationLedger
    status: str = "active"  # or "exhausted"
    rng: np.random.Generator | None = field(default=None, repr=False)


@dataclass(frozen=True)
class DemeBudget:
    """Evaluations shared by all demes, and rays kept per deme round."""

    total: int
    subdemes_per_deme: int = 3

    def __post_init__(self):
        if self.total < 1:
            raise ValueError("total budget must be positive")
        if self.subdemes_per_deme < 1:
            raise ValueError("subdemes_per_deme must be positive")


def spawn_demes(problem, count: int, rng: np.random.Generator, budget: DemeBudget):
    """Create demes with random nonempty feature subsets and exemplars.

    All demes share the problem's scoring function; each owns a ledger
    capped at its share of the total budget. Shares differ by at most
    one evaluation, the first demes taking the remainder.
    """
    if count < 1:
        raise ValueError("deme count must be positive")
    arity = max(problem.dimension, 1)
    demes = []
    for i in range(count):
        size = int(rng.integers(1, arity + 1))
        subset = tuple(sorted(rng.choice(arity, size=size, replace=False)))
        exemplar = problem.random_genotype(rng)
        demes.append(
            Deme(
                deme_id=i,
                feature_subset=subset,
                exemplar=exemplar,
                ledger=EvaluationLedger(
                    budget.total // count + (i < budget.total % count)
                ),
                rng=np.random.default_rng(rng.integers(2**63)),
            )
        )
    return demes


def run_deme_round(
    deme: Deme,
    problem,
    config: EvolutionConfig,
    budget: DemeBudget,
    promise_weights: PromiseWeights,
    step_params: StepParams,
    policy: FilterPolicy,
    *,
    mode: str = "info_evo",
    omega: OmegaKind = OmegaKind(),
    h_kind: str,
    state: RunState | None = None,
    max_rounds: int = 1,
) -> RunResult:
    """One guided round inside a deme; marks it exhausted at budget."""
    if deme.status != "active":
        raise ValueError(f"deme {deme.deme_id} is not active")
    params = replace(step_params, ray_count=budget.subdemes_per_deme)
    if state is None:
        state = RunState(ledger=deme.ledger, problem=problem, deme_id=deme.deme_id)
    result = info_evo_loop(
        problem,
        config,
        promise_weights,
        params,
        policy,
        mode=mode,
        omega=omega,
        h_kind=h_kind,
        state=state,
        rng=deme.rng,
        max_rounds=max_rounds,
    )
    if deme.ledger.remaining <= 0 or result.success or state.stop:
        deme.status = "exhausted"
    return result


def run_demes(
    problem,
    count: int,
    config: EvolutionConfig,
    budget: DemeBudget,
    promise_weights: PromiseWeights,
    step_params: StepParams,
    policy: FilterPolicy,
    rng: np.random.Generator,
    *,
    mode: str = "info_evo",
    omega: OmegaKind = OmegaKind(),
    h_kind: str,
):
    """Round-robin the active demes until all are exhausted.

    Returns (demes, per-deme RunStates, per-deme report lists, trace).
    The trace holds every deme's rows in global evaluation order: demes
    run one at a time, so appending each round's new rows keeps it.
    """
    demes = spawn_demes(problem, count, rng, budget)
    states = [
        RunState(ledger=d.ledger, problem=problem, deme_id=d.deme_id) for d in demes
    ]
    reports: list[list] = [[] for _ in demes]
    trace: list[dict] = []
    while any(d.status == "active" for d in demes):
        progressed = False
        for deme, state in zip(demes, states):
            if deme.status != "active":
                continue
            before = deme.ledger.eval_count
            result = run_deme_round(
                deme,
                problem,
                config,
                budget,
                promise_weights,
                step_params,
                policy,
                mode=mode,
                omega=omega,
                h_kind=h_kind,
                state=state,
                max_rounds=1,
            )
            reports[deme.deme_id].extend(result.reports)
            trace.extend(state.trace[before:])  # one row per new evaluation
            if deme.ledger.eval_count > before:
                progressed = True
        if not progressed:
            for d in demes:
                d.status = "exhausted"
    return demes, states, reports, trace


def behavior_to_distribution(outputs, eps_b: float = BEHAVIOR_EPS):
    """Normalize a behavior vector to a strictly positive distribution.

    Shifts negative outputs up to zero, mixes in eps_b of the output
    range per coordinate, and renormalizes; a constant vector maps to
    the uniform distribution.
    """
    outputs = np.asarray(outputs, dtype=float)
    if not np.all(np.isfinite(outputs)):
        raise NonFiniteOutput("behavior vector contains non-finite entries")
    lo = outputs.min()
    shifted = outputs - lo if lo < 0 else outputs.copy()
    spread = float(outputs.max() - lo)
    if spread == 0 or shifted.sum() == 0:
        return manifold.uniform(outputs.size)
    shifted = shifted + eps_b * spread
    return manifold.from_weights(shifted)


def program_fisher_distance(a, b, probes, problem, eps_b: float = BEHAVIOR_EPS) -> float:
    """Geodesic distance between two programs' behavior distributions.

    A pseudometric on behavior space: programs with identical outputs on
    the probes get distance zero even if syntactically distinct.
    """
    try:
        eval_on = problem.eval_on_probes
    except AttributeError:
        eval_on = None
    if eval_on is not None:
        out_a = eval_on(a, probes)
        out_b = eval_on(b, probes)
    else:
        from .domains.symreg import eval_tree

        out_a = [eval_tree(a, p) for p in probes]
        out_b = [eval_tree(b, p) for p in probes]
    da = behavior_to_distribution(out_a, eps_b)
    db = behavior_to_distribution(out_b, eps_b)
    return manifold.geodesic_distance_exact(da, db)


def aggregate_best(demes):
    """Best sample across the demes' ledgers."""
    candidates = [
        best_sample(d.ledger) for d in demes if d.ledger.eval_count > 0
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda s: s.score)
