"""Island-style orchestration and the behavior-vector program distance.

Demes are independent islands, each with its own evaluation ledger,
random stream and run of the guided loop. The demes take rounds in turn,
each continuing its loop where it stopped, and every guided round inside
a deme spawns per-ray sub-demes. The distance between two programs is the
closed-form geodesic distance between the distributions induced by their
behavior vectors on a shared probe set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import manifold
from .core import EvaluationLedger, best_sample
from .errors import NonFiniteOutput
from .evolve import RunConfig, RunResult, RunState, info_evo_loop

BEHAVIOR_EPS = 1e-6  # relative uniform mass mixed into behavior distributions


@dataclass
class Deme:
    deme_id: int
    ledger: EvaluationLedger
    status: str = "active"  # or "exhausted"
    rng: np.random.Generator | None = field(default=None, repr=False)


def spawn_demes(count: int, rng: np.random.Generator, budget: int):
    """Create demes, each with a random stream drawn from ``rng``.

    Each deme owns a ledger capped at its share of the total ``budget``.
    Shares differ by at most one evaluation, the first demes taking the
    remainder.
    """
    if count < 1:
        raise ValueError("deme count must be positive")
    if budget < 1:
        raise ValueError("total budget must be positive")
    return [
        Deme(
            deme_id=i,
            ledger=EvaluationLedger(budget // count + (i < budget % count)),
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        for i in range(count)
    ]


def run_deme_round(
    deme: Deme,
    problem,
    cfg: RunConfig,
    *,
    state: RunState,
    max_rounds: int = 1,
) -> RunResult:
    """Guided rounds inside a deme, continuing ``state``'s loop.

    Marks the deme exhausted when its budget is spent, its target is
    reached or its loop stops or runs no round (as when it has no
    initial population to start from).
    """
    if deme.status != "active":
        raise ValueError(f"deme {deme.deme_id} is not active")
    result = info_evo_loop(
        problem, cfg, state=state, rng=deme.rng, max_rounds=max_rounds
    )
    if deme.ledger.remaining <= 0 or state.stop or not result.reports:
        deme.status = "exhausted"
    return result


def run_demes(problem, cfg: RunConfig, rng: np.random.Generator):
    """Round-robin ``cfg.deme_count`` demes, one round each, until all are
    exhausted.

    The demes share ``cfg.budget`` and run the loop with ``cfg`` as a
    single run does. A deme is exhausted when its budget is spent, it
    reaches the target or its loop stops after three rounds that add
    nothing to its ledger.

    Returns (demes, per-deme RunStates, per-deme report lists, trace).
    The trace holds every deme's rows in global evaluation order: demes
    run one at a time, so appending each round's new rows keeps it.
    """
    demes = spawn_demes(cfg.deme_count, rng, cfg.budget)
    states = [
        RunState(ledger=d.ledger, problem=problem, deme_id=d.deme_id) for d in demes
    ]
    reports: list[list] = [[] for _ in demes]
    trace: list[dict] = []
    while any(d.status == "active" for d in demes):
        for deme, state in zip(demes, states):
            if deme.status != "active":
                continue
            before = deme.ledger.eval_count
            result = run_deme_round(deme, problem, cfg, state=state)
            reports[deme.deme_id].extend(result.reports)
            trace.extend(state.trace[before:])  # one row per new evaluation
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
