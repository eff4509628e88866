"""Island-style orchestration and the behavior-vector program distance.

A deme is one run of the guided loop, its ``RunState``, with its own
evaluation ledger and random stream; a single run is the one-deme case.
The demes take rounds in turn, each continuing its loop where it
stopped, and every guided round inside a deme spawns per-ray sub-demes.
The distance between two programs is the closed-form geodesic distance
between the distributions induced by their behavior vectors on a shared
probe set.
"""

from __future__ import annotations

import numpy as np

from . import manifold
from .core import EvaluationLedger
from .errors import NonFiniteOutput
from .evolve import RunConfig, RunState, info_evo_loop

BEHAVIOR_EPS = 1e-6  # relative uniform mass mixed into behavior distributions


def spawn_demes(problem, count: int, rng: np.random.Generator, budget: int):
    """One fresh RunState per deme.

    Deme 0 continues ``rng`` itself, so one deme is the run a single
    ``rng`` gives; each further deme's stream is seeded from ``rng``.
    Each deme owns a ledger capped at its share of the total ``budget``.
    Shares differ by at most one evaluation, the first demes taking the
    remainder.
    """
    if count < 1:
        raise ValueError("deme count must be positive")
    if budget < 1:
        raise ValueError("total budget must be positive")
    streams = [rng]
    streams += [np.random.default_rng(rng.integers(2**63)) for _ in range(count - 1)]
    return [
        RunState(
            ledger=EvaluationLedger(budget // count + (i < budget % count)),
            problem=problem,
            rng=stream,
            deme_id=i,
        )
        for i, stream in enumerate(streams)
    ]


def run_demes(problem, cfg: RunConfig, rng: np.random.Generator):
    """Round-robin ``cfg.deme_count`` demes, one round each, until every
    deme has stopped.

    The demes share ``cfg.budget`` and run the loop with ``cfg`` as a
    single run does. A deme stops when its budget is spent, it reaches
    the target, or its loop stalls.

    Returns (per-deme RunStates, trace). The trace holds every deme's
    rows in global evaluation order: demes run one at a time, so
    appending each round's new rows keeps it.
    """
    states = spawn_demes(problem, cfg.deme_count, rng, cfg.budget)
    trace: list[dict] = []
    while not all(st.stop for st in states):
        for st in states:
            if st.stop:
                continue
            before = len(st.trace)
            info_evo_loop(problem, cfg, state=st, max_rounds=1)
            trace.extend(st.trace[before:])  # one row per new evaluation
    return states, trace


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
