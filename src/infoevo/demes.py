"""A run: its demes, taking rounds in turn.

A deme is one run of the guided loop, its ``RunState``, with its own
evaluation ledger and random stream; a single run is the one-deme case.
The demes take rounds in turn, each continuing its loop where it
stopped, and every guided round inside a deme spawns per-ray sub-demes.
"""

from __future__ import annotations

import numpy as np

from .core import EvaluationLedger
from .evolve import RunConfig, RunState, run_round


def spawn_demes(problem, cfg: RunConfig, rng: np.random.Generator):
    """One fresh RunState per deme of ``cfg``'s run.

    Deme 0 continues ``rng`` itself, so one deme is the run a single
    ``rng`` gives; each further deme's stream is seeded from ``rng``.
    Each deme owns a ledger capped at its share of ``cfg.budget``.
    Shares differ by at most one evaluation, the first demes taking the
    remainder. Each starts at ``cfg``'s step size and filter quantile.
    """
    count, budget = cfg.deme_count, cfg.budget
    if count < 1:
        raise ValueError("deme count must be positive")
    if budget < 1:
        raise ValueError("total budget must be positive")
    if cfg.mode not in ("info_evo", "baseline"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    streams = [rng]
    streams += [np.random.default_rng(rng.integers(2**63)) for _ in range(count - 1)]
    return [
        RunState(
            ledger=EvaluationLedger(budget // count + (i < budget % count)),
            problem=problem,
            rng=stream,
            gamma=cfg.step.gamma,
            threshold_quantile=cfg.policy.threshold_quantile,
            deme_id=i,
        )
        for i, stream in enumerate(streams)
    ]


def run_demes(problem, cfg: RunConfig, rng: np.random.Generator):
    """Run ``cfg``: round-robin its ``cfg.deme_count`` demes, one round
    each, until every deme has stopped.

    The demes share ``cfg.budget``. A deme stops when its budget is
    spent, it reaches the target, or its loop stalls.

    Returns (per-deme RunStates, trace). The trace holds every deme's
    rows in global evaluation order: demes run one at a time, so
    appending each round's new rows keeps it.
    """
    states = spawn_demes(problem, cfg, rng)
    trace: list[dict] = []
    while not all(st.stop for st in states):
        for st in states:
            if st.stop:
                continue
            before = len(st.trace)
            run_round(st, cfg)
            trace.extend(st.trace[before:])  # one row per new evaluation
    return states, trace
