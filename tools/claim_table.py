"""Paired claim table: objective calls to target, per problem and arm.

Usage: python3 tools/claim_table.py [--seeds A-B]

Runs every arm on every problem at each seed from A to B, both
included (1-40 by default), through ``cli.execute_run`` of the checkout
this file is in, in two worker processes. An arm is a list of
``info-evo run`` flags: ``baseline`` (``--mode baseline``) and
``default`` (guided, no flag). The
problems are OneMax-50, sphere-10, symreg on the cubic dataset of
``perfbench/make_dataset.py`` at cap 64 (budget 2000) and trap5-20
(budget 20000); the others keep the default budget.

For each problem and arm it reports the runs that reached the target,
how many runs stopped for each ``stop_reason``, the quartiles of
objective calls and of evaluations to target, and calls per evaluation
(all calls over all evaluations). A run that misses the target counts
as its budget in evaluations to target and as the calls it made in
calls. For each problem it then compares, paired by seed and in
objective calls, the default against the baseline: the default's wins
and losses (fewer calls wins, ties are dropped), the exact two-sided
sign-test p and the median paired saving (the baseline's calls minus
the default's, ties included) with its 95% sign-test interval: from
the k-th smallest to the k-th largest saving, where k is the largest
count with P(Bin(n, 1/2) <= k - 1) <= 0.025 over the n pairs (no
bounds, ``None``, when no k >= 1 qualifies, as for n < 6). These
comparisons are the primary family: each also gets its Holm-adjusted p
over all of them, one per problem.

For each problem and arm it adds a null row, marked exploratory: the
arm's runs at the first half of the seeds against its runs at the
second half, paired in seed order (the first seed of each half, then
the second, and so on; an odd last seed is left out), with the first
half's wins and losses in calls and their sign-test p. Both halves ran
the same code, so a null row far from level says how far the seeds
alone can tip a sign test of this many pairs. The table is computed
from the run records alone.

It prints the table and writes it, with every run's counts, to
``BENCH_claim.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

# tools/, this script's directory, leads sys.path
from bench_pairs import quartiles
from trace_digests import run_record

HERE = Path(__file__).resolve().parents[1]
OUT = HERE / "BENCH_claim.json"
DATASET = "{dataset}"  # stands for the cubic dataset's path in PROBLEMS
ARMS = {
    "baseline": ["--mode", "baseline"],
    "default": [],
}
PROBLEMS = {
    "onemax50": ["--problem", "onemax", "--bits", "50"],
    "sphere10": ["--problem", "sphere", "--dim", "10"],
    "symreg-cubic-cap64": [
        "--problem", "symreg", "--dataset", DATASET,
        "--population-cap", "64", "--budget", "2000",
    ],
    "trap5-20": ["--problem", "trap5", "--bits", "20", "--budget", "20000"],
}
# (arm, against): the first arm's wins are runs with fewer calls
COMPARISONS = (("default", "baseline"),)
COUNTS = ("success", "objective_calls", "eval_count", "evals_to_target", "stop_reason")


def parse_seeds(text: str) -> range:
    """The seeds ``A-B`` names, A to B with both included."""
    first, sep, last = text.partition("-")
    if not (sep and first.isdigit() and last.isdigit() and int(first) <= int(last)):
        raise argparse.ArgumentTypeError(f"seeds must read A-B with A <= B, not {text!r}")
    return range(int(first), int(last) + 1)


def run_one(job: tuple[str, str, int, list[str]]) -> dict:
    """The counts of one run: ``job`` is (problem, arm, seed, flags)."""
    problem, arm, seed, flags = job
    record = run_record([*flags, "--seed", str(seed)])
    return {"problem": problem, "arm": arm, "seed": seed} | {k: record[k] for k in COUNTS}


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def sign_test_interval(savings: list) -> tuple:
    """The 95% sign-test interval of the median of ``savings``: the k-th
    smallest and k-th largest, k the largest count with P(Bin(n, 1/2)
    <= k - 1) <= 0.025; (None, None) when that k is 0."""
    n = len(savings)
    k = 0
    # the sum is 2**n * P(Bin(n, 1/2) <= k), so the test is that P <= 1/40
    while k < n and 40 * sum(math.comb(n, i) for i in range(k + 1)) <= 2**n:
        k += 1
    if k == 0:
        return None, None
    ordered = sorted(savings)
    return ordered[k - 1], ordered[n - k]


def arm_summary(runs: list[dict]) -> dict:
    """Reached, stop-reason counts, quartiles and calls per evaluation of
    one problem's runs of one arm."""
    calls = sum(r["objective_calls"] for r in runs)
    evals = sum(r["eval_count"] for r in runs)
    return {
        "runs": len(runs),
        "reached": sum(r["success"] for r in runs),
        "stop_reasons": dict(sorted(Counter(r["stop_reason"] for r in runs).items())),
        "calls": quartiles([r["objective_calls"] for r in runs]),
        "evals_to_target": quartiles([r["evals_to_target"] for r in runs]),
        "calls_per_eval": calls / evals,
    }


def holm(ps: list[float]) -> list[float]:
    """Holm's step-down adjustment of ``ps``, in their order: the i-th
    smallest p (i from 0) times len(ps) - i, capped at 1, and raised to
    the largest such value of every smaller p."""
    adjusted = [0.0] * len(ps)
    running = 0.0
    for rank, i in enumerate(sorted(range(len(ps)), key=ps.__getitem__)):
        running = max(running, min(1.0, (len(ps) - rank) * ps[i]))
        adjusted[i] = running
    return adjusted


def half_split(runs: list[dict], arm: str) -> dict:
    """``arm``'s first half of seeds against its second half, paired in
    seed order, in objective calls, over one problem's records; the
    first half wins a pair with fewer calls."""
    ordered = sorted((r for r in runs if r["arm"] == arm), key=lambda r: r["seed"])
    half = len(ordered) // 2
    first, second = ordered[:half], ordered[half : 2 * half]
    savings = [b["objective_calls"] - a["objective_calls"] for a, b in zip(first, second)]
    wins = sum(d > 0 for d in savings)
    losses = sum(d < 0 for d in savings)
    return {
        "arm": arm,
        # the first and last seed of each half
        "halves": [[h[0]["seed"], h[-1]["seed"]] if h else [] for h in (first, second)],
        "pairs": len(savings),
        "wins": wins,
        "losses": losses,
        "p": sign_test_p(wins, losses),
        "exploratory": True,
    }


def comparison(runs: list[dict], arm: str, against: str) -> dict:
    """``arm`` against ``against`` in objective calls, over the seeds
    both ran in ``runs`` (one problem's records)."""
    calls = {(r["arm"], r["seed"]): r["objective_calls"] for r in runs}
    seeds = sorted(s for a, s in calls if a == arm and (against, s) in calls)
    savings = [calls[against, s] - calls[arm, s] for s in seeds]
    wins = sum(d > 0 for d in savings)
    losses = sum(d < 0 for d in savings)
    return {
        "arm": arm,
        "against": against,
        "pairs": len(savings),
        "wins": wins,
        "losses": losses,
        "p": sign_test_p(wins, losses),
        "median_saving": statistics.median(savings),
        "saving_interval": sign_test_interval(savings),
    }


def claim_table(records: list[dict]) -> dict:
    """Per problem, in the order first met in ``records``: each arm's
    summary, the COMPARISONS between arms both present, each with its
    Holm-adjusted p over every problem's comparisons, and each arm's
    null row."""
    table = {}
    for problem in dict.fromkeys(r["problem"] for r in records):
        runs = [r for r in records if r["problem"] == problem]
        arms = list(dict.fromkeys(r["arm"] for r in runs))
        table[problem] = {
            "arms": {arm: arm_summary([r for r in runs if r["arm"] == arm]) for arm in arms},
            "comparisons": [
                comparison(runs, arm, against)
                for arm, against in COMPARISONS
                if arm in arms and against in arms
            ],
            "null": [half_split(runs, arm) for arm in arms],
        }
    family = [c for entry in table.values() for c in entry["comparisons"]]
    for c, p in zip(family, holm([c["p"] for c in family])):
        c["holm_p"] = p
    return table


def format_table(table: dict) -> list[str]:
    """The table as text lines, one per problem and arm, then one per
    comparison, then one per null row."""
    lines = [
        f"{'problem':20s} {'arm':10s} reached {'calls q1 / median / q3':>26s} "
        f"{'evals to target q1 / median / q3':>34s} calls/eval  stops"
    ]
    for problem, entry in table.items():
        for arm, s in entry["arms"].items():
            calls = "{:8.0f} {:8.0f} {:8.0f}".format(*s["calls"])
            evals = "{:8.0f} {:8.0f} {:8.0f}".format(*s["evals_to_target"])
            reached = f"{s['reached']}/{s['runs']}"
            stops = " ".join(f"{reason} {count}" for reason, count in s["stop_reasons"].items())
            lines.append(
                f"{problem:20s} {arm:10s} {reached:>7s} {calls:>26s} {evals:>34s} "
                f"{s['calls_per_eval']:10.3f}  {stops}"
            )
    lines.append(
        f"{'problem':20s} {'arm vs against':24s}   W/L        p   Holm p  median saving"
        "  95% interval"
    )
    for problem, entry in table.items():
        for c in entry["comparisons"]:
            pair = f"{c['arm']} vs {c['against']}"
            wl = f"{c['wins']}/{c['losses']}"
            lo, hi = c["saving_interval"]
            interval = "unbounded" if lo is None else f"{lo:.1f} to {hi:.1f}"
            lines.append(
                f"{problem:20s} {pair:24s} {wl:>5s} {c['p']:8.2g} {c['holm_p']:8.2g}"
                f" {c['median_saving']:14.1f}  {interval}"
            )
    lines.append(f"{'problem':20s} {'null (exploratory)':24s}   W/L        p")
    for problem, entry in table.items():
        for c in entry["null"]:
            pair = f"{c['arm']} 1st vs 2nd half"
            wl = f"{c['wins']}/{c['losses']}"
            lines.append(f"{problem:20s} {pair:24s} {wl:>5s} {c['p']:8.2g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-40"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE / "perfbench"))
    sys.path.insert(0, str(HERE / "src"))  # spawned workers start with this path
    from make_dataset import write_dataset

    with tempfile.TemporaryDirectory() as tmp:
        dataset = str(write_dataset(Path(tmp) / "cubic.csv"))
        jobs = [
            (problem, arm, seed, [dataset if f == DATASET else f for f in flags] + arm_flags)
            for problem, flags in PROBLEMS.items()
            for seed in args.seeds
            for arm, arm_flags in ARMS.items()
        ]
        with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=20) as pool:
            records = list(pool.imap(run_one, jobs))
    table = claim_table(records)
    print("\n".join(format_table(table)))
    payload = {
        "seeds": [args.seeds.start, args.seeds.stop - 1],
        "arms": ARMS,
        "problems": PROBLEMS,
        "table": table,
        "runs": records,
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
