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
the quartiles of objective calls and of evaluations to target, and
calls per evaluation (all calls over all evaluations). A run that
misses the target counts as its budget in evaluations to target and as
the calls it made in calls. For each problem it then compares, paired
by seed and in objective calls, the default against the baseline: the
default's wins and losses (fewer calls wins, ties are dropped), the
exact two-sided sign-test p and the median paired saving (the
baseline's calls minus the default's, ties included).

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
from pathlib import Path

from bench_pairs import quartiles  # tools/, this script's directory, leads sys.path

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
    from infoevo.cli import build_parser, build_run_config, execute_run

    problem, arm, seed, flags = job
    cfg = build_run_config(build_parser().parse_args(["run", *flags, "--seed", str(seed)]))
    record = execute_run(cfg, cfg.mode, cfg.seed)
    return {"problem": problem, "arm": arm, "seed": seed} | {k: record[k] for k in COUNTS}


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def arm_summary(runs: list[dict]) -> dict:
    """Reached, quartiles and calls per evaluation of one problem's runs
    of one arm."""
    calls = sum(r["objective_calls"] for r in runs)
    evals = sum(r["eval_count"] for r in runs)
    return {
        "runs": len(runs),
        "reached": sum(r["success"] for r in runs),
        "calls": quartiles([r["objective_calls"] for r in runs]),
        "evals_to_target": quartiles([r["evals_to_target"] for r in runs]),
        "calls_per_eval": calls / evals,
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
    }


def claim_table(records: list[dict]) -> dict:
    """Per problem, in the order first met in ``records``: each arm's
    summary and the COMPARISONS between arms both present."""
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
        }
    return table


def format_table(table: dict) -> list[str]:
    """The table as text lines, one per problem and arm, then one per
    comparison."""
    lines = [
        f"{'problem':20s} {'arm':10s} reached {'calls q1 / median / q3':>26s} "
        f"{'evals to target q1 / median / q3':>34s} calls/eval"
    ]
    for problem, entry in table.items():
        for arm, s in entry["arms"].items():
            calls = "{:8.0f} {:8.0f} {:8.0f}".format(*s["calls"])
            evals = "{:8.0f} {:8.0f} {:8.0f}".format(*s["evals_to_target"])
            reached = f"{s['reached']}/{s['runs']}"
            lines.append(
                f"{problem:20s} {arm:10s} {reached:>7s} {calls:>26s} {evals:>34s} "
                f"{s['calls_per_eval']:10.3f}"
            )
    lines.append(f"{'problem':20s} {'arm vs against':24s}   W/L        p  median saving")
    for problem, entry in table.items():
        for c in entry["comparisons"]:
            pair = f"{c['arm']} vs {c['against']}"
            wl = f"{c['wins']}/{c['losses']}"
            lines.append(
                f"{problem:20s} {pair:24s} {wl:>5s} {c['p']:8.2g} {c['median_saving']:14.1f}"
            )
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
