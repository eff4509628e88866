"""Alternating benchmark pairs of a parent checkout and this one.

Usage: python3 tools/bench_pairs.py PARENT_CHECKOUT [--workload W]
       [--pairs N] [--seconds S] [--seed K]

Runs ``perfbench/run.py --trace 0 --seed K`` (K is 1 by default, as
in ``run.py``) of PARENT_CHECKOUT and of the checkout this file is in
(the change), each run a process of its own, N times each. The seed
draws the benchmark's seed order and its calibration kernel's data, so
a claim can be checked again on a seed not used while writing it. Pair
i runs both sides one after the other, and the side that goes first
swaps from one pair to the next, so that neither side always meets the
machine in the same state. Each run reads its own checkout's sources
(see ``perfbench/prepare.py``).

It then prints, for every end-to-end metric that ``BENCHMARK.json``
names, each side's median and quartiles over its runs, the pairs the
change won (strictly better, in the metric's direction), a verdict
(see ``verdict``: ``gain`` where the change passes the rule for
claiming a gain, else one against the metric's bound), and whether
every run of both sides reported ``"correct": true``. The last line is
the same summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
GAIN_MIN_PAIRS = 10  # pairs a gain needs at the least


def end_to_end_metrics(checkout: Path) -> dict[str, tuple[str, float]]:
    """Each end-to-end metric of a checkout's ``BENCHMARK.json``: the
    direction, ``"lower"`` or ``"higher"``, that is better, and its
    bound, a share of the parent median."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def run_bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` process of ``checkout``; its result, the
    JSON object on its last line of output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(checkout / "perfbench" / "run.py")]
    argv += ["--workload", workload, "--seconds", str(seconds), "--trace", "0"]
    argv += ["--seed", str(seed)]
    child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env)
    lines = child.stdout.splitlines() or [""]
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"error: {checkout} ended with code {child.returncode} and no result")


def quartiles(values) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of nonempty values,
    as ``statistics.quantiles(..., method="inclusive")`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, lower: bool) -> int:
    """The pairs, zipped from each side's values, whose change value is
    strictly better than its parent value."""
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def verdict(parent, change, lower: bool, bound: float) -> str:
    """The change's verdict on one metric from each side's values, paired
    by position: ``"worse"`` when the change median is worse than the
    parent median by more than ``bound`` times the parent median; else
    ``"gain"`` when there are at least GAIN_MIN_PAIRS pairs, the change
    wins at least nine in ten of them, and its median is better than
    the parent median by more than the parent's interquartile range (the
    rule a claimed gain must pass); else ``"unresolved"`` when the
    parent's interquartile range is wider than the bound allows and not
    every change value beats every parent value; else ``"within
    bound"``."""
    q1, median, q3 = quartiles(parent)
    allowed = bound * abs(median)
    change_median = quartiles(change)[1]
    better_by = median - change_median if lower else change_median - median
    if -better_by > allowed:
        return "worse"
    pairs = len(parent)
    won = wins(parent, change, lower)
    if pairs >= GAIN_MIN_PAIRS and 10 * won >= 9 * pairs and better_by > q3 - q1:
        return "gain"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(pairs, rules: dict[str, tuple[str, float]]) -> dict:
    """The summary of ``pairs``, a nonempty list of (parent result,
    change result) of ``perfbench/run.py``, over the end-to-end metrics
    of ``rules`` (name -> (better direction, bound)).

    A result's metric keys are the metric's name, or ``workload/name``
    from ``--workload all``. For each key both sides report, the summary
    holds each side's quartiles, the number of pairs whose change value
    is strictly better than its parent value, the bound and the
    ``verdict``. ``correct`` is whether every result reported
    ``"correct": true``.
    """
    keys = [
        key
        for key in pairs[0][1]["metrics"]
        if key.rsplit("/", 1)[-1] in rules and key in pairs[0][0]["metrics"]
    ]
    metrics = {}
    for key in keys:
        better, bound = rules[key.rsplit("/", 1)[-1]]
        lower = better == "lower"
        values = {
            side: [pair[i]["metrics"][key]["value"] for pair in pairs]
            for i, side in enumerate(SIDES)
        }
        metrics[key] = {
            "better": "lower" if lower else "higher",
            **{side: quartiles(values[side]) for side in SIDES},
            "wins": wins(values["parent"], values["change"], lower),
            "pairs": len(pairs),
            "bound": bound,
            "verdict": verdict(values["parent"], values["change"], lower, bound),
        }
    correct = all(run["correct"] for pair in pairs for run in pair)
    return {"correct": correct, "metrics": metrics}


def format_summary(summary: dict) -> list[str]:
    """The summary as text lines, one per metric, then the verdict on
    correctness."""
    heads = [f"{side} q1 / median / q3" for side in SIDES]
    lines = [f"{'metric':44s} {heads[0]:>30s} {heads[1]:>30s}  wins verdict"]
    for key, m in summary["metrics"].items():
        sides = ["{:9.4f} {:9.4f} {:9.4f}".format(*m[side]) for side in SIDES]
        wins = f"{m['wins']}/{m['pairs']}"
        lines.append(f"{key:44s} {sides[0]:>30s} {sides[1]:>30s} {wins:>5s} {m['verdict']}")
    lines.append(f"every run correct: {summary['correct']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent checkout's root directory")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    checkouts = {"parent": Path(args.parent).resolve(), "change": HERE}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        result = {}
        for side in order:
            result[side] = run_bench(checkouts[side], args.workload, args.seconds, args.seed)
            print(f"pair {i + 1} {side}: correct {result[side]['correct']}", flush=True)
        pairs.append((result["parent"], result["change"]))
    summary = summarize(pairs, end_to_end_metrics(HERE))
    print("\n".join(format_summary(summary)))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
