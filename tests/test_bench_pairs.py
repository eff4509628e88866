"""The summary that ``tools/bench_pairs.py`` prints of alternating
benchmark pairs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(values, correct=True):
    """A ``perfbench/run.py`` result with the given metric values."""
    metrics = {key: {"value": value, "unit": "-"} for key, value in values.items()}
    return {"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics}


RULES = {"wall_ref": ("lower", 0.2), "objective_calls": ("lower", 1e-5), "rate": ("higher", 0.5)}


def test_summary_gives_quartiles_and_strict_wins_per_direction():
    parent_wall = [5.0, 5.2, 4.9, 5.1, 5.3]
    change_wall = [4.5, 5.2, 4.4, 4.6, 4.5]  # the second pair ties
    parent_rate = [1.0, 2.0, 3.0, 4.0, 5.0]
    change_rate = [2.0, 1.0, 4.0, 5.0, 5.0]
    pairs = [
        (
            result({"w/wall_ref": pw, "w/objective_calls": 10, "w/rate": pr, "w/other": 1.0}),
            result({"w/wall_ref": cw, "w/objective_calls": 10, "w/rate": cr, "w/other": 0.0}),
        )
        for pw, cw, pr, cr in zip(parent_wall, change_wall, parent_rate, change_rate)
    ]
    summary = bench_pairs.summarize(pairs, RULES)
    assert summary["correct"] is True
    # metrics BENCHMARK.json does not name as end to end are left out
    assert list(summary["metrics"]) == ["w/wall_ref", "w/objective_calls", "w/rate"]
    wall = summary["metrics"]["w/wall_ref"]
    q1, q2, q3 = statistics.quantiles(parent_wall, n=4, method="inclusive")
    assert wall["parent"] == (q1, q2, q3) and q2 == statistics.median(parent_wall)
    assert wall["change"][1] == statistics.median(change_wall)
    assert (wall["better"], wall["wins"], wall["pairs"]) == ("lower", 4, 5)
    assert (wall["bound"], wall["verdict"]) == (0.2, "within bound")
    assert summary["metrics"]["w/objective_calls"]["wins"] == 0  # equal is no win
    rate = summary["metrics"]["w/rate"]
    assert (rate["better"], rate["wins"]) == ("higher", 3)
    lines = bench_pairs.format_summary(summary)
    assert len(lines) == 5 and lines[-1] == "every run correct: True"
    assert lines[1].startswith("w/wall_ref") and lines[1].endswith("4/5 within bound")
    json.dumps(summary)  # the tool prints it as its last line


def test_summary_of_one_workload_one_pair_and_a_failed_run():
    pairs = [(result({"wall_ref": 2.0}), result({"wall_ref": 1.5}, correct=False))]
    summary = bench_pairs.summarize(pairs, RULES)
    assert summary["correct"] is False
    wall = summary["metrics"]["wall_ref"]
    assert wall["parent"] == (2.0, 2.0, 2.0) and wall["change"] == (1.5, 1.5, 1.5)
    assert wall["wins"] == 1


def test_directions_are_read_from_the_benchmark_spec():
    rules = bench_pairs.end_to_end_metrics(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert rules == {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert rules["wall_ref"] == ("lower", 0.2) and rules["setup_s"] == ("lower", 0.25)


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # the change median 4.6 is worse than the parent median 3.0 by
        # more than 20% of it
        ([2.0, 3.0, 4.0], [4.5, 4.6, 4.7], "worse"),
        # level medians, but the parent's IQR (1.0) is wider than 20% of
        # its median (0.6), and a change run is slower than a parent run
        ([2.0, 3.0, 4.0], [2.5, 3.0, 3.5], "unresolved"),
        # the same wide parent, but every change run beats every parent run
        ([2.0, 3.0, 4.0], [1.0, 1.5, 1.9], "within bound"),
        # a narrow parent and a change median 10% worse
        ([3.0, 3.0, 3.1], [3.3, 3.3, 3.3], "within bound"),
    ],
)
def test_verdict_against_the_bound(parent, change, expected):
    pairs = [(result({"wall_ref": p}), result({"wall_ref": c})) for p, c in zip(parent, change)]
    wall = bench_pairs.summarize(pairs, RULES)["metrics"]["wall_ref"]
    assert wall["verdict"] == expected
    assert bench_pairs.format_summary({"correct": True, "metrics": {"wall_ref": wall}})[
        1
    ].endswith(expected)


def test_verdict_of_a_metric_where_higher_is_better():
    # rate, bound 50%: a median of 1.0 against 3.0 is worse by 2.0 > 1.5
    assert bench_pairs.verdict([2.0, 3.0, 4.0], [0.5, 1.0, 1.5], False, 0.5) == "worse"
    assert bench_pairs.verdict([2.0, 3.0, 4.0], [2.0, 2.5, 3.0], False, 0.5) == "within bound"


# parent quartiles by the inclusive method: 12.25, 14.5, 16.75, an IQR of
# 4.5; with a 20% bound a median may be worse by 2.9
GAIN_PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


@pytest.mark.parametrize(
    "change, expected",
    [
        # 9 of 10 pairs won; the median 9.5 is better by 5.0 > 4.5
        ([p - 5 for p in GAIN_PARENT[:9]] + [20.0], "gain"),
        # every pair won, but by 4.0, inside the parent's IQR
        ([p - 4 for p in GAIN_PARENT], "unresolved"),
        # better by 5.0 in the median, but only 8 of 10 pairs won
        ([p - 5 for p in GAIN_PARENT[:8]] + [19.5, 20.0], "unresolved"),
    ],
)
def test_gain_needs_nine_wins_in_ten_and_a_shift_past_the_parent_iqr(change, expected):
    pairs = [
        (result({"wall_ref": p}), result({"wall_ref": c})) for p, c in zip(GAIN_PARENT, change)
    ]
    wall = bench_pairs.summarize(pairs, RULES)["metrics"]["wall_ref"]
    assert wall["verdict"] == expected
    # the same values where higher is better
    negated = [-p for p in GAIN_PARENT], [-c for c in change]
    assert bench_pairs.verdict(*negated, False, 0.2) == expected


def test_gain_needs_ten_pairs():
    # 9 pairs, each won by far: every change run beats every parent run,
    # yet too few pairs to claim a gain
    parent = GAIN_PARENT[:9]
    change = [p - 10 for p in parent]
    assert bench_pairs.verdict(parent, change, True, 0.2) == "within bound"
    assert bench_pairs.verdict(parent + [19.0], change + [9.0], True, 0.2) == "gain"


def test_the_seed_is_passed_to_every_run(monkeypatch, tmp_path):
    argvs = []

    class Done:
        returncode = 0
        stdout = json.dumps(result({"wall_ref": 1.0})) + "\n"

    def fake_run(argv, **kwargs):
        argvs.append(argv)
        return Done()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(tmp_path), "--pairs", "2", "--seed", "7", "--seconds", "1"]) == 0
    assert len(argvs) == 4
    for argv in argvs:
        assert argv[argv.index("--seed") + 1] == "7"
    # the checkouts alternate which goes first
    first = [Path(argvs[0][1]).parents[1], Path(argvs[2][1]).parents[1]]
    assert first == [tmp_path.resolve(), ROOT]
    argvs.clear()
    bench_pairs.main([str(tmp_path), "--pairs", "1", "--seconds", "1"])
    assert all(argv[argv.index("--seed") + 1] == "1" for argv in argvs)  # run.py's default
