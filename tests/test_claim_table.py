"""The table that ``tools/claim_table.py`` makes of run records, on
hand-made records: no run is made."""

import importlib
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def claim_table(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("claim_table")


def record(problem, arm, seed, calls, evals=None, to_target=None, success=True, stop=None):
    evals = calls if evals is None else evals
    if stop is None:
        stop = "target" if success else "budget"
    return {
        "problem": problem,
        "arm": arm,
        "seed": seed,
        "success": success,
        "objective_calls": calls,
        "eval_count": evals,
        "evals_to_target": evals if to_target is None else to_target,
        "stop_reason": stop,
    }


def test_sign_test_p_is_exact_and_two_sided(claim_table):
    assert claim_table.sign_test_p(3, 17) == pytest.approx(2 * 1351 / 2**20)
    assert claim_table.sign_test_p(3, 17) == pytest.approx(0.00258, abs=5e-6)
    assert claim_table.sign_test_p(17, 3) == claim_table.sign_test_p(3, 17)
    assert claim_table.sign_test_p(0, 5) == 2 / 32
    assert claim_table.sign_test_p(10, 10) == 1.0
    assert claim_table.sign_test_p(0, 0) == 1.0
    tail = sum(math.comb(40, i) for i in range(10))
    assert claim_table.sign_test_p(31, 9) == pytest.approx(2 * tail / 2**40)


def test_parse_seeds_includes_both_ends(claim_table):
    assert list(claim_table.parse_seeds("101-104")) == [101, 102, 103, 104]
    assert list(claim_table.parse_seeds("7-7")) == [7]
    for bad in ("5", "9-3", "a-b", "-3"):
        with pytest.raises(Exception, match="A-B"):
            claim_table.parse_seeds(bad)


def test_arm_summary_counts_reached_quartiles_and_calls_per_eval(claim_table):
    runs = [
        record("p", "a", 1, 100, evals=80, to_target=80),
        record("p", "a", 2, 300, evals=200, to_target=200),
        record("p", "a", 3, 500, evals=400, to_target=400, success=False),
    ]
    s = claim_table.arm_summary(runs)
    assert s["runs"] == 3 and s["reached"] == 2
    assert s["calls"] == (200, 300, 400)
    assert s["evals_to_target"] == (140, 200, 300)
    assert s["calls_per_eval"] == 900 / 680
    assert s["stop_reasons"] == {"budget": 1, "target": 2}


def test_arm_summary_counts_each_stop_reason_in_name_order(claim_table):
    runs = [record("p", "a", 1, 10, stop="target")]
    runs += [record("p", "a", seed, 50, success=False, stop="stall") for seed in (2, 3)]
    runs += [record("p", "a", 4, 60, success=False)]
    s = claim_table.arm_summary(runs)
    assert list(s["stop_reasons"].items()) == [("budget", 1), ("stall", 2), ("target", 1)]
    table = {"p": {"arms": {"a": s}, "comparisons": [], "null": []}}
    assert claim_table.format_table(table)[1].endswith("  budget 1 stall 2 target 1")


def test_sign_test_interval_takes_the_kth_smallest_and_largest(claim_table):
    # n = 20: P(Bin(20, 1/2) <= 5) = 21700 / 2**20 = 0.0207 and P(<= 6) =
    # 0.0577, so k = 6, whatever order the savings come in
    assert claim_table.sign_test_interval(list(range(20, 0, -1))) == (6, 15)
    # n = 40: P(<= 13) = 0.0192 and P(<= 14) = 0.0403, so k = 14
    assert claim_table.sign_test_interval(list(range(1, 41))) == (14, 27)
    # n = 6 is the least n with k = 1 (1/64 <= 0.025 < 1/32)
    assert claim_table.sign_test_interval([3, 1, 2, 6, 5, 4]) == (1, 6)
    assert claim_table.sign_test_interval([1, 2, 3, 4, 5]) == (None, None)
    assert claim_table.sign_test_interval([]) == (None, None)
    # ties count as pairs
    assert claim_table.sign_test_interval([0] * 10 + [7] * 10) == (0, 7)


def test_comparison_pairs_by_seed_and_drops_ties_from_the_sign_test(claim_table):
    # arm "g" against "b": seeds 1-3 save 10, 20, 30 calls, seed 4 ties,
    # seed 5 loses 5; seed 6 has no "b" run, so it is not a pair
    calls_b = {1: 110, 2: 120, 3: 130, 4: 100, 5: 100}
    calls_g = {1: 100, 2: 100, 3: 100, 4: 100, 5: 105, 6: 1}
    runs = [record("p", "b", s, c) for s, c in calls_b.items()]
    runs += [record("p", "g", s, c) for s, c in calls_g.items()]
    c = claim_table.comparison(runs, "g", "b")
    assert (c["pairs"], c["wins"], c["losses"]) == (5, 3, 1)
    assert c["p"] == claim_table.sign_test_p(3, 1)
    assert c["median_saving"] == 10
    assert c["saving_interval"] == (None, None)  # 5 pairs


def test_claim_table_compares_the_default_with_the_baseline(claim_table):
    records = []
    for problem in ("one", "two"):
        for seed in range(1, 21):
            records.append(record(problem, "baseline", seed, 1000))
            records.append(record(problem, "default", seed, 800 if seed <= 3 else 1200))
    table = claim_table.claim_table(records)
    assert list(table) == ["one", "two"]
    entry = table["one"]
    assert list(entry["arms"]) == ["baseline", "default"]
    (only,) = entry["comparisons"]
    assert (only["arm"], only["against"]) == ("default", "baseline")
    assert (only["wins"], only["losses"]) == (3, 17)
    assert only["p"] == pytest.approx(2 * 1351 / 2**20)
    assert only["median_saving"] == -200
    assert only["saving_interval"] == (-200, -200)  # 17 of the 20 savings are -200
    lines = claim_table.format_table(table)
    assert len(lines) == 1 + 4 + 1 + 2 + 1 + 4
    assert lines[6].startswith("one ")
    assert lines[6].endswith("-200.0  -200.0 to -200.0")


def test_claim_table_skips_comparisons_whose_arms_did_not_run(claim_table):
    records = [record("p", "baseline", 1, 10), record("p", "default", 1, 8)]
    records += [record("q", "default", 1, 8)]
    table = claim_table.claim_table(records)
    assert [(c["arm"], c["against"]) for c in table["p"]["comparisons"]] == [
        ("default", "baseline")
    ]
    assert table["q"]["comparisons"] == []


def test_holm_steps_down_from_the_smallest_p(claim_table):
    # sorted: 0.01 * 4, 0.03 * 3, 0.04 * 2 (raised to 0.09), 0.5 * 1
    got = claim_table.holm([0.01, 0.04, 0.03, 0.5])
    assert got == pytest.approx([0.04, 0.09, 0.09, 0.5])
    assert claim_table.holm([0.5, 0.9]) == [1.0, 1.0]
    assert claim_table.holm([0.2]) == [0.2]
    assert claim_table.holm([]) == []


def test_claim_table_holm_adjusts_over_every_problem(claim_table):
    # "one": the default wins 18 of 20; "two": 12 of 20; "three" has no
    # baseline, so it adds no comparison to the family
    records = []
    for problem, wins in (("one", 18), ("two", 12), ("three", 0)):
        for seed in range(1, 21):
            if problem != "three":
                records.append(record(problem, "baseline", seed, 1000))
            records.append(record(problem, "default", seed, 900 if seed <= wins else 1100))
    table = claim_table.claim_table(records)
    assert table["three"]["comparisons"] == []
    (one,), (two,) = table["one"]["comparisons"], table["two"]["comparisons"]
    assert one["p"] == claim_table.sign_test_p(18, 2)
    assert two["p"] == claim_table.sign_test_p(12, 8)
    assert [one["holm_p"], two["holm_p"]] == claim_table.holm([one["p"], two["p"]])
    assert one["holm_p"] == 2 * one["p"]
    assert two["holm_p"] == two["p"]


def test_half_split_pairs_the_halves_in_seed_order(claim_table):
    # seeds 1-5 in shuffled order: 1 pairs with 3 and 2 with 4, and the
    # odd last seed 5 is left out; another arm's runs are not read
    calls = {4: 100, 1: 90, 5: 1, 3: 100, 2: 110}
    runs = [record("p", "a", seed, c) for seed, c in calls.items()]
    runs += [record("p", "b", seed, 5) for seed in range(1, 6)]
    null = claim_table.half_split(runs, "a")
    assert null["halves"] == [[1, 2], [3, 4]]
    assert (null["pairs"], null["wins"], null["losses"]) == (2, 1, 1)
    assert null["p"] == 1.0
    assert null["exploratory"] is True
    alone = claim_table.half_split(runs[:1], "a")
    assert (alone["pairs"], alone["halves"], alone["p"]) == (0, [[], []], 1.0)


def test_claim_table_has_a_null_row_per_arm(claim_table):
    arms = ("baseline", "default")
    records = [record("p", arm, seed, 100 + seed) for seed in range(1, 9) for arm in arms]
    table = claim_table.claim_table(records)
    nulls = table["p"]["null"]
    assert [n["arm"] for n in nulls] == ["baseline", "default"]
    # calls rise with the seed, so the first half wins every pair
    assert all((n["pairs"], n["wins"], n["losses"]) == (4, 4, 0) for n in nulls)
    lines = claim_table.format_table(table)
    assert "null (exploratory)" in lines[-3]
    assert lines[-2].split()[1:6] == ["baseline", "1st", "vs", "2nd", "half"]
    assert lines[-1].split()[-2:] == ["4/0", f"{claim_table.sign_test_p(4, 0):.2g}"]


def test_committed_table_is_the_table_of_its_runs(claim_table):
    # no run is made: the committed runs are tabled again and compared
    # with the committed table after the same JSON round trip
    committed = json.loads((ROOT / "BENCH_claim.json").read_text())
    table = json.loads(json.dumps(claim_table.claim_table(committed["runs"])))
    assert table == committed["table"]
