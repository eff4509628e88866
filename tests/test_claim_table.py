"""The table that ``tools/claim_table.py`` makes of run records, on
hand-made records: no run is made."""

import importlib
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def claim_table(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("claim_table")


def record(problem, arm, seed, calls, evals=None, to_target=None, success=True):
    evals = calls if evals is None else evals
    return {
        "problem": problem,
        "arm": arm,
        "seed": seed,
        "success": success,
        "objective_calls": calls,
        "eval_count": evals,
        "evals_to_target": evals if to_target is None else to_target,
        "stop_reason": "target" if success else "budget",
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


def test_claim_table_compares_each_arm_with_the_baseline_and_the_default_with_half(claim_table):
    records = []
    for problem in ("one", "two"):
        for seed in range(1, 21):
            records.append(record(problem, "baseline", seed, 1000))
            records.append(record(problem, "lambda0.5", seed, 900 if seed <= 17 else 1100))
            records.append(record(problem, "default", seed, 800 if seed <= 3 else 1200))
    table = claim_table.claim_table(records)
    assert list(table) == ["one", "two"]
    entry = table["one"]
    assert list(entry["arms"]) == ["baseline", "lambda0.5", "default"]
    got = {(c["arm"], c["against"]): (c["wins"], c["losses"]) for c in entry["comparisons"]}
    assert got == {
        ("lambda0.5", "baseline"): (17, 3),
        ("default", "baseline"): (3, 17),
        ("default", "lambda0.5"): (3, 17),
    }
    last = entry["comparisons"][-1]
    assert last["p"] == pytest.approx(2 * 1351 / 2**20)
    assert last["median_saving"] == -300
    lines = claim_table.format_table(table)
    assert len(lines) == 1 + 6 + 1 + 6


def test_claim_table_skips_comparisons_whose_arms_did_not_run(claim_table):
    records = [record("p", "baseline", 1, 10), record("p", "default", 1, 8)]
    comparisons = claim_table.claim_table(records)["p"]["comparisons"]
    assert [(c["arm"], c["against"]) for c in comparisons] == [("default", "baseline")]
