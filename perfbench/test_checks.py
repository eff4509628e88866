"""Tests of the benchmark's own checks: they accept a real run and reject
a wrong genotype, a wrong count and broken bookkeeping.

Usage: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import prepare

prepare.import_program()

import checks  # noqa: E402
import layers  # noqa: E402
from infoevo.cli import RunConfig, execute_run  # noqa: E402
from infoevo.domains.symreg import SymbolicRegression, eval_tree, tree_str  # noqa: E402
from make_dataset import dataset_rows  # noqa: E402

BITS = 20


def _run(mode: str, traced: bool = False):
    cfg = RunConfig(problem="onemax", problem_params={"bits": BITS}, budget=3000, seed=1)
    probe = layers.Probe(traced=traced)
    with probe.installed():
        record = execute_run(cfg, mode, 1)
    return cfg, record, probe


@pytest.fixture(scope="module")
def guided():
    return _run("info_evo")


def _errors(cfg, record, observed, guided=True):
    return checks.check_run(
        checks.OneMaxTarget(BITS),
        record,
        observed,
        budget=cfg.budget,
        init_population=cfg.evolution.init_population,
        guided=guided,
    )


def test_real_runs_pass(guided):
    cfg, record, probe = guided
    assert _errors(cfg, record, probe.observed) == []
    cfg, record, probe = _run("baseline")
    assert _errors(cfg, record, probe.observed, guided=False) == []


def test_wrong_genotype_rejected(guided):
    cfg, record, probe = guided
    bad = copy.deepcopy(record)
    bad["best_genotype"] = "0" + bad["best_genotype"][1:]
    errors = _errors(cfg, bad, probe.observed)
    assert any("misses the target" in e for e in errors)


def test_wrong_evals_to_target_rejected(guided):
    cfg, record, probe = guided
    bad = copy.deepcopy(record)
    bad["evals_to_target"] += 1
    errors = _errors(cfg, bad, probe.observed)
    assert any("counted in global order" in e for e in errors)


def test_evaluated_genotypes_must_reach_target(guided):
    cfg, record, probe = guided
    observed = copy.deepcopy(probe.observed)
    observed.new_genotypes = [np.zeros(BITS, dtype=np.uint8)] * record["eval_count"]
    errors = _errors(cfg, record, observed)
    assert any("no evaluated genotype reaches" in e for e in errors)


def test_too_few_objective_calls_rejected(guided):
    cfg, record, probe = guided
    observed = copy.deepcopy(probe.observed)
    observed.objective_calls = record["eval_count"] - 1
    assert any("objective calls" in e for e in _errors(cfg, record, observed))


def test_round_arithmetic_rejected(guided):
    cfg, record, probe = guided
    bad = copy.deepcopy(record)
    bad["rounds"][0]["candidates_skipped"] += 1
    assert any("generated !=" in e for e in _errors(cfg, bad, probe.observed))


def test_eval_order_gap_rejected(guided):
    cfg, record, probe = guided
    bad = copy.deepcopy(record)
    bad["trace"][3]["eval_order"] = 99999
    assert any("eval_order" in e for e in _errors(cfg, bad, probe.observed))


def test_baseline_skip_rejected():
    cfg, record, probe = _run("baseline")
    bad = copy.deepcopy(record)
    bad["candidates_skipped"] = 1
    errors = _errors(cfg, bad, probe.observed, guided=False)
    assert any("baseline skipped" in e for e in errors)


def test_tracing_keeps_the_trace(guided):
    _, record, probe = guided
    _, traced_record, traced = _run("info_evo", traced=True)
    assert checks.trace_digest(traced_record["trace"]) == checks.trace_digest(record["trace"])
    assert traced.observed.objective_calls == probe.observed.objective_calls
    assert traced.calls["core.knn"] > 0


def test_parser_reads_rendered_trees():
    problem = SymbolicRegression()
    rng = np.random.default_rng(0)
    for _ in range(200):
        tree = problem.random_genotype(rng)
        node = checks.parse_expression(tree_str(tree))
        assert node == tree
        for x in (-2.0, -0.5, 0.0, 1.5):
            assert checks.evaluate_expression(node, (x,)) == eval_tree(tree, (x,))


def test_cubic_target():
    target = checks.CubicTarget(dataset_rows())
    assert target.rendered_ok("(((x0 * x0) * x0) + ((x0 * x0) + x0))")
    assert not target.rendered_ok("((x0 * x0) + x0)")
    assert not target.rendered_ok("((x0 * x0) +")
    assert checks.evaluate_expression(checks.parse_expression("(x0 / 0)"), (3.0,)) == 1.0
