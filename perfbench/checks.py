"""Correctness checks the benchmark computes apart from the program.

The checks read a run record from ``infoevo.cli.execute_run`` together
with what the benchmark observed during the run (the genotypes that
were newly evaluated, in global order, and the number of objective
calls). Target tests use the benchmark's own scoring: a ones count for
OneMax, and for symbolic regression its own expression parser and
evaluator, which read the rendered expression text.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

DIV_GUARD = 1e-9  # protected division yields 1 below this divisor magnitude
MSE_TOLERANCE = 1e-9


def parse_expression(text: str):
    """Parse a rendered expression such as ``((x0 * x0) + -1)``.

    Returns nested tuples: ("x", index), ("c", value) or
    (op, left, right) with op one of + - * /.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of expression {text!r}")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            op = tokens[pos] if pos < len(tokens) else ""
            pos += 1
            right = parse()
            if op not in ("+", "-", "*", "/") or pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError(f"malformed expression {text!r}")
            pos += 1
            return (op, left, right)
        if tok.startswith("x") and tok[1:].isdigit():
            return ("x", int(tok[1:]))
        return ("c", float(tok))

    node = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return node


def evaluate_expression(node, xs) -> float:
    tag = node[0]
    if tag == "x":
        return float(xs[node[1]])
    if tag == "c":
        return float(node[1])
    a = evaluate_expression(node[1], xs)
    b = evaluate_expression(node[2], xs)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    return 1.0 if abs(b) < DIV_GUARD else a / b


def mean_squared_error(node, rows) -> float:
    total = 0.0
    for x, y in rows:
        diff = evaluate_expression(node, (x,)) - y
        total += diff * diff  # float products overflow to inf, never raise
    mse = total / len(rows)
    return mse if math.isfinite(mse) else math.inf


class OneMaxTarget:
    """All ones on ``bits`` loci."""

    def __init__(self, bits: int):
        self.bits = bits

    def reached(self, genotype) -> bool:
        return sum(int(b) for b in genotype) == self.bits

    def rendered_ok(self, text: str) -> bool:
        return text == "1" * self.bits


class CubicTarget:
    """An expression whose MSE on the dataset rows is at most 1e-9."""

    def __init__(self, rows):
        self.rows = list(rows)

    def reached(self, tree) -> bool:
        return mean_squared_error(tree, self.rows) <= MSE_TOLERANCE

    def rendered_ok(self, text: str) -> bool:
        try:
            node = parse_expression(text)
        except ValueError:
            return False
        return mean_squared_error(node, self.rows) <= MSE_TOLERANCE


@dataclass
class Observed:
    """What the benchmark saw during one run."""

    new_genotypes: list = field(default_factory=list)  # global evaluation order
    objective_calls: int = 0


def own_evals_to_target(target, genotypes) -> int | None:
    """1-based position of the first genotype that reaches the target."""
    for i, g in enumerate(genotypes):
        if target.reached(g):
            return i + 1
    return None


def trace_digest(trace) -> str:
    """SHA-256 of the trace lines as ``info-evo run`` writes them."""
    h = hashlib.sha256()
    for row in trace:
        h.update(json.dumps(row, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_run(
    target,
    record: dict,
    observed: Observed,
    *,
    budget: int,
    init_population: int,
    guided: bool,
) -> list[str]:
    """Every check on one run; returns the failures (empty when correct)."""
    errors = []
    best = record.get("best_genotype")
    if best is None or not target.rendered_ok(best):
        errors.append(f"best genotype {best!r} misses the target")
    own = own_evals_to_target(target, observed.new_genotypes)
    if own is None:
        errors.append("no evaluated genotype reaches the target")
    else:
        if own != record["evals_to_target"]:
            errors.append(
                f"evals_to_target {record['evals_to_target']} in the record, "
                f"{own} counted in global order"
            )
        if own <= init_population:
            errors.append(
                f"the initial population of {init_population} reaches the "
                f"target at evaluation {own}"
            )
    evals = record["eval_count"]
    if evals != len(observed.new_genotypes):
        errors.append(
            f"eval_count {evals}, {len(observed.new_genotypes)} new evaluations seen"
        )
    if evals > budget:
        errors.append(f"{evals} ledger evaluations exceed the budget of {budget}")
    if observed.objective_calls < evals:
        errors.append(
            f"{observed.objective_calls} objective calls for {evals} evaluations"
        )
    for rnd in record["rounds"]:
        parts = [rnd] + list(rnd["subdemes"])
        for p in parts:
            if p["candidates_generated"] != p["candidates_skipped"] + p["candidates_evaluated"]:
                errors.append(
                    f"round {rnd['round_index']}: {p['candidates_generated']} "
                    f"generated != {p['candidates_skipped']} skipped + "
                    f"{p['candidates_evaluated']} evaluated"
                )
    if guided:
        if not any(r["rays_generated"] > 0 for r in record["rounds"]):
            errors.append("no guided round ran")
    elif record["candidates_skipped"] != 0:
        errors.append(f"baseline skipped {record['candidates_skipped']} candidates")
    orders = [row["eval_order"] for row in record["trace"]]
    if orders != list(range(evals)):
        errors.append("trace eval_order does not run 0..n-1")
    return errors
