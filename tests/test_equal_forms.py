"""Each faster form of a per-sample or per-block step, held to the plainer
form it replaced: the same values, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoevo import core
from infoevo.core import (
    EvaluationLedger,
    ResolvedMetric,
    behavior_distances,
    evaluate,
    pair_behavior_distances,
    view_of,
)
from infoevo.domains import OneMax, SymbolicRegression, make_problem
from infoevo.domains import symreg
from infoevo.domains.bitstrings import score_onemax
from infoevo.domains.symreg import OUTPUT_MEMO_SIZE
from infoevo.evolve import _eda_model, _eda_values

from conftest import metric_row, reference_nearest, reference_rows

# --- OneMax counts nonzero entries ---


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=200))
@example([])
@example([1] * 64)
@example([1] * 65)
@example([0, 1] * 70)
def test_score_onemax_is_the_sum_of_a_01_row(bits):
    row = np.array(bits, dtype=np.uint8)
    got = score_onemax(row)
    assert type(got) is float and got == float(row.sum())


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 130), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_bitstring_row_operators_keep_rows_01(bits, m, seed):
    # so that counting nonzero entries counts ones on every genotype a
    # run makes
    problem, rng = OneMax(bits=bits), np.random.default_rng(seed)
    rows = np.array([problem.random_genotype(rng) for _ in range(m)])
    others = np.array([problem.random_genotype(rng) for _ in range(m)])
    made = [
        rows,
        problem.mutate_rows(rows, 0.5, rng.random(rows.shape)),
        problem.crossover_rows(rows, others, rng.random(rows.shape)),
        problem.from_loci_rows(rng.integers(0, 2, size=rows.shape)),
    ]
    for block in made:
        assert block.dtype == np.uint8 and set(np.unique(block).tolist()) <= {0, 1}
        for row in block:
            assert problem.score(row) == float(row.sum())


# --- EDA sampling reads every CDF column but the last ---


class Alphabet:
    """The part of a domain that ``_eda_model`` reads."""

    def __init__(self, alphabet):
        self.alphabet = alphabet


@st.composite
def eda_draws(draw):
    """An EDA model over an alphabet of 1-4 values, some marginals
    clamped to 0 by a small subpopulation, and uniforms for it that
    include 0.0, the largest double below 1, the CDF's own entries and
    the doubles just below them."""
    size = draw(st.integers(1, 4))
    alphabet = tuple(draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size, unique=True)))
    n_loci = draw(st.integers(1, 6))
    top = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), min_size=n_loci, max_size=n_loci),
            min_size=1,
            max_size=8,
        )
    )
    model = _eda_model(top, Alphabet(alphabet), draw(st.integers(1, size + 4)))
    cdf = model[1]
    special = [0.0, float(np.nextafter(1.0, 0.0))]
    special += [float(v) for v in cdf.ravel()[cdf.ravel() < 1.0]]
    special += [float(np.nextafter(v, 0.0)) for v in cdf.ravel() if v > 0.0]
    uniform = st.one_of(st.sampled_from(special), st.floats(0.0, 1.0, exclude_max=True))
    rows = draw(st.integers(1, 5))
    u = draw(st.lists(uniform, min_size=rows * n_loci, max_size=rows * n_loci))
    return model, np.array(u).reshape(rows, n_loci)


@settings(max_examples=300, deadline=None)
@given(eda_draws())
def test_eda_values_without_the_last_column_are_the_full_comparison(case):
    model, u = case
    alphabet, cdf = model
    assert (cdf[:, -1] == 1.0).all()  # exactly, so no uniform below 1 reaches it
    for block in (u, u[0]):  # a generation's block and one offspring's row
        expected = alphabet[(cdf <= block[..., None]).sum(axis=-1)]
        got = _eda_values(model, block)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


# --- the blended metric adds behavior distances a few rows at a time ---

BLEND_PROBLEMS = {
    # behavior is the score: one column, read from the view's scores
    "onemax": lambda: OneMax(bits=10),
    # a behavior of its own with one column, and one with four
    "symreg-one-probe": lambda: SymbolicRegression(probes=((0.5,),), outputs=(1.0,)),
    "symreg": lambda: make_problem("symreg"),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(BLEND_PROBLEMS)),
    st.floats(0.05, 0.95),
    st.integers(2, 3 * core.BLEND_ROWS + 5),
    st.integers(0, 2**32 - 1),
)
def test_blended_rows_match_the_reference_rows(name, lam, n, seed):
    problem = BLEND_PROBLEMS[name]()
    rng = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n)
    for _ in range(20 * n):
        if ledger.eval_count >= n:
            break
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, lam, ledger, k=len(view))
    # a block of more genotypes than the blend adds at a time
    outside = [problem.random_genotype(rng) for _ in range(core.BLEND_ROWS + 3)]
    rm.rows_of(outside)
    queries = [s.genotype for s in view.samples] + outside
    for x, row in zip(queries, reference_rows(problem, view, lam, queries)):
        for a, b in zip(metric_row(rm, x), reference_nearest(row, rm.width)):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 24),  # 21 is the cubic dataset's behavior width
    st.integers(2, 60),  # past 46 samples the scale pairs are drawn
    st.sampled_from([1e-200, 1e-3, 1.0, 1e6, 1e200]),
    st.integers(0, 2**32 - 1),
)
def test_scale_pair_distances_are_the_blocks_entries(width, n, scale, seed):
    rng = np.random.default_rng(seed)
    b = np.round(rng.normal(size=(n, width)), 1) * scale  # ties and zero differences
    ii, jj = core._scale_pairs(n)
    with np.errstate(over="ignore"):  # 1e200 squares to inf in both forms
        got = pair_behavior_distances(b, ii, jj)
        expected = behavior_distances(b, b)[ii, jj]
    assert got.tobytes() == expected.tobytes()


# --- a program's outputs are run once for its score and its behavior ---


def same_value(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["score", "behavior"])), max_size=12),
)
def test_program_score_and_behavior_in_any_order_equal_a_fresh_instances(seed, reads):
    problem = make_problem("symreg")
    rng = np.random.default_rng(seed)
    trees = [problem.random_genotype(rng) for _ in range(3)]
    for i, method in reads:
        got = getattr(problem, method)(trees[i])
        assert same_value(got, getattr(make_problem("symreg"), method)(trees[i]))
    assert len(problem._outputs) <= OUTPUT_MEMO_SIZE


def test_program_output_memo_stays_within_its_bound():
    problem = make_problem("symreg")
    trees = [("+", ("x", 0), ("c", float(i))) for i in range(OUTPUT_MEMO_SIZE + 10)]
    for tree in trees:  # scores only, as a baseline run reads them
        problem.score(tree)
        assert len(problem._outputs) <= OUTPUT_MEMO_SIZE
    assert trees[0] not in problem._outputs and trees[-1] in problem._outputs
    # the dropped outputs are run again; kept ones are popped by their
    # second read
    for tree in (trees[0], trees[-1]):
        assert same_value(problem.behavior(tree), make_problem("symreg").behavior(tree))
    assert trees[-1] not in problem._outputs
    assert len(problem._outputs) == OUTPUT_MEMO_SIZE - 1


@pytest.mark.parametrize("first", ["score", "behavior"])
def test_score_and_behavior_run_a_program_once(first, monkeypatch):
    run = symreg.eval_columns
    runs = []

    def counting(node, *args):
        runs.append(node)
        return run(node, *args)

    monkeypatch.setattr(symreg, "eval_columns", counting)
    problem = make_problem("symreg")
    tree = ("*", ("x", 0), ("+", ("x", 0), ("c", 1.0)))
    second = "behavior" if first == "score" else "score"
    getattr(problem, first)(tree)
    getattr(problem, second)(tree)
    assert runs == [tree]
