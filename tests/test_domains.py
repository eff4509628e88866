import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoevo.core import EvaluationLedger, evaluate, normalize_scores, view_of
from infoevo.domains import (
    PROBLEMS,
    OneMax,
    Sphere,
    SymbolicRegression,
    Trap5,
    make_problem,
)
from infoevo.domains.base import Problem
from infoevo.domains.bitstrings import TRAP_BLOCK, score_onemax, score_trap
from infoevo.domains.realvec import score_rosenbrock, score_sphere
from infoevo.domains.symreg import (
    DIV_GUARD,
    OVERFLOW_SCORE,
    eval_tree,
    load_dataset,
    tree_depth,
    tree_str,
)
from infoevo.errors import BadLength

from conftest import one_offspring


def distance(problem, a, b) -> float:
    """The genotypic distance of one pair, through two one-row stacks."""
    return float(problem.geno_distances(problem.stack([a]), problem.stack([b]))[0, 0])


def row(problem, x, stacked) -> np.ndarray:
    """The genotypic distances from x to each genotype of ``stacked``."""
    return problem.geno_distances(problem.stack([x]), stacked)[0]


# --- bitstrings ---


def test_score_onemax_examples():
    assert score_onemax(np.zeros(8, dtype=np.uint8)) == 0.0
    assert score_onemax(np.ones(8, dtype=np.uint8)) == 8.0
    assert score_onemax(np.array([1, 0, 1, 1], dtype=np.uint8)) == 3.0


def test_score_trap_examples():
    # full block scores 5; otherwise 4 - ones (deceptive slope)
    assert score_trap(np.ones(5, dtype=np.uint8)) == 5.0
    assert score_trap(np.zeros(5, dtype=np.uint8)) == 4.0
    assert score_trap(np.array([1, 1, 1, 1, 0], dtype=np.uint8)) == 0.0
    assert score_trap(np.array([1, 0, 0, 0, 0], dtype=np.uint8)) == 3.0
    two_blocks = np.concatenate([np.ones(5), np.zeros(5)]).astype(np.uint8)
    assert score_trap(two_blocks) == 9.0


def running_total_trap(bits) -> float:
    """The trap score as a running float total, one block at a time."""
    block = TRAP_BLOCK
    total = 0.0
    for start in range(0, len(bits), block):
        ones = int(np.sum(bits[start : start + block]))
        total += block if ones == block else (block - 1) - ones
    return total


@pytest.mark.parametrize("fill", ["random", "zeros", "ones"])
@pytest.mark.parametrize("blocks", [1, 2, 6, 40])
def test_bitstring_scores_are_the_numpy_reduction_doubles(fill, blocks, rng):
    for _ in range(20 if fill == "random" else 1):
        if fill == "random":
            bits = rng.integers(0, 2, size=TRAP_BLOCK * blocks, dtype=np.uint8)
        else:
            bits = np.full(TRAP_BLOCK * blocks, fill == "ones", dtype=np.uint8)
        onemax, trap = score_onemax(bits), score_trap(bits)
        assert type(onemax) is float and type(trap) is float
        assert np.float64(onemax).tobytes() == np.float64(np.sum(bits)).tobytes()
        expected = np.float64(running_total_trap(bits))
        assert np.float64(trap).tobytes() == expected.tobytes()


def test_score_trap_bad_length():
    with pytest.raises(BadLength):
        score_trap(np.ones(7, dtype=np.uint8))
    with pytest.raises(BadLength):
        Trap5(bits=12)


def test_bitstring_operators_closure(rng):
    problem = OneMax(bits=32)
    bits = one_offspring(problem)
    a = problem.random_genotype(rng)
    b = problem.random_genotype(rng)
    for _ in range(20):
        child = bits.crossover(a, b, rng)
        child = bits.mutate(child, 0.1, rng)
        assert child.shape == (32,)
        assert child.dtype == np.uint8
        assert set(np.unique(child)) <= {0, 1}


def test_bitstring_distances(rng):
    problem = OneMax(bits=8)
    a = np.zeros(8, dtype=np.uint8)
    b = np.ones(8, dtype=np.uint8)
    assert distance(problem, a, a) == 0.0
    assert distance(problem, a, b) == 8.0
    c = one_offspring(problem).mutate(a, 0.5, rng)
    stacked = problem.stack([a, b, c])
    # 8 bits pack into one 64-bit word per genotype
    assert stacked.shape == (3, 1) and stacked.dtype == np.uint64 and len(stacked) == 3
    batch = row(problem, a, stacked)
    assert batch.tolist() == [0.0, 8.0, float(np.sum(c != a))]


@pytest.mark.parametrize("bits, words", [(50, 1), (100, 2)])
def test_bitstring_stack_packs_the_words_the_distances_read(bits, words, rng):
    problem = OneMax(bits=bits)
    genos = [problem.random_genotype(rng) for _ in range(6)]
    genos += [np.zeros(bits, dtype=np.uint8), np.ones(bits, dtype=np.uint8), genos[0]]
    stacked = problem.stack(genos)
    assert stacked.dtype == np.uint64 and stacked.shape == (len(genos), words)
    # the words hold each genotype's bits in order, first bit highest in
    # the first byte, then zeros
    unpacked = np.unpackbits(stacked.view(np.uint8), axis=1)
    assert np.array_equal(unpacked[:, :bits], np.array(genos))
    assert not unpacked[:, bits:].any()
    # Hamming distances, pair by pair, from the bits
    expected = np.array([[np.count_nonzero(a != b) for b in genos] for a in genos], dtype=float)
    got = problem.geno_distances(stacked, stacked)
    assert got.dtype == float and got.tobytes() == expected.tobytes()
    got = problem.geno_distances(problem.stack(genos[:2]), stacked)
    assert got.tobytes() == expected[:2].tobytes()


def test_bitstring_eda_plumbing():
    problem = OneMax(bits=4)
    g = np.array([1, 0, 1, 0], dtype=np.uint8)
    assert problem.loci(g).tolist() == [1, 0, 1, 0]
    assert problem.alphabet == (0, 1)
    back = one_offspring(problem).from_loci([1, 0, 1, 0], np.random.default_rng(0))
    assert np.array_equal(back, g)


# --- the EDA loci contract ---

LOCI_PROBLEMS = sorted(
    name for name, (cls, _) in PROBLEMS.items() if cls.loci is not Problem.loci
)


def test_some_problems_define_loci():
    assert LOCI_PROBLEMS == ["onemax", "rosenbrock", "sphere", "trap5"]


@pytest.mark.parametrize("name", LOCI_PROBLEMS)
def test_loci_lie_in_alphabets_of_one_length(name, rng):
    problem = make_problem(name)
    genotypes = [problem.random_genotype(rng) for _ in range(20)]
    genotypes += [one_offspring(problem).mutate(g, 1.0, rng) for g in genotypes]
    n_loci = len(problem.loci(genotypes[0]))
    assert isinstance(problem.alphabet, tuple) and len(problem.alphabet) >= 2
    for g in genotypes:
        loci = problem.loci(g)
        assert len(loci) == n_loci
        assert all(v in problem.alphabet for v in loci)


def test_base_problem_defines_no_loci(scalar_problem):
    assert scalar_problem.loci(1.0) is None
    assert scalar_problem.alphabet == ()
    with pytest.raises(NotImplementedError):
        scalar_problem.from_loci([0], np.random.default_rng(0))


# --- real vectors ---


def test_score_sphere_examples():
    assert score_sphere(np.zeros(4)) == 0.0
    assert score_sphere(np.array([3.0, 4.0])) == -25.0


def test_score_rosenbrock_examples():
    assert score_rosenbrock(np.ones(5)) == 0.0
    assert score_rosenbrock(np.array([0.0, 0.0])) == -1.0
    # f(1.5, 2) = 100*(2 - 2.25)^2 + (1 - 1.5)^2 = 6.5
    assert score_rosenbrock(np.array([1.5, 2.0])) == pytest.approx(-6.5)


def test_realvec_operators_stay_in_box(rng):
    problem = Sphere(dim=6)
    a = problem.random_genotype(rng)
    b = problem.random_genotype(rng)
    for _ in range(50):
        child = problem.mutate(problem.crossover(a, b, rng), 0.5, rng)
        assert np.all(child >= -5.0) and np.all(child <= 5.0)


def test_realvec_eda_bins_roundtrip(rng):
    problem = Sphere(dim=3)
    g = np.array([-5.0, 0.0, 4.9])
    loci = problem.loci(g)
    assert loci == [0, 4, 7]
    back = problem.from_loci(loci, rng)
    assert problem.loci(back) == loci


def test_realvec_distance_euclidean():
    problem = Sphere(dim=2)
    assert distance(problem, [0.0, 0.0], [3.0, 4.0]) == 5.0
    batch = row(problem, np.zeros(2), problem.stack([[3.0, 4.0], [0.0, 0.0]]))
    assert np.allclose(batch, [5.0, 0.0])


# --- symbolic regression ---


def test_eval_tree_examples():
    x = ("x", 0)
    assert eval_tree(("c", 2.5), (0.0,)) == 2.5
    assert eval_tree(x, (3.0,)) == 3.0
    assert eval_tree(("+", x, ("c", 1.0)), (2.0,)) == 3.0
    assert eval_tree(("-", x, ("c", 1.0)), (2.0,)) == 1.0
    assert eval_tree(("*", x, x), (3.0,)) == 9.0
    assert eval_tree(("/", ("c", 6.0), x), (2.0,)) == 3.0


def test_protected_division():
    assert eval_tree(("/", ("c", 1.0), ("c", 0.0)), ()) == 1.0
    assert eval_tree(("/", ("c", 1.0), ("c", DIV_GUARD / 2)), ()) == 1.0


def test_tree_shape_helpers():
    x = ("x", 0)
    t = ("+", ("*", x, x), ("c", 1.0))
    assert tree_depth(t) == 3
    assert tree_str(t) == "((x0 * x0) + 1)"


def test_symreg_exact_solution_scores_zero():
    # default dataset is f(x) = x^2 + x
    problem = SymbolicRegression()
    x = ("x", 0)
    exact = ("+", ("*", x, x), x)
    assert problem.score(exact) == 0.0
    assert problem.target is not None and problem.score(exact) >= problem.target


def test_symreg_constant_zero_score():
    # outputs (0, 0, 2, 6): constant 0 has MSE (0+0+4+36)/4 = 10
    problem = SymbolicRegression()
    assert problem.score(("c", 0.0)) == pytest.approx(-10.0)


def test_symreg_overflow_sentinel():
    problem = SymbolicRegression()
    t = ("c", 1.0)
    for _ in range(12):
        t = ("*", t, t)  # doubles the exponent; still finite for 1.0
    big = ("c", 1e300)
    blowup = ("*", big, big)
    assert problem.score(blowup) == OVERFLOW_SCORE


def test_symreg_overflowed_error_scores_the_sentinel():
    # finite outputs whose squared error overflows: the sentinel, with no
    # overflow warning (pytest turns warnings into errors)
    problem = SymbolicRegression()
    assert problem.score(("c", 1e200)) == OVERFLOW_SCORE
    assert problem.score(("c", -1e200)) == OVERFLOW_SCORE
    # so a view holding it normalizes to finite values
    ledger = EvaluationLedger(budget=3)
    for tree in (("c", 1e200), ("c", 0.0), ("c", 1.0)):
        evaluate(tree, problem, ledger)
    view = view_of(ledger)
    assert np.isfinite(normalize_scores(view.scores, view)).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_symreg_operators_respect_depth(max_depth, seed, rate):
    # no operator checks its result's depth, so each must build within it
    problem = SymbolicRegression(max_depth=max_depth)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        a = problem.random_genotype(rng)
        b = problem.random_genotype(rng)
        assert tree_depth(a) <= max_depth
        assert tree_depth(problem.crossover(a, b, rng)) <= max_depth
        assert tree_depth(problem.mutate(a, rate, rng)) <= max_depth


def test_symreg_distances(rng):
    problem = SymbolicRegression()
    a = problem.random_genotype(rng)
    b = problem.random_genotype(rng)
    assert distance(problem, a, a) == 0.0
    assert distance(problem, a, b) == distance(problem, b, a)
    assert 0.0 <= distance(problem, a, b) <= 1.0


def test_symreg_key_and_distance_tell_apart_nearby_constants():
    # a tree is its own key; the labels spell constants by repr
    problem = SymbolicRegression()
    a, b = ("c", 1.0), ("c", 1.0000001)
    assert problem.canonical_key(a) != problem.canonical_key(b)
    assert distance(problem, a, a) == 0.0
    assert distance(problem, a, b) == 0.5
    assert row(problem, b, problem.stack([a, b])).tolist() == [0.5, 0.0]


def test_symreg_memo_charges_each_nearby_constant():
    # outputs (0, 0, 2, 6): constant 1 has MSE (1+1+1+25)/4 = 7
    problem = SymbolicRegression()
    ledger = EvaluationLedger(budget=3)
    near = evaluate(("c", 1.0000001), problem, ledger)
    one = evaluate(("c", 1.0), problem, ledger)
    assert one is not near and one.genotype == ("c", 1.0) and one.score == -7.0
    assert ledger.eval_count == ledger.objective_calls == 2
    assert evaluate(("c", 1.0), problem, ledger) is one
    assert ledger.eval_count == ledger.objective_calls == 2


def test_load_dataset_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x0,y\n-1,0\n0,0\n1,2\n2,6\n")
    probes, outputs = load_dataset(path)
    assert probes == ((-1.0,), (0.0,), (1.0,), (2.0,))
    assert outputs == (0.0, 0.0, 2.0, 6.0)
    problem = SymbolicRegression(probes=probes, outputs=outputs)
    x = ("x", 0)
    assert problem.score(("+", ("*", x, x), x)) == 0.0


@pytest.mark.parametrize(
    "text,message",
    [
        ("x0,x1,y\n0,1,2\n1,2\n", "line 3 has 2 values"),
        ("x0,y\n0,1\n1,2,3\n", "line 3 has 3 values"),
        ("y\n1\n2\n", "line 2 has no input column"),
        ("x0,y\n0,nan\n", "not finite"),
        ("x0,y\n0,1\ninf,2\n", "line 3 has a value that is not finite"),
    ],
    ids=["short-row", "long-row", "no-input", "nan-output", "inf-input"],
)
def test_load_dataset_rejects_a_malformed_file(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_dataset(path)


@pytest.mark.parametrize(
    "probes,outputs,message",
    [
        (((0.0, 1.0), (1.0,)), (0.0, 1.0), "different input counts"),
        (((), ()), (0.0, 1.0), "no input column"),
        (((0.0,), (1.0,)), (0.0,), "2 input rows and 1 outputs"),
        (((0.0,), (np.inf,)), (0.0, 1.0), "finite"),
        (((0.0,), (1.0,)), (0.0, np.nan), "finite"),
    ],
    ids=["ragged", "no-input", "row-count", "inf-input", "nan-output"],
)
def test_symreg_rejects_a_malformed_dataset(probes, outputs, message):
    with pytest.raises(ValueError, match=message):
        SymbolicRegression(probes=probes, outputs=outputs)


# --- registry ---


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_distance_row_to_an_empty_stack_is_empty(name, rng):
    problem = make_problem(name)
    stacked = problem.stack([])
    assert len(stacked) == 0
    one = row(problem, problem.random_genotype(rng), stacked)
    assert one.dtype == float and one.shape == (0,)
    block = problem.geno_distances(stacked, problem.stack([problem.random_genotype(rng)]))
    assert block.dtype == float and block.shape == (0, 1)


def test_make_problem_names():
    assert make_problem("onemax", bits=16).dimension == 16
    assert make_problem("trap5", bits=10).dimension == 10
    assert make_problem("sphere", dim=4).dimension == 4
    assert make_problem("rosenbrock", dim=3).dimension == 3
    assert make_problem("symreg").dimension == 1
    with pytest.raises(Exception):
        make_problem("nonsense")


def test_geno_distance_correlates_with_score_gap(rng):
    # diagnostic: on OneMax, closer genotypes should tend to have closer
    # scores (positive rank correlation between distance and score gap)
    problem = OneMax(bits=40)
    base = np.ones(40, dtype=np.uint8)
    base_score = problem.score(base)
    dists, gaps = [], []
    for rate in np.linspace(0.05, 0.5, 60):
        g = one_offspring(problem).mutate(base, float(rate), rng)
        dists.append(distance(problem, base, g))
        gaps.append(abs(problem.score(g) - base_score))
    dr = np.argsort(np.argsort(dists)).astype(float)
    gr = np.argsort(np.argsort(gaps)).astype(float)
    rho = np.corrcoef(dr, gr)[0, 1]
    assert rho > 0.5
