"""Each faster form of a per-sample or per-block step, held to the plainer
form it replaced: the same values, bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoevo.domains import OneMax
from infoevo.domains.bitstrings import score_onemax
from infoevo.evolve import _eda_model, _eda_values

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
