"""Property tests: neighbor queries, manifold edge cases, EDA sampling and
the run memo."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infoevo import manifold
from infoevo.core import (
    DistanceMetric,
    EvaluationLedger,
    PopulationView,
    ResolvedMetric,
    ScoredSample,
    evaluate,
    knn,
    view_of,
)
from infoevo.domains import OneMax, Sphere, make_problem
from infoevo.errors import GammaExceedsRay
from infoevo.evolve import EvolutionConfig, _eda_model, _sample_eda, vary
from infoevo.geodesic_search import GeodesicRay, sample_exact_ray, step_along
from infoevo.guidance import omega_knn
from infoevo.manifold import _EXP_CLIP

from conftest import make_scalar_ledger

# small integer genotypes, so that many samples tie in distance to a query
scalar_views = st.tuples(
    st.lists(st.integers(0, 15), min_size=1, max_size=14, unique=True),
    st.integers(-3, 18),  # the query point
    st.integers(1, 20),  # k: up to past n
    st.one_of(st.none(), st.integers(1, 14)),  # view cap
)


def scalar_view(values, cap):
    problem, ledger = make_scalar_ledger([float(v) for v in values])
    view = view_of(ledger, cap)
    return view, ResolvedMetric(problem, view, DistanceMetric.genotypic())


def brute_force_knn(view, x, k):
    """Positions sorted by (distance, id), cut at k."""
    order = sorted(
        range(len(view)),
        key=lambda i: (abs(view.samples[i].genotype - x), view.samples[i].id),
    )
    return order[:k]


@settings(max_examples=200, deadline=None)
@given(scalar_views)
def test_knn_matches_brute_force_sort(case):
    values, x, k, cap = case
    view, rm = scalar_view(values, cap)
    idx, dists = knn(float(x), rm, k)
    expected = brute_force_knn(view, x, k)
    assert list(idx) == expected
    assert len(idx) == min(k, len(view))
    assert list(dists) == [abs(view.samples[i].genotype - x) for i in expected]


@settings(max_examples=200, deadline=None)
@given(scalar_views, st.data())
def test_omega_knn_is_sequential_sum_over_neighbors(case, data):
    values, x, k, cap = case
    view, rm = scalar_view(values, cap)
    weights = data.draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=len(view),
            max_size=len(view),
        ).filter(lambda w: sum(w) > 0)
    )
    dist = manifold.from_weights(weights)
    expected = 0
    for i in brute_force_knn(view, x, k):
        expected += dist.p[i]
    assert omega_knn(float(x), dist, k, rm) == float(expected)


# distributions with some coordinates at the from_weights floor: the
# simplex boundary up to EPS_FLOOR
boundary_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=2, max_size=10
).filter(lambda w: sum(w) > 0)


@settings(max_examples=200, deadline=None)
@given(boundary_weights, st.data())
def test_exp_log_round_trip_near_boundary(wa, data):
    wb = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
            min_size=len(wa),
            max_size=len(wa),
        ).filter(lambda w: sum(w) > 0)
    )
    a, b = manifold.from_weights(wa), manifold.from_weights(wb)
    v = manifold.log_map(a, b)
    # exp_map refuses to advance along a zero tangent (b equal to a)
    assume(v.norm > 0)
    back = manifold.exp_map(a, v, 1.0)
    assert np.all(np.isfinite(back.phi))
    assert manifold.mass(back.phi) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(back.p, b.p, rtol=1e-6, atol=1e-12)
    assert manifold.geodesic_distance_exact(back, b) < 1e-6


@settings(max_examples=200, deadline=None)
@given(boundary_weights, st.data())
def test_exp_map_floors_a_coordinate_that_reaches_zero(w, data):
    base = manifold.from_weights(w)
    n = base.n
    f = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
            lambda f: manifold.project_tangent(base, f).norm > 1e-3
        )
    )
    v = manifold.project_tangent(base, f)
    # the angle at which coordinate i of the great circle through
    # q = 2 sqrt(p) crosses zero
    i = data.draw(st.integers(0, n - 1))
    q = 2.0 * base.sqrt_p
    u = base.sqrt_p * v.f
    u = u / np.linalg.norm(u)
    theta = float(np.arctan2(q[i], -2.0 * u[i]))
    out = manifold.exp_map(base, v, 2.0 * theta / v.norm)
    assert np.all(np.isfinite(out.phi))
    assert out.p.min() >= _EXP_CLIP * (1 - 1e-9)
    assert out.p[i] <= 2 * _EXP_CLIP
    assert manifold.mass(out.phi) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    boundary_weights,
    st.data(),
    st.floats(0.01, 1.0),  # the ray's arc length
    st.floats(1.0, 3.0),  # gamma as a multiple of that length
)
def test_step_along_a_ray_shorter_than_gamma(w, data, length, over):
    base = manifold.from_weights(w)
    n = base.n
    f = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
            lambda f: manifold.project_tangent(base, f).norm > 1e-3
        )
    )
    v = manifold.project_tangent(base, f)
    unit = manifold.TangentVector(v.f / v.norm, base)
    ray = GeodesicRay(base, unit, sample_exact_ray(base, unit, length))
    short = ray.polyline.length
    gamma = short * over + 2e-9
    with pytest.raises(GammaExceedsRay):
        step_along(ray, gamma)
    # the loop's rule: step to the ray's end instead
    end = step_along(ray, min(gamma, short))
    assert np.all(np.isfinite(end.phi))
    assert manifold.mass(end.phi) == pytest.approx(1.0, abs=1e-12)
    assert manifold.geodesic_distance_exact(base, end) <= short + 1e-6
    last = ray.polyline.points[-1]
    assert manifold.geodesic_distance_exact(end, last) < 1e-6


# weights across the whole double range, with exact zeros, so that sums
# overflow and the smallest weights' shares fall below a double's range
unfloored_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1e308, exclude_min=True)),
    min_size=1,
    max_size=12,
).filter(lambda w: max(w) > 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(unfloored_weights)
def test_from_weights_without_floor(w):
    dist = manifold.from_weights(w, eps_floor=0)
    w = np.asarray(w)
    assert np.all(dist.p[w == 0] == 0.0)
    assert manifold.mass(dist.phi) == pytest.approx(1.0, abs=1e-12)
    # positive weights keep their ratios wherever a double holds the share
    top = int(np.argmax(w))
    held = w > 1e-300 * w[top]
    ratios = dist.p[held] / dist.p[top]
    assert np.allclose(ratios, w[held] / w[top], rtol=1e-12, atol=0)
    other = manifold.from_weights(w[::-1], eps_floor=0)
    d = manifold.geodesic_distance_exact(dist, other)
    assert d == manifold.geodesic_distance_exact(other, dist)
    assert 0.0 <= d <= np.pi


# --- EDA sampling ---


def top_quartile(fitness):
    order = sorted(range(len(fitness)), key=lambda i: (-fitness[i], i))
    return order[: max(1, -(-len(fitness) // 4))]


def choice_per_locus(top_loci, alphabets, m, rng):
    """One ``rng.choice`` per locus from its Laplace-smoothed marginal."""
    eps = 1.0 / m
    values = []
    for locus, alphabet in enumerate(alphabets):
        observed = [loci[locus] for loci in top_loci]
        counts = np.array([observed.count(v) for v in alphabet], dtype=float)
        probs = counts / counts.sum()
        probs = np.maximum((1.0 - len(alphabet) * eps) * probs + eps, 0.0)
        probs = probs / probs.sum()
        values.append(alphabet[rng.choice(len(alphabet), p=probs)])
    return values


class Loci:
    """Genotypes that are their own loci, over one alphabet."""

    def __init__(self, alphabet):
        self.alphabet = alphabet

    def loci(self, genotype):
        return list(genotype)

    def locus_alphabet(self, locus):
        return self.alphabet

    def from_loci(self, values, rng):
        return [int(v) for v in values]


@st.composite
def eda_cases(draw):
    size = draw(st.integers(2, 8))
    values = st.lists(st.integers(-20, 20), min_size=size, max_size=size, unique=True)
    alphabet = tuple(draw(values))
    n_loci = draw(st.integers(1, 10))
    genotypes = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), min_size=n_loci, max_size=n_loci),
            min_size=1,
            max_size=12,
        )
    )
    n = len(genotypes)
    fitness = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    # subpop sizes below the alphabet size clamp some smoothed marginals to 0
    m = draw(st.integers(1, size + 4))
    return alphabet, genotypes, fitness, m


@settings(max_examples=300, deadline=None)
@given(eda_cases(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_eda_sampler_matches_choice_per_locus(case, draws, seed):
    alphabet, genotypes, fitness, m = case
    problem = Loci(alphabet)
    parents = [ScoredSample(i, g, 0.0, i) for i, g in enumerate(genotypes)]
    model = _eda_model(parents, fitness, problem, m)
    top = [genotypes[i] for i in top_quartile(fitness)]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        got = _sample_eda(model, problem, rng)
        assert got == choice_per_locus(top, [alphabet] * len(genotypes[0]), m, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([OneMax(bits=12), Sphere(dim=5)]),
    st.integers(4, 16),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_vary_all_eda_matches_choice_per_locus(problem, n_parents, subpop, seed):
    init = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n_parents)
    genotypes = [problem.random_genotype(init) for _ in range(n_parents)]
    parents = [evaluate(g, problem, ledger) for g in genotypes]
    fitness = [float(f) for f in init.integers(0, 3, size=len(parents))]
    config = EvolutionConfig(subpop_size=subpop, elitism=0, eda_fraction=1.0)
    rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    kids = vary(parents, fitness, config, problem, rng)
    top = [problem.loci(parents[i].genotype) for i in top_quartile(fitness)]
    alphabets = [problem.locus_alphabet(j) for j in range(len(top[0]))]
    for kid in kids:
        assert ref.random() < 1.0  # vary's EDA-or-tournament draw
        values = choice_per_locus(top, alphabets, subpop, ref)
        assert np.array_equal(kid, problem.from_loci(values, ref))
    assert rng.bit_generator.state == ref.bit_generator.state

# --- the run memo ---

# OneMax keeps the default behavior (its score); symreg, on its built-in
# dataset, has behavior vectors of its own
MEMO_PROBLEMS = {"onemax": OneMax(bits=10), "symreg": make_problem("symreg")}
metrics = st.one_of(
    st.just(DistanceMetric.genotypic()),
    st.just(DistanceMetric.phenotypic()),
    st.floats(0.0, 1.0).map(DistanceMetric.blended),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(MEMO_PROBLEMS)),
    metrics,
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_metric_rows_from_the_run_memo_match_rows_without_it(name, metric, n, seed, data):
    problem = MEMO_PROBLEMS[name]
    rng = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n)
    for _ in range(n):
        evaluate(problem.random_genotype(rng), problem, ledger)
    samples = ledger.samples
    end = data.draw(st.integers(1, len(samples)))
    start = data.draw(st.integers(0, end - 1))
    # two views that share samples[start:end], and genotypes outside both
    views = [PopulationView.of(samples[:end]), PopulationView.of(samples[start:])]
    outside = [problem.random_genotype(rng) for _ in range(3)]
    for view in views:
        shared = ResolvedMetric(problem, view, metric, ledger)
        alone = ResolvedMetric(problem, view, metric)
        for g in [s.genotype for s in view.samples] + outside:
            assert shared.to_all(g).tobytes() == alone.to_all(g).tobytes()
