"""Property tests: neighbor queries, the promise vector, manifold edge
cases, EDA sampling, the run memo, the lattice search and the tree
distance."""

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
    normalize_scores,
    view_of,
)
from infoevo.domains import OneMax, Sphere, SymbolicRegression, make_problem
from infoevo.domains.symreg import OPS, _depth_profile, tree_labels
from infoevo.errors import GammaExceedsRay
from infoevo.evolve import EvolutionConfig, _eda_model, _sample_eda, vary
from infoevo.geodesic_search import (
    GeodesicRay,
    build_chart,
    dijkstra_geodesic,
    sample_exact_ray,
    step_along,
)
from infoevo.guidance import omega_knn
from infoevo.manifold import _EXP_CLIP
from infoevo.promise import PromiseWeights, local_max_prob, promise_vector

from conftest import ScalarProblem, make_scalar_ledger

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


class TableScore(ScalarProblem):
    """Scalar genotypes scored from a table, so that any scores, ties
    included, can sit at any positions."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def score(self, genotype):
        return self.table[genotype]


@st.composite
def scored_views(draw):
    """A view of 2 to 12 samples; scores come from a few shared levels,
    so that many tie, or are drawn freely."""
    positions = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=12, unique=True))
    levels = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
    score = st.one_of(st.sampled_from(levels), st.floats(-1e3, 1e3))
    scores = draw(st.lists(score, min_size=len(positions), max_size=len(positions)))
    problem = TableScore(dict(zip(map(float, positions), scores)))
    ledger = EvaluationLedger(len(positions))
    for g in problem.table:
        evaluate(g, problem, ledger)
    view = view_of(ledger)
    return view, ResolvedMetric(problem, view, DistanceMetric.genotypic())


weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
promise_weights = st.builds(
    lambda w, k: PromiseWeights(*w, k_local=k),
    st.tuples(weight, weight).filter(lambda w: sum(w) > 0),  # (w_zeta, w_lm)
    st.integers(1, 6),
)


@settings(max_examples=200, deadline=None)
@given(scored_views(), promise_weights)
def test_best_sample_promise_is_the_weight_sum(case, weights):
    # the best sample's normalized score and local-max ratio are both 1
    view, rm = case
    pv = promise_vector(weights, rm)
    best = int(np.argmax(view.scores))
    assert pv[best] == weights.w_zeta + weights.w_lm
    assert pv.max() == pv[best] > 0


@settings(max_examples=200, deadline=None)
@given(scored_views())
def test_default_promise_is_the_three_term_blend(case):
    # the blend of normalized score (1), global-max ratio (0.5, which is
    # the normalized score again) and local-max ratio (0.5)
    view, rm = case
    norm = normalize_scores(view.scores, view)
    lm = np.array([local_max_prob(i, 5, rm, norm) for i in range(len(view))])
    blend = norm + 0.5 * norm + 0.5 * lm
    assert promise_vector(PromiseWeights(), rm).tobytes() == blend.tobytes()


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
    parents = [ScoredSample(i, g, 0.0) for i, g in enumerate(genotypes)]
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


# --- one lattice search for several goals ---


@st.composite
def chart_point(draw, dim: int, radius: float, spacing: float, start):
    """A point in the chart disc: anywhere, the start, or a lattice node."""
    kind = draw(st.sampled_from(("any", "start", "node")))
    if kind == "start":
        return np.array(start)
    if kind == "node":
        steps = int(radius / spacing)
        key = draw(st.lists(st.integers(-steps, steps), min_size=dim, max_size=dim))
        assume(np.linalg.norm(key) * spacing <= radius)
        return np.array(key, dtype=float) * spacing
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    return u / max(1.0, float(np.linalg.norm(u))) * radius


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),  # chart dimension
    st.integers(0, 3),  # extra distribution size past dim + 1
    st.integers(2, 6),  # lattice resolution
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_one_search_gives_each_goal_its_own_path(dim, extra, resolution, seed, data):
    rng = np.random.default_rng(seed)
    n = dim + 1 + extra
    base = manifold.from_weights(rng.uniform(0.1, 1.0, size=n))
    chart = build_chart(base, rng.uniform(0.0, 1.0, size=n), dim, rng, radius=0.6)
    spacing = chart.radius / resolution
    start = np.zeros(dim)
    if data.draw(st.booleans(), label="start away from the origin"):
        start = data.draw(chart_point(dim, chart.radius / 2, spacing, start))
    goals = data.draw(
        st.lists(chart_point(dim, chart.radius, spacing, start), min_size=1, max_size=4)
    )
    if data.draw(st.booleans(), label="duplicate a goal"):
        goals.append(goals[data.draw(st.integers(0, len(goals) - 1))].copy())
    together = dijkstra_geodesic(chart, start, goals, resolution)
    assert len(together) == len(goals)
    for goal, poly in zip(goals, together):
        (alone,) = dijkstra_geodesic(chart, start, [goal], resolution)
        assert poly.length == alone.length
        assert len(poly.points) == len(alone.points)
        for a, b in zip(poly.points, alone.points):
            assert np.array_equal(a.phi, b.phi)


# --- tree distance ---


def per_pair_tree_distance(problem, a, b) -> float:
    """The label-multiset and depth-profile distance, one pair at a time."""
    la, lb = tree_labels(a), tree_labels(b)
    ca: dict[str, int] = {}
    for lbl in la:
        ca[lbl] = ca.get(lbl, 0) + 1
    cb: dict[str, int] = {}
    for lbl in lb:
        cb[lbl] = cb.get(lbl, 0) + 1
    shared = sum(min(cnt, ca.get(lbl, 0)) for lbl, cnt in cb.items())
    label_term = 1.0 - shared / max(len(la), len(lb))
    pa = _depth_profile(a, problem.max_depth)
    pb = _depth_profile(b, problem.max_depth)
    depth_term = 0.5 * float(np.abs(pa - pb).sum())
    return 0.5 * (label_term + depth_term)


@st.composite
def trees(draw, depth: int):
    """Trees up to ``depth`` over two inputs, constants from anywhere."""
    if depth == 1 or draw(st.booleans()):
        if draw(st.booleans()):
            return ("x", draw(st.integers(0, 1)))
        return ("c", draw(st.floats(-1e6, 1e6)))
    op = draw(st.sampled_from(OPS))
    return (op, draw(trees(depth - 1)), draw(trees(depth - 1)))


def reference_row(problem, x, gs) -> bytes:
    return np.array([per_pair_tree_distance(problem, x, g) for g in gs], dtype=float).tobytes()


def assert_rows_match(problem, x, gs):
    got = problem.geno_distances(x, gs)
    assert got.dtype == float and got.shape == (len(gs),)
    per_pair = np.array([problem.d_geno(x, g) for g in gs], dtype=float)
    assert got.tobytes() == per_pair.tobytes() == reference_row(problem, x, gs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_tree_distance_rows_match_per_pair_distances(max_depth, data):
    problem = SymbolicRegression(probes=((0.0, 1.0),), outputs=(0.0,), max_depth=max_depth)
    x = data.draw(trees(max_depth))
    gs = data.draw(st.lists(trees(max_depth), max_size=8))
    assert_rows_match(problem, x, gs)
    # a label first seen after the rows above filled the cache: in the
    # query tree against rows stacked before it (the same list again),
    # and in a row
    late = ("+", ("c", 1e9), x) if max_depth > 1 else ("c", 1e9)
    assert problem.geno_distances(x, gs).tobytes() == reference_row(problem, x, gs)
    assert problem.geno_distances(late, gs).tobytes() == reference_row(problem, late, gs)
    assert_rows_match(problem, late, gs)
    assert_rows_match(problem, x, gs + [late])
    empty = problem.geno_distances(x, [])
    assert empty.dtype == float and empty.shape == (0,)
