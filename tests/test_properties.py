"""Property tests: neighbor queries, the promise vector, manifold edge
cases, EDA sampling, the run memo, the lattice search, refinement,
relaxation sweeps, row norms and exact rays in blocks, the genotype
distance blocks and their popcount and one-column kernels, program
outputs over the dataset's columns, the metric's blocks, the exact
per-candidate arithmetic, the block forms of the guidance layer and the
rankings by stable argsort."""

import heapq
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from infoevo import core, manifold
from infoevo.core import (
    EvaluationLedger,
    PopulationView,
    ResolvedMetric,
    ScoredSample,
    evaluate,
    fittest_first,
    knn,
    nearest,
    normalize_scores,
    view_of,
)
from infoevo.domains import (
    PROBLEMS,
    OneMax,
    Sphere,
    SymbolicRegression,
    Trap5,
    make_problem,
)
from infoevo.domains.bitstrings import BitstringProblem
from infoevo.domains.realvec import RealVectorProblem
from infoevo.domains.symreg import (
    DIV_GUARD,
    OPS,
    OVERFLOW_SCORE,
    _input_columns,
    eval_columns,
    eval_tree,
)
from infoevo.errors import GammaExceedsRay, NoPath, ZeroTangent
from infoevo.evolve import (
    EDA_MIN_PARENT_POOL,
    EvolutionConfig,
    RunState,
    _eda_model,
    _guided_fitness,
    _next_generation,
    _ranking,
    _sample_eda,
    _tournament,
    vary,
)
from infoevo.geodesic_search import (
    EXACT_RAYS_THRESHOLD,
    Chart,
    GeodesicPolyline,
    GeodesicRay,
    StepParams,
    _deduped_polyline,
    _downsample,
    _Lattice,
    _ray_coord_directions,
    _relax,
    build_chart,
    dijkstra_geodesic,
    geodesic_rays,
    lattice_predecessors,
    _exact_rays,
    refine_polyline,
    step_along,
)
from infoevo.guidance import (
    FilterPolicy,
    filter_estimates,
    h,
    ledger_modified_fitness,
    modified_fitness,
    omega_block,
)
from infoevo.manifold import _EXP_CLIP, LogDistribution, TangentVector
from infoevo.promise import (
    SCORE_WEIGHT,
    PromiseWeights,
    local_max_ratios,
    promise_vector,
)

from conftest import (
    OneOffspringBits,
    ScalarProblem,
    ascending_median,
    dot_hamming,
    estimate_fitness,
    fitness_order,
    key_sorted_next_generation,
    key_sorted_view,
    knn_one,
    local_max_prob,
    make_scalar_ledger,
    metric_row,
    omega_knn,
    one_offspring,
    one_pair_distance,
    one_pair_polyline,
    reference_nearest,
    reference_rows,
)

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
    return view, ResolvedMetric(problem, view, ledger, len(view))


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
    idx, dists = knn_one(float(x), rm, k)
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
    idx, _ = knn([float(x)], rm, k)
    assert omega_block(idx, dist, k)[0] == float(expected)


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


def table_view(positions, scores):
    """The view of scalar genotypes at ``positions`` with those scores,
    in that order, and its genotypic metric."""
    problem = TableScore(dict(zip(map(float, positions), scores)))
    ledger = EvaluationLedger(len(positions))
    for g in problem.table:
        evaluate(g, problem, ledger)
    view = view_of(ledger)
    return view, ResolvedMetric(problem, view, ledger, len(view))


@st.composite
def scored_views(draw):
    """A view of 2 to 12 samples; scores come from a few shared levels,
    so that many tie, or are drawn freely."""
    positions = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=12, unique=True))
    levels = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3))
    score = st.one_of(st.sampled_from(levels), st.floats(-1e3, 1e3))
    scores = draw(st.lists(score, min_size=len(positions), max_size=len(positions)))
    return table_view(positions, scores)


weight = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
promise_weights = st.builds(
    lambda w, k: PromiseWeights(w_lm=w, k_local=k), weight, st.integers(1, 6)
)


@settings(max_examples=200, deadline=None)
@given(scored_views(), promise_weights)
def test_best_sample_promise_is_the_weight_sum(case, weights):
    # the best sample's normalized score and local-max ratio are both 1,
    # and the score's weight is 1.5
    view, rm = case
    pv = promise_vector(weights, rm)
    best = int(np.argmax(view.scores))
    assert pv[best] == 1.5 + weights.w_lm
    assert pv.max() == pv[best] > 0


@settings(max_examples=200, deadline=None)
@given(scored_views())
# a subnormal normalized score, where 1.5 * norm and norm + 0.5 * norm
# differ in the last bit
@example(table_view(range(10), [166.0] * 8 + [2.225073858507203e-309, 0.0]))
def test_default_promise_is_the_three_term_blend(case):
    # the blend of normalized score (1), global-max ratio (0.5, which is
    # the normalized score again) and local-max ratio (0.5): the score
    # terms are one weight, SCORE_WEIGHT = 1.5
    view, rm = case
    weights = PromiseWeights()
    assert (SCORE_WEIGHT, weights.w_lm, weights.k_local) == (1.5, 0.5, 5)
    norm = normalize_scores(view.scores, view)
    lm = np.array([local_max_prob(i, 5, rm, norm) for i in range(len(view))])
    blend = 1.5 * norm + weights.w_lm * lm
    assert promise_vector(weights, rm).tobytes() == blend.tobytes()


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
    sqrt_p = np.exp(0.5 * base.phi)
    q = 2.0 * sqrt_p
    u = sqrt_p * v.f
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
    ray = GeodesicRay(base, _exact_rays(base, unit.f[np.newaxis], length)[0])
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
    return fitness_order(fitness)[: max(1, -(-len(fitness) // 4))]


def top_quartile_model(parents, fitness, problem, m):
    """The EDA model of the top-quartile parents' loci, fittest first."""
    top = [problem.loci(parents[i].genotype) for i in top_quartile(fitness)]
    return _eda_model(top, problem, m)


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
    model = top_quartile_model(parents, fitness, problem, m)
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
    alphabets = [problem.alphabet] * len(top[0])
    block = isinstance(problem, BitstringProblem)
    if block:
        # a bitstring generation reads its EDA mask block, then its locus
        # block, one double per locus, as one choice per locus reads it
        assert (ref.random(len(kids)) < 1.0).all()
    for kid in kids:
        if not block:
            assert ref.random() < 1.0  # vary's EDA-or-tournament draw
        values = choice_per_locus(top, alphabets, subpop, ref)
        assert np.array_equal(kid, one_offspring(problem).from_loci(values, ref))
    assert rng.bit_generator.state == ref.bit_generator.state

# --- variation's random stream ---


class ReferenceBits(OneOffspringBits):
    """A bitstring problem with its variation written out per offspring:
    a copy and a fancy-index XOR per mutation, an ``astype`` copy per
    crossover and one ``int`` per locus."""

    def mutate(self, genotype, rate, rng):
        flips = rng.random(self.problem.dimension) < rate
        out = np.asarray(genotype, dtype=np.uint8).copy()
        out[flips] ^= 1
        return out

    def crossover(self, a, b, rng):
        mask = rng.random(self.problem.dimension) < 0.5
        return np.where(mask, a, b).astype(np.uint8)

    def loci(self, genotype):
        return [int(v) for v in genotype]


def reference_tournament(parents, fitness, size, rng):
    idx = rng.integers(0, len(parents), size=size)
    best = max(idx, key=lambda i: (fitness[i], -i))
    return parents[best]


def reference_vary(parents, fitness, config, problem, rng):
    """``vary`` with fitness kept as given and numpy integer tournament
    indices, one random draw for one draw of ``vary``."""
    fitness = list(fitness)
    count = config.subpop_size - config.elitism
    model = None
    if config.eda_fraction > 0 and len(parents) >= EDA_MIN_PARENT_POOL:
        model = top_quartile_model(parents, fitness, problem, config.subpop_size)
    offspring = []
    for _ in range(count):
        if model is not None and rng.random() < config.eda_fraction:
            offspring.append(_sample_eda(model, problem, rng))
            continue
        a = reference_tournament(parents, fitness, config.tournament_size, rng)
        child = a.genotype
        if rng.random() < config.crossover_rate:
            b = reference_tournament(parents, fitness, config.tournament_size, rng)
            child = problem.crossover(a.genotype, b.genotype, rng)
        offspring.append(problem.mutate(child, config.mutation_rate, rng))
    return offspring


def same_offspring(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (
            isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    return type(a) is type(b) and a == b


VARY_PROBLEMS = {
    "onemax": lambda: OneMax(bits=12),
    "trap5": lambda: Trap5(bits=10),
    "sphere": lambda: Sphere(dim=4),
    "symreg": lambda: make_problem("symreg"),
}


class Drawn:
    """A stand-in generator whose ``random`` returns uniforms drawn ahead."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u


def reference_block_vary(parents, fitness, config, problem, rng):
    """A bitstring generation as ``vary`` draws it, in seven blocks: the
    EDA mask (only with an EDA model), the first tournaments, the
    crossover mask, the second tournaments, the crossover uniforms, the
    mutation uniforms and the EDA offspring's locus uniforms; then each
    offspring built on its own, in slot order. A tournament is won by its
    draw of least rank, ranks taken fittest first, ties to the earlier."""
    fitness = list(fitness)
    count = config.subpop_size - config.elitism
    n, size, dim = len(parents), config.tournament_size, problem.dimension
    order = fitness_order(fitness)
    rank = {i: r for r, i in enumerate(order)}
    model = None
    if config.eda_fraction > 0 and len(parents) >= EDA_MIN_PARENT_POOL:
        model = top_quartile_model(parents, fitness, problem, config.subpop_size)
    eda = [False] * count
    if model is not None:
        eda = [u < config.eda_fraction for u in rng.random(count)]
    slots = [i for i in range(count) if not eda[i]]

    def winners(draws):
        return [parents[order[min(rank[int(i)] for i in row)]] for row in draws]

    firsts = winners(rng.integers(0, n, size=(len(slots), size)))
    crossing = [u < config.crossover_rate for u in rng.random(len(slots))]
    seconds = iter(winners(rng.integers(0, n, size=(sum(crossing), size))))
    cross_u = iter(rng.random((sum(crossing), dim)))
    mutate_u = rng.random((len(slots), dim))
    offspring = [None] * count
    for j, slot in enumerate(slots):
        child = firsts[j].genotype
        if crossing[j]:
            child = problem.crossover(child, next(seconds).genotype, Drawn(next(cross_u)))
        offspring[slot] = problem.mutate(child, config.mutation_rate, Drawn(mutate_u[j]))
    locus_u = iter(rng.random((count - len(slots), dim)))
    for slot in range(count):
        if eda[slot]:
            offspring[slot] = _sample_eda(model, problem, Drawn(next(locus_u)))
    return offspring


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(VARY_PROBLEMS)),
    st.integers(1, 8),  # parents: few, so tournaments draw a parent twice
    st.integers(1, 5),  # tournament size
    st.integers(1, 3),  # fitness levels: few, so tournaments tie
    st.sampled_from([0.0, 0.2, 1.0]),  # EDA share
    st.sampled_from([0.0, 0.7, 1.0]),  # crossover rate
    st.sampled_from([0.2, 1.0]),  # mutation rate
    st.booleans(),  # a 32-bit half waiting in the generator before the call
    st.integers(0, 2**32 - 1),
)
@example("onemax", 1, 3, 1, 0.0, 0.7, 0.2, True, 0)  # one parent
def test_vary_keeps_the_random_stream(
    name, n_parents, size, levels, eda, crossover, mutation, waiting, seed
):
    problem = VARY_PROBLEMS[name]()
    block = isinstance(problem, BitstringProblem)
    reference = ReferenceBits(problem) if block else problem
    reference_draws = reference_block_vary if block else reference_vary
    init = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n_parents)
    while ledger.eval_count < n_parents:
        evaluate(problem.random_genotype(init), problem, ledger)
    parents = list(ledger.samples)
    fitness = init.integers(0, levels, size=n_parents).astype(float)  # numpy doubles
    config = EvolutionConfig(
        subpop_size=12,
        elitism=1,
        eda_fraction=eda,
        tournament_size=size,
        crossover_rate=crossover,
        mutation_rate=mutation,
    )
    rng, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    if waiting:
        for g in (rng, ref):
            g.integers(0, 3, size=1)  # leaves the word's upper half waiting
    for _ in range(3):
        got = vary(parents, fitness, config, problem, rng)
        expected = reference_draws(parents, fitness, config, reference, ref)
        assert len(got) == len(expected)
        assert all(same_offspring(a, b) for a, b in zip(got, expected))
        assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


class CountingOneMax(OneMax):
    """OneMax whose row operators count what they are given: the parents
    a crossover reads, by their rank, the crossovers, the mutated
    offspring and their flipped bits, and the EDA offspring. Both of
    ``vary``'s paths reach these operators, the loop through the
    one-offspring operators ``one_offspring`` rebuilds from them."""

    def __init__(self, bits, genotypes, rank):
        super().__init__(bits)
        self.parent_of = {bytes(g): i for i, g in enumerate(genotypes)}
        self.rank = rank
        self.winners = np.zeros(len(genotypes), dtype=int)
        self.crossed = self.mutated = self.flips = self.eda = 0

    def crossover_rows(self, a, b, u):
        for row in (*np.atleast_2d(a), *np.atleast_2d(b)):
            self.winners[self.rank[self.parent_of[row.tobytes()]]] += 1
        self.crossed += len(np.atleast_2d(a))
        return super().crossover_rows(a, b, u)

    def mutate_rows(self, rows, rate, u):
        self.mutated += len(np.atleast_2d(rows))
        self.flips += int((u < rate).sum())
        return super().mutate_rows(rows, rate, u)

    def from_loci_rows(self, values):
        self.eda += len(np.atleast_2d(values))
        return super().from_loci_rows(values)


def within_3_standard_errors(hits_a, n_a, hits_b, n_b) -> bool:
    """Whether two observed shares differ by at most 3 standard errors
    of their difference."""
    pa, pb = hits_a / n_a, hits_b / n_b
    se = math.sqrt(pa * (1 - pa) / n_a + pb * (1 - pb) / n_b)
    return abs(pa - pb) <= 3 * se


def test_vary_block_draws_give_the_loops_distribution():
    """A bitstring generation drawn in blocks and the offspring-by-offspring
    loop are the same random process: over 2,000 generations of OneMax-8
    from five parents on tied fitness levels, the winners' ranks, the
    crossover and EDA shares and the per-bit flip rate agree within 3
    standard errors."""
    bits = 8
    genotypes = [np.unpackbits(np.array([v], dtype=np.uint8)) for v in (3, 90, 17, 200, 64)]
    fitness = [1.0, 2.0, 0.0, 2.0, 1.0]  # not in rank order: order is [1, 3, 0, 4, 2]
    order = fitness_order(fitness)
    rank = {i: r for r, i in enumerate(order)}
    config = EvolutionConfig()
    counts = []
    for draw, seed in ((vary, 11), (reference_vary, 12)):
        problem = CountingOneMax(bits, genotypes, rank)
        ledger = EvaluationLedger(budget=len(genotypes))
        parents = [evaluate(g, problem, ledger) for g in genotypes]
        rng = np.random.default_rng(seed)
        varied = problem if draw is vary else one_offspring(problem)
        for _ in range(2000):
            draw(parents, fitness, config, varied, rng)
        counts.append(problem)
    block, loop = counts
    offspring = 2000 * (config.subpop_size - config.elitism)
    assert block.winners.sum() > 50_000
    for r in range(len(genotypes)):
        assert within_3_standard_errors(
            block.winners[r], block.winners.sum(), loop.winners[r], loop.winners.sum()
        )
    assert within_3_standard_errors(block.crossed, block.mutated, loop.crossed, loop.mutated)
    assert within_3_standard_errors(block.eda, offspring, loop.eda, offspring)
    assert within_3_standard_errors(
        block.flips, block.mutated * bits, loop.flips, loop.mutated * bits
    )


# --- the run memo ---

# OneMax-10 ties often; symreg, on its built-in dataset, stacks trees
MEMO_PROBLEMS = {"onemax": OneMax(bits=10), "symreg": make_problem("symreg")}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(MEMO_PROBLEMS)),
    st.integers(2, 12),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_metric_rows_from_the_run_memo_match_rows_without_it(name, n, seed, data):
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
        rm = ResolvedMetric(problem, view, ledger, len(view))
        queries = [s.genotype for s in view.samples] + outside
        # the rows built straight from the problem, without the memo
        for x, row in zip(queries, reference_rows(problem, view, queries)):
            for a, b in zip(metric_row(rm, x), reference_nearest(row, rm.width)):
                assert a.tobytes() == b.tobytes()


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


# --- the lattice in blocks against one node and one edge at a time ---


def one_vector_exp_map(base, f, t=1.0):
    """exp_map written out for one tangent vector alone, the reference its
    row form must match bit for bit; the sphere norm is np.linalg.norm's,
    a dot product."""
    speed = float(np.sqrt(float(np.sum(f * f * base.p))))
    sqrt_p = np.exp(0.5 * base.phi)
    q = 2.0 * sqrt_p
    w = sqrt_p * f
    w_norm = float(np.linalg.norm(w))
    theta = t * speed / 2.0
    q_new = np.cos(theta) * q + 2.0 * np.sin(theta) * (w / w_norm)
    p_new = np.maximum((q_new / 2.0) ** 2, _EXP_CLIP)
    return LogDistribution(np.log(p_new / p_new.sum()))


def one_node_point(chart, coords):
    """chart.point one node at a time, with the one-vector arithmetic."""
    if float(np.linalg.norm(coords)) == 0.0:
        return chart.base
    f = np.zeros(chart.base.n)
    for c, u in zip(coords, chart.directions):
        f = f + c * u.f
    return one_vector_exp_map(chart.base, f)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 70),
    st.floats(0.01, 3.0),
    st.booleans(),  # some masses exactly zero (eps_floor=0)
    st.integers(0, 2**32 - 1),
)
def test_row_forms_keep_the_one_vector_arithmetic(n, t, zeros, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=n)
    if zeros:
        weights[rng.integers(0, n, size=n // 3)] = 0.0
    assume(weights.sum() > 0)
    base = manifold.from_weights(weights, eps_floor=0.0 if zeros else 1e-9)
    other = manifold.from_weights(rng.uniform(0.0, 1.0, size=n))
    v = manifold.project_tangent(base, rng.standard_normal(n))
    assume(v.norm > 0)
    got = manifold.exp_map(base, v, t)
    assert got.phi.tobytes() == one_vector_exp_map(base, v.f, t).phi.tobytes()
    assert manifold.geodesic_distance_exact(base, other) == one_pair_distance(base, other)
    assert manifold.geodesic_distance_exact(got, other) == one_pair_distance(got, other)


def reference_lattice_paths(chart, start_coords, goals, resolution):
    """The lattice search one node and one edge at a time: nodes are
    tuple keys tested in bounds in floating point, and each node's point
    and each edge's length is computed on its own with the one-vector
    arithmetic."""
    spacing = chart.radius / resolution
    limit = chart.radius + 0.5 * spacing
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=chart.dim) if any(o)]
    points = {}

    def coords(key):
        return np.array(key, dtype=float) * spacing

    def in_bounds(key):
        return float(np.linalg.norm(coords(key))) <= limit

    def cell_corners(c):
        lo = np.floor(c / spacing).astype(int)
        cell = itertools.product((0, 1), repeat=chart.dim)
        keys = (tuple(int(a + b) for a, b in zip(lo, o)) for o in cell)
        return sorted(k for k in keys if in_bounds(k))

    start_coords = np.asarray(start_coords, dtype=float)
    goals = [np.asarray(g, dtype=float) for g in goals]
    start_pt = one_node_point(chart, start_coords)
    paths = [None] * len(goals)
    START = ("S",)
    sink_points, sinks_entered = {}, {}
    for i, goal in enumerate(goals):
        if np.allclose(start_coords, goal):
            paths[i] = GeodesicPolyline((start_pt,), 0.0, ())
            continue
        sink_points[("G", i)] = one_node_point(chart, goal)
        for corner in cell_corners(goal):
            sinks_entered.setdefault(corner, []).append(("G", i))

    def node_point(key):
        if key == START:
            return start_pt
        if key in sink_points:
            return sink_points[key]
        if key not in points:
            points[key] = one_node_point(chart, coords(key))
        return points[key]

    def expand(key):
        if key == START:
            return cell_corners(start_coords)
        nbrs = [tuple(a + b for a, b in zip(key, o)) for o in offsets]
        return [k for k in nbrs if in_bounds(k)] + sinks_entered.get(key, [])

    dist, prev, done = {START: 0.0}, {}, set()
    counter = itertools.count()
    heap = [(0.0, next(counter), START)]
    unsettled = len(sink_points)
    while heap and unsettled:
        d, _, key = heapq.heappop(heap)
        if key in done:
            continue
        done.add(key)
        if key in sink_points:
            unsettled -= 1
            continue
        for nk in expand(key):
            if nk in done:
                continue
            nd = d + one_pair_distance(node_point(key), node_point(nk))
            if nd < dist.get(nk, np.inf):
                dist[nk] = nd
                prev[nk] = key
                heapq.heappush(heap, (nd, next(counter), nk))
    for sink in sink_points:
        keys = [sink]
        while keys[-1] != START:
            keys.append(prev[keys[-1]])
        deduped = []
        for pt in (node_point(k) for k in reversed(keys)):
            if not deduped or one_pair_distance(deduped[-1], pt) > 1e-14:
                deduped.append(pt)
        paths[sink[1]] = one_pair_polyline(deduped)
    return paths


# chart dimension, distribution size past dim + 1, resolution, radius, seed
lattice_charts = st.tuples(
    st.integers(1, 3),
    st.integers(0, 66),
    st.integers(1, 8),
    st.floats(0.05, 1.5),
    st.integers(0, 2**32 - 1),
)


def lattice_chart(dim, extra, radius, seed):
    rng = np.random.default_rng(seed)
    n = dim + 1 + extra
    base = manifold.from_weights(rng.uniform(0.05, 1.0, size=n))
    return build_chart(base, rng.uniform(0.0, 1.0, size=n), dim, rng, radius=radius)


@settings(max_examples=40, deadline=None)
@given(lattice_charts)
def test_lattice_nodes_are_the_float_in_bounds_keys(drawn):
    dim, _, resolution, radius, seed = drawn
    lattice = _Lattice(lattice_chart(dim, 0, radius, seed), resolution)
    spacing = radius / resolution
    span = range(-resolution - 1, resolution + 2)
    inside = {
        key
        for key in itertools.product(span, repeat=dim)
        if float(np.linalg.norm(np.array(key, dtype=float) * spacing))
        <= radius + 0.5 * spacing
    }
    keys = [tuple(k) for k in lattice.keys.tolist()]
    assert len(set(keys)) == len(keys)
    assert set(keys) == inside
    assert keys[lattice.origin] == (0,) * dim


@settings(max_examples=25, deadline=None)
@given(lattice_charts)
def test_lattice_node_rows_are_chart_points(drawn):
    dim, extra, resolution, radius, seed = drawn
    chart = lattice_chart(dim, extra, radius, seed)
    lattice = _Lattice(chart, resolution)
    for key, phi in zip(lattice.keys, lattice.phi):
        point = one_node_point(chart, key * lattice.spacing)
        assert phi.tobytes() == point.phi.tobytes()
    assert lattice.point(lattice.origin) is chart.base


@settings(max_examples=25, deadline=None)
@given(lattice_charts)
def test_lattice_edge_lengths_are_pairwise_distances(drawn):
    dim, extra, resolution, radius, seed = drawn
    chart = lattice_chart(dim, extra, radius, seed)
    lattice = _Lattice(chart, resolution)
    index = {tuple(k): i for i, k in enumerate(lattice.keys.tolist())}
    points = [one_node_point(chart, k * lattice.spacing) for k in lattice.keys]
    for i, key in enumerate(lattice.keys.tolist()):
        for j, offset in enumerate(lattice.offsets):
            other = index.get(tuple(a + b for a, b in zip(key, offset)), -1)
            assert lattice.neighbors[i, j] == other
            if other >= 0:
                exact = one_pair_distance(points[i], points[other])
                assert lattice.lengths[i, j] == exact


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 8),
    st.floats(0.05, 1.5),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    # on the rim, up to the slack dijkstra_geodesic allows, or inside
    st.one_of(st.sampled_from((1 + 1e-9, 1.0)), st.floats(0.0, 1.0)),
)
def test_cell_corner_nearest_zero_is_a_node(dim, resolution, radius, u, scale):
    u = np.array(u[:dim])
    norm = float(np.linalg.norm(u))
    assume(norm > 0)
    point = u / norm * radius * scale
    assume(float(np.linalg.norm(point)) <= radius * (1 + 1e-9))
    lattice = _Lattice(lattice_chart(dim, 0, radius, 0), resolution)
    spacing = radius / resolution
    lo = np.floor(point / spacing).astype(int)
    corners = [tuple(lattice.keys[i].tolist()) for i in lattice.cell_corners(point)]
    nearest_zero = tuple(int(k) if k >= 0 else int(k) + 1 for k in lo)
    assert nearest_zero in corners
    offsets = itertools.product((0, 1), repeat=dim)
    cell = (tuple(int(k) for k in lo + o) for o in offsets)
    limit = radius + 0.5 * spacing
    assert corners == sorted(
        key
        for key in cell
        if float(np.linalg.norm(np.array(key, dtype=float) * spacing)) <= limit
    )


def same_polylines(got, expected):
    assert np.float64(got.length).tobytes() == np.float64(expected.length).tobytes()
    assert len(got.points) == len(expected.points)
    for a, b in zip(got.points, expected.points):
        assert a.phi.tobytes() == b.phi.tobytes()


@settings(max_examples=30, deadline=None)
@given(lattice_charts, st.data())
def test_lattice_paths_equal_the_per_edge_reference(drawn, data):
    dim, extra, resolution, radius, seed = drawn
    chart = lattice_chart(dim, extra, radius, seed)
    spacing = radius / resolution
    start = np.zeros(dim)
    if data.draw(st.booleans(), label="start away from the origin"):
        start = data.draw(chart_point(dim, radius / 2, spacing, start))
    goals = data.draw(
        st.lists(chart_point(dim, radius, spacing, start), min_size=1, max_size=4)
    )
    blocks = dijkstra_geodesic(chart, start, goals, resolution)
    reference = reference_lattice_paths(chart, start, goals, resolution)
    for poly, ref in zip(blocks, reference):
        same_polylines(poly, ref)


# --- the lattice relaxation against a heap search, where ties are everywhere ---


def heap_predecessors(neighbors, lengths, start_edges, sink_edges):
    """Dijkstra with a (distance, push counter) heap over the graph that
    ``lattice_predecessors`` takes, stopping once every sink is settled."""
    count = len(neighbors)
    start = count
    entered = {}  # lattice node -> (sink, length), in sink order
    for s, sink in enumerate(sink_edges):
        for node, length in sink:
            entered.setdefault(node, []).append((count + 1 + s, length))
    dist = [np.inf] * (count + 1 + len(sink_edges))
    prev = [-1] * len(dist)
    done = [False] * len(dist)
    dist[start] = 0.0
    counter = itertools.count()
    heap = [(0.0, next(counter), start)]
    unsettled = len(sink_edges)
    while heap and unsettled:
        d, _, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        if node > start:
            unsettled -= 1
            continue
        if node == start:
            steps = start_edges
        else:
            steps = [
                (v, w)
                for v, w in zip(neighbors[node].tolist(), lengths[node].tolist())
                if v >= 0
            ] + entered.get(node, [])
        for v, w in steps:
            if not done[v] and d + w < dist[v]:
                dist[v] = d + w
                prev[v] = node
                heapq.heappush(heap, (d + w, next(counter), v))
    if unsettled:
        raise NoPath("no route")
    return prev


def sink_paths(prev, count, sinks):
    """Each sink's path back towards the start, cut off once it is longer
    than a path that visits no node twice."""
    paths = []
    for sink in range(count + 1, count + 1 + sinks):
        path = [sink]
        while path[-1] != count and len(path) <= len(prev):
            path.append(prev[path[-1]])
        paths.append(path)
    return paths


@st.composite
def tied_lattice_graphs(draw):
    """A box of a 1-, 2- or 3-d lattice with some nodes cut off, edge
    lengths drawn from {1, 2, 3} (and, if drawn, 0, which exercises edges
    that leave a distance as it is), start and sink edges of length 0 to
    3, duplicate sinks and a sink entered only from cut-off nodes."""
    dim = draw(st.integers(1, 3))
    side = draw(st.integers(2, (9, 5, 3)[dim - 1]))
    keys = list(itertools.product(range(side), repeat=dim))
    index = {k: i for i, k in enumerate(keys)}
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=dim) if any(o)]
    width = len(offsets)
    cut = set(draw(st.lists(st.sampled_from(range(len(keys))), max_size=len(keys) // 3)))
    pairs = [
        (i, j, index[other])
        for i, key in enumerate(keys)
        for j in range(width // 2)
        if (other := tuple(a + b for a, b in zip(key, offsets[j]))) in index
        and i not in cut
        and index[other] not in cut
    ]
    lattice_lengths = (0.0, 1.0, 2.0, 3.0) if draw(st.booleans()) else (1.0, 2.0, 3.0)
    drawn = draw(
        st.lists(st.sampled_from(lattice_lengths), min_size=len(pairs), max_size=len(pairs))
    )
    neighbors = np.full((len(keys), width), -1)
    lengths = np.full((len(keys), width), np.inf)
    for (i, j, other), length in zip(pairs, drawn):
        neighbors[i, j], lengths[i, j] = other, length
        neighbors[other, width - 1 - j], lengths[other, width - 1 - j] = i, length

    def edges(nodes, min_size):
        nodes = draw(st.lists(nodes, min_size=min_size, max_size=4, unique=True))
        return [(node, draw(st.sampled_from((0.0, 1.0, 2.0, 3.0)))) for node in nodes]

    nodes = st.sampled_from(range(len(keys)))
    start_edges = edges(nodes, 1)
    sink_edges = [edges(nodes, 1) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans(), label="duplicate a sink"):
        sink_edges.append(list(draw(st.sampled_from(sink_edges))))
    unreachable = sorted(cut - {node for node, _ in start_edges})
    if unreachable and draw(st.booleans(), label="a sink with no reachable entry"):
        sink_edges.insert(
            draw(st.integers(0, len(sink_edges))), edges(st.sampled_from(unreachable), 1)
        )
    return neighbors, lengths, start_edges, sink_edges


def path_length(graph, path):
    """The length of a path of ``lattice_predecessors``' nodes, summed
    from its first node; each step must be an edge of the graph."""
    neighbors, lengths, start_edges, sink_edges = graph
    count = len(neighbors)
    total = 0.0
    for u, v in zip(path, path[1:]):
        if u == count:
            out = dict(start_edges)
        else:
            out = dict(zip(neighbors[u].tolist(), lengths[u].tolist()))
            out.pop(-1, None)
            for s, sink in enumerate(sink_edges):
                out.update((count + 1 + s, length) for node, length in sink if node == u)
        assert v in out
        total += out[v]
    return total


@settings(max_examples=400, deadline=None)
@given(tied_lattice_graphs())
def test_relaxation_finds_shortest_paths(graph):
    neighbors, lengths, start_edges, sink_edges = graph
    try:
        expected = heap_predecessors(*graph)
    except NoPath:
        with pytest.raises(NoPath):
            lattice_predecessors(*graph)
        return
    got = lattice_predecessors(*graph)
    count, sinks = len(neighbors), len(sink_edges)
    heap_paths = sink_paths(expected, count, sinks)
    for path, heap_path in zip(sink_paths(got, count, sinks), heap_paths):
        assert path[-1] == count  # the start is reached, so the path has no cycle
        # sums of nonnegative lengths from 0.0: equal floats have equal bits
        assert path_length(graph, path[::-1]) == path_length(graph, heap_path[::-1])


@pytest.mark.parametrize(
    "dim, extra, radius, seed, resolution, goal",
    [
        (1, 0, 0.5, 1, 1, [-0.5]),
        # a lattice round's first ray: radius 2 * gamma, goal on +e1
        (2, 40, 0.5, 7, 32, [0.5, 0.0]),
        # -0.43 is an ulp off the node at key -5, and at geodesic distance 0
        (1, 0, 0.43, 13, 5, [-0.43]),
    ],
)
def test_goal_on_a_lattice_node_is_entered_from_the_nearest_entry(
    dim, extra, radius, seed, resolution, goal
):
    # the goal's node is the first of its cell corners and enters it at
    # length 0; where the corner the node is reached from enters it on a
    # shortest edge too, the search enters from that nearer corner, as a
    # heap search does
    chart = lattice_chart(dim, extra, radius, seed)
    start = np.zeros(dim)
    (got,) = dijkstra_geodesic(chart, start, [goal], resolution)
    (expected,) = reference_lattice_paths(chart, start, [goal], resolution)
    same_polylines(got, expected)


def test_zero_length_lattice_edges_give_shortest_paths():
    # exp_map returns to the base after arc length 2 pi, so at resolution
    # 2 every lattice node is the base and every edge has length 0
    base = manifold.from_weights([1.0, 2.0, 3.0])
    u = manifold.project_tangent(base, np.array([1.0, -0.5, 0.2]))
    chart = Chart(base, (TangentVector(u.f / u.norm, base),), 4 * np.pi)
    goals = [[4 * np.pi], [-2 * np.pi], [np.pi]]
    for resolution in (2, 4, 8):
        lattice = _Lattice(chart, resolution)
        if resolution == 2:
            assert np.all(lattice.lengths[lattice.neighbors >= 0] == 0.0)

        def edges(coords):
            corners = lattice.cell_corners(np.array(coords))
            point = chart.point(coords)
            rows = manifold.geodesic_distance_rows(lattice.phi[corners], point.phi)
            return list(zip(corners, rows.tolist()))

        prev = lattice_predecessors(
            lattice.neighbors, lattice.lengths, edges([0.0]), [edges(g) for g in goals]
        )
        count = len(lattice.keys)
        for path in sink_paths(prev, count, len(goals)):
            assert path[-1] == count  # a cycle would never end the path walk
        paths = dijkstra_geodesic(chart, [0.0], goals, resolution)
        reference = reference_lattice_paths(chart, [0.0], goals, resolution)
        assert [p.length for p in paths] == [p.length for p in reference]
        assert all(isinstance(p.length, float) for p in paths)
        if resolution == 2:
            assert [p.length for p in paths][:2] == [0.0, 0.0]


def one_pair_dedupe(points):
    """A lattice path's polyline as first assembled: each point compared
    with the last one kept, one pair at a time, then every kept segment
    measured again, one pair at a time."""
    deduped = [points[0]]
    for pt in points[1:]:
        if one_pair_distance(deduped[-1], pt) > 1e-14:
            deduped.append(pt)
    return one_pair_polyline(deduped)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 6),  # distribution size
    st.lists(st.sampled_from(("new", "same", "nudged")), min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
)
def test_deduped_polyline_matches_one_pair_dedupe(n, kinds, seed):
    # "same" repeats the last point; "nudged" moves it by a few ulps, which
    # can leave it at distance zero from the last point but not from the
    # next, so a point after a dropped one must be measured again
    rng = np.random.default_rng(seed)
    points = [manifold.from_weights(rng.uniform(0.05, 1.0, size=n))]
    for kind in kinds:
        phi = points[-1].phi
        if kind == "new":
            points.append(manifold.from_weights(rng.uniform(0.05, 1.0, size=n)))
        elif kind == "same":
            points.append(LogDistribution(phi))
        else:
            nudged = phi.copy()
            for _ in range(int(rng.integers(1, 4))):
                nudged = np.nextafter(nudged, rng.choice([-np.inf, np.inf], size=n))
            points.append(LogDistribution(nudged))
    got, expected = _deduped_polyline(points), one_pair_dedupe(points)
    assert np.float64(got.length).tobytes() == np.float64(expected.length).tobytes()
    assert len(got.points) == len(expected.points)
    assert all(a is b for a, b in zip(got.points, expected.points))


# --- refinement and exact rays in blocks, against one pair at a time ---


def one_pair_log(a, b):
    """log_map written out for one pair; None where it gives the zero
    tangent."""
    d = one_pair_distance(a, b)
    if d == 0.0:
        return None
    sqrt_pa = np.exp(0.5 * a.phi)
    w = 2.0 * np.exp(0.5 * b.phi) - np.cos(d / 2.0) * (2.0 * sqrt_pa)
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        return None
    return d * (w / w_norm) / sqrt_pa


def one_pair_point(a, b, frac):
    """geodesic_point written out for one pair: log_map, then exp_map,
    and a itself where log_map gives the zero tangent or exp_map cannot
    advance along it."""
    f = one_pair_log(a, b)
    if f is None or float(np.sqrt(float(np.sum(f * f * a.p)))) == 0.0:
        return a
    return one_vector_exp_map(a, f, frac)


def one_polyline_refinement(poly, levels):
    """refine_polyline for one polyline, one midpoint at a time: 5 coarse
    points, 3 relaxation sweeps."""
    if len(poly.points) < 2 or levels == 0:
        return poly
    pts = _downsample(list(poly.points), 5)

    def relax():
        for _ in range(3):
            for i in range(1, len(pts) - 1):
                pts[i] = one_pair_point(pts[i - 1], pts[i + 1], 0.5)

    for _ in range(levels):
        relax()
        subdivided = [pts[0]]
        for a, b in zip(pts, pts[1:]):
            subdivided += [one_pair_point(a, b, 0.5), b]
        pts[:] = subdivided
    relax()
    refined = one_pair_polyline(pts)
    if refined.length > poly.length + 1e-12:
        return poly
    return refined


@st.composite
def chart_polylines(draw, chart):
    """A polyline of chart points: 1, 2, 3-4 or 5 or more of them, some
    repeating the point before, and a length that is its own or one that
    any refinement would exceed."""
    count = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 9, 12)))
    points = []
    for _ in range(count):
        if points and draw(st.integers(0, 3)) == 0:
            points.append(points[-1])  # coincident consecutive points
            continue
        u = draw(st.lists(st.floats(-1.0, 1.0), min_size=chart.dim, max_size=chart.dim))
        u = np.array(u)
        points.append(chart.point(u / max(1.0, float(np.linalg.norm(u))) * chart.radius))
    poly = one_pair_polyline(points)
    if draw(st.booleans()):
        return poly
    return GeodesicPolyline(poly.points, 0.0, poly.segments)


@settings(max_examples=40, deadline=None)
@given(lattice_charts, st.integers(0, 3), st.data())
def test_block_refinement_equals_one_polyline_at_a_time(drawn, levels, data):
    dim, extra, resolution, radius, seed = drawn
    chart = lattice_chart(dim, extra, radius, seed)
    polys = data.draw(st.lists(chart_polylines(chart), min_size=1, max_size=5))
    goals = data.draw(
        st.lists(chart_point(dim, radius, radius / resolution, np.zeros(dim)), max_size=3)
    )
    polys += dijkstra_geodesic(chart, np.zeros(dim), goals, resolution)
    refined = refine_polyline(polys, levels)
    assert len(refined) == len(polys)
    for poly, got in zip(polys, refined):
        ref = one_polyline_refinement(poly, levels)
        if ref is poly:
            assert got is poly
            continue
        assert got.points[0] is poly.points[0]
        assert got.points[-1] is poly.points[-1]
        assert got.length == ref.length
        assert len(got.points) == len(ref.points)
        for a, b in zip(got.points, ref.points):
            assert a.phi.tobytes() == b.phi.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 70),
    st.integers(1, 6),  # rows in the block
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_row_midpoints_equal_the_one_pair_form(n, rows, frac, seed, data):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(rows):
        a = manifold.from_weights(rng.uniform(0.0, 1.0, size=n))
        kind = data.draw(st.sampled_from(("apart", "near", "same")))
        if kind == "same":
            b = a
        else:
            b = manifold.from_weights(rng.uniform(0.0, 1.0, size=n))
            if kind == "near":
                b = one_vector_exp_map(a, one_pair_log(a, b), 1e-6)
        pairs.append((a, b))
    block = manifold.geodesic_point_rows(
        np.array([a.phi for a, _ in pairs]), np.array([b.phi for _, b in pairs]), frac
    )
    for (a, b), row in zip(pairs, block):
        assert row.tobytes() == one_pair_point(a, b, frac).phi.tobytes()


# one pair for each way the one-pair form gives up: the distance rounds
# to 0; the distance does not, but the sphere direction is 0; and the
# tangent is not 0 but its speed is, each of its nonzero coordinates at
# a mass that underflows
DEGENERATE_PAIRS = {
    "distance": (manifold.from_weights([0.0, 1e-5]).phi,) * 2,
    "direction": ([0.0, -800.0], [-(2.0**-50), -800.0]),
    "speed": ([0.0, -745.2, -745.2, -745.2], [-(2.0**-52), -744.0, -744.0, -744.0]),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_PAIRS))
def test_degenerate_row_midpoint_is_a(case):
    phi_a, phi_b = (np.array(phi, dtype=float) for phi in DEGENERATE_PAIRS[case])
    a, b = LogDistribution(phi_a), LogDistribution(phi_b)
    assert (one_pair_distance(a, b) == 0.0) == (case == "distance")
    assert (one_pair_log(a, b) is None) == (case != "speed")
    if case == "speed":
        with pytest.raises(ZeroTangent):
            manifold.exp_map(a, manifold.log_map(a, b), 0.5)
    assert one_pair_point(a, b, 0.5) is a
    assert manifold.geodesic_point(a, b, 0.5) is a
    # beside a row that moves, in one block
    other = manifold.from_weights(np.arange(1.0, a.n + 1.0))
    block = manifold.geodesic_point_rows(
        np.array([a.phi, other.phi]), np.array([b.phi, a.phi]), 0.5
    )
    assert block[0].tobytes() == a.phi.tobytes()
    assert block[1].tobytes() == one_pair_point(other, a, 0.5).phi.tobytes()


def sequential_relax(phi, passes):
    """The relaxation sweeps one interior point at a time, in order."""
    for _ in range(passes):
        for i in range(1, phi.shape[1] - 1):
            phi[:, i] = manifold.geodesic_point_rows(phi[:, i - 1], phi[:, i + 1], 0.5)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),  # polylines
    st.integers(2, 40),  # points
    st.integers(0, 4),  # passes
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
def test_wavefront_relaxation_equals_the_sequential_sweeps(polylines, points, passes, n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 1.0, size=(polylines, points, n))
    phi = np.log(w / w.sum(axis=-1, keepdims=True))
    for i in np.flatnonzero(rng.random(points) < 0.2)[1:]:
        phi[:, i] = phi[:, i - 1]  # coincident points: degenerate midpoints
    expected = phi.copy()
    sequential_relax(expected, passes)
    _relax(phi, passes)
    assert phi.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 300),
    st.sampled_from(("rows", "block", "fancy", "strided", "columns")),
    st.integers(0, 2**32 - 1),
)
def test_row_norms_are_each_rows_own_dot(width, layout, seed):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((3, 7, 2 * width))
    phi[rng.random((3, 7)) < 0.2] = 0.0  # zero rows
    w = {
        "rows": phi[..., :width].reshape(-1, width),
        "block": phi[..., :width],
        "fancy": phi[:, [4, 0, 2], :width],
        "strided": phi[:, ::2, :width],
        "columns": phi[..., ::2],  # each row strided in memory
    }[layout]
    # a row's dot product of its values laid out as one contiguous vector
    rows = [np.array(w[i]) for i in np.ndindex(w.shape[:-1])]
    expected = np.sqrt([row.dot(row) for row in rows])
    got = manifold._row_norms(w)
    assert got.shape == w.shape[:-1] + (1,)
    assert got.ravel().tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 70),
    st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    st.integers(0, 2**32 - 1),
)
def test_exact_ray_points_equal_one_exp_map_each(n, length, seed):
    rng = np.random.default_rng(seed)
    base = manifold.from_weights(rng.uniform(0.0, 1.0, size=n))
    direction = manifold.project_tangent(base, rng.standard_normal(n))
    assume(direction.norm > 0)
    poly = _exact_rays(base, direction.f[np.newaxis], length)[0]
    ts = np.linspace(0.0, length, 9)  # 8 segments
    expected = [manifold.exp_map(base, direction, t) for t in ts]
    assert poly.points[0] is base
    assert len(poly.points) == len(expected)
    for got, ref in zip(poly.points, expected):
        if ref is base:
            assert got is base
        assert got.phi.tobytes() == ref.phi.tobytes()
    assert poly.length == one_pair_polyline(expected).length
    zero = np.zeros((1, n))
    if length > 0:
        with pytest.raises(ZeroTangent):
            _exact_rays(base, zero, length)
    else:
        assert all(pt is base for pt in _exact_rays(base, zero, 0.0)[0].points)


# --- genotype distance blocks ---


def tree_labels(node, out=None) -> list[str]:
    """The tree's node labels in pre-order: ``x<i>`` for an input,
    ``c:<repr>`` for a constant, the operator itself otherwise."""
    if out is None:
        out = []
    tag = node[0]
    if tag == "x":
        out.append(f"x{node[1]}")
    elif tag == "c":
        out.append(f"c:{node[1]!r}")
    else:
        out.append(tag)
        tree_labels(node[1], out)
        tree_labels(node[2], out)
    return out


def depth_profile(node, max_depth: int) -> np.ndarray:
    """The share of the tree's nodes at each depth 1..max_depth (deeper
    nodes count at max_depth)."""
    counts = np.zeros(max_depth, dtype=float)

    def walk(nd, depth):
        counts[min(depth, max_depth) - 1] += 1
        if nd[0] not in ("x", "c"):
            walk(nd[1], depth + 1)
            walk(nd[2], depth + 1)

    walk(node, 1)
    return counts / counts.sum()


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
    pa = depth_profile(a, problem.max_depth)
    pb = depth_profile(b, problem.max_depth)
    depth_term = 0.5 * float(np.abs(pa - pb).sum())
    return 0.5 * (label_term + depth_term)


def per_pair_distance(problem, a, b) -> float:
    """Any registered domain's genotypic distance, one pair at a time."""
    if isinstance(problem, BitstringProblem):
        return float((np.asarray(a) != np.asarray(b)).sum())
    if isinstance(problem, RealVectorProblem):
        # over the last axis, as the distance has always reduced: without
        # an axis, norm takes a dot product, which rounds otherwise
        return float(np.linalg.norm(np.asarray(b) - np.asarray(a), axis=-1))
    return per_pair_tree_distance(problem, a, b)


@st.composite
def trees(draw, depth: int, inputs: int = 2, values=st.floats(-1e6, 1e6)):
    """Trees up to ``depth`` over ``inputs`` inputs (none: constant-only
    trees), constants from ``values``."""
    if depth == 1 or draw(st.booleans()):
        if inputs and draw(st.booleans()):
            return ("x", draw(st.integers(0, inputs - 1)))
        return ("c", draw(values))
    op = draw(st.sampled_from(OPS))
    return (op, draw(trees(depth - 1, inputs, values)), draw(trees(depth - 1, inputs, values)))


def genotypes(problem):
    """Genotypes of a registered domain, ties among them likely."""
    if isinstance(problem, BitstringProblem):
        bits = st.lists(st.integers(0, 1), min_size=problem.dimension, max_size=problem.dimension)
        return bits.map(lambda v: np.array(v, dtype=np.uint8))
    if isinstance(problem, RealVectorProblem):
        coord = st.one_of(st.sampled_from([-5.0, 0.0, 1.0]), st.floats(-5.0, 5.0))
        vec = st.lists(coord, min_size=problem.dimension, max_size=problem.dimension)
        return vec.map(lambda v: np.array(v, dtype=float))
    return trees(problem.max_depth)


def reference_block(problem, xs, gs) -> bytes:
    block = [[per_pair_distance(problem, x, g) for g in gs] for x in xs]
    return np.array(block, dtype=float).reshape(len(xs), len(gs)).tobytes()


def assert_block_matches(problem, xs, gs, left=None, right=None):
    """The block between stacks of xs and gs (or the given stacks of
    them) equals the per-pair distances byte for byte."""
    left = problem.stack(xs) if left is None else left
    right = problem.stack(gs) if right is None else right
    got = problem.geno_distances(left, right)
    assert got.dtype == float and got.shape == (len(xs), len(gs))
    assert got.tobytes() == reference_block(problem, xs, gs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PROBLEMS)), st.data())
def test_distance_blocks_match_per_pair_distances(name, data):
    problem = make_problem(name)
    xs = data.draw(st.lists(genotypes(problem), max_size=5), label="xs")
    gs = data.draw(st.lists(genotypes(problem), max_size=8), label="gs")
    older = problem.stack(gs)
    assert_block_matches(problem, xs, gs, right=older)
    assert_block_matches(problem, gs, xs)
    assert_block_matches(problem, xs, [])
    assert_block_matches(problem, [], gs)
    if isinstance(problem, SymbolicRegression):
        # labels first seen after the right-hand stack was built, on
        # either side of it
        late = [("+", ("c", 1e9), x) for x in xs] + [("c", -1e9)]
        assert_block_matches(problem, late, gs, right=older)
        assert_block_matches(problem, gs, late, left=older)


def reference_row(problem, x, gs) -> bytes:
    return np.array([per_pair_tree_distance(problem, x, g) for g in gs], dtype=float).tobytes()


def row_of(problem, x, stacked) -> np.ndarray:
    return problem.geno_distances(problem.stack([x]), stacked)[0]


def assert_rows_match(problem, x, gs):
    stacked = problem.stack(gs)
    assert len(stacked) == len(gs)
    got = row_of(problem, x, stacked)
    assert got.dtype == float and got.shape == (len(gs),)
    per_pair = np.array([row_of(problem, x, problem.stack([g]))[0] for g in gs], dtype=float)
    assert got.tobytes() == per_pair.tobytes() == reference_row(problem, x, gs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_tree_distance_rows_match_per_pair_distances(max_depth, data):
    problem = SymbolicRegression(probes=((0.0, 1.0),), outputs=(0.0,), max_depth=max_depth)
    x = data.draw(trees(max_depth))
    gs = data.draw(st.lists(trees(max_depth), max_size=8))
    older = problem.stack(gs)
    # one column per label, in the order the pre-order walks first meet them
    first_seen = dict.fromkeys(lbl for g in gs for lbl in tree_labels(g))
    assert list(problem._vocabulary) == list(first_seen)
    assert_rows_match(problem, x, gs)
    # a label first seen after a stack was built: in the query tree
    # against that older stack, and in a row
    late = ("+", ("c", 1e9), x) if max_depth > 1 else ("c", 1e9)
    assert row_of(problem, x, older).tobytes() == reference_row(problem, x, gs)
    assert row_of(problem, late, older).tobytes() == reference_row(problem, late, gs)
    assert_rows_match(problem, late, gs)
    assert_rows_match(problem, x, gs + [late])
    empty = row_of(problem, x, problem.stack([]))
    assert empty.dtype == float and empty.shape == (0,)


# --- program outputs over the dataset's columns ---


def one_row_value(node, inputs) -> float:
    """A tree's output on one row, in Python float arithmetic."""
    tag = node[0]
    if tag == "x":
        return float(inputs[node[1]])
    if tag == "c":
        return float(node[1])
    a = one_row_value(node[1], inputs)
    b = one_row_value(node[2], inputs)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    if abs(b) < DIV_GUARD:
        return 1.0
    return a / b


# divisors on both sides of the guard, signed zeros, nan, and magnitudes
# whose sums and products overflow to +-inf (then inf - inf is nan)
EDGE_VALUES = (
    0.0,
    -0.0,
    1.0,
    -2.0,
    DIV_GUARD,
    -DIV_GUARD,
    float(np.nextafter(DIV_GUARD, 0.0)),
    float(np.nextafter(-DIV_GUARD, 0.0)),
    1e200,
    -1e200,
    1.7e308,
    float("inf"),
    float("-inf"),
    float("nan"),
)
edge_floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.integers(1, 6), st.data())
def test_column_evaluation_equals_the_one_row_recursion(inputs, constant_only, rows, data):
    tree = data.draw(trees(5, 0 if constant_only else inputs, edge_floats))
    probes = data.draw(
        st.lists(st.tuples(*[edge_floats] * inputs), min_size=rows, max_size=rows)
    )
    columns = _input_columns(probes)
    got = eval_columns(tree, columns, rows)
    expected = np.array([one_row_value(tree, p) for p in probes], dtype=float)
    assert got.dtype == float and got.shape == (rows,)
    assert canonical_nans(got).tobytes() == canonical_nans(expected).tobytes()
    assert not any(np.shares_memory(got, c) for c in columns)
    for p, value in zip(probes, expected):
        one_row = canonical_nans(np.float64(eval_tree(tree, p)))
        assert one_row.tobytes() == canonical_nans(value).tobytes()


def canonical_nans(values):
    """The values with every NaN as np.nan. The sign bit of a NaN such as
    nan * nan depends on which float path CPython takes, and no program
    output reads it: score maps every non-finite output."""
    return np.where(np.isnan(values), np.nan, values)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.data())
def test_score_reads_the_one_row_outputs(inputs, rows, data):
    values = st.one_of(st.sampled_from(EDGE_VALUES[:10]), st.floats(-1e3, 1e3))
    probes = data.draw(st.lists(st.tuples(*[values] * inputs), min_size=rows, max_size=rows))
    outputs = data.draw(st.lists(values, min_size=rows, max_size=rows))
    tree = data.draw(trees(5, inputs, values))
    problem = SymbolicRegression(probes=probes, outputs=outputs)
    outs = np.array([one_row_value(tree, p) for p in probes], dtype=float)
    got = problem.score(tree)  # warns of no overflow, which -W error would raise
    # the squared error of a large finite output may overflow
    with np.errstate(over="ignore"):
        score = float(-np.mean((outs - np.array(outputs)) ** 2))
    if not np.all(np.isfinite(outs)) or not np.isfinite(score):
        score = OVERFLOW_SCORE
    assert np.float64(got).tobytes() == np.float64(score).tobytes()


# --- the metric's distance blocks ---

# OneMax-10 ties often; symreg grows its label vocabulary as it stacks
BLOCK_PROBLEMS = {
    "onemax": lambda: OneMax(bits=10),
    "sphere": lambda: Sphere(dim=10),
    "symreg": lambda: make_problem("symreg"),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(BLOCK_PROBLEMS)),
    st.integers(1, 50),
    st.integers(0, 2**32 - 1),
)
def test_metric_blocks_match_rows_built_one_at_a_time(name, n, seed):
    problem = BLOCK_PROBLEMS[name]()
    rng = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n)
    for _ in range(n):
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, k=len(view))
    genos = [s.genotype for s in view.samples]
    # offspring: new genotypes, one of them twice, and a view sample
    offspring = [problem.random_genotype(rng) for _ in range(4)]
    offspring += [offspring[0], genos[-1]]
    keys = [problem.canonical_key(g) for g in offspring]
    calls = ledger.objective_calls
    # a generation's rows, in one block, call no objective
    block_dists, block_orders = rm.rows_of(offspring, keys)
    assert ledger.objective_calls == calls
    queries = genos + offspring
    for x, row in zip(queries, reference_rows(problem, view, queries)):
        dists, got = metric_row(rm, x)
        expected_dists, order = reference_nearest(row, rm.width)
        assert dists.tobytes() == expected_dists.tobytes()
        assert got.tobytes() == order.tobytes()
        stored = rm._rows[problem.canonical_key(x)]  # shared by every query
        assert not any(a.flags.writeable for a in stored)
    dists, orders = rm.rows_of(offspring, keys)
    assert block_dists.tobytes() == dists.tobytes()
    assert block_orders.tobytes() == orders.tobytes()


# --- each row's k nearest, by selection and by sort ---


@st.composite
def order_blocks(draw):
    """A distance block, often tie-heavy: small integers, a blend of two
    integer tables each divided by a scale, uniform doubles, or mostly
    +inf; some with +inf, -0.0, 0.0 or NaN entries besides. Up to 60 by 80, so on
    both sides of TOP_K_SELECT_MIN, and empty in either dimension."""
    m = draw(st.integers(0, 60), label="rows")
    n = draw(st.integers(0, 80), label="columns")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("integers", "blended", "uniform", "infinite")))
    if kind == "integers":
        rows = rng.integers(0, draw(st.integers(1, 12)), size=(m, n)).astype(float)
    elif kind == "blended":
        lam = draw(st.floats(0.0, 1.0))
        dg, dp = rng.integers(0, 20, size=(m, n)), rng.integers(0, 6, size=(m, n))
        rows = lam * dg / 7.0 + (1 - lam) * dp / 3.0
    elif kind == "uniform":
        rows = rng.uniform(0.0, 1.0, size=(m, n))
    else:  # mostly +inf, so that some rows' k-th value is +inf
        rows = np.where(rng.random((m, n)) < 0.8, np.inf, rng.integers(0, 3, size=(m, n)))
    for value in draw(st.lists(st.sampled_from([np.inf, -0.0, 0.0, np.nan]), max_size=4)):
        if rows.size:
            rows[rng.integers(m), rng.integers(n)] = value
    return rows


@settings(max_examples=150, deadline=None)
@given(order_blocks(), st.booleans())
def test_top_k_orders_are_the_stable_argsort_prefix(rows, select_small):
    # nearest gives each row's first k positions of the stable argsort and
    # the distances there; it may overwrite the block it is given, and
    # only as its selection passes do, by setting each taken entry to +inf
    m, n = rows.shape
    expected = np.argsort(rows, axis=-1, kind="stable")
    # selecting at every size as well runs the selection on small blocks
    select_min = 0 if select_small else core.TOP_K_SELECT_MIN
    below_inf = rows.size and rows.max() < np.inf  # no +inf, no NaN
    with mock.patch.object(core, "TOP_K_SELECT_MIN", select_min):
        for k in range(0, n + 3):
            block = rows.copy()
            idx, dists = nearest(block, k)
            assert idx.shape == dists.shape == (m, min(k, n))
            assert idx.dtype == expected.dtype and dists.dtype == float
            assert idx.tobytes() == expected[:, :k].tobytes()
            taken = np.take_along_axis(rows, expected[:, :k], axis=1)
            assert dists.tobytes() == taken.tobytes()
            assert not np.shares_memory(idx, block) and not np.shares_memory(dists, block)
            left = rows.copy()
            if k < n and below_inf and rows.size >= select_min:
                np.put_along_axis(left, idx, np.inf, axis=1)
            assert block.tobytes() == left.tobytes()


# --- exact per-candidate arithmetic ---

distances = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 1e6))


@pytest.mark.parametrize("k", range(1, 17))
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_middle_of_sorted_distances_is_np_median(k, data):
    values = np.array(data.draw(st.lists(distances, min_size=k, max_size=k)))
    got = ascending_median(np.sort(values))
    assert np.float64(got).tobytes() == np.float64(np.median(values)).tobytes()


@pytest.mark.parametrize("k", range(1, 17))
@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=16, max_size=24, unique=True), st.data())
def test_omega_knn_matches_generator_sum(k, values, data):
    view, rm = scalar_view(values, None)
    weights = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=len(view), max_size=len(view)))
    dist = manifold.from_weights(weights)
    x = float(data.draw(st.integers(-3, 33)))
    idx, _ = knn([x], rm, k)
    assert omega_block(idx, dist, k)[0] == float(sum(dist.p[j] for j in idx[0]))


# --- block forms of the guidance layer, against the one-candidate forms ---


def same_doubles(got, expected) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


def reference_modified_fitness(x, zeta_value: float, target, k: int, rm) -> float:
    """One genotype's modified fitness, as the program took it before it
    took a block: x's own row and order, the masses of its k nearest
    summed one at a time in order, then h."""
    _, order = metric_row(rm, x)
    return h(zeta_value, float(sum(target.p[order[:k]].tolist())))


def reference_zeta(score: float, view) -> float:
    """One score normalized against the view, as a scalar clamp."""
    lo, hi = float(view.scores.min()), float(view.scores.max())
    if hi == lo:
        return 1.0
    return min(max((score - lo) / (hi - lo), 0.0), 1.0)


@st.composite
def new_parent_cases(draw):
    """A view of 1 to 10 samples, its scores all equal or not, and new
    samples scored inside its range, above its maximum or below its
    minimum."""
    positions = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=10, unique=True))
    n = len(positions)
    if draw(st.booleans()):
        scores = [draw(st.floats(-1e3, 1e3))] * n
    else:
        scores = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    view, rm = table_view(positions, scores)
    lo, hi = min(scores), max(scores)
    score = st.one_of(
        st.sampled_from(scores),
        st.floats(lo, hi),
        st.floats(hi, hi + 1e3, exclude_min=True),
        st.floats(lo - 1e3, lo, exclude_max=True),
    )
    count = draw(st.integers(1, 8))
    samples = [
        ScoredSample(n + i, float(draw(st.integers(-25, 25))), draw(score))
        for i in range(count)
    ]
    target = manifold.from_weights(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    k = draw(st.integers(1, n))
    return view, rm, samples, target, k


@settings(max_examples=200, deadline=None)
@given(new_parent_cases())
def test_guided_fitness_matches_the_per_sample_reference(case):
    view, rm, samples, target, k = case
    zeta = [reference_zeta(s.score, view) for s in samples]
    if view.scores.min() == view.scores.max():
        assert zeta == [1.0] * len(samples)
    expected = [
        reference_modified_fitness(s.genotype, z, target, k, rm) for s, z in zip(samples, zeta)
    ]
    assert same_doubles(_guided_fitness(samples, target, k, rm), expected)


# k up to 32: numpy's pairwise sum takes 8 terms at a time from 8 terms on
@pytest.mark.parametrize("k", range(1, 33))
@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(sorted(MEMO_PROBLEMS)),
    st.integers(1, 40),  # view size, often at most k + 1
    st.integers(0, 2**32 - 1),
)
def test_guidance_blocks_match_the_one_candidate_forms(k, name, n, seed):
    problem = MEMO_PROBLEMS[name]
    rng = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n)
    while ledger.eval_count < n:
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    block = ResolvedMetric(problem, view, ledger, k=len(view))
    single = ResolvedMetric(problem, view, ledger, k=len(view))
    genos = [s.genotype for s in view.samples]
    # candidates: new genotypes, one twice, and view samples, which sit at
    # distance zero from a sample (OneMax-10 ties often besides)
    candidates = [problem.random_genotype(rng) for _ in range(5)]
    candidates += [candidates[0], genos[0], genos[-1]]
    rows, orders = block.rows_of(candidates)
    for x, row, order in zip(candidates, rows, orders):
        dists, got = metric_row(single, x)
        assert same_doubles(row, dists) and order.tobytes() == got.tobytes()

    ledger_mf = rng.uniform(0.0, 2.0, size=n)
    estimates = filter_estimates(rows, orders, k, ledger_mf)
    policy = FilterPolicy(k=k)
    for x, est in zip(candidates, estimates):
        assert same_doubles(est, estimate_fitness(x, policy, single, ledger_mf))

    dist = manifold.from_weights(rng.uniform(0.0, 1.0, size=n))
    omegas = omega_block(orders, dist, k)
    for x, omega in zip(candidates, omegas):
        assert same_doubles(omega, omega_knn(x, dist, k, single))

    norm = normalize_scores(view.scores, view)
    expected = [
        reference_modified_fitness(g, norm[i], dist, k, single) for i, g in enumerate(genos)
    ]
    assert same_doubles(ledger_modified_fitness(dist, k, block), expected)

    if n >= 2:
        expected = [local_max_prob(i, k, single, norm) for i in range(n)]
        assert same_doubles(local_max_ratios(block.view_orders, norm, k), expected)


@settings(max_examples=100, deadline=None)
@given(scored_views(), st.integers(1, 14), st.data())
def test_local_max_ratios_match_local_max_prob_with_ties(case, k_local, data):
    # scores on a few shared levels, so neighborhoods hold many equal values
    view, rm = case
    norm = normalize_scores(view.scores, view)
    expected = [local_max_prob(i, k_local, rm, norm) for i in range(len(view))]
    assert same_doubles(local_max_ratios(rm.view_orders, norm, k_local), expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=2, max_size=12), st.integers(1, 14))
def test_local_max_ratios_where_samples_sit_at_distance_zero(labels, k_local):
    # scalar genotypes scored as themselves whose distance reads only
    # their integer parts, halved and rounded down, so that samples of
    # different scores sit at distance zero from a sample, some before it
    # in its order
    class Floored(ScalarProblem):
        def geno_distances(self, xs, stacked):
            def floor(gs):
                return [float(int(g) // 2) for g in gs]

            return super().geno_distances(floor(xs), floor(stacked))

    problem = Floored()
    ledger = EvaluationLedger(len(labels))
    for i, label in enumerate(labels):
        evaluate(label + i / 100, problem, ledger)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    norm = normalize_scores(view.scores, view)
    expected = [local_max_prob(i, k_local, rm, norm) for i in range(len(view))]
    assert same_doubles(local_max_ratios(rm.view_orders, norm, k_local), expected)


# --- per-genotype facts computed once: keys, rows, segments ---


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(BLOCK_PROBLEMS)),
    st.integers(1, 30),  # view size
    st.integers(1, 12),  # k, often past the view size
    st.booleans(),  # keys given or computed
    st.integers(0, 2**32 - 1),
)
def test_block_knn_equals_the_one_genotype_query(name, n, k, keyed, seed):
    problem = BLOCK_PROBLEMS[name]()
    rng = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n)
    while ledger.eval_count < n:
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    block = ResolvedMetric(problem, view, ledger, k=k)
    single = ResolvedMetric(problem, view, ledger, k=k)
    genos = [s.genotype for s in view.samples]
    candidates = [problem.random_genotype(rng) for _ in range(4)]
    candidates += [candidates[0], genos[0], genos[-1]]
    keys = [problem.canonical_key(g) for g in candidates] if keyed else None
    idx, dists = knn(candidates, block, k, keys)
    assert idx.shape == dists.shape == (len(candidates), min(k, n))
    for x, row_idx, row_dists in zip(candidates, idx, dists):
        one_idx, one_dists = knn_one(x, single, k)
        assert row_idx.tobytes() == one_idx.tobytes()
        assert same_doubles(row_dists, one_dists)
        # the stored row the one-genotype query reads
        stored_dists, order = metric_row(single, x)
        assert row_idx.tobytes() == order[:k].tobytes()
        assert same_doubles(row_dists, stored_dists[:k])


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(MEMO_PROBLEMS)),
    st.integers(1, 30),  # view size
    st.integers(1, 12),  # omega's k
    st.integers(1, 8),  # new parents
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_block_omega_of_new_parents_matches_the_per_sample_reference(
    name, n, k, m, seed, data
):
    problem = MEMO_PROBLEMS[name]
    rng = np.random.default_rng(seed)
    ledger = EvaluationLedger(budget=n + m)
    while ledger.eval_count < n:
        evaluate(problem.random_genotype(rng), problem, ledger)
    view = view_of(ledger)
    # new parents, charged after the view was taken: new genotypes, one
    # of them twice, and a view sample
    new = [evaluate(problem.random_genotype(rng), problem, ledger) for _ in range(m)]
    new += [new[0], view.samples[-1]]
    keys = [problem.canonical_key(s.genotype) for s in new]
    target = manifold.from_weights(rng.uniform(0.0, 1.0, size=n))
    zeta = normalize_scores([s.score for s in new], view)
    reference = ResolvedMetric(problem, view, ledger, k=k)
    expected = [
        reference_modified_fitness(s.genotype, z, target, k, reference)
        for s, z in zip(new, zeta.tolist())
    ]
    rm = ResolvedMetric(problem, view, ledger, k=k)
    # some parents' rows already built, as a screened generation builds them
    built = data.draw(st.lists(st.sampled_from(new), max_size=3))
    if built:
        rm.rows_of([s.genotype for s in built])
    got = modified_fitness([s.genotype for s in new], zeta, target, k, rm, keys)
    assert same_doubles(got, expected)
    assert same_doubles(_guided_fitness(new, target, k, rm, keys), expected)
    assert same_doubles(_guided_fitness(new, target, k, rm), expected)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([OVERFLOW_SCORE, -2.0, -0.0, 0.0, 1.5]), min_size=1, max_size=10),
    st.booleans(),  # numpy doubles or Python floats
    st.integers(1, 6),  # tournament size
    st.integers(0, 2**32 - 1),
)
def test_ranked_tournament_picks_the_fitness_max(fitness, numpy_doubles, size, seed):
    if numpy_doubles:
        fitness = np.array(fitness)
    parents = [ScoredSample(i, float(i), 0.0) for i in range(len(fitness))]
    order, rank = (part.tolist() for part in _ranking(fitness))
    assert order == fitness_order(fitness)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        got = _tournament(parents, order, rank, size, rng)
        assert got is reference_tournament(parents, fitness, size, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


# --- rankings by stable argsort, against the key sorts they replace ---

RANKED_SCORES = [OVERFLOW_SCORE, -2.0, -0.0, 0.0, 1.5, 3.0]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(RANKED_SCORES), max_size=30),
    st.one_of(st.none(), st.integers(1, 32)),
)
def test_view_of_ranks_as_the_key_sort(scores, cap):
    problem = TableScore({float(i): score for i, score in enumerate(scores)})
    ledger = EvaluationLedger(len(scores))
    for i in range(len(scores)):
        evaluate(float(i), problem, ledger)
    assert ledger.scores == [s.score for s in ledger.samples]
    got = view_of(ledger, cap).samples
    expected = key_sorted_view(ledger, cap)
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(RANKED_SCORES), max_size=40),
    st.booleans(),  # numpy doubles or Python floats
    st.integers(1, 45),  # the subpopulation size the seed order keeps
)
def test_fittest_first_is_the_key_sort(fitness, numpy_doubles, subpop):
    if numpy_doubles:
        fitness = np.array(fitness, dtype=float)
    order = fittest_first(fitness)
    assert order.tolist() == fitness_order(fitness)
    # the seed order of a burst's parents
    assert order[:subpop].tolist() == fitness_order(fitness)[:subpop]
    ranked, rank = (part.tolist() for part in _ranking(fitness))
    assert ranked == fitness_order(fitness)
    assert [ranked[place] for place in rank] == list(range(len(fitness)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.sampled_from(RANKED_SCORES)), min_size=1, max_size=12),
    st.lists(st.tuples(st.integers(0, 14), st.sampled_from(RANKED_SCORES)), max_size=12),
    st.integers(0, 4),
)
def test_next_generation_pool_ranks_as_the_key_sort(parents, new, elitism):
    # ids repeat within and across the two lists, as a sample recorded
    # again or already a parent does
    samples = {i: ScoredSample(i, float(i), 0.0) for i in range(15)}
    ps, fitness = [samples[i] for i, _ in parents], [f for _, f in parents]
    ns, new_fitness = [samples[i] for i, _ in new], [f for _, f in new]
    config = EvolutionConfig(subpop_size=5, elitism=elitism)
    got, got_fitness = _next_generation(ps, fitness, ns, new_fitness, config)
    expected, expected_fitness = key_sorted_next_generation(
        ps, fitness, ns, new_fitness, elitism
    )
    assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))
    assert same_doubles(got_fitness, expected_fitness)


# --- popcount distance kernels, against their old forms ---


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 63, 64, 65, 130]), st.integers(1, 5), st.integers(1, 6), st.data())
def test_popcount_distances_equal_the_dot_product_form(bits, m, n, data):
    problem = OneMax(bits)
    rows = st.lists(
        st.lists(st.integers(0, 1), min_size=bits, max_size=bits), min_size=1, max_size=3
    )
    # rows drawn from a few distinct ones, so that ties and zero distances occur
    pool = data.draw(rows)
    xs = np.array([data.draw(st.sampled_from(pool)) for _ in range(m)], dtype=np.uint8)
    gs = np.array([data.draw(st.sampled_from(pool)) for _ in range(n)], dtype=np.uint8)
    for left, right in ((xs, gs), (gs, xs), (xs[:1], gs), (xs, gs[:1]), (xs, xs)):
        # the distances read the stacks' packed words; the reference, the bits
        got = problem.geno_distances(problem.stack(left), problem.stack(right))
        assert got.dtype == float and got.shape == (len(left), len(right))
        assert got.tobytes() == dot_hamming(left, right).tobytes()


def reference_exact_ray(base, direction, length: float):
    """A closed-form ray of 8 segments as the program took it one ray at a
    time: its moving points in one exp_map_rows call, then one-pair
    distances summed left to right. Returns (points, segment lengths,
    length)."""
    ts = np.linspace(0.0, length, 9)
    points = [base] * len(ts)
    moving = np.flatnonzero(ts)
    if len(moving):
        rows = manifold.exp_map_rows(base, direction.f[np.newaxis], ts[moving, np.newaxis])
        for i, phi in zip(moving, rows):
            points[i] = LogDistribution(phi)
    lengths = [manifold.geodesic_distance_exact(a, b) for a, b in zip(points, points[1:])]
    return points, lengths, sum(lengths)


def reference_step_along(ray, gamma: float):
    """``step_along`` with each segment's one-pair distance recomputed."""
    if gamma == 0:
        return ray.origin
    pts = ray.polyline.points
    walked = 0.0
    for a, b in zip(pts, pts[1:]):
        seg = manifold.geodesic_distance_exact(a, b)
        if walked + seg >= gamma - 1e-12:
            frac = 0.0 if seg == 0 else (gamma - walked) / seg
            return manifold.geodesic_point(a, b, min(max(frac, 0.0), 1.0))
        walked += seg
    return pts[-1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),  # chart dimension
    st.integers(0, 20),  # extra view samples
    st.integers(1, 7),  # rays
    st.one_of(st.just(0.0), st.floats(0.01, 1.5)),  # ray length, the chart radius
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_block_exact_rays_equal_the_one_ray_reference(dim, extra, count, radius, seed, data):
    rng = np.random.default_rng(seed)
    n = EXACT_RAYS_THRESHOLD + 1 + extra  # closed-form rays
    base = manifold.from_weights(rng.uniform(0.05, 1.0, size=n))
    chart = build_chart(base, rng.uniform(0.0, 1.0, size=n), dim, rng, radius=radius)
    params = StepParams(ray_count=count, chart_dim=dim)
    rays = geodesic_rays(chart, params, np.random.default_rng(seed))
    cdirs = _ray_coord_directions(dim, count, np.random.default_rng(seed))
    assert len(rays) == count
    for ray, cdir in zip(rays, cdirs):
        direction = chart.tangent(cdir)
        points, lengths, length = reference_exact_ray(base, direction, radius)
        for poly in (ray.polyline, _exact_rays(base, direction.f[np.newaxis], radius)[0]):
            assert poly.points[0] is base
            assert len(poly.points) == len(points)
            for got, expected in zip(poly.points, points):
                assert got.phi.tobytes() == expected.phi.tobytes()
                assert (got is base) == (expected is base)
            assert same_doubles(poly.segments, lengths)
            assert same_doubles(poly.length, length)
            assert same_doubles(one_pair_polyline(poly.points).segments, lengths)
        gamma = data.draw(st.floats(0.0, ray.polyline.length))
        got = step_along(ray, gamma)
        assert got.phi.tobytes() == reference_step_along(ray, gamma).phi.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.sampled_from([OVERFLOW_SCORE, -3.0, -0.0, 0.0, 1.0, 2.5]), min_size=1, max_size=30
    ),
    st.lists(st.integers(0, 29), max_size=10),  # genotypes recorded again
)
def test_running_best_equals_a_scan(scores, again):
    problem = TableScore({float(i): score for i, score in enumerate(scores)})
    ledger = EvaluationLedger(len(scores))
    state = RunState(
        ledger=ledger,
        problem=problem,
        rng=np.random.default_rng(0),
        gamma=0.25,
        threshold_quantile=0.25,
    )
    assert state.best is None
    for i in range(len(scores)):
        state.record(float(i), float(i))
        for j in again:
            if j <= i:  # a genotype the ledger holds: no new sample
                state.record(float(j), float(j))
        expected = max(ledger.samples, key=lambda s: (s.score, -s.id))
        assert ledger.best is expected and state.best is expected
    assert ledger.keys == [float(i) for i in range(len(scores))]
