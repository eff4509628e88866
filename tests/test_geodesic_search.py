import numpy as np
import pytest

from infoevo import geodesic_search, manifold
from infoevo.errors import GammaExceedsRay, GoalOutsideChart
from infoevo.geodesic_search import (
    GeodesicPolyline,
    StepParams,
    build_chart,
    dijkstra_geodesic,
    geodesic_rays,
    refine_polyline,
    sample_exact_ray,
    step_along,
)


def random_distribution(rng, n):
    return manifold.from_weights(rng.uniform(0.0, 1.0, size=n) + 1e-6)


def grid_slack(resolution: int) -> float:
    """Relative length error allowed for a raw lattice shortest path."""
    return 2.0 / resolution


# --- chart construction ---


def test_chart_frame_orthonormal(rng):
    base = random_distribution(rng, 12)
    promise = rng.uniform(0, 1, 12)
    chart = build_chart(base, promise, 3, rng, radius=1.0)
    assert chart.dim == 3
    for i, u in enumerate(chart.directions):
        for j, v in enumerate(chart.directions):
            expected = 1.0 if i == j else 0.0
            assert manifold.inner(base, u.f, v.f) == pytest.approx(
                expected, abs=1e-10
            )


def test_chart_first_direction_is_promise_ascent(rng):
    base = random_distribution(rng, 8)
    promise = rng.uniform(0, 1, 8)
    chart = build_chart(base, promise, 2, rng, radius=1.0)
    ascent = manifold.project_tangent(base, promise)
    aligned = manifold.inner(base, chart.directions[0].f, ascent.f)
    assert aligned == pytest.approx(ascent.norm, rel=1e-9)
    assert not chart.degenerate_ascent


def test_chart_degenerate_promise_falls_back_to_random(rng):
    base = manifold.uniform(6)
    chart = build_chart(base, np.full(6, 0.7), 2, rng, radius=1.0)
    assert chart.degenerate_ascent
    assert chart.dim == 2


def test_chart_deterministic_given_seed():
    base = manifold.uniform(9)
    promise = np.arange(9, dtype=float)
    a = build_chart(base, promise, 2, np.random.default_rng(5), radius=1.0)
    b = build_chart(base, promise, 2, np.random.default_rng(5), radius=1.0)
    for u, v in zip(a.directions, b.directions):
        assert np.array_equal(u.f, v.f)


def test_chart_dim_exceeds_manifold():
    base = manifold.uniform(3)
    with pytest.raises(ValueError):
        build_chart(base, [1.0, 2.0, 3.0], 3, np.random.default_rng(0), radius=1.0)


def test_chart_point_normal_coordinates(rng):
    # distance from base equals euclidean norm of chart coordinates
    base = random_distribution(rng, 10)
    chart = build_chart(base, rng.uniform(0, 1, 10), 2, rng, radius=1.0)
    for coords in ([0.3, 0.0], [0.1, 0.2], [-0.25, 0.15]):
        pt = chart.point(coords)
        assert manifold.geodesic_distance_exact(base, pt) == pytest.approx(
            float(np.linalg.norm(coords)), abs=1e-9
        )
    assert chart.point([0.0, 0.0]) is base


# --- lattice shortest paths ---


def test_dijkstra_start_equals_goal(rng):
    base = random_distribution(rng, 5)
    chart = build_chart(base, rng.uniform(0, 1, 5), 2, rng, radius=0.5)
    (poly,) = dijkstra_geodesic(chart, [0.1, 0.1], [[0.1, 0.1]], 8)
    assert poly.length == 0.0
    assert len(poly.points) == 1


def test_dijkstra_matches_exact_distance_n3(rng):
    # start at uniform over three samples, goal 0.785 away: the lattice
    # route must be within the grid slack of the closed form
    base = manifold.uniform(3)
    goal = manifold.from_weights([0.7, 0.2, 0.1], eps_floor=0.0)
    exact = manifold.geodesic_distance_exact(base, goal)
    assert exact == pytest.approx(0.785, abs=5e-3)
    chart = build_chart(base, np.array([3.0, 1.0, 0.5]), 2, np.random.default_rng(1), radius=1.0)
    v = manifold.log_map(base, goal)
    coords = [manifold.inner(base, v.f, u.f) for u in chart.directions]
    (poly,) = dijkstra_geodesic(chart, [0.0, 0.0], [coords], 32)
    assert poly.length <= exact * (1 + grid_slack(32))
    assert poly.length >= exact - 1e-9
    (refined,) = refine_polyline([poly], 3)
    assert abs(refined.length - exact) / exact < 0.02


def test_dijkstra_axis_aligned_goal(rng):
    base = random_distribution(rng, 6)
    chart = build_chart(base, rng.uniform(0, 1, 6), 2, rng, radius=0.8)
    (poly,) = dijkstra_geodesic(chart, [0.0, 0.0], [[0.8, 0.0]], 16)
    # goal along a frame direction: geodesic distance equals 0.8 exactly
    assert poly.length >= 0.8 - 1e-9
    assert poly.length <= 0.8 * (1 + grid_slack(16))


def test_dijkstra_goal_outside_chart(rng):
    base = random_distribution(rng, 5)
    chart = build_chart(base, rng.uniform(0, 1, 5), 2, rng, radius=0.3)
    with pytest.raises(GoalOutsideChart):
        dijkstra_geodesic(chart, [0.0, 0.0], [[0.4, 0.0]], 8)


def test_dijkstra_endpoints_match_requests(rng):
    base = random_distribution(rng, 7)
    chart = build_chart(base, rng.uniform(0, 1, 7), 2, rng, radius=0.6)
    start, goal = [0.05, -0.1], [0.3, 0.4]
    (poly,) = dijkstra_geodesic(chart, start, [goal], 12)
    d0 = manifold.geodesic_distance_exact(poly.points[0], chart.point(start))
    d1 = manifold.geodesic_distance_exact(poly.points[-1], chart.point(goal))
    assert d0 < 1e-12
    assert d1 < 1e-12


def test_dijkstra_symmetry(rng):
    base = random_distribution(rng, 6)
    chart = build_chart(base, rng.uniform(0, 1, 6), 2, rng, radius=0.6)
    (fwd,) = dijkstra_geodesic(chart, [-0.2, 0.1], [[0.3, -0.25]], 12)
    (bwd,) = dijkstra_geodesic(chart, [0.3, -0.25], [[-0.2, 0.1]], 12)
    assert fwd.length == pytest.approx(bwd.length, abs=1e-9)


def test_dijkstra_3d_chart(rng):
    base = random_distribution(rng, 10)
    chart = build_chart(base, rng.uniform(0, 1, 10), 3, rng, radius=0.5)
    (poly,) = dijkstra_geodesic(chart, [0.0, 0.0, 0.0], [[0.3, 0.2, 0.1]], 8)
    exact = float(np.linalg.norm([0.3, 0.2, 0.1]))
    assert poly.length >= exact - 1e-9
    assert poly.length <= exact * (1 + grid_slack(8))


# --- refinement ---


def test_refine_never_lengthens(rng):
    base = random_distribution(rng, 6)
    chart = build_chart(base, rng.uniform(0, 1, 6), 2, rng, radius=0.7)
    (raw,) = dijkstra_geodesic(chart, [0.0, 0.0], [[0.4, 0.5]], 16)
    (refined,) = refine_polyline([raw], 3)
    assert refined.length <= raw.length + 1e-12


def test_refine_monotone_across_levels(rng):
    base = random_distribution(rng, 6)
    chart = build_chart(base, rng.uniform(0, 1, 6), 2, rng, radius=0.7)
    (raw,) = dijkstra_geodesic(chart, [0.0, 0.0], [[0.35, 0.55]], 16)
    lengths = [refine_polyline([raw], lv)[0].length for lv in (0, 1, 2, 3)]
    for a, b in zip(lengths, lengths[1:]):
        assert b <= a + 1e-12


def test_refine_exact_geodesic_is_fixed_point(rng):
    # a polyline already on a geodesic stays at the same length
    a = random_distribution(rng, 5)
    b = random_distribution(rng, 5)
    pts = [manifold.geodesic_point(a, b, t) for t in np.linspace(0, 1, 9)]
    poly = GeodesicPolyline.of(pts)
    (refined,) = refine_polyline([poly], 2)
    assert refined.length == pytest.approx(poly.length, abs=1e-10)
    assert poly.length == pytest.approx(
        manifold.geodesic_distance_exact(a, b), abs=1e-9
    )


def test_refine_preserves_endpoints(rng):
    base = random_distribution(rng, 6)
    chart = build_chart(base, rng.uniform(0, 1, 6), 2, rng, radius=0.6)
    (raw,) = dijkstra_geodesic(chart, [0.0, 0.0], [[0.3, 0.3]], 12)
    (refined,) = refine_polyline([raw], 3)
    assert np.array_equal(refined.points[0].phi, raw.points[0].phi)
    assert np.array_equal(refined.points[-1].phi, raw.points[-1].phi)


def test_refine_trivial_polylines():
    d = manifold.uniform(4)
    single = GeodesicPolyline((d,), 0.0, ())
    assert refine_polyline([single], 3)[0] is single
    two = GeodesicPolyline.of([d, manifold.from_weights([1, 2, 3, 4])])
    assert refine_polyline([two], 0)[0] is two


# --- rays ---


def test_sample_exact_ray_length(rng):
    base = random_distribution(rng, 8)
    v = manifold.project_tangent(base, rng.standard_normal(8))
    unit = manifold.TangentVector(v.f / v.norm, base)
    poly = sample_exact_ray(base, unit, 0.6)
    assert poly.length == pytest.approx(0.6, abs=1e-9)
    assert poly.points[0] is base


def test_geodesic_rays_count_and_length(rng):
    # 100 samples, past EXACT_RAYS_THRESHOLD: closed-form rays
    base = random_distribution(rng, 100)
    chart = build_chart(base, rng.uniform(0, 1, 100), 2, rng, radius=0.5)
    rays = geodesic_rays(chart, StepParams(ray_count=5, grid_resolution=8), rng)
    assert len(rays) == 5
    for ray in rays:
        assert ray.origin is base
        assert ray.polyline.length == pytest.approx(0.5, abs=1e-9)


def test_geodesic_rays_first_is_promise_ascent(rng):
    base = random_distribution(rng, 100)  # closed-form rays
    promise = rng.uniform(0, 1, 100)
    chart = build_chart(base, promise, 2, rng, radius=0.4)
    rays = geodesic_rays(chart, StepParams(ray_count=3), rng)
    ascent = sample_exact_ray(base, chart.directions[0], chart.radius)
    assert len(rays[0].polyline.points) == len(ascent.points)
    for got, want in zip(rays[0].polyline.points, ascent.points):
        assert np.allclose(got.p, want.p)


def test_geodesic_rays_grid_mode_close_to_exact(rng):
    base = random_distribution(rng, 8)
    chart = build_chart(base, rng.uniform(0, 1, 8), 2, rng, radius=0.5)
    grid_rays = geodesic_rays(
        chart,
        StepParams(ray_count=2, grid_resolution=16, refinement_levels=3),
        np.random.default_rng(3),
    )
    for ray in grid_rays:
        # each ray targets a boundary point: exact distance is the radius
        assert abs(ray.polyline.length - 0.5) / 0.5 < 0.02


def test_geodesic_rays_one_lattice_search_per_chart(rng, monkeypatch):
    # counted through the module attribute, where the rays look it up
    searches = []
    search = geodesic_search.dijkstra_geodesic

    def counting(chart, start, goals, resolution):
        searches.append(len(goals))
        return search(chart, start, goals, resolution)

    monkeypatch.setattr(geodesic_search, "dijkstra_geodesic", counting)
    base = random_distribution(rng, 8)
    chart = build_chart(base, rng.uniform(0, 1, 8), 2, rng, radius=0.5)
    params = StepParams(ray_count=5, grid_resolution=8, refinement_levels=1)
    rays = geodesic_rays(chart, params, rng)
    assert searches == [5]
    assert len(rays) == 5


def test_geodesic_rays_auto_exact_above_threshold(rng):
    base = random_distribution(rng, 100)
    chart = build_chart(base, rng.uniform(0, 1, 100), 2, rng, radius=0.4)
    rays = geodesic_rays(chart, StepParams(ray_count=2, grid_resolution=4), rng)
    # exact mode samples 8 segments -> 9 points
    assert all(len(r.polyline.points) == 9 for r in rays)


# --- stepping ---


def test_step_along_zero_and_full(rng):
    base = random_distribution(rng, 8)
    v = manifold.project_tangent(base, rng.standard_normal(8))
    unit = manifold.TangentVector(v.f / v.norm, base)
    from infoevo.geodesic_search import GeodesicRay

    ray = GeodesicRay(base, sample_exact_ray(base, unit, 0.5))
    assert step_along(ray, 0.0) is base
    end = step_along(ray, 0.5)
    assert manifold.geodesic_distance_exact(base, end) == pytest.approx(
        0.5, abs=1e-9
    )


def test_step_along_interior_distance(rng):
    base = random_distribution(rng, 8)
    v = manifold.project_tangent(base, rng.standard_normal(8))
    unit = manifold.TangentVector(v.f / v.norm, base)
    from infoevo.geodesic_search import GeodesicRay

    ray = GeodesicRay(base, sample_exact_ray(base, unit, 0.8))
    for gamma in (0.1, 0.33, 0.61):
        pt = step_along(ray, gamma)
        assert manifold.geodesic_distance_exact(base, pt) == pytest.approx(
            gamma, abs=1e-9
        )


def test_step_along_matches_exp_map(rng):
    base = random_distribution(rng, 6)
    v = manifold.project_tangent(base, rng.standard_normal(6))
    unit = manifold.TangentVector(v.f / v.norm, base)
    from infoevo.geodesic_search import GeodesicRay

    ray = GeodesicRay(base, sample_exact_ray(base, unit, 0.7))
    pt = step_along(ray, 0.35)
    direct = manifold.exp_map(base, unit, 0.35)
    assert np.max(np.abs(pt.phi - direct.phi)) < 1e-9


def test_step_along_gamma_exceeds_ray(rng):
    base = random_distribution(rng, 5)
    v = manifold.project_tangent(base, rng.standard_normal(5))
    unit = manifold.TangentVector(v.f / v.norm, base)
    from infoevo.geodesic_search import GeodesicRay

    ray = GeodesicRay(base, sample_exact_ray(base, unit, 0.2))
    with pytest.raises(GammaExceedsRay):
        step_along(ray, 0.5)


def test_step_params_validation():
    with pytest.raises(ValueError):
        StepParams(gamma=0.0)
    with pytest.raises(ValueError):
        StepParams(gamma=4.0)
    with pytest.raises(ValueError):
        StepParams(ray_count=0)
    with pytest.raises(ValueError):
        StepParams(chart_dim=4)
