import numpy as np
import pytest

from infoevo import manifold
from infoevo.errors import (
    AllZeroWeights,
    LengthMismatch,
    NegativeWeight,
    ZeroTangent,
)


def random_distribution(rng, n):
    return manifold.from_weights(rng.uniform(0.0, 1.0, size=n) + 1e-6)


def test_from_weights_uniform():
    d = manifold.from_weights([1.0, 1.0])
    assert np.allclose(d.phi, [-np.log(2), -np.log(2)])


def test_from_weights_proportional():
    d = manifold.from_weights([3.0, 1.0], eps_floor=0.0)
    assert np.allclose(d.p, [0.75, 0.25])


def test_from_weights_floors_zero_weight():
    d = manifold.from_weights([1.0, 0.0], eps_floor=1e-6)
    assert abs(manifold.mass(d.phi) - 1.0) < 1e-12
    assert d.p[1] > 0
    assert d.p[1] == pytest.approx(1e-6, rel=1e-3)


def test_from_weights_errors():
    with pytest.raises(AllZeroWeights):
        manifold.from_weights([0.0, 0.0])
    with pytest.raises(NegativeWeight):
        manifold.from_weights([1.0, -0.5])
    with pytest.raises(AllZeroWeights):
        manifold.from_weights([])


def test_mass_examples():
    assert manifold.mass([0.0, 0.0]) == pytest.approx(2.0)
    assert manifold.mass([-np.log(2)] * 2) == pytest.approx(1.0)
    assert manifold.mass([-np.log(4)] * 4) == pytest.approx(1.0)


def test_inner_uniform_ones():
    base = manifold.uniform(2)
    assert manifold.inner(base, [1, 1], [1, 1]) == pytest.approx(1.0)
    assert manifold.inner(base, [1, -1], [1, 1]) == pytest.approx(0.0)


def test_inner_hand_sum():
    base = manifold.from_weights([3, 1], eps_floor=0.0)
    assert manifold.inner(base, [2, 0], [1, 1]) == pytest.approx(1.5)


def test_inner_length_mismatch():
    base = manifold.uniform(2)
    with pytest.raises(LengthMismatch):
        manifold.inner(base, [1, 2, 3], [1, 1])


def test_inner_bilinear_symmetric_positive(rng):
    for n in (2, 5, 17):
        base = random_distribution(rng, n)
        f = rng.standard_normal(n)
        g = rng.standard_normal(n)
        h = rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        assert manifold.inner(base, f, g) == pytest.approx(manifold.inner(base, g, f))
        assert manifold.inner(base, a * f + b * h, g) == pytest.approx(
            a * manifold.inner(base, f, g) + b * manifold.inner(base, h, g)
        )
        assert manifold.inner(base, f, f) > 0


def test_differential_equals_inner_with_ones(rng):
    base = random_distribution(rng, 6)
    f = rng.standard_normal(6)
    assert manifold.differential_F(base, f) == manifold.inner(base, f, np.ones(6))
    assert manifold.differential_F(base, np.zeros(6)) == 0.0
    base2 = manifold.from_weights([3, 1], eps_floor=0.0)
    assert manifold.differential_F(base2, [1, 1]) == pytest.approx(
        manifold.mass(base2.phi)
    )


def test_differential_matches_finite_difference(rng):
    h = 1e-7
    for _ in range(20):
        base = random_distribution(rng, 8)
        f = rng.standard_normal(8)
        fd = (manifold.mass(base.phi + h * f) - manifold.mass(base.phi)) / h
        assert manifold.differential_F(base, f) == pytest.approx(fd, abs=1e-6)


def test_project_tangent():
    base = manifold.uniform(2)
    v = manifold.project_tangent(base, [2.0, 0.0])
    assert np.allclose(v.f, [1.0, -1.0])
    # ones project to zero
    z = manifold.project_tangent(base, np.ones(2))
    assert np.allclose(z.f, 0.0)


def test_project_tangent_idempotent(rng):
    base = random_distribution(rng, 7)
    v = manifold.project_tangent(base, rng.standard_normal(7))
    assert abs(manifold.inner(base, v.f, np.ones(7))) < 1e-10
    again = manifold.project_tangent(base, v.f)
    assert np.allclose(again.f, v.f)


def test_geodesic_distance_identity_and_known_values():
    a = manifold.from_weights([0.5, 0.5])
    assert manifold.geodesic_distance_exact(a, a) == 0.0
    b = manifold.from_weights([0.9, 0.1], eps_floor=0.0)
    expected = 2 * np.arccos(np.sqrt(0.45) + np.sqrt(0.05))
    assert manifold.geodesic_distance_exact(a, b) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(0.92730, abs=1e-5)


def test_geodesic_distance_orthogonal_masses():
    a = manifold.from_weights([1.0, 0.0], eps_floor=0.0)
    b = manifold.from_weights([0.0, 1.0], eps_floor=0.0)
    assert manifold.geodesic_distance_exact(a, b) == pytest.approx(np.pi)


def test_geodesic_metric_axioms(rng):
    triples = [
        [random_distribution(rng, 5) for _ in range(3)] for _ in range(1000)
    ]
    for a, b, c in triples:
        dab = manifold.geodesic_distance_exact(a, b)
        assert dab == manifold.geodesic_distance_exact(b, a)
        assert dab <= (
            manifold.geodesic_distance_exact(a, c)
            + manifold.geodesic_distance_exact(c, b)
            + 1e-9
        )


def test_exp_map_identity_and_arclength(rng):
    base = random_distribution(rng, 4)
    v = manifold.project_tangent(base, rng.standard_normal(4))
    assert manifold.exp_map(base, v, 0.0) is base
    unit = manifold.TangentVector(v.f / v.norm, base)
    for t in (0.05, 0.2, 0.5, 1.0):
        out = manifold.exp_map(base, unit, t)
        assert manifold.geodesic_distance_exact(base, out) == pytest.approx(
            t, abs=1e-9
        )


def test_exp_map_zero_tangent_raises():
    base = manifold.uniform(3)
    zero = manifold.TangentVector(np.zeros(3), base)
    with pytest.raises(ZeroTangent):
        manifold.exp_map(base, zero, 0.5)


def test_geodesic_point_between_equal_points_is_the_point():
    # the computed distance rounds to exactly 0, so log_map returns the
    # zero tangent; exp_map would refuse to advance along it
    a = manifold.from_weights([0.0, 1e-5])
    b = manifold.from_weights([0.0, 1e-5])
    assert manifold.geodesic_distance_exact(a, b) == 0.0
    assert manifold.geodesic_point(a, b, 0.3) is a
    mid = manifold.geodesic_point_rows(a.phi[np.newaxis], b.phi[np.newaxis], 0.5)
    assert mid.tobytes() == a.phi[np.newaxis].tobytes()


def test_log_map_of_base_is_zero():
    base = manifold.uniform(3)
    v = manifold.log_map(base, base)
    assert np.allclose(v.f, 0.0)


def test_log_map_norm_equals_distance(rng):
    for n in (3, 10, 100):
        for _ in range(100):
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            v = manifold.log_map(a, b)
            assert abs(v.norm - manifold.geodesic_distance_exact(a, b)) < 1e-8


def test_exp_log_round_trip(rng):
    for n in (3, 10, 100):
        worst = 0.0
        for _ in range(100):
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            back = manifold.exp_map(a, manifold.log_map(a, b), 1.0)
            worst = max(worst, float(np.max(np.abs(back.phi - b.phi))))
        assert worst < 1e-8


def test_log_exp_round_trip(rng):
    base = random_distribution(rng, 6)
    v = manifold.project_tangent(base, 0.3 * rng.standard_normal(6))
    out = manifold.exp_map(base, v, 1.0)
    back = manifold.log_map(base, out)
    assert np.max(np.abs(back.f - v.f)) < 1e-8


def test_constructed_distributions_normalized(rng):
    for n in (2, 3, 10, 100):
        for _ in range(50):
            d = random_distribution(rng, n)
            assert abs(manifold.mass(d.phi) - 1.0) < 1e-10
