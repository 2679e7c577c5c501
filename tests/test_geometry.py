from __future__ import annotations

import math

import numpy as np
import pytest

from quelab.geometry import (
    GeodesicBall,
    HeegnerPoint,
    Mobius3,
    PointH2,
    PointH3,
    apply_mobius,
    ball_nodes,
    ball_quadrature,
    ball_volume,
    distance,
    sample_ball,
)


def test_distance_identity_and_doubling():
    assert distance(3, PointH3(0j, 1.0), PointH3(0j, 1.0)) == 0.0
    # cosh rho(j, 2j) = 5/4, hence rho = ln 2
    assert distance(3, PointH3(0j, 1.0), PointH3(0j, 2.0)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_distance_h2_unit_step():
    got = distance(2, PointH2(0.0, 1.0), PointH2(1.0, 1.0))
    assert got == pytest.approx(math.acosh(1.5), abs=1e-12)


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = PointH2(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        q = PointH2(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        r = PointH2(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        assert distance(2, p, q) == pytest.approx(distance(2, q, p), abs=1e-12)
        assert distance(2, p, r) <= distance(2, p, q) + distance(2, q, r) + 1e-12
    for _ in range(200):
        p = PointH3(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.2, 3.0))
        q = PointH3(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.2, 3.0))
        assert distance(3, p, q) == pytest.approx(distance(3, q, p), abs=1e-12)
        assert distance(3, p, q) >= 0.0


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance(2, PointH2(0.0, 1.0), PointH3(0j, 1.0))


def test_ball_volume_closed_forms():
    assert ball_volume(3, 0.1) == pytest.approx(math.pi * (math.sinh(0.2) - 0.2), rel=1e-14)
    assert ball_volume(2, 1.0) == pytest.approx(2.0 * math.pi * (math.cosh(1.0) - 1.0), rel=1e-14)
    # euclidean limit
    assert ball_volume(3, 1e-4) / 1e-12 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)


def test_ball_volume_monotone_and_domain():
    radii = [0.1, 0.3, 0.9, 2.0]
    vols = [ball_volume(3, r) for r in radii]
    assert all(a < b for a, b in zip(vols, vols[1:]))
    with pytest.raises(ValueError):
        ball_volume(2, 0.0)
    with pytest.raises(ValueError):
        ball_volume(1, 1.0)
    with pytest.raises(ValueError):
        ball_volume(4, 1.0)


def test_ball_volume_h3_numeric_two_route():
    # omega_2 * integral of sinh^2 over [0, R] against the closed form
    for R in (0.3, 1.0, 2.5):
        us = np.linspace(0.0, R, 200001)
        numeric = 4.0 * math.pi * np.trapezoid(np.sinh(us) ** 2, us)
        assert abs(numeric - ball_volume(3, R)) < 1e-10 * max(1.0, ball_volume(3, R))


def test_mobius_translation_and_inversion():
    trans = Mobius3(1, 1, 0, 1)
    p = apply_mobius(trans, PointH3(0j, 1.0))
    assert p.z == pytest.approx(1.0 + 0j) and p.r == pytest.approx(1.0)

    inv = Mobius3(0, -1, 1, 0)
    fixed = apply_mobius(inv, PointH3(0j, 1.0))
    assert abs(fixed.z) < 1e-14 and fixed.r == pytest.approx(1.0, abs=1e-14)
    halved = apply_mobius(inv, PointH3(0j, 2.0))
    assert halved.r == pytest.approx(0.5, abs=1e-14)


def test_mobius_determinant_guard():
    with pytest.raises(ValueError):
        Mobius3(1, 1, 1, 1)


def test_mobius_isometry_invariance():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        a = complex(rng.normal(), rng.normal()) + 0.2
        b = complex(rng.normal(), rng.normal())
        c = complex(rng.normal(), rng.normal())
        d = (1.0 + b * c) / a
        m = Mobius3(a, b, c, d)
        p = PointH3(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.3, 2.0))
        q = PointH3(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.3, 2.0))
        before = distance(3, p, q)
        after = distance(3, apply_mobius(m, p), apply_mobius(m, q))
        assert abs(before - after) <= 1e-10


def test_sample_ball_empty_and_deterministic():
    ball = GeodesicBall(2, PointH2(0.0, 1.0), 0.5)
    assert sample_ball(ball, 1, 0) == []
    a = sample_ball(ball, 99, 50)
    b = sample_ball(ball, 99, 50)
    assert a == b
    c = sample_ball(ball, 100, 50)
    assert a != c


def test_sample_ball_radial_law_h3():
    """Radial CDF of uniform hyperbolic samples must follow the volume ratio.

    Kolmogorov-Smirnov at the 1% level with n = 1e5; the critical value is
    1.628/sqrt(n).
    """
    ball = GeodesicBall(3, PointH3(0.2 + 0.1j, 1.3), 1.0)
    pts = sample_ball(ball, seed=2024, count=100000)
    rho = np.sort([distance(3, ball.center, p) for p in pts])
    cdf = np.array([ball_volume(3, r) for r in rho]) / ball_volume(3, 1.0)
    n = len(rho)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(cdf - lo)))
    assert ks < 1.628 / math.sqrt(n)

    # binomial check of the inner-ball fraction at rho <= 0.5
    p_half = ball_volume(3, 0.5) / ball_volume(3, 1.0)
    frac = np.mean(rho <= 0.5)
    assert abs(frac - p_half) <= 3.0 * math.sqrt(p_half * (1 - p_half) / n)


def test_sample_ball_radial_law_h2():
    ball = GeodesicBall(2, PointH2(0.3, 1.1), 0.8)
    pts = sample_ball(ball, seed=7, count=100000)
    rho = np.sort([distance(2, ball.center, p) for p in pts])
    cdf = np.array([ball_volume(2, r) for r in rho]) / ball_volume(2, 0.8)
    n = len(rho)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(cdf - lo)))
    assert ks < 1.628 / math.sqrt(n)


def test_ball_quadrature_constant_gives_volume():
    b2 = GeodesicBall(2, PointH2(0.1, 0.9), 0.7)
    b3 = GeodesicBall(3, PointH3(0.1 - 0.2j, 1.1), 0.6)
    assert ball_quadrature(b2, lambda p: 1.0).real == pytest.approx(ball_volume(2, 0.7), abs=1e-12)
    assert ball_quadrature(b3, lambda p: 1.0).real == pytest.approx(ball_volume(3, 0.6), abs=1e-12)


@pytest.mark.parametrize("dim, center, R", [
    (2, PointH2(0.1, 0.9), 0.7),
    (3, PointH3(0.1 - 0.2j, 1.1), 0.6),
])
def test_ball_nodes_weights_sum_to_volume(dim, center, R):
    for order in (12, 20):
        *nodes, w = ball_nodes(GeodesicBall(dim, center, R), order)
        assert all(a.shape == (order ** dim,) for a in (*nodes, w))
        assert abs(w.sum() - ball_volume(dim, R)) <= 1e-12 * ball_volume(dim, R)


def test_ball_nodes_match_polar_coordinates_point_by_point():
    """The array rule against geodesic polar coordinates built one node at a
    time: radius outermost, azimuth innermost."""
    from quelab._quad import gl_nodes

    order = 5
    c2 = PointH2(0.1, 0.9)
    z, _ = ball_nodes(GeodesicBall(2, c2, 0.7), order)
    want = []
    for rho in gl_nodes(0.0, 0.7, order)[0]:
        for phi in gl_nodes(0.0, 2.0 * math.pi, order)[0]:
            w = math.tanh(0.5 * rho) * complex(math.cos(phi), math.sin(phi))
            want.append(complex(c2.x, 0.0) + c2.y * 1j * (1.0 + w) / (1.0 - w))
    assert np.max(np.abs(z - np.array(want))) <= 4e-15

    c3 = PointH3(0.1 - 0.2j, 1.1)
    z, r, _ = ball_nodes(GeodesicBall(3, c3, 0.6), order)
    want = []
    for rho in gl_nodes(0.0, 0.6, order)[0]:
        tau = math.tanh(0.5 * rho)
        for theta in gl_nodes(0.0, math.pi, order)[0]:
            for phi in gl_nodes(0.0, 2.0 * math.pi, order)[0]:
                v = tau * np.array([math.sin(theta) * math.cos(phi),
                                    math.sin(theta) * math.sin(phi), math.cos(theta)])
                den = v[0] ** 2 + v[1] ** 2 + (v[2] + 1.0) ** 2
                want.append((c3.z + c3.r * complex(2.0 * v[0] / den, 2.0 * v[1] / den),
                             c3.r * (-1.0 + 2.0 * (v[2] + 1.0) / den)))
    assert np.max(np.abs(z - np.array([p[0] for p in want]))) <= 4e-15
    assert np.max(np.abs(r - np.array([p[1] for p in want]))) <= 4e-15
    # every node lies in the ball
    assert max(distance(3, c3, PointH3(a, b)) for a, b in zip(z.tolist(), r.tolist())) < 0.6


def test_ball_quadrature_radial_exponential_h3():
    # closed form of integral e^{-rho} 4 pi sinh^2 rho over [0, 1]
    center = PointH3(0.2 + 0.1j, 1.3)
    ball = GeodesicBall(3, center, 1.0)
    got = ball_quadrature(ball, lambda p: math.exp(-distance(3, center, p)), order=32).real
    e = math.e
    exact = math.pi * ((e - 1.0) + 2.0 * (1.0 / e - 1.0) + (1.0 - e ** -3) / 3.0)
    assert abs(got - exact) < 1e-8


def test_ball_quadrature_matches_monte_carlo():
    center = PointH2(0.0, 1.0)
    ball = GeodesicBall(2, center, 0.6)
    f = lambda p: (1.0 - (distance(2, center, p) / 0.6) ** 2) ** 2  # smooth radial bump
    quad = ball_quadrature(ball, f, order=32).real
    pts = sample_ball(ball, seed=31, count=20000)
    vals = np.array([f(p) for p in pts])
    vol = ball_volume(2, 0.6)
    mc = vol * vals.mean()
    se = vol * vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(quad - mc) <= 3.0 * se


def test_degenerate_ball_rejected():
    with pytest.raises(ValueError):
        GeodesicBall(2, PointH2(0.0, 1.0), 1e-9)
    with pytest.raises(ValueError):
        GeodesicBall(3, PointH3(0j, 1.0), -0.5)


@pytest.mark.parametrize("dim, center", [(1, PointH2(0.0, 1.0)), (4, PointH3(0j, 1.0))])
def test_ball_dimension_is_two_or_three(dim, center):
    with pytest.raises(ValueError, match="dimension must be 2 or 3"):
        GeodesicBall(dim, center, 0.5)


def test_point_validation():
    with pytest.raises(ValueError):
        PointH2(0.0, 0.0)
    with pytest.raises(ValueError):
        PointH3(0j, -1.0)


def test_heegner_point_fields():
    hp = HeegnerPoint(1, 0, 1)
    assert hp.d == -4
    assert hp.z.x == 0.0 and hp.z.y == pytest.approx(1.0)
    hp2 = HeegnerPoint(1, -1, 1)
    assert hp2.d == -3
    assert hp2.z.x == pytest.approx(0.5) and hp2.z.y == pytest.approx(math.sqrt(3) / 2)
    with pytest.raises(ValueError):
        HeegnerPoint(1, 0, -1)
