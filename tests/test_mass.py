from __future__ import annotations

import math

import numpy as np
import pytest

from quelab import eisenstein, mass
from quelab.eisenstein import EisensteinH2, EisensteinH3, SeriesPlan, _reduce_h2, lower_bound_avg
from quelab.geometry import (
    GeodesicBall,
    HeegnerPoint,
    PointH2,
    PointH3,
    ball_nodes,
    ball_volume,
)
from quelab.lattice import ImagQuadField
from quelab.mass import (
    H2_MAIN_TERM,
    MassResult,
    ball_mass,
    bianchi_main_term,
    bianchi_volume,
    mean_value_residual,
    variance_window,
)

QI = ImagQuadField(-1)

PICARD_VOLUME = 0.3053218647257397
PICARD_MAIN_TERM = 6.550464382223436


class _ConstantSeries:
    """Evaluator stub whose |value|^2 integrates to exactly the main term."""

    def __init__(self, main: float, dim: int):
        self.main = main
        self.dim = dim

    def value(self, p, s) -> complex:
        t = s.imag if self.dim == 2 else s.imag
        log = math.log(0.25 + t * t) if self.dim == 2 else math.log(1.0 + t * t)
        return complex(math.sqrt(self.main * log), 0.0)

    def plan(self, s):
        return SeriesPlan(lambda z, *r: np.full(z.shape, self.value(None, s), dtype=complex))


def test_main_term_constants():
    assert H2_MAIN_TERM == pytest.approx(3.0 / math.pi, rel=1e-15)
    assert bianchi_volume(QI) == pytest.approx(PICARD_VOLUME, rel=1e-12)
    assert bianchi_main_term(QI) == pytest.approx(PICARD_MAIN_TERM, rel=1e-12)


def test_ball_mass_result_shape():
    ball = GeodesicBall(2, PointH2(0.0, 1.0), 0.3)
    res = ball_mass(2, ball, 6.0, EisensteinH2(), order=16)
    assert isinstance(res, MassResult)
    assert res.method == "quadrature" and res.stderr == 0.0
    assert res.raw_mass >= 0.0
    assert res.deviation == pytest.approx(res.normalized_mass - res.main_term, abs=1e-15)
    assert res.main_term == pytest.approx(H2_MAIN_TERM, rel=1e-15)


def test_ball_mass_quadrature_vs_monte_carlo():
    ball = GeodesicBall(2, PointH2(0.2, 1.0), 0.5)
    ev = EisensteinH2()
    quad = ball_mass(2, ball, 10.0, ev, order=32)
    mc = ball_mass(2, ball, 10.0, ev, method="monte_carlo", mc_count=4096, seed=7)
    assert mc.method == "monte_carlo" and mc.stderr > 0.0
    assert abs(quad.raw_mass - mc.raw_mass) <= 3.0 * mc.stderr


def test_ball_mass_monte_carlo_deterministic():
    ball = GeodesicBall(2, PointH2(0.2, 1.0), 0.4)
    ev = EisensteinH2()
    a = ball_mass(2, ball, 5.0, ev, method="monte_carlo", mc_count=1024, seed=3)
    b = ball_mass(2, ball, 5.0, ev, method="monte_carlo", mc_count=1024, seed=3)
    c = ball_mass(2, ball, 5.0, ev, method="monte_carlo", mc_count=1024, seed=4)
    assert a.raw_mass == b.raw_mass
    assert a.raw_mass != c.raw_mass


def test_ball_mass_small_radius_continuity():
    # raw mass approaches vol * |E(center)|^2 like 1 + O(R^2)
    center = PointH2(0.1, 1.2)
    ball = GeodesicBall(2, center, 0.01)
    ev = EisensteinH2()
    res = ball_mass(2, ball, 6.0, ev, order=16)
    point_value = abs(ev.value(center, complex(0.5, 6.0))) ** 2
    rel = abs(res.raw_mass - ball_volume(2, 0.01) * point_value) / res.raw_mass
    assert rel < 5e-3


def test_ball_mass_guards():
    ball = GeodesicBall(2, PointH2(0.0, 1.0), 0.3)
    ev = EisensteinH2()
    with pytest.raises(ValueError):
        ball_mass(2, ball, 1.0, ev)
    with pytest.raises(ValueError):
        ball_mass(3, ball, 5.0, ev)
    with pytest.raises(ValueError):
        ball_mass(2, ball, 5.0, ev, method="sampling")
    with pytest.raises(ValueError):
        ball_mass(2, ball, 5.0, ev, method="monte_carlo", mc_count=100)


def test_ball_mass_refuses_more_than_max_ball_nodes(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise RuntimeError("nodes built for an oversized ball")
    monkeypatch.setattr(mass, "ball_nodes", no_nodes)
    monkeypatch.setattr(mass, "sample_ball", no_nodes)
    ev = EisensteinH2()
    ball = GeodesicBall(2, PointH2(0.0, 1.0), 0.3)
    with pytest.raises(ValueError, match="more than 1000000 nodes"):
        ball_mass(2, ball, 5.0, ev, order=1001)
    with pytest.raises(ValueError, match="more than 1000000 nodes"):
        ball_mass(2, ball, 5.0, ev, method="monte_carlo", mc_count=1_000_001)
    ball3 = GeodesicBall(3, PointH3(0.1 + 0.1j, 1.0), 0.3)
    with pytest.raises(ValueError, match="more than 1000000 nodes"):
        ball_mass(3, ball3, 5.0, EisensteinH3(field=QI), order=101)


def test_ball_mass_makes_one_cosh_route_k_call_per_run_of_blocks(monkeypatch):
    """Below |Im nu| = 8 a run of whole blocks of at most TABLE_K_ARGS
    arguments shares one bessel_K_many call; runs of one block each give the
    same mass within 1e-13."""
    calls = []
    bessel_K_many = eisenstein.bessel_K_many

    def counted(nu, xs):
        calls.append(len(xs))
        return bessel_K_many(nu, xs)

    monkeypatch.setattr(eisenstein, "bessel_K_many", counted)
    ev = EisensteinH2()
    ball = GeodesicBall(2, PointH2(0.1, 1.2), 6.5 ** (-1.0 / 3.0))
    runs = ball_mass(2, ball, 6.5, ev, order=20).raw_mass
    z, _ = ball_nodes(ball, 20)
    n_max = int(ev.terms_for(_reduce_h2(z).imag, 6.5).max())
    per_block = eisenstein.BLOCK_K_ARGS // n_max
    per_run = per_block * (eisenstein.TABLE_K_ARGS // n_max // per_block)
    assert len(calls) == math.ceil(z.size / per_run)
    assert max(calls) <= eisenstein.TABLE_K_ARGS

    calls.clear()
    monkeypatch.setattr(eisenstein, "TABLE_K_ARGS", eisenstein.BLOCK_K_ARGS)
    blocks = ball_mass(2, ball, 6.5, ev, order=20).raw_mass
    assert 1 < len(calls) == math.ceil(z.size / per_block)
    assert max(calls) <= eisenstein.BLOCK_K_ARGS
    assert abs(blocks - runs) <= 1e-13 * abs(runs)


def test_cauchy_schwarz_single_configuration():
    w = HeegnerPoint(1, 0, 1)
    ball = GeodesicBall(2, w.z, 0.3)
    res = ball_mass(2, ball, 10.0, EisensteinH2(), order=32)
    assert lower_bound_avg(w, 0.3, 10.0) < res.normalized_mass


def test_enlarging_ball_moves_mass_toward_main_term():
    """Trend test over 10 random centers, not a per-instance assertion."""
    rng = np.random.default_rng(42)
    ev = EisensteinH2()
    small, large = [], []
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4)
        y = rng.uniform(1.0, 1.6)
        for R, out in ((0.12, small), (0.45, large)):
            ball = GeodesicBall(2, PointH2(x, y), R)
            out.append(abs(ball_mass(2, ball, 8.0, ev, order=24).deviation))
    assert np.mean(large) < np.mean(small)


def test_mean_value_residual_h2():
    ball = GeodesicBall(2, PointH2(0.0, 1.0), 0.4)
    assert mean_value_residual(2, ball, 5.0, EisensteinH2()) <= 1e-3


class _One:
    """The constant eigenfunction, on H^2 or H^3."""

    def value(self, p, s):
        return 1.0

    def plan(self, s):
        return SeriesPlan(lambda z, *r: np.full(z.shape, self.value(None, s), dtype=complex))


def test_mean_value_residual_constant_series():
    # the constant eigenfunction sits at t = i(n-1)/2, where h = 1
    b2 = GeodesicBall(2, PointH2(0.1, 1.1), 0.3)
    assert mean_value_residual(2, b2, 0.5j, _One()) <= 1e-12
    b3 = GeodesicBall(3, PointH3(0.1 + 0.1j, 1.0), 0.3)
    assert mean_value_residual(3, b3, 1j, _One()) <= 1e-12
    with pytest.raises(ValueError, match="ball dimension"):
        mean_value_residual(3, b2, 1j, _One())


def test_mean_value_residual_sums_one_values_call():
    """The ball average takes all order^3 nodes of an H^3 ball in one `values` call."""
    ev = EisensteinH3(field=QI)
    sizes = []

    class _Spy:
        def value(self, p, s):
            return ev.value(p, s)

        def plan(self, s):
            inner = ev.plan(s)

            def values(z, r):
                sizes.append(z.size)
                return inner.values(z, r)
            return SeriesPlan(values)

    ball = GeodesicBall(3, PointH3(0.1 + 0.2j, 1.0), 0.3)
    res = mean_value_residual(3, ball, 8.0, _Spy(), order=8)
    assert sizes == [8 ** 3]
    assert res == mean_value_residual(3, ball, 8.0, ev, order=8)


def test_mean_value_residual_non_informative():
    ball = GeodesicBall(2, PointH2(0.1, 1.1), 0.3)

    class _Zero:
        def value(self, p, s):
            return 0.0

        def plan(self, s):
            return SeriesPlan(lambda z: np.full(z.shape, self.value(None, s), dtype=complex))

    with pytest.raises(ArithmeticError):
        mean_value_residual(2, ball, 5.0, _Zero())


def test_variance_window_zero_for_exact_main_term():
    stub = _ConstantSeries(H2_MAIN_TERM, 2)
    out = variance_window(2, PointH2(0.0, 1.0), 0.4, 5.0, 0.5, stub, order=8)
    assert out <= 1e-20


def test_variance_window_resolution():
    ev = EisensteinH2()
    center = PointH2(0.083, 1.13)
    coarse = variance_window(2, center, 0.5, 10.0, 0.25, ev, order=16)
    fine = variance_window(2, center, 0.5, 10.0, 0.125, ev, order=16)
    assert abs(fine - coarse) / coarse < 0.05
    assert coarse == pytest.approx(5.219278, rel=1e-4)


def test_variance_window_dominates_min_deviation():
    ev = EisensteinH2()
    center = PointH2(0.0, 1.0)
    out = variance_window(2, center, 0.5, 5.0, 0.5, ev, order=16)
    assert out >= 0.0
    ball = GeodesicBall(2, center, 0.5)
    devs = [ball_mass(2, ball, t, ev, order=16).deviation ** 2
            for t in np.arange(5.0, 10.01, 0.5)]
    assert out >= 5.0 * min(devs) - 1e-12


def test_variance_window_guards(monkeypatch):
    ev = EisensteinH2()
    with pytest.raises(ValueError):
        variance_window(2, PointH2(0.0, 1.0), 0.4, 5.0, 0.7, ev)
    with pytest.raises(ValueError):
        variance_window(2, PointH2(0.0, 1.0), 0.4, 5.0, 0.0, ev)
    with pytest.raises(ValueError):
        variance_window(2, PointH2(0.0, 1.0), 0.4, 3.0, 0.5, ev)

    # a window of 500,000 nodes is refused before any mass is computed; a
    # step too small to advance T would otherwise never end the node loop
    def no_mass(*args, **kwargs):
        raise RuntimeError("ball_mass called for an oversized window")
    monkeypatch.setattr(mass, "ball_mass", no_mass)
    with pytest.raises(ValueError, match="more than 100000 points"):
        variance_window(2, PointH2(0.0, 1.0), 0.4, 5.0, 1e-5, ev)


def test_ball_mass_h3_main_term():
    ball = GeodesicBall(3, PointH3(0.1 + 0.1j, 1.0), 0.3)
    res = ball_mass(3, ball, 8.0, EisensteinH3(field=QI), order=16)
    assert res.main_term == pytest.approx(PICARD_MAIN_TERM, rel=1e-12)
    assert res.raw_mass > 0.0
