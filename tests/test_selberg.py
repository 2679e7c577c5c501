from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from quelab.geometry import GeodesicBall, PointH2, PointH3, ball_quadrature, ball_volume
from quelab.mass import mean_value_residual
from quelab.selberg import (
    BallKernel,
    amplitude_in_range,
    h_bessel_asym,
    h_char,
    h_closed_h3,
)
from quelab.specfun import bessel_J

# closed-form H3 value at R = 0.5, t = 10, frozen from the antiderivative
H3_HALF_TEN = -0.05785615997843234


def test_normalization_at_constant_eigenvalue():
    for n in (2, 3, 9):
        t0 = 1j * (n - 1) / 2.0
        for R in (0.05, 0.5):
            assert abs(h_char(BallKernel(n, R), t0) - 1.0) <= 1e-10


def test_h_char_real_even_bounded():
    k = BallKernel(2, 0.3)
    for t in np.linspace(0.1, 40.0, 15):
        plus = h_char(k, float(t))
        minus = h_char(k, float(-t))
        assert abs(plus.imag) < 1e-12
        assert abs(plus - minus) < 1e-12
        assert abs(plus) <= 1.0 + 1e-12


def test_h_closed_frozen_value():
    assert h_closed_h3(0.5, 10.0) == pytest.approx(H3_HALF_TEN, abs=1e-12)
    assert h_char(BallKernel(3, 0.5), 10.0).real == pytest.approx(H3_HALF_TEN, abs=1e-9)
    # headline tolerance of the antiderivative oracle
    assert abs(h_closed_h3(0.5, 10.0) - (-0.05786)) < 1e-5


def test_h3_routes_agree_on_grid():
    for R in (0.1, 0.5, 1.0):
        k = BallKernel(3, R)
        for t in np.geomspace(0.1, 200.0, 10):
            assert abs(h_char(k, float(t)) - h_closed_h3(R, float(t))) <= 1e-8


# R*t from the smooth range across the old Filon switch (R*t = 50) to 1500
_RT = (5.0, 60.0, 300.0, 1500.0)


def _h_hypergeometric(mpmath, n: int, R: float, t: float):
    """h as the ball mean of the spherical function, by hypergeometric functions.

    With rho = (n-1)/2 and the radial equation of phi_t,
    integral_0^R phi_t sinh^{n-1} = sinh^n R cosh R F(1+a, 1+b; n/2+1; -sinh^2 R) / n,
    a, b = (rho +- i t)/2; at t = i rho, (a, b) = (0, rho).
    """
    rho = mpmath.mpf(n - 1) / 2
    c = mpmath.mpf(n) / 2 + 1
    z = -mpmath.sinh(mpmath.mpf(R)) ** 2
    it = 1j * mpmath.mpf(t)
    num = mpmath.hyp2f1(1 + (rho + it) / 2, 1 + (rho - it) / 2, c, z)
    return complex(num / mpmath.hyp2f1(1, 1 + rho, c, z))


def test_h_char_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for n in (2, 4, 5):
            for R in (0.1, 0.5, 1.0):
                for x in _RT:
                    want = _h_hypergeometric(mpmath, n, R, x / R)
                    assert abs(h_char(BallKernel(n, R), x / R) - want) <= 2e-14, (n, R, x)


def test_h_char_matches_closed_form_past_old_switch():
    for R in (0.1, 0.5, 1.0):
        k = BallKernel(3, R)
        for x in np.geomspace(50.5, 2000.0, 24):
            t = float(x / R)
            assert abs(h_char(k, t) - h_closed_h3(R, t)) <= 5e-14, (R, x)


def test_h_char_raises_when_amplitude_leaves_range():
    # (cosh R - cosh u)^{(n-1)/2} under- and overflows; no NaN comes back
    for R in (0.4, 2.0):
        with pytest.raises(ArithmeticError):
            h_char(BallKernel(100000, R), 5.0)


def test_amplitude_range_admits_only_finite_transforms():
    """In range, h is finite at the normalizing point and on the real line;
    out of range, h_char raises before integrating."""
    admitted = 0
    for n in (2, 3, 9, 201, 1001, 100000):
        for R in np.geomspace(1e-4, 400.0, 25):
            kernel = BallKernel(n, float(R))
            if amplitude_in_range(n, float(R)):
                admitted += 1
                for t in (1j * (n - 1) / 2.0, 5.0, 40.0 / R):
                    assert cmath.isfinite(h_char(kernel, t)), (n, R, t)
            else:
                with pytest.raises(ArithmeticError):
                    h_char(kernel, 5.0)
    assert 40 < admitted < 150


def test_h_closed_removable_singularities():
    assert h_closed_h3(0.5, 1j) == pytest.approx(1.0, abs=1e-10)
    # series fallback joins the generic branch continuously
    assert abs(h_closed_h3(0.5, 1e-4) - h_closed_h3(0.5, 0.0)) < 1e-6
    assert abs(h_closed_h3(0.5, 2e-3) - h_closed_h3(0.5, 1e-3)) < 1e-5


def test_bessel_asym_reduces_to_closed_form_n3():
    # Gamma(5/2) (2/x)^{3/2} J_{3/2}(x) = 3 x^{-2} (sin x / x - cos x)
    for (R, t) in ((0.01, 1000.0), (0.1, 200.0), (0.2, 40.0)):
        x = R * t
        got = h_bessel_asym(BallKernel(3, R), t)
        closed = 3.0 / x**2 * (math.sin(x) / x - math.cos(x))
        assert got == pytest.approx(closed, abs=1e-12)
        gamma_form = math.gamma(2.5) * (2.0 / x) ** 1.5 * bessel_J(1.5, x)
        assert got == pytest.approx(gamma_form, abs=1e-12)


def test_bessel_asym_matches_h_char_in_regime():
    k = BallKernel(3, 1e-3)
    exact = h_char(k, 1e5).real
    asym = h_bessel_asym(k, 1e5)
    assert abs(exact - asym) <= 0.02 * abs(asym)


def test_bessel_asym_envelope_n5():
    k = BallKernel(5, 0.01)
    x = 0.01 * 5000.0
    envelope = 1.2 * math.gamma(3.5) * (2.0 / x) ** 2.5 * math.sqrt(2.0 / (math.pi * x))
    assert abs(h_bessel_asym(k, 5000.0)) <= envelope


def test_bessel_asym_regime_guard():
    with pytest.raises(ValueError):
        h_bessel_asym(BallKernel(3, 0.001), 100.0)
    with pytest.raises(ValueError):
        h_bessel_asym(BallKernel(3, 0.5), 1000.0)


def test_decay_envelope_stays_bounded_as_octaves_double():
    """sup over [X, 2X] of |h(t)| (Rt)^{(n+1)/2} must not grow with X."""
    for n, cap in ((2, 2.0), (3, 3.5)):
        for R in (0.1, 0.5):
            k = BallKernel(n, R)
            X = 10.0 / R
            sups = []
            while X <= 1000.0 / R + 1e-9:
                ts = np.linspace(X, 2.0 * X, 40)
                sups.append(max(abs(h_char(k, float(t))) * (R * t) ** ((n + 1) / 2.0)
                                for t in ts))
                X *= 2.0
            assert max(sups) <= 1.25 * sups[0]
            assert max(sups) <= cap


def test_kernel_guards():
    with pytest.raises(ValueError):
        BallKernel(1, 0.5)
    with pytest.raises(ValueError):
        BallKernel(3, 0.0)
    # h is even in t, so the admitted strip is |Im t| <= (n - 1) / 2 on both sides
    for t in (5j, -5j):
        with pytest.raises(ValueError, match="outside the admitted strip"):
            h_char(BallKernel(3, 0.5), t)


def test_mean_value_constant_function():
    # the constant eigenfunction sits at t = i(n-1)/2: its ball average and
    # h(t) times its centre value are both 1
    for ball, t in ((GeodesicBall(2, PointH2(0.2, 1.1), 0.4), 0.5j),
                    (GeodesicBall(3, PointH3(0.1 + 0.1j, 1.0), 0.3), 1.0j)):
        n = ball.dimension
        avg = ball_quadrature(ball, lambda p: 1.0) / ball_volume(n, ball.radius)
        pred = h_char(BallKernel(n, ball.radius), t) * 1.0
        assert abs(avg - 1.0) < 1e-10 and abs(pred - 1.0) < 1e-10

    class _One:
        def value(self, p, s):
            return 1.0

    b2 = GeodesicBall(2, PointH2(0.2, 1.1), 0.4)
    with pytest.raises(ValueError):
        mean_value_residual(3, b2, 1.0j, _One())
