from __future__ import annotations

import cmath
import math
import sys
import warnings

import numpy as np
import pytest

from quelab.specfun import (
    bessel_J,
    bessel_K_many,
    log_gamma,
)

# frozen quadrature oracles for the cosh-integral representation
K0_AT_1 = 0.4210244382407083
KI_AT_1 = 0.2894280370259922


def _k_at(nu: complex, x: float) -> complex:
    """K_nu at one x, through the array entry point."""
    return complex(bessel_K_many(nu, np.array([x]))[0])


def test_log_gamma_classics():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)


def test_log_gamma_recursion():
    rng = np.random.default_rng(8)
    for _ in range(100):
        s = complex(rng.uniform(-5, 8), rng.uniform(-30, 30))
        if abs(s - round(s.real)) < 0.1 and s.real <= 0:
            continue
        lhs = cmath.exp(log_gamma(s + 1.0))
        rhs = s * cmath.exp(log_gamma(s))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_log_gamma_modulus_at_1_plus_10i():
    """|Gamma(1+iy)|^2 = pi y / sinh(pi y), an exact identity.

    The leading Stirling modulus sqrt(2 pi) y^{1/2} e^{-pi y/2} must then
    agree to well under 1%.
    """
    y = 10.0
    got = abs(cmath.exp(log_gamma(1.0 + 1j * y)))
    exact = math.sqrt(math.pi * y / math.sinh(math.pi * y))
    assert got == pytest.approx(exact, rel=1e-12)
    stirling = math.sqrt(2.0 * math.pi) * math.sqrt(y) * math.exp(-0.5 * math.pi * y)
    assert abs(got - stirling) / stirling < 0.01


def test_log_gamma_matches_mpmath():
    """log_gamma against 30-digit mpmath.loggamma, modulo 2 pi i.  On
    Re s >= 1/2 both are the continuous log Gamma, so no multiple of 2 pi i
    separates them; below, the reflection leaves one (2 pi at s = -2.5 + i).
    The worst measured gap is 1.8e-15 max(1, |log Gamma|), at s = 1/2 + 3i."""
    mpmath = pytest.importorskip("mpmath")
    points = (0.5 + 3j, 0.5 + 100j, 0.7 - 250j, 2 + 40j, 12 - 3j, 30 + 0.5j, 1.5, 7.0,
              0.3, 0.01, -0.5 + 0.01j, -2.5 + 1j, -4.3 - 7j, -7.5 + 20j)
    with mpmath.workdps(30):
        for s in points:
            s = complex(s)
            want = complex(mpmath.loggamma(mpmath.mpc(s.real, s.imag)))
            gap = log_gamma(s) - want
            turns = round(gap.imag / (2.0 * math.pi))
            if s.real >= 0.5:
                assert turns == 0, (s, turns)
            gap -= 2j * math.pi * turns
            assert abs(gap) <= 3.5e-15 * max(1.0, abs(want)), (s, abs(gap))


def test_log_gamma_pole():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.0)


def test_bessel_j_examples():
    assert bessel_J(1.5, math.pi) == pytest.approx(math.sqrt(2.0) / math.pi, abs=1e-12)
    assert bessel_J(1.0, 0.0) == 0.0


def test_bessel_j_closed_form_three_halves():
    for x in (0.3, 2.0, 9.0, 40.0):
        closed = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert bessel_J(1.5, x) == pytest.approx(closed, abs=1e-12)


def test_bessel_j_envelope():
    for x in np.linspace(10.0, 300.0, 40):
        assert abs(bessel_J(1.5, float(x))) <= math.sqrt(2.0 / (math.pi * x)) * (1.0 + 2.0 / x)


def test_bessel_j_hankel_branch_matches_mpmath():
    # integer orders at x >= 12 take Hankel's expansion
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for nu in (1, 2, 3):
            for x in np.geomspace(12.0, 1500.0, 40):
                want = float(mpmath.besselj(nu, float(x)))
                assert abs(bessel_J(nu, float(x)) - want) <= 5e-12, (nu, x)


def test_bessel_j_order_guard():
    with pytest.raises(ValueError):
        bessel_J(0.7, 1.0)


def test_bessel_k_frozen_oracles():
    assert _k_at(0.0, 1.0).real == pytest.approx(K0_AT_1, abs=1e-10)
    assert _k_at(1j, 1.0).real == pytest.approx(KI_AT_1, abs=1e-10)
    # purely imaginary order gives a real value
    assert abs(_k_at(1j, 1.0).imag) < 1e-12
    # headline tolerance from the quadrature oracle
    assert abs(_k_at(1j, 1.0).real - 0.2894) < 1e-3


def test_bessel_k_decay_in_x():
    # imaginary order oscillates below the turning point x ~ |nu|, so the
    # monotone window starts at x = 1
    vals = [abs(_k_at(2j, x)) for x in (1.0, 2.0, 5.0, 12.0, 30.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bessel_k_conjugate_symmetry():
    for nu in (0.5 + 3j, 2j, 1.2 - 7j, 0.1 + 11j):
        for x in (0.3, 1.0, 6.0):
            a = _k_at(nu.conjugate(), x)
            b = _k_at(nu, x).conjugate()
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_bessel_k_recurrence_real_orders():
    # K_{v-1}(x) - K_{v+1}(x) = -(2v/x) K_v(x)
    for nu in (0.5, 1.3, 2.7):
        for x in (0.7, 2.0, 10.0):
            lhs = _k_at(nu - 1.0, x) - _k_at(nu + 1.0, x)
            rhs = -(2.0 * nu / x) * _k_at(nu, x)
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_bessel_k_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x in (0.01, 0.1, 0.5, 2.0, 10.0, 50.0):
            for nu in (0.0, 0.5j, 5j, 20j, 60j, 1.5, 0.3 + 12j):
                want = complex(mpmath.besselk(nu, x))
                got = _k_at(nu, x)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (nu, x, abs(got - want))


@pytest.mark.parametrize("tau", [2.0, 4.0, 5.0, 6.0, 6.25, 7.0, 7.5, 7.9, 7.99])
def test_cosh_k_route_matches_mpmath_below_switch(tau):
    """`bessel_K_many(sigma + i tau, x)` on the orders the series sends to the
    cosh integral, one argument per call and all in one batch, within 2e-16
    absolute on K: the balanced series multiplies K by e^{pi tau / 2}, so
    this is 2e-16 e^{pi tau / 2} on the scaled K it feeds.  The trapezoid
    step leaves 0.2 at tau = 6.25."""
    mpmath = pytest.importorskip("mpmath")
    xs = np.geomspace(0.9, 120.0, 30)
    for sigma in (0.0, 0.3, -0.5):
        nu = complex(sigma, tau)
        with mpmath.workdps(30):
            want = np.array([complex(mpmath.besselk(nu, x)) for x in xs])
        single = np.concatenate([bessel_K_many(nu, xs[i:i + 1]) for i in range(xs.size)])
        assert np.max(np.abs(single - want)) <= 2e-16, sigma
        assert np.max(np.abs(bessel_K_many(nu, xs) - want)) <= 2e-16, sigma


@pytest.mark.parametrize("tau", [0.0, 1.0, 4.0, 6.25, 7.99])
def test_cosh_k_route_small_x_relative_to_envelope(tau):
    """For x from 0.02 to 0.9 the error is within 1e-15 K_{Re nu}(x), the
    integral of the integrand's modulus, which bounds |K_nu(x)|.  Relative to
    |K_nu(x)| itself no cosh quadrature can do that once tau > 1: for x < tau
    the integral cancels down to about e^{-pi tau / 2} of the envelope."""
    mpmath = pytest.importorskip("mpmath")
    xs = np.geomspace(0.02, 0.9, 20)
    for sigma in (0.0, 0.3, -0.5):
        nu = complex(sigma, tau)
        with mpmath.workdps(30):
            want = np.array([complex(mpmath.besselk(nu, x)) for x in xs])
            envelope = np.array([float(mpmath.besselk(sigma, x)) for x in xs])
        assert np.all(np.abs(bessel_K_many(nu, xs) - want) <= 1e-15 * envelope), sigma


def test_bessel_k_many_batch_over_octaves():
    """About 5,000 arguments over ten octaves, most of them in [1/2, 1), so
    that the octave grouping and the bounded chunks both run, against one
    call per argument; a value depends on its octave, not on its batch."""
    from quelab import specfun

    rng = np.random.default_rng(20)
    xs = np.concatenate([rng.uniform(0.5, 1.0, 3000), np.geomspace(0.03, 30.0, 2000)])
    rng.shuffle(xs)
    for nu in (complex(0.0, 7.99), complex(0.3, 5.0)):
        assert np.sum(xs < 1.0) * specfun._k_grid(0.5, nu)[0].size > specfun._K_CHUNK
        batch = bessel_K_many(nu, xs)
        single = np.concatenate([bessel_K_many(nu, xs[i:i + 1]) for i in range(xs.size)])
        envelope = bessel_K_many(nu.real, xs).real
        assert np.all(np.abs(batch - single) <= 1e-15 * envelope)


def test_bessel_k_many_memory_is_bounded():
    """200,000 arguments stay below 8 MB of numpy buffers at peak: the output
    alone is 3.2 MB, and the (arguments x nodes) matrices are chunked."""
    import tracemalloc

    xs = np.geomspace(0.5, 200.0, 200_000)
    tracemalloc.start()
    try:
        out = bessel_K_many(3j, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == xs.shape and np.all(np.isfinite(out))
    assert peak < 8 * 2**20


def test_bessel_k_many_matches_scalar():
    xs = np.array([0.5, 1.0, 3.0, 8.0])
    batch = bessel_K_many(2.5j, xs)
    for x, v in zip(xs, batch):
        assert abs(v - _k_at(2.5j, float(x))) < 1e-13


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        _k_at(1j, 0.0)
    with pytest.raises(ValueError):
        _k_at(1j, -2.0)
    with pytest.raises(ValueError, match="x > 0"):
        _k_at(1j, float("nan"))
    # subnormal x is refused, with the bound named
    for x in (1e-310, 5e-324):
        with pytest.raises(ValueError, match="sys.float_info.min"):
            _k_at(1j, x)
    # just above that bound cosh of the e^-42 cutoff overflows float64
    with pytest.raises(ValueError, match="too small for K"):
        _k_at(1j, sys.float_info.min)
    assert cmath.isfinite(_k_at(1j, 1e-300))
    # where K itself leaves float64 range (|K| near 1e901 and 1e751) the call
    # raises, with no overflow warning on the way; a large finite K does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nu, x in ((3 + 2j, 1e-300), (5.0, 1e-150)):
            with pytest.raises(ValueError, match="float64 overflow"):
                _k_at(nu, x)
            with pytest.raises(ValueError, match="float64 overflow"):
                bessel_K_many(nu, np.array([1.0, x, 2.0]))
        assert cmath.isfinite(_k_at(0.4 + 30j, 1e-200))
