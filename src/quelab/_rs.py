"""Riemann-Siegel integral formula for zeta on the critical strip.

Evaluates the exact identity

    zeta(s) = sum_{n<=N} n^{-s} + I(s, N)
              + chi(s) * conj( sum_{m<=N} m^{-(1-conj s)} + I(1-conj s, N) )

where I(w, N) integrates e^{i pi x^2} x^{-w} / (e^{i pi x} - e^{-i pi x})
along the straight line of direction e^{i pi/4} crossing the real axis at
N + 1/2, and N = floor(sqrt(t / 2 pi)).  The line passes through the
saddle of the integrand, so a fixed-size Gauss-Legendre grid gives near
machine precision uniformly in t.  This is the integral the classical
asymptotic remainder expansions approximate.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from ._quad import panel_nodes
from .specfun import log_gamma

__all__ = ["zeta_rs", "STRIP"]

STRIP = (-0.5, 1.5)  # sigma range served; callers fall back elsewhere

_DIR = cmath.exp(1j * math.pi / 4)
_U, _W = panel_nodes(np.linspace(-5.5, 5.5, 23), 16)


def _chi(s: complex) -> complex:
    # zeta(s) = chi(s) zeta(1-s)
    return cmath.exp(
        (s - 0.5) * math.log(math.pi) + log_gamma((1.0 - s) / 2.0) - log_gamma(s / 2.0)
    )


def _saddle_integral(w: complex, crossing: float) -> complex:
    x = crossing + _U * _DIR
    log_x = np.log(x)  # contour never meets the cut (-inf, 0]
    num = np.exp(1j * math.pi * x * x - w * log_x)
    den = np.exp(1j * math.pi * x) - np.exp(-1j * math.pi * x)
    # poles at the integers carry residue n^{-w}/(2 pi i); the line is
    # traversed so that shifting it rightward across n adds n^{-w}.
    return -_DIR * complex(np.dot(num / den, _W))


def _partial_sum(w: complex, N: int) -> complex:
    if N < 1:
        return 0.0 + 0.0j
    n = np.arange(1, N + 1, dtype=float)
    return complex(np.sum(np.exp(-w * np.log(n))))


def zeta_rs(s: complex) -> complex:
    """zeta(s) by the Riemann-Siegel integral formula; sigma in STRIP."""
    s = complex(s)
    if s == 1.0:
        raise ValueError("pole at s = 1")
    if not (STRIP[0] <= s.real <= STRIP[1]):
        raise ValueError("outside the served strip")
    if s.imag < 0.0:
        return zeta_rs(s.conjugate()).conjugate()
    t = s.imag
    N = int(math.sqrt(t / (2.0 * math.pi)))
    c = N + 0.5
    w2 = 1.0 - s.conjugate()
    direct = _partial_sum(s, N) + _saddle_integral(s, c)
    mirrored = _partial_sum(w2, N) + _saddle_integral(w2, c)
    return direct + _chi(s) * mirrored.conjugate()
