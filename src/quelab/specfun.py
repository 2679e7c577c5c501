"""Special functions: complex log-gamma, K-Bessel of complex order, J-Bessel.

Everything here is float64. The K-Bessel evaluator integrates the cosh
representation directly rather than switching between asymptotic regimes;
its accuracy is set by the e^{-42} tail cutoff and the trapezoid step.
"""
from __future__ import annotations

import cmath
import math
import sys

import numpy as np

__all__ = ["log_gamma", "bessel_J", "bessel_K_many"]

_LOG_2PI = math.log(2.0 * math.pi)

# cap on K trapezoid nodes per octave; it binds only for |Im nu| in the
# thousands, where K_nu underflows, and the rule then stops short of the cutoff
_K_MAX_NODES = 60_000
# most elements of one (arguments x nodes) matrix in `bessel_K_many` (512 KB)
_K_CHUNK = 1 << 16

# Lanczos approximation, g = 7, 9 terms.  Relative error of Gamma is below
# 1e-13 on the right half-plane, which the accuracy tests pin down.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _log_sin_pi(s: complex) -> complex:
    # Overflow-safe log(sin(pi s)); used only through exp()/abs(), so the
    # imaginary part is not reduced to the principal strip.
    y = s.imag
    if abs(y) < 8.0:
        return cmath.log(cmath.sin(math.pi * s))
    if y > 0:
        # sin(pi s) = -e^{-i pi s}(1 - e^{2 i pi s})/(2i)
        return (
            -1j * math.pi * s
            + complex(-math.log(2.0), 0.5 * math.pi)
            + cmath.log(1.0 - cmath.exp(2j * math.pi * s))
        )
    return _log_sin_pi(s.conjugate()).conjugate()


def log_gamma(s: complex) -> complex:
    """log Gamma(s) by Lanczos, reflected for Re s < 1/2: the continuous log
    Gamma on Re s >= 1/2 (Im not reduced: 360.5 at s = 1/2 + 100i), log Gamma
    modulo 2 pi i below (2 pi off it at s = -2.5 + i); callers use exp or Re."""
    s = complex(s)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == math.floor(s.real):
        raise ValueError(f"log_gamma pole at s = {s}")
    if s.real < 0.5:
        return math.log(math.pi) - _log_sin_pi(s) - log_gamma(1.0 - s)
    w = s - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    base = w + _LANCZOS_G + 0.5
    return 0.5 * _LOG_2PI + (w + 0.5) * cmath.log(base) - base + cmath.log(acc)


# ----------------------------------------------------------------------------
# J-Bessel, orders n/2 with n >= 2.


def _bessel_j_series(nu: float, x: float) -> float:
    # Ascending series; adequate for x up to ~12 before cancellation bites.
    q = 0.25 * x * x
    term = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))
    acc = term
    for k in range(1, 200):
        term *= -q / (k * (nu + k))
        acc += term
        if abs(term) < 1e-18 * (abs(acc) + 1e-300):
            break
    return acc


def _bessel_j_half_recurrence(nu: float, x: float) -> float:
    # Upward recurrence from the closed forms; stable for x >= nu.
    pref = math.sqrt(2.0 / (math.pi * x))
    jm = pref * math.sin(x)                      # J_{1/2}
    j = pref * (math.sin(x) / x - math.cos(x))   # J_{3/2}
    order = 1.5
    while order < nu - 0.25:
        jm, j = j, (2.0 * order / x) * j - jm
        order += 1.0
    return j if abs(order - nu) < 0.25 else jm


def _bessel_j_asymptotic(nu: float, x: float) -> float:
    # Hankel's expansion; x well above the order so the series is effective.
    mu = 4.0 * nu * nu
    p, q = 1.0, 0.0
    term = 1.0
    sign = 1.0
    for k in range(1, 30):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if k % 2 == 1:
            q += sign * term
        else:
            sign = -sign
            p += sign * term
        if abs(term) < 1e-18:
            break
    omega = x - 0.5 * nu * math.pi - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(omega) - q * math.sin(omega))


def bessel_J(order: float, x: float) -> float:
    """J-Bessel for orders in {n/2 : n >= 2} and real x >= 0."""
    nu = float(order)
    if abs(2.0 * nu - round(2.0 * nu)) > 1e-12 or nu < 1.0:
        raise ValueError("order must be n/2 for integer n >= 2")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    if x < max(12.0, 1.2 * nu):
        return _bessel_j_series(nu, x)
    if abs(2.0 * nu - round(2.0 * nu)) < 1e-12 and round(2.0 * nu) % 2 == 1:
        return _bessel_j_half_recurrence(nu, x)
    return _bessel_j_asymptotic(nu, x)


# ----------------------------------------------------------------------------
# K-Bessel via K_nu(x) = int_0^inf exp(-x cosh u) cosh(nu u) du.


def _k_cutoff(x: float, re_nu: float) -> float:
    # Smallest U with x(cosh U - 1) - |Re nu| U >= 42, so the dropped tail is
    # below e^{-42} relative to the e^{-x} scale of the integral.
    a = abs(re_nu)
    u = math.acosh(1.0 + 42.0 / x)
    for _ in range(12):
        u = math.acosh(1.0 + (42.0 + a * u) / x)
    if not math.isfinite(u):  # cosh U = 1 + (42 + a U) / x overflows
        raise ValueError(f"x below {2.0 * x:.3g} is too small for K at Re nu = {re_nu:g}: "
                         "cosh u overflows float64 before the e^-42 cutoff")
    return u


def _k_grid(x0: float, nu: complex) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes k h on [0, u_max] for x in [x0, 2 x0), u_max the cutoff
    at x0, and their weights times cosh(nu u).

    The integrand is even in u and analytic in a strip, so the rule converges
    geometrically (Trefethen & Weideman, SIAM Review 56, 2014).  The step
    h = min(0.2, 1.25 / |Im nu|, 0.5 / sqrt(x0)) resolves the oscillation
    cos(Im nu u) and, for large x, the peak e^{-x (cosh u - 1)} of width
    about x^{-1/2}, so the error stays relative to the e^{-x} scale.
    """
    h = min(0.2, 1.25 / max(1.0, abs(nu.imag)), 0.5 / math.sqrt(x0))
    n = min(int(math.ceil(_k_cutoff(x0, nu.real) / h)) + 1, _K_MAX_NODES)
    u = h * np.arange(n)
    if nu.imag == 0.0:
        w = h * np.cosh(nu.real * u)
    elif nu.real == 0.0:
        w = h * np.cos(nu.imag * u)
    else:
        w = h * np.cosh(nu * u)
    w[0] *= 0.5
    return u, w


def bessel_K_many(nu: complex, xs: np.ndarray) -> np.ndarray:
    """Vectorized K_nu over an array of positive x by the trapezoid rule.

    The arguments are grouped by octave [2^j, 2^(j+1)) (`np.frexp`), and each
    group takes the `_k_grid` rule of its lower edge, so a value depends on
    nu and the octave of x, not on the other arguments (up to the rounding of
    the matrix product).  Each (arguments x nodes) matrix holds at most
    _K_CHUNK elements, whatever the number of arguments.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0, dtype=complex)
    if not np.all(xs >= sys.float_info.min):
        raise ValueError("bessel_K_many requires x > 0, and x >= sys.float_info.min "
                         f"= {sys.float_info.min!r} (the smallest normal float)")
    nu = complex(nu)
    expo = np.frexp(xs)[1]  # x in [2^(expo-1), 2^expo)
    # bincount, not a bare np.unique, whose first call imports numpy.ma (about 14 ms)
    low = int(expo.min())
    out = np.empty(xs.shape, dtype=complex)
    for e in (low + np.flatnonzero(np.bincount(expo - low))).tolist():
        u, w = _k_grid(math.ldexp(0.5, e), nu)
        neg_cu = -np.cosh(u)
        where = np.flatnonzero(expo == e)
        rows = max(1, _K_CHUNK // u.size)
        for i in range(0, where.size, rows):
            part = where[i : i + rows]
            m = np.multiply.outer(xs[part], neg_cu)
            np.exp(m, out=m)
            out[part] = m @ w.real + 1j * (m @ w.imag) if w.dtype == complex else m @ w
    return out
