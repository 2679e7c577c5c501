"""Selberg transform of the normalized characteristic ball kernel.

The averaging operator over a geodesic R-ball in H^n acts on a Laplace
eigenfunction with spectral parameter t as multiplication by

    h(t) = I(t) / I(t0),    I(t) = integral_0^R (cosh R - cosh u)^{(n-1)/2} cos(tu) du,

with t0 = i(n-1)/2 the parameter of the constant eigenfunction, so h(t0) = 1
by construction.  Three routes: composite Gauss-Legendre quadrature of
I(t), the H^3 closed form, and the small-R Bessel asymptotic.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._quad import panel_nodes
from .geometry import ball_quadrature, ball_volume
from .specfun import bessel_J

__all__ = [
    "BallKernel",
    "amplitude_in_range",
    "h_char",
    "h_closed_h3",
    "h_bessel_asym",
    # re-exported: perfbench's tracer patches quelab.selberg.ball_quadrature
    "ball_quadrature",
]


@dataclass(frozen=True)
class BallKernel:
    n: int
    R: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("dimension must be >= 2")
        if not self.R > 0.0:
            raise ValueError("radius must be positive")


# ----------------------------------------------------------------------------
# Direct quadrature of I(t).  The substitution u = R(1 - x^2) makes the
# integrand analytic: (cosh R - cosh u)^m = x^{2m} g(x^2)^m with g > 0.
# The rule is composite, in equal panels of _PANEL_NODES Gauss-Legendre
# nodes each, so every R and t shares one cached rule; about 1.4 R t + 48
# nodes in all resolve the oscillation cos(t u).

_PANEL_NODES = 24

# float64 spans about e^{-708} to e^{709}; the integrands' logarithms stay
# within this margin of 0, which leaves room for the weights and the sum
_LOG_RANGE = 650.0


def amplitude_in_range(n: int, R: float) -> bool:
    """Whether the integrands of `h_char` stay in float64 range for an
    n-dimensional R-ball.

    With m = (n-1)/2 the amplitude (cosh R - cosh u)^m peaks at (cosh R - 1)^m
    at u = 0.  The largest |cos(t u)| in the admitted strip, cosh(m u), stays
    below e^{m R}, and times the amplitude below (sinh^2 R / 2)^m.  All three
    are taken in logarithms, with cosh R - 1 = e^R (1 - e^{-R})^2 / 2 and
    sinh R = e^R (1 - e^{-2R}) / 2.
    """
    if not R > 0.0:
        return False
    m = 0.5 * (n - 1)
    low = m * (R + 2.0 * math.log(-math.expm1(-R)) - math.log(2.0))
    high = m * max(R, 2.0 * (R + math.log(-math.expm1(-2.0 * R))) - 3.0 * math.log(2.0))
    return low > -_LOG_RANGE and high < _LOG_RANGE


def _amplitude_integral(R: float, m: float, t: complex) -> complex:
    panels = -(-(int(1.4 * (abs(t.real) * R)) + 48) // _PANEL_NODES)
    x, w = panel_nodes(np.linspace(0.0, 1.0, panels + 1), _PANEL_NODES)
    u = R * (1.0 - x * x)
    # cosh R - cosh u as a product of sinh, free of cancellation at small R
    amp = np.power(2.0 * np.sinh(0.5 * (R + u)) * np.sinh(0.5 * R * x * x), m) * (2.0 * R * x)
    if t.imag == 0.0 and t.real >= 0.0:
        return float(np.dot(amp * np.cos(t.real * u), w))
    phase = np.cos(t * u.astype(complex))
    return complex(np.dot(amp * phase, w))


def h_char(kernel: BallKernel, t) -> complex:
    """Selberg transform of the ball kernel, normalized so h(i(n-1)/2) = 1.

    Raises ArithmeticError when the amplitude under- or overflows (see
    `amplitude_in_range`; very large n), instead of returning a NaN.
    """
    tv = complex(t)
    half = 0.5 * (kernel.n - 1)
    if abs(tv.imag) > half + 1e-9:  # h is even in t
        raise ValueError("spectral parameter outside the admitted strip")
    if not amplitude_in_range(kernel.n, kernel.R):
        raise ArithmeticError(f"ball-kernel amplitude leaves float64 range for "
                              f"n = {kernel.n}, R = {kernel.R:g}")
    m = half  # exponent (n-1)/2 of the amplitude
    # an overflow or invalid value anywhere ends in a non-finite h, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        denom = _amplitude_integral(kernel.R, m, complex(0.0, half))
        num = _amplitude_integral(kernel.R, m, tv)
    h = num / denom
    if not cmath.isfinite(h):
        raise ArithmeticError(f"ball-kernel transform is not finite for n = {kernel.n}")
    return h


def h_closed_h3(R: float, t) -> complex:
    """Closed form of h_char for n = 3; exact up to rounding.

    h = 4 pi (cosh R sin(tR) - t sinh R cos(tR)) / ((1 + t^2) t vol(B_R)),
    with series fallbacks at the removable points t = 0 and t = i.
    """
    if not R > 0.0:
        raise ValueError("radius must be positive")
    tv = complex(t)
    vol = ball_volume(3, R)
    cosh_R, sinh_R = math.cosh(R), math.sinh(R)
    if abs(tv) < 1e-3:
        c0 = R * cosh_R - sinh_R
        c1 = -(R**3) * cosh_R / 6.0 + R * R * sinh_R / 2.0
        c2 = (R**5) * cosh_R / 120.0 - (R**4) * sinh_R / 24.0
        t2 = tv * tv
        val = 4.0 * math.pi * (c0 + c1 * t2 + c2 * t2 * t2) / ((1.0 + t2) * vol)
        return val.real if tv.imag == 0.0 else val
    if abs(tv - 1j) < 1e-3:
        eps = tv - 1j
        d1 = -vol / (2.0 * math.pi)
        d2 = 2j * R * sinh_R * sinh_R
        d3 = -(R**3) + 1.5 * R * R * math.sinh(2.0 * R)
        num = d1 + eps * d2 / 2.0 + eps * eps * d3 / 6.0
        return 4.0 * math.pi * num / (vol * (-2.0 + 3j * eps + eps * eps))
    if tv.imag == 0.0:
        x = tv.real * R
        num = cosh_R * math.sin(x) - tv.real * sinh_R * math.cos(x)
        return 4.0 * math.pi * num / ((1.0 + tv.real**2) * tv.real * vol)
    num = cosh_R * cmath.sin(tv * R) - tv * sinh_R * cmath.cos(tv * R)
    return 4.0 * math.pi * num / ((1.0 + tv * tv) * tv * vol)


def h_bessel_asym(kernel: BallKernel, t: float) -> float:
    """Small-R asymptotic Gamma(n/2+1) (2/(Rt))^{n/2} J_{n/2}(Rt).

    This is the R -> 0 limit of h_char's ratio; accurate to O(R^2) plus the
    Bessel envelope (Rt)^{-(n+1)/2}.
    """
    x = kernel.R * t
    if x < 5.0 or kernel.R > 0.2:
        raise ValueError("asymptotic regime needs R*t >= 5 and R <= 0.2")
    nu = 0.5 * kernel.n
    return math.gamma(nu + 1.0) * (2.0 / x) ** nu * bessel_J(nu, x)
