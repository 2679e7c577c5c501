"""Zeta and L-functions on the critical strip, plus moment integrals.

Two independent zeta backends (Euler-Maclaurin and the Riemann-Siegel
integral formula) cross-check each other.  Epstein zeta functions of every
rank are continued by one incomplete-gamma (theta) splitting,
`epstein_lattice_sum`, which is manifestly symmetric under s -> n/2 - s; a
binary form goes through it on its Gram matrix (`epstein_Z`).  Moment
integrals take 10 Gauss-Legendre nodes on each quarter panel of [0, T] and
need no adaptivity: the integrands are analytic for |Im t| < 1/2 (the poles
of zeta(1/2 +- it) are at t = -+i/2), so on panels of half-width 1/8 the rule
converges like (4 + sqrt 17)^{-20}.  The Dedekind fourth moment shares these
nodes between the direct integral and its Holder majorant so the inequality
is exact even discretely.
"""
from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._quad import gl_nodes
from . import _rs
from .lattice import BinaryQuadraticForm, ImagQuadField, kronecker_chi
from .specfun import log_gamma

__all__ = [
    "ZetaBackend",
    "FourthMomentResult",
    "riemann_zeta",
    "hurwitz_zeta",
    "dirichlet_L",
    "dedekind_zeta",
    "epstein_Z",
    "epstein_lattice_sum",
    "upper_gamma",
    "log_xi",
    "scattering_phi_K",
    "scattering_phi_Q",
    "zeta_moment",
    "dedekind_fourth_moment",
    "default_backend",
]

# B_{2j} / (2j)! for j = 1..8
_B_OVER_FACT = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
)
_B18_OVER_FACT = 43867.0 / (798.0 * 6402373705728000.0)  # tail estimator

# Euler-Maclaurin stops once its tail estimate is below
# max(abs tol, rel tol * |value|), or at the head-term cap
_EM_ABS_TOL = 1e-12
_EM_REL_TOL = 1e-10
_EM_MAX_TERMS = 60_000


def _cexpm1(z: complex) -> complex:
    if abs(z) < 0.5:
        total = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(1, 24):
            term *= z / k
            total += term
            if abs(term) < 1e-18 * max(abs(total), 1e-300):
                break
        return total
    return cmath.exp(z) - 1.0


def _hurwitz_reg(s: complex, x: float) -> complex:
    """zeta(s, x) - 1/(s-1): the pole-free part, entire in s."""
    s = complex(s)
    N = max(20, int(2.0 * abs(s.imag)) + 1)
    N = min(N, _EM_MAX_TERMS)
    while True:
        k = np.arange(N, dtype=float) + x
        head = complex(np.sum(np.exp(-s * np.log(k))))
        M = N + x
        logM = math.log(M)
        # (M^{1-s} - 1)/(s - 1), continuous through s = 1
        w = s - 1.0
        if abs(w) < 1e-8:
            boundary = logM * (-1.0 + 0.5 * w * logM)
        else:
            boundary = _cexpm1(-w * logM) / w
        Mpow_s = cmath.exp(-s * logM)
        total = head + boundary + 0.5 * Mpow_s
        poch = s
        Mpow = Mpow_s / M
        bern = 0.0 + 0.0j
        for j, coef in enumerate(_B_OVER_FACT):
            bern += coef * poch * Mpow
            poch *= (s + 2 * j + 1) * (s + 2 * j + 2)
            Mpow /= M * M
        total += bern
        tail = _B18_OVER_FACT * abs(poch) * abs(Mpow)
        if tail <= max(_EM_ABS_TOL, _EM_REL_TOL * abs(total)) or N >= _EM_MAX_TERMS:
            return total
        N = min(2 * N, _EM_MAX_TERMS)


def hurwitz_zeta(s: complex, a: float) -> complex:
    if a <= 0.0:
        raise ValueError("a must be positive")
    s = complex(s)
    if s == 1.0:
        raise ValueError("pole at s = 1")
    return _hurwitz_reg(s, a) + 1.0 / (s - 1.0)


# most values one ZetaBackend keeps; past it the oldest entry is evicted
_CACHE_LIMIT = 65_536


@dataclass
class ZetaBackend:
    """Memoizing zeta evaluator with a selectable method and a bounded cache."""

    method: str = "euler_maclaurin"
    _cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if self.method not in ("euler_maclaurin", "riemann_siegel"):
            raise ValueError(f"unknown method {self.method!r}")

    def zeta(self, s: complex) -> complex:
        s = complex(s)
        if s == 1.0:
            raise ValueError("pole at s = 1")
        key = (self.method, round(s.real, 14), round(s.imag, 14))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.method == "riemann_siegel" and _rs.STRIP[0] <= s.real <= _rs.STRIP[1]:
            val = _rs.zeta_rs(s)
        else:
            # EM serves as the general-purpose route; the RS integral formula
            # is kept to the critical strip where its contour analysis holds.
            val = hurwitz_zeta(s, 1.0)
        with self._lock:
            if len(self._cache) >= _CACHE_LIMIT:
                del self._cache[next(iter(self._cache))]
            self._cache[key] = val
        return val

    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()


_DEFAULT_BACKEND = ZetaBackend()


def default_backend() -> ZetaBackend:
    return _DEFAULT_BACKEND


def riemann_zeta(s: complex) -> complex:
    return _DEFAULT_BACKEND.zeta(s)


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _is_fundamental(d: int) -> bool:
    if d >= -2:
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and _squarefree(-(d // 4))


def dirichlet_L(s: complex, d_K: int) -> complex:
    """L(s, chi) for the primitive quadratic character of discriminant d_K.

    Hurwitz decomposition q^{-s} sum_a chi(a) zeta(s, a/q); the character
    sums to zero over a period, so the Hurwitz poles cancel exactly and the
    pole-free form below is valid at every s including s = 1.
    """
    if not _is_fundamental(d_K):
        raise ValueError(f"{d_K} is not a negative fundamental discriminant")
    s = complex(s)
    q = -d_K
    total = 0.0 + 0.0j
    for a in range(1, q):
        chi = kronecker_chi(d_K, a)
        if chi:
            total += chi * _hurwitz_reg(s, a / q)
    return cmath.exp(-s * math.log(q)) * total


def dedekind_zeta(field_: ImagQuadField, s: complex) -> complex:
    """zeta_K = zeta(s) L(s, chi_{d_K}) for the imaginary quadratic field."""
    return riemann_zeta(s) * dirichlet_L(s, field_.discriminant)


# ----------------------------------------------------------------------------
# Incomplete gamma and Epstein zeta.


def _upper_gamma_cf(s: complex, x: float) -> complex:
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 600):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if d == 0:
            d = tiny
        c = b + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return cmath.exp(-x + s * cmath.log(x)) * h


def _exp_integral_e1(x: float) -> float:
    # Gamma(0, x) for 0 < x < ~6
    total = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        total -= term / k
        if abs(term) < 1e-18:
            break
    return total - 0.5772156649015328606 - math.log(x)


def _upper_gamma_series(s: complex, x: float) -> complex:
    if abs(s.imag) < 1e-12 and s.real < 0.25:
        m = round(s.real)
        if m <= 0 and abs(s - m) < 1e-12:
            # exact nonpositive integer order: downward recurrence from E1
            val = complex(_exp_integral_e1(x))
            for j in range(0, m, -1):
                val = (val - cmath.exp((j - 1) * math.log(x) - x)) / (j - 1)
            return val
        if abs(s.real - m) < 0.25:
            # near a gamma pole: lift the order by recurrence
            if abs(s) < 1e-6:
                raise ArithmeticError("order too close to a nonpositive integer")
            return (_upper_gamma_series(s + 1.0, x) - cmath.exp(s * cmath.log(x) - x)) / s
    term = 1.0 / s
    total = term
    k = 0
    while True:
        k += 1
        term *= x / (s + k)
        total += term
        if abs(term) < 1e-17 * abs(total) or k > 400:
            break
    lower = cmath.exp(s * cmath.log(x) - x) * total
    return cmath.exp(log_gamma(s)) - lower


def upper_gamma(s: complex, x: float) -> complex:
    """Incomplete gamma Gamma(s, x) for complex order and real x > 0."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    s = complex(s)
    if x >= abs(s) + 4.0:
        return _upper_gamma_cf(s, x)
    return _upper_gamma_series(s, x)


def _gamma_cutoff(sigma_max: float, target: float = 45.0) -> float:
    X = target
    for _ in range(6):
        X = target + max(sigma_max, 0.0) * math.log(max(X, 2.0))
    return X


def _lattice_values(A: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values x^T A x <= bound over nonzero x in Z^n, with multiplicities.

    The points come from a Fincke-Pohst walk; each value is then recomputed
    as x^T A x from the integer point, which is exact when A has integer and
    half-integer entries (the Gram matrix of an integral binary form).
    """
    n = A.shape[0]
    R = np.linalg.cholesky(A).T  # upper triangular, Q(x) = |R x|^2
    points: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, rem: float) -> None:
        center = sum(R[i, j] * x[j] for j in range(i + 1, n))
        half = math.sqrt(max(rem, 0.0))
        lo = math.ceil((-half - center) / R[i, i] - 1e-12)
        hi = math.floor((half - center) / R[i, i] + 1e-12)
        for xi in range(lo, hi + 1):
            x[i] = xi
            y = (R[i, i] * xi + center) ** 2
            if y > rem + 1e-9:
                continue
            if i == 0:
                if any(x):
                    points.append(tuple(x))
            else:
                rec(i - 1, rem - y)
        x[i] = 0

    rec(n - 1, bound)
    P = np.array(points, dtype=float).reshape(-1, n)
    return np.unique(np.einsum("ij,jk,ik->i", P, A, P), return_counts=True)


def epstein_lattice_sum(A: np.ndarray, s: complex) -> complex:
    """Z(s; A) = sum over nonzero x in Z^n of (x^T A x)^{-s}, continued to all s.

    Theta splitting at T = det(A)^{-1/n} keeps the two incomplete-gamma sums
    symmetric under s -> n/2 - s.  float64 cancellation in the completed
    function limits useful accuracy to roughly |Im s| <= 15; every consumer
    in this package stays well inside that.
    """
    s = complex(s)
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("A must be symmetric")
    if abs(s) < 1e-12 or abs(s - n / 2.0) < 1e-12:
        raise ValueError(f"s = 0 and s = {n/2} are excluded")
    detA = float(np.linalg.det(A))
    if detA <= 0.0:
        raise ValueError("A must be positive definite")
    T = detA ** (-1.0 / n)
    X = _gamma_cutoff(max(abs(s.real), abs(n / 2.0 - s.real)) + 1.0)

    direct = 0.0 + 0.0j
    values, counts = _lattice_values(A, X / (math.pi * T))
    for q, cnt in zip(values.tolist(), counts.tolist()):
        pq = math.pi * q
        direct += cnt * cmath.exp(-s * math.log(pq)) * upper_gamma(s, pq * T)

    dual = 0.0 + 0.0j
    values, counts = _lattice_values(np.linalg.inv(A), X * T / math.pi)
    for q, cnt in zip(values.tolist(), counts.tolist()):
        pq = math.pi * q
        dual += cnt * cmath.exp((s - n / 2.0) * math.log(pq)) * upper_gamma(n / 2.0 - s, pq / T)

    lam = (
        -cmath.exp(s * math.log(T)) / s
        + cmath.exp((s - n / 2.0) * math.log(T)) / ((s - n / 2.0) * math.sqrt(detA))
        + direct
        + dual / math.sqrt(detA)
    )
    return cmath.exp(s * math.log(math.pi) - log_gamma(s)) * lam


def epstein_Z(Q: BinaryQuadraticForm, s: complex) -> complex:
    """Z(s, Q) = sum over nonzero (m, n) of Q(m, n)^{-s}, continued to all s.

    The lattice sum on the Gram matrix [[a, b/2], [b/2, c]] of Q.
    """
    return epstein_lattice_sum(np.array([[Q.a, Q.b / 2.0], [Q.b / 2.0, Q.c]]), s)


# ----------------------------------------------------------------------------
# Scattering matrices.


def log_xi(w: complex) -> complex:
    """log(pi^{-w/2} Gamma(w/2) zeta(w)), finite where xi underflows; Im not reduced."""
    return -0.5 * w * math.log(math.pi) + log_gamma(0.5 * w) + cmath.log(riemann_zeta(w))


def scattering_phi_Q(s: complex) -> complex:
    """Constant-term coefficient xi(2s-1)/xi(2s) of the modular-surface case.

    Assembled from `log_xi`, so the critical line is safe.  For Re s <= 0 it
    returns 1 / phi(1 - s): Euler-Maclaurin zeta at Re(2s - 1) <= -1 loses digits
    to cancelling head terms (1.6e-12 relative at s = -0.3 + 20i), while the
    reflected point lies where it is accurate to about 1e-14.
    """
    s = complex(s)
    for bad in (0.0, 0.5, 1.0):
        if abs(s - bad) < 1e-12:
            raise ValueError(f"pole or zero of the completed ratio at s = {bad}")
    if s.real <= 0.0:
        return 1.0 / scattering_phi_Q(1.0 - s)
    return cmath.exp(log_xi(2.0 * s - 1.0) - log_xi(2.0 * s))


def scattering_phi_K(field_: ImagQuadField, s: complex) -> complex:
    """Scattering coefficient (2 pi / (s sqrt|d_K|)) zeta_K(s) / zeta_K(1+s)."""
    s = complex(s)
    if abs(s) < 1e-12 or abs(s - 1.0) < 1e-12 or abs(s + 1.0) < 1e-12:
        raise ValueError("pole of the scattering ratio")
    dk = abs(field_.discriminant)
    return (
        2.0 * math.pi / (s * math.sqrt(dk))
        * dedekind_zeta(field_, s)
        / dedekind_zeta(field_, 1.0 + s)
    )


# ----------------------------------------------------------------------------
# Moment integrals on the critical line.


def _quarter_panel_rules(T: float):
    """Yield the moment rule's (nodes, weights) per panel of [0, T], cut at multiples of 1/4."""
    edges = [0.25 * k for k in range(int(T / 0.25) + 1)]
    if edges[-1] < T - 1e-12:
        edges.append(T)
    for lo, hi in zip(edges, edges[1:]):
        yield gl_nodes(lo, hi, 10)


def zeta_moment(k: int, T: float) -> float:
    """Integral over [0, T] of |zeta(1/2 + it)|^{2k}, k in {2, 6}."""
    if k not in (2, 6):
        raise ValueError("k must be 2 or 6")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if T == 0.0:
        return 0.0
    power = 2 * k
    return math.fsum(float(np.dot([abs(riemann_zeta(complex(0.5, t))) ** power for t in u], w))
                     for u, w in _quarter_panel_rules(T))


@dataclass(frozen=True)
class FourthMomentResult:
    value: float
    holder_bound: float


def dedekind_fourth_moment(field_: ImagQuadField, T: float) -> FourthMomentResult:
    """Fourth moment of zeta_K on the critical line, with its Holder majorant.

    The direct integral of |zeta|^4 |L|^4 and the bound
    (twelfth moment of zeta)^{1/3} (sixth moment of L)^{2/3} are evaluated
    on one shared node set, so value <= holder_bound holds exactly.
    """
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    if T == 0.0:
        return FourthMomentResult(0.0, 0.0)
    d_K = field_.discriminant
    parts = []
    for u, w in _quarter_panel_rules(T):
        az = np.array([abs(riemann_zeta(complex(0.5, t))) for t in u])
        al = np.array([abs(dirichlet_L(complex(0.5, t), d_K)) for t in u])
        parts.append((float(np.dot(az**4 * al**4, w)), float(np.dot(az**12, w)),
                      float(np.dot(al**6, w))))
    direct, twelfth, sixth = (math.fsum(col) for col in np.reshape(parts, (-1, 3)).T)
    return FourthMomentResult(direct, twelfth ** (1.0 / 3.0) * sixth ** (2.0 / 3.0))
