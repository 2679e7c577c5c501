"""Eisenstein series on the modular surface and on Bianchi 3-manifolds.

Each surface gets two independent evaluation routes.  On H^2 the Fourier
expansion (constant term plus a K-Bessel cosine series) is cross-checked
against the binary-quadratic-form zeta value at a Heegner point, where

    E(z_Q, s) = (a y)^s Z(s, Q~) / (2 zeta(2s)),   Q~ = (c, -b, a),

with Z the two-variable Epstein sum of the form.  On H^3 the Fourier
expansion over a class-number-one ring of integers is cross-checked against
the literal Poincare series over coprime pairs and against a quaternary
Epstein lattice sum.  The module also provides the archimedean gamma-factor
quotients with their exponential-over-polynomial surrogates.

Critical-line evaluation balances the e^{pi t / 2} decay of the K-Bessel
factor against the matching growth of the reciprocal completed-zeta and
reciprocal gamma prefactors, so both surfaces stay in float64 range up to
spectral parameters of a few hundred.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._quad import panel_nodes
from .geometry import HeegnerPoint, PointH2, PointH3, node_arrays
from .lattice import (
    AlgebraicInt,
    BinaryQuadraticForm,
    ImagQuadField,
    divisor_sigma,
    enumerate_by_norm,
)
from .lattice import _CLASS_NUMBER_ONE, _ideal_factorization
from .selberg import BallKernel, h_char
from .specfun import bessel_K_many, log_gamma
from .zeta import (
    dedekind_zeta,
    dirichlet_L,
    epstein_Z,
    epstein_lattice_sum,
    log_xi,
    riemann_zeta,
    scattering_phi_K,
    scattering_phi_Q,
)

__all__ = [
    "BLOCK_K_ARGS",
    "TABLE_K_ARGS",
    "EisensteinH2",
    "EisensteinH3",
    "SeriesPlan",
    "GammaFactorReport",
    "eis_h2",
    "eis_h2_heegner",
    "eis_h3_coset",
    "eis_h3_lattice",
    "gamma_factors",
    "lower_bound_avg",
    # re-exported: perfbench's tracer patches quelab.eisenstein.dirichlet_L
    "dirichlet_L",
]

_IMAG_ORDER_SWITCH = 8.0  # |Im nu| above which the balanced K route is used

# most K arguments in one block of nodes: a plan splits its nodes, in order,
# into blocks of equal node count within this bound, and sums each block's
# series at once.  1024 against 256, in 8 perfbench pairs of 8 s runs on
# 2 vCPUs: qe_bianchi `wall_s` 0.82x (7 of 8), qe_h2 1.04x (5 of 8), peak RSS
# within 0.2 %
BLOCK_K_ARGS = 1024
# most K arguments in one K call: a run of whole blocks shares one, on every
# route, so the fixed cost per call is paid once per run
TABLE_K_ARGS = 8192


# ----------------------------------------------------------------------------
# Scaled K-Bessel for imaginary order.


def _k_scaled_batch(nu: complex, xs: np.ndarray) -> np.ndarray:
    """e^{pi |Im nu| / 2} K_nu(x) for an array of x > 0, |Re nu| < 1.

    The sorted arguments are split into groups of at most one octave, a new
    group starting where x exceeds twice the group's smallest x, and each
    group takes `_k_scaled_octave`.
    """
    nu = complex(nu)
    if nu.imag < 0.0:
        return np.conj(_k_scaled_batch(nu.conjugate(), xs))
    if not abs(nu.real) < 1.0:
        raise ValueError("balanced K route requires |Re nu| < 1")
    xs = np.asarray(xs, dtype=float)
    if xs.size and not xs.min() > 0.0:
        raise ValueError("arguments must be positive")
    out, order = np.zeros(xs.size, dtype=complex), np.argsort(xs, kind="stable")
    sx, start = xs[order], 0
    while start < sx.size:
        stop = int(np.searchsorted(sx, 2.0 * sx[start], side="right"))
        out[order[start:stop]] = _k_scaled_octave(nu, sx[start:stop])
        start = stop
    return out


def _k_scaled_octave(nu: complex, xs: np.ndarray) -> np.ndarray:
    """`_k_scaled_batch` on sorted x with x_max <= 2 x_min and Im nu >= 0, from

        K_nu(x) = sec(nu pi/2) int_0^inf cos(x v) cosh(nu asinh v) (1+v^2)^{-1/2} dv

    with a Gauss-Legendre core on [0, v0] containing every stationary point
    and the two oscillatory tail pieces e^{+-ixv} cosh(nu log w) pushed onto
    vertical contours, where they decay at least like e^{-x u / 2}.  The
    sec factor carries the entire e^{-pi|Im nu|/2} smallness, so the returned
    values are free of exponential cancellation.

    Core panels hold equal steps of the phase x_max v + |Im nu| asinh v, whose
    rate bounds that of every oscillation in the integrand: 12 rad per
    24-point panel, so they are short near v = 0, where the rate is x + |Im nu|,
    and long where it has fallen to about x.  Tail panels grow with the decay.

    The error is absolute and is rounding: at most 1.9e-14 on the scaled
    values against 30-digit mpmath for |Im nu| from 8 to 180, worst at
    |Im nu| >= 60 with x near 1, where the phase |Im nu| asinh v of each node
    carries about 1e-16 |Im nu| log(2 v0).  Past the turning point x = |Im nu|
    the scaled K decays like e^{-x}, so the relative error there grows without
    bound.  The Fourier series only needs the absolute error: on the critical
    line the scaled K multiplies coefficients of modulus O(n^eps).
    """
    sig, tau, x_min, x_max = nu.real, nu.imag, float(xs[0]), float(xs[-1])
    v0 = 2.0 * max(1.0, tau / x_min)
    total_phase = x_max * v0 + tau * math.asinh(v0)
    if total_phase > 60000.0:
        raise ValueError("argument range too wide for the balanced K route")
    # edges at equal phase steps c: in s = asinh v the phase x_max sinh s + tau s
    # is convex, so Newton from the upper bound min(asinh(c / x_max), c / tau)
    # descends monotonically; three steps put each panel within 20 % of 12 rad.
    # 16 rad per panel leaves 4e-13 at tau = 8, x = 0.1, where few panels span v0
    c = np.linspace(0.0, total_phase, int(total_phase / 12.0) + 2)
    s = np.arcsinh(c / x_max)
    if tau > 0.0:
        s = np.minimum(s, c / tau)
    for _ in range(3):
        s -= (x_max * np.sinh(s) + tau * s - c) / (x_max * np.cosh(s) + tau)
    edges = np.sinh(s)
    edges[-1] = v0
    v, wv = panel_nodes(edges, 24)
    lw = np.arcsinh(v)
    g = np.cosh(nu * lw) / np.sqrt(1.0 + v * v)
    vals = _real_dot(np.cos(np.outer(xs, v)), wv * g)

    # tail: |integrand| <= e^{-x u / 2} since tau / v0 <= x_min / 2; panels
    # grow with u at 40 % a step, held to 3.6 e-folds of the growing factor
    # |cosh(nu log w)| and to length 8
    u_end = 84.0 / x_min
    edges = [0.0]
    while edges[-1] < u_end:
        u_here = edges[-1]
        len_decay = max(10.0 / x_max, 0.4 * u_here)
        len_phase = 3.6 * (v0 * v0 + u_here * u_here) / (tau * v0) if tau > 0.0 else u_end
        edges.append(u_here + min(len_decay, len_phase, 8.0))
        if len(edges) > 500:
            raise ValueError("tail panelling did not converge")
    u, wu = panel_nodes(edges, 20)
    decay = np.exp(-np.outer(xs, u))
    # one matrix-vector product per contour: a (nodes x 2) product is a BLAS
    # level-3 call, which raised peak RSS by about 0.3 MB
    for eps in (1.0, -1.0):
        ve = v0 + 1j * eps * u
        root = np.sqrt(1.0 + ve * ve)
        logw = np.log(ve + root)
        swing = np.exp(1j * eps * v0 * xs) * (1j * eps)
        f = np.cosh(nu * logw) / (2.0 * root)
        vals = vals + swing * _real_dot(decay, wu * f)

    sec_scaled = 2.0 / (cmath.exp(-0.5j * math.pi * sig)
                        + cmath.exp(0.5j * math.pi * sig) * math.exp(-math.pi * tau))
    return sec_scaled * vals


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real matrix a and a complex vector b, without a complex copy of a."""
    return a @ b.real + 1j * (a @ b.imag)


def _k_shift(nu: complex) -> float:
    """Exponent of the scale e^{shift} that `_k_scaled` puts on K_nu.

    pi |Im nu| / 2 on the balanced route (|Im nu| >= 8, |Re nu| < 1), else 0.
    """
    if abs(nu.imag) >= _IMAG_ORDER_SWITCH and abs(nu.real) < 1.0:
        return 0.5 * math.pi * abs(nu.imag)
    return 0.0


def _k_scaled(nu: complex, xs: np.ndarray, table: _KTable | None = None) -> np.ndarray:
    """e^{_k_shift(nu)} K_nu(x) for an array of x > 0.

    The balanced route reads `table` when one is given and calls
    `_k_scaled_batch` otherwise; every other order takes the cosh integral.
    """
    if _k_shift(nu):
        return _k_scaled_batch(nu, xs) if table is None else table(xs)
    return bessel_K_many(nu, xs)


# Chebyshev table for one balanced-route order (`_KTable`); points are
# indices into the finest grid cos(i pi / _CHEB_GRID) of the levels.
_CHEB_LEVELS = (32, 64, 128, 256)
_CHEB_GRID = 2 * _CHEB_LEVELS[-1]
_CHEB_TOL = 1e-14  # absolute, on the scaled K
_CHEB_CHOP = 0.25 * _CHEB_TOL  # coefficients past the last one above this are chopped
_CHEB_U = np.cos(np.arange(_CHEB_GRID + 1) * (math.pi / _CHEB_GRID))


@lru_cache(maxsize=len(_CHEB_LEVELS))
def _cheb_level(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(node indices, two check-point indices near theta = pi/8 and 7 pi/8,
    node values -> Chebyshev coefficients) at level n; checks are next-level nodes."""
    step, k = _CHEB_GRID // n, np.arange(n + 1)
    ends = np.where(k % n == 0, 0.5, 1.0)
    fit = (2.0 / n) * np.outer(ends, ends) * np.cos(np.outer(k, k) * (math.pi / n))
    check = np.array([n // 4 + 1, 7 * n // 4 - 1]) * (step // 2)
    return np.arange(0, _CHEB_GRID + 1, step), check, fit


def _cheb_eval(u: np.ndarray, coef: np.ndarray, rows: np.ndarray | int) -> np.ndarray:
    """sum_k coef[rows[i], k] T_k(u[i]) for each i, elementwise in i, by
    Clenshaw's recurrence b_k = 2u b_{k+1} - b_{k+2} + c_k; rows may be one index."""
    cols, u2 = coef.T.copy(), (2.0 * u).astype(complex)
    b1 = b2 = np.zeros(u.size, dtype=complex)
    for k in range(coef.shape[1] - 1, 0, -1):
        b1, b2 = u2 * b1 - b2 + cols[k][rows], b1
    return u * b1 - b2 + cols[0][rows] if coef.shape[1] else b1


class _KTable:
    """Balanced-route scaled K_nu at one order, from a piecewise-Chebyshev table.

    Panel j covers the octave [2^j, 2^(j+1)].  On first use it is filled at
    the second-kind points cos(k pi / n), k = 0..n, for n in _CHEB_LEVELS in
    turn, one `_k_scaled_batch` call per level reusing all earlier values.
    A level is taken once at least its last eighth of coefficients is
    chopped and its two check points agree with the direct values within
    1e-14 absolute; a panel that no level passes keeps no coefficients, and
    `_k_scaled_batch` serves the arguments in it.  A panel where the scaled
    bound |K_nu(x)| <= K_{1/2}(x) = sqrt(pi / 2x) e^{-x} (|Re nu| <= 1/2) is
    below the chop at x = 2^j is one zero coefficient, with no direct call.
    Coefficients depend only on (nu, j), so a value never depends on which
    arguments came first.
    """

    def __init__(self, nu: complex) -> None:
        self.nu = nu
        self._panels: dict[int, np.ndarray] = {}

    def _fill(self, j: int) -> np.ndarray:
        x0 = math.ldexp(1.0, j)
        log_bound = 0.5 * math.pi * abs(self.nu.imag) - x0 + 0.5 * math.log(0.5 * math.pi / x0)
        if abs(self.nu.real) <= 0.5 and log_bound < math.log(_CHEB_CHOP):
            return self._panels.setdefault(j, np.zeros(1, dtype=complex))
        xs = 0.5 * x0 * (3.0 + _CHEB_U)
        vals = np.full(xs.size, np.nan, dtype=complex)
        self._panels[j] = np.zeros(0, dtype=complex)
        for n in _CHEB_LEVELS:
            nodes, check, fit = _cheb_level(n)
            new = np.concatenate([nodes, check])
            new = new[np.isnan(vals[new].real)]
            vals[new] = _k_scaled_batch(self.nu, xs[new])
            coef = _real_dot(fit, vals[nodes])
            coef = coef[:np.flatnonzero(np.abs(coef) > _CHEB_CHOP).max(initial=0) + 1]
            miss = np.abs(_cheb_eval(_CHEB_U[check], coef[None, :], 0) - vals[check])
            if coef.size <= n - n // 8 and np.all(miss <= _CHEB_TOL):
                self._panels[j] = coef
                break
        return self._panels[j]

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        mant, expo = np.frexp(xs)  # x = mant 2^expo, mant in [1/2, 1): panel expo - 1
        js, inverse = np.unique(expo - 1, return_inverse=True)
        rows = [self._panels[j] if j in self._panels else self._fill(j) for j in js.tolist()]
        coef = np.zeros((len(rows), max((row.size for row in rows), default=0)), dtype=complex)
        for i, row in enumerate(rows):
            coef[i, :row.size] = row
        out = _cheb_eval(4.0 * mant - 3.0, coef, inverse)
        direct = np.array([row.size == 0 for row in rows], dtype=bool)[inverse]
        if direct.any():
            out[direct] = _k_scaled_batch(self.nu, xs[direct])
        return out


class SeriesPlan:
    """E(., s) at one s.

    `values(z)` on H^2 and `values(z, r)` on H^3 evaluate arrays of nodes
    (complex z, heights r) and return the complex values.  Calling the plan
    on one point runs `values` on a one-node array.
    """

    def __init__(self, values: Callable[..., np.ndarray]) -> None:
        self.values = values

    def __call__(self, p: PointH2 | PointH3 | complex) -> complex:
        return complex(self.values(*node_arrays([p]))[0])


def _k_blocks(nu: complex, table: _KTable | None, freqs: np.ndarray, heights: np.ndarray,
              counts: np.ndarray):
    """(block, n, kvals) per slice of nodes with at most BLOCK_K_ARGS arguments:
    n is the block's largest count, and kvals[i, k] the scaled K at
    freqs[k] * heights[i] for k < counts[i], zero past it.  One `_k_scaled`
    call serves a run of whole blocks with at most TABLE_K_ARGS arguments."""
    step = max(1, BLOCK_K_ARGS // max(freqs.size, 1))
    chunk = step * max(1, TABLE_K_ARGS // max(freqs.size, 1) // step)
    for c in range(0, heights.size, chunk):
        width = int(counts[c:c + chunk].max())
        used = np.arange(width) < counts[c:c + chunk, None]
        kvals = np.zeros(used.shape, dtype=complex)
        kvals[used] = _k_scaled(nu, (freqs[:width] * heights[c:c + chunk, None])[used], table)
        for a in range(0, kvals.shape[0], step):
            block = slice(c + a, c + a + step)
            n = int(counts[block].max())
            yield block, n, kvals[a:a + step, :n]


class _FourierSeries:
    """What the two series evaluators share: the checks on `height_floor`
    and `abs_tol`, `plan` and `value`.  Subclasses are frozen dataclasses with
    those two fields, and `_plan(s, tabulate)` builds their `SeriesPlan`."""

    def __post_init__(self) -> None:
        if not 0.0 < self.height_floor:
            raise ValueError("height floor must be positive")
        if not 0.0 < self.abs_tol < 1.0:
            raise ValueError("abs_tol must lie in (0, 1)")

    def plan(self, s: complex) -> SeriesPlan:
        """E(., s) at one s, for evaluating many points.

        Work that depends only on s is done once.  On the balanced K route the
        plan reads K from its own Chebyshev table (`_KTable`), within 1e-14
        absolute of `_k_scaled_batch` in the scaled K.
        """
        return self._plan(complex(s), tabulate=True)

    def value(self, p: PointH2 | PointH3 | complex, s: complex) -> complex:
        """E(p, s) at one point, with K straight from the direct route."""
        return self._plan(complex(s), tabulate=False)(p)


# ----------------------------------------------------------------------------
# Modular surface.


def _reduce_h2(zs: np.ndarray) -> np.ndarray:
    """Flip-translate reduction of each point into |x| <= 1/2, |z| >= 1."""
    zc = np.array(zs, dtype=complex)
    if not np.all(zc.imag > 0.0):
        raise ValueError("point must lie in the upper half-plane")
    for _ in range(1000):
        zc.real -= np.round(zc.real)
        flip = np.abs(zc) < 1.0 - 1e-15
        if not flip.any():
            return zc
        zc[flip] = -1.0 / zc[flip]
    raise ValueError("fundamental-domain reduction did not terminate")


def _h2_guard(s: complex) -> None:
    if abs(s - 1.0) < 1e-12:
        raise ValueError("pole of the series at s = 1")
    if abs(s - 0.5) < 1e-12 or abs(s) < 1e-12:
        raise ValueError("completed-zeta pole line; s = 0, 1/2 unsupported")


@dataclass(frozen=True)
class EisensteinH2(_FourierSeries):
    """Fourier-expansion evaluator for the level-one series on H^2.

    `truncation` is a floor on the number of Fourier terms; evaluation raises
    it automatically when Im s is large, where the reciprocal completed zeta
    amplifies the tail by e^{pi |Im s| / 2}.
    """

    truncation: int | None = None
    height_floor: float = 0.8
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.truncation is not None:
            if self.truncation < 1:
                raise ValueError("truncation must be >= 1")
            if math.exp(-2.0 * math.pi * self.truncation * self.height_floor) > self.abs_tol:
                raise ValueError("truncation too small for the configured height floor")

    def base_truncation(self) -> int:
        n = math.ceil(math.log(1.0 / self.abs_tol) / (2.0 * math.pi * self.height_floor))
        return max(self.truncation or 0, n, 1)

    def terms_for(self, y, t: float = 0.0):
        """Fourier terms used at height y: an int, or an int array for an array y."""
        need = ((0.5 * math.pi * abs(t) + math.log(1.0 / self.abs_tol))
                / (2.0 * math.pi * np.asarray(y, dtype=float)))
        n = np.maximum(self.base_truncation(), np.ceil(need).astype(np.int64) + 4)
        return n if n.ndim else int(n)

    def tail_bound(self, y: float, t: float = 0.0, n_terms: int | None = None) -> float:
        """Crude majorant of the dropped Fourier tail at height y.

        Includes a float64 rounding allowance: once the analytic tail drops
        below the noise of summing the retained terms, that noise is what a
        truncation-doubling experiment actually measures.
        """
        n = n_terms if n_terms is not None else self.terms_for(y, t)
        x = 2.0 * math.pi * (n + 1) * y
        amp = 0.5 * math.pi * abs(t) - x
        geo = 1.0 / (1.0 - math.exp(-2.0 * math.pi * y))
        analytic = 40.0 * math.sqrt(y) * (n + 1) ** 2 * math.exp(amp) * geo
        noise = 2e-13 * (1.0 + abs(t)) * max(n, 1)
        return analytic + noise

    def _plan(self, s: complex, tabulate: bool) -> SeriesPlan:
        _h2_guard(s)
        phi = scattering_phi_Q(s)
        nu = s - 0.5
        pref = 4.0 * cmath.exp(-log_xi(2.0 * s) - _k_shift(nu))  # 4 / xi(2s), scaled
        table = _KTable(nu) if tabulate else None
        # n^nu sigma_{1-2s}(n) for n <= len; the sieve adds the divisors of
        # each n in the same order whatever the length, so every prefix is
        # bitwise the array a shorter sieve gives
        coef = np.zeros(0, dtype=complex)

        def coefficients(n_terms: int) -> np.ndarray:
            nonlocal coef
            if coef.size < n_terms:
                ns = np.arange(1, n_terms + 1, dtype=float)
                powers = np.exp((1.0 - 2.0 * s) * np.log(ns))
                sig = np.zeros(n_terms, dtype=complex)
                for d in range(1, n_terms + 1):
                    sig[d - 1::d] += powers[d - 1]
                coef = np.exp(nu * np.log(ns)) * sig
            return coef[:n_terms]

        def values(zs: np.ndarray) -> np.ndarray:
            zc = _reduce_h2(zs)
            x, y = zc.real, zc.imag
            if np.any(y < self.height_floor - 1e-12):
                raise ValueError("reduced point sits below the height floor")
            logy = np.log(y)
            const = np.exp(s * logy) + phi * np.exp((1.0 - s) * logy)
            if zc.size == 0:
                return const
            # each node keeps its own truncation: terms past its count are
            # masked out of the block's K call and zero in its sum
            counts = self.terms_for(y, s.imag)
            freq = 2.0 * math.pi * np.arange(1, int(counts.max()) + 1, dtype=float)
            coef = coefficients(freq.size)
            series = np.empty(zc.size, dtype=complex)
            for block, n, kvals in _k_blocks(nu, table, freq, y, counts):
                series[block] = np.sum(coef[:n] * kvals * np.cos(freq[:n] * x[block, None]),
                                       axis=1)
            return const + pref * np.sqrt(y) * series

        return SeriesPlan(values)


def eis_h2(z: PointH2 | complex, s: complex, evaluator: EisensteinH2 | None = None) -> complex:
    """Level-one Eisenstein series on H^2 through its Fourier expansion."""
    return (evaluator or EisensteinH2()).value(z, s)


def eis_h2_heegner(point: HeegnerPoint, s: complex) -> complex:
    """Same series at the root of a form, through the form's zeta function.

    For the nine one-class fundamental discriminants the two-variable form
    zeta factors as w_d zeta_K(s) = w_d zeta(s) L(s, chi_d), which keeps the
    whole critical strip in reach; other discriminants fall back to the
    incomplete-gamma Epstein evaluator and inherit its |Im s| range.
    """
    s = complex(s)
    _h2_guard(s)
    # the factorization needs d to be one of the nine field discriminants;
    # d = -12, -16, -27, -28 have class number one but are not fundamental
    fields = [f for f in map(ImagQuadField, _CLASS_NUMBER_ONE) if f.discriminant == point.d]
    if fields:
        form_zeta = fields[0].unit_count * dedekind_zeta(fields[0], s)
    else:
        form_zeta = epstein_Z(BinaryQuadraticForm(point.c, -point.b, point.a), s)
    ay = point.a * point.z.y  # = sqrt(|d|) / 2
    return cmath.exp(s * math.log(ay)) * form_zeta / (2.0 * riemann_zeta(2.0 * s))


# ----------------------------------------------------------------------------
# Bianchi manifolds.


def _reduce_h3(field_: ImagQuadField, zs: np.ndarray,
               rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip-translate reduction of each point z + r j, as arrays z and r."""
    om = field_.omega
    z, r = np.array(zs, dtype=complex), np.array(rs, dtype=float)
    for _ in range(1000):
        v = z.imag / om.imag
        u = z.real - v * om.real
        z = z - np.round(u) - np.round(v) * om
        n2 = z.real * z.real + z.imag * z.imag + r * r
        flip = n2 < 1.0 - 1e-15
        if not flip.any():
            return z, r
        z[flip] = -z[flip].conjugate() / n2[flip]
        r[flip] = r[flip] / n2[flip]
    raise ValueError("fundamental-domain reduction did not terminate")


def _in_sector(w: AlgebraicInt) -> bool:
    """One representative per unit class: the sector [0, 2 pi / w_units)."""
    units = w.field.unit_count
    if units == 2:
        return w.v > 0 or (w.v == 0 and w.u > 0)
    # both Z[i] and the Eisenstein order: u > 0, v >= 0 picks the sector
    return w.u > 0 and w.v >= 0


# The s-independent arithmetic of each field, grown to the largest cap asked
# for: (cap, omega values, norms, factorization-pattern index of each omega,
# first omega of each pattern, pattern -> index), sorted by (norm, angle).
# A pattern is the (norm, exponent) pairs of the prime ideals dividing omega.
# Patterns are numbered in order of first appearance, so a prefix of the
# omegas holds patterns 0 .. the largest index among them.
_H3_FIELD_TABLES: dict[ImagQuadField, tuple] = {}


def _h3_field_table(field_: ImagQuadField, cap: int) -> tuple:
    """The field's table up to at least `cap`; growth factors the new shell only."""
    table = _H3_FIELD_TABLES.get(field_) or (
        0, np.empty(0, complex), np.empty(0, np.int64), np.empty(0, np.intp), (), {})
    if table[0] >= cap:
        return table
    done, zvals, norms, kinds, reps, index = table
    shell = enumerate_by_norm(field_, cap, done)
    reps, index, fresh = list(reps), dict(index), []
    for e in shell:
        k = index.setdefault(tuple((q, a) for _, q, a in _ideal_factorization(e)), len(reps))
        if k == len(reps):
            reps.append(e)
        fresh.append(k)
    table = _H3_FIELD_TABLES[field_] = (
        cap, np.concatenate([zvals, np.array([e.to_complex() for e in shell], dtype=complex)]),
        np.concatenate([norms, np.array([e.norm() for e in shell], dtype=np.int64)]),
        np.concatenate([kinds, np.array(fresh, dtype=np.intp)]), reps, index)
    return table


@lru_cache(maxsize=64)
def _h3_term_table(field_: ImagQuadField, s_key: tuple[float, float], cap: int):
    """(omega, |omega|^s sigma_{-s}(omega), distinct norms, index of each omega's
    norm) for norm(omega) <= cap, sorted by norm: a smaller cap's is a prefix.
    sigma_{-s}(omega) depends on omega only through its factorization pattern,
    so `divisor_sigma` runs once per pattern."""
    s = complex(*s_key)
    _, zvals, norms, kinds, reps, _ = _h3_field_table(field_, cap)
    n = int(np.searchsorted(norms, cap, side="right"))
    sig = np.array([divisor_sigma(field_, -s, e) for e in reps[:kinds[:n].max() + 1]])
    norms, inverse = np.unique(norms[:n], return_inverse=True)
    coeff = sig[kinds[:n]] * np.exp(s * np.log(np.sqrt(norms[inverse].astype(float))))
    return zvals[:n], coeff, norms, inverse


@dataclass(frozen=True)
class EisensteinH3(_FourierSeries):
    """Fourier-expansion evaluator for the cusp-at-infinity series on H^3.

    Arguments are passed in the convention where the critical line is
    Re S = 1; internally the expansion runs in s = S - 1.  It returns the
    full series E = (w/2) E_inf, w the unit count; the bare cusp series
    E_inf is 2 / w times it.
    """

    field: ImagQuadField
    norm_cap: int | None = None
    height_floor: float = 0.5
    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.norm_cap is not None:
            if self.norm_cap < 1:
                raise ValueError("norm cap must be >= 1")
            dk = abs(self.field.discriminant)
            decay = 4.0 * math.pi * math.sqrt(self.norm_cap) * self.height_floor / math.sqrt(dk)
            if math.exp(-decay) > self.abs_tol:
                raise ValueError("norm cap too small for the configured height floor")

    def cap_for(self, r, tau: float = 0.0):
        """Norm cap used at height r: an int, or an int array for an array r."""
        r = np.asarray(r, dtype=float)
        if self.norm_cap is not None:
            cap = np.full(r.shape, self.norm_cap)
        else:
            dk = abs(self.field.discriminant)
            need = 0.5 * math.pi * abs(tau) + math.log(1.0 / self.abs_tol) + 5.0
            m = need * math.sqrt(dk) / (4.0 * math.pi * r)
            cap = np.maximum(np.ceil(m).astype(np.int64) ** 2, 2)
        return cap if cap.ndim else int(cap)

    def tail_bound(self, r: float, tau: float = 0.0, cap: int | None = None) -> float:
        """Majorant of the dropped K-Bessel tail plus a float64 noise allowance."""
        cap = cap if cap is not None else self.cap_for(r, tau)
        dk = abs(self.field.discriminant)
        x = 4.0 * math.pi * math.sqrt(cap) * r / math.sqrt(dk)
        amp = 0.5 * math.pi * abs(tau) - x
        analytic = 60.0 * r * cap ** 1.5 * math.exp(amp)
        noise = 2e-13 * (1.0 + abs(tau)) * max(cap, 1)
        return analytic + noise

    def _plan(self, S: complex, tabulate: bool) -> SeriesPlan:
        if abs(S - 2.0) < 1e-12:
            raise ValueError("pole of the series at S = 2")
        if abs(S - 1.0) < 1e-12 or abs(S) < 1e-12:
            raise ValueError("scattering-term pole line; S = 0, 1 unsupported")
        s = S - 1.0
        dk = abs(self.field.discriminant)
        phi = scattering_phi_K(self.field, s)
        pref = 2.0 * cmath.exp((1.0 + s) * math.log(2.0 * math.pi)
                               - 0.5 * (1.0 + s) * math.log(dk)
                               - log_gamma(1.0 + s) - _k_shift(s))
        pref = pref / dedekind_zeta(self.field, 1.0 + s)
        table = _KTable(s) if tabulate else None

        def values(zs: np.ndarray, rs: np.ndarray) -> np.ndarray:
            z, r = _reduce_h3(self.field, zs, rs)
            if np.any(r < self.height_floor - 1e-12):
                raise ValueError("reduced point sits below the height floor "
                                 "(flip-translate reduction is incomplete for this ring)")
            logr = np.log(r)
            const = np.exp((1.0 + s) * logr) + phi * np.exp((1.0 - s) * logr)
            if z.size == 0:
                return const
            # one term table at the largest cap; each node keeps the distinct norms
            # up to its own cap, masked out of the block's K call and its sum
            caps = self.cap_for(r, s.imag)
            zvals, coeff, norms, inverse = _h3_term_table(self.field, (s.real, s.imag),
                                                          int(caps.max()))
            counts = np.searchsorted(norms, caps, side="right")
            freqs = (4.0 * math.pi / math.sqrt(dk)) * np.sqrt(norms.astype(float))
            series = np.empty(z.size, dtype=complex)
            for block, n, kvals in _k_blocks(s, table, freqs, r, counts):
                m = int(np.searchsorted(inverse, n))
                theta = (-4.0 * math.pi / math.sqrt(dk)) * (
                    zvals[:m].real * z[block, None].imag + zvals[:m].imag * z[block, None].real)
                series[block] = np.sum(coeff[:m] * kvals[:, inverse[:m]] * np.exp(1j * theta),
                                       axis=1)
            return (const + pref * r * series) * (self.field.unit_count / 2.0)

        return SeriesPlan(values)


def _not_divisible(du: np.ndarray, dv: np.ndarray, p: AlgebraicInt) -> np.ndarray:
    """Mask of grid elements d = du + dv*omega with p not dividing d."""
    f = p.field
    pc = p.conj()
    n = p.norm()
    if f.half_basis:
        num_u = du * pc.u + dv * pc.v * ((f.D - 1) // 4)
        num_v = du * pc.v + dv * pc.u + dv * pc.v
    else:
        num_u = du * pc.u + f.D * dv * pc.v
        num_v = du * pc.v + dv * pc.u
    return (num_u % n != 0) | (num_v % n != 0)


def eis_h3_coset(P: PointH3, S: complex, field_: ImagQuadField, cap: int = 40) -> complex:
    """Literal truncated Poincare sum over coprime pairs modulo units.

    Absolutely convergent for Re S > 2; the truncation keeps |c|, |d| <= cap.
    Slow by design: this is the oracle the Fourier route is checked against.
    """
    S = complex(S)
    if S.real <= 2.0:
        raise ValueError("direct sum requires Re S > 2")
    if cap < 2:
        raise ValueError("cap must be >= 2")
    z, r = complex(P.z), float(P.r)
    om = field_.omega
    els = enumerate_by_norm(field_, cap * cap)
    du = np.array([e.u for e in els] + [0], dtype=np.int64)
    dv = np.array([e.v for e in els] + [0], dtype=np.int64)
    dz = du + dv * om
    real_S = S.imag == 0.0
    pieces = [r ** S.real if real_S else cmath.exp(S * math.log(r))]  # class (0, 1)
    masks: dict[AlgebraicInt, np.ndarray] = {}  # one per prime, built on first use
    for c in els:
        if not _in_sector(c):
            continue
        mask = np.ones(du.shape, dtype=bool)
        for p, _, _ in _ideal_factorization(c):
            pmask = masks.get(p)
            if pmask is None:
                pmask = _not_divisible(du, dv, p)
                if 2 * p.norm() <= cap * cap:  # a larger p divides one in-sector c only
                    masks[p] = pmask
            mask &= pmask
        w = c.to_complex() * z + dz[mask]
        base = r / (w.real * w.real + w.imag * w.imag + c.norm() * r * r)
        if real_S:
            pieces.append(float(np.sum(base ** S.real)))
        else:
            pieces.append(complex(np.sum(np.exp(S * np.log(base)))))
    if real_S:
        return complex(math.fsum(pieces))
    return complex(math.fsum(p.real for p in pieces), math.fsum(p.imag for p in pieces))


def eis_h3_lattice(P: PointH3, S: complex, field_: ImagQuadField) -> complex:
    """Cusp series through the quaternary Epstein sum r^S Z_4(S) / (w zeta_K(S)).

    Writing c = c1 + c2 w, d = d1 + d2 w, the denominator |cz+d|^2 + |c|^2 r^2
    is a positive quaternary form in (c1, c2, d1, d2); summing it over the
    full lattice overcounts each coprime class by w zeta_K(S).
    """
    S = complex(S)
    if abs(S - 1.0) < 1e-12:
        raise ValueError("zeta_K pole at S = 1")
    z, r = complex(P.z), float(P.r)
    om = field_.omega
    basis = np.array([z, om * z, 1.0, om], dtype=complex)
    gram = np.real(np.outer(basis, basis.conjugate()))
    gram[:2, :2] += r * r * np.real(np.outer(np.array([1.0, om]),
                                             np.array([1.0, om]).conjugate()))
    total = epstein_lattice_sum(gram, S)
    return (cmath.exp(S * math.log(r)) * total
            / (field_.unit_count * dedekind_zeta(field_, S)))


# ----------------------------------------------------------------------------
# Gamma-factor quotients.


@dataclass(frozen=True)
class GammaFactorReport:
    """Exact archimedean quotient next to its exp-over-polynomial surrogate."""

    Q: float
    P: float
    gamma_exact: float
    gamma_asym: float


def _log_abs_gamma(a: float, b: float) -> float:
    return log_gamma(complex(a, b)).real


def gamma_factors(dim: int, t_j: float, t: float) -> GammaFactorReport:
    """Growth data of the triple-product gamma quotient in dimension 2 or 3."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    t_j, t = float(t_j), float(t)
    if t_j < 0.0 or t < 0.0:
        raise ValueError("t_j, t must be nonnegative")
    Q = 4.0 * abs(t_j) - abs(2.0 * t_j + t) - abs(2.0 * t_j - t)
    if dim == 2:
        P = (1.0 + abs(t)) * math.sqrt((1.0 + abs(2.0 * t_j + t)) * (1.0 + abs(2.0 * t_j - t)))
    else:
        P = (1.0 + abs(t)) * (1.0 + abs(t_j)) ** 2
    a = 0.25 * (dim - 1)  # real parts a and 2a of the Gamma arguments
    log_exact = (4.0 * _log_abs_gamma(a, 0.5 * t)
                 + 2.0 * _log_abs_gamma(a, t_j + 0.5 * t)
                 + 2.0 * _log_abs_gamma(a, t_j - 0.5 * t)
                 - 4.0 * _log_abs_gamma(2.0 * a, t_j)
                 - 2.0 * _log_abs_gamma(2.0 * a, t))
    return GammaFactorReport(
        Q=Q,
        P=P,
        gamma_exact=math.exp(log_exact),
        gamma_asym=math.exp(0.5 * math.pi * Q) / P,
    )


# ----------------------------------------------------------------------------
# Cauchy-Schwarz lower bound for the normalized ball mass.


def lower_bound_avg(w: HeegnerPoint, R: float, t: float) -> float:
    """|h_R(t)|^2 |E(w, 1/2+it)|^2 / log(1/4+t^2): the ball-average bound.

    Cauchy-Schwarz turns the squared ball average of the series into a lower
    bound for the normalized mass, and the average itself is h_R(t) E(w).
    """
    if not R > 0.0:
        raise ValueError("R must be positive")
    if t < 2.0:
        raise ValueError("t must be >= 2")
    h = h_char(BallKernel(2, R), t)
    center = eis_h2_heegner(w, complex(0.5, t))
    return (abs(h) ** 2) * (abs(center) ** 2) / math.log(0.25 + t * t)
