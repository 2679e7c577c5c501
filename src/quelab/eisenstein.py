"""Eisenstein series on the modular surface and on Bianchi 3-manifolds.

Each surface gets two independent evaluation routes.  On H^2 the Fourier
expansion (constant term plus a K-Bessel cosine series) is cross-checked
against the binary-quadratic-form zeta value at a Heegner point, where

    E(z_Q, s) = (a y)^s Z(s, Q~) / (2 zeta(2s)),   Q~ = (c, -b, a),

with Z the two-variable Epstein sum of the form.  On H^3 the Fourier
expansion over a class-number-one ring of integers is cross-checked against
the literal Poincare series over coprime pairs and against a quaternary
Epstein lattice sum.  The module also provides the archimedean gamma-factor
quotients with their exponential-over-polynomial surrogates, and the
regularized Eisenstein triple products (overall constants pinned to 1).

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

from ._quad import gl_nodes, panel_nodes
from .geometry import HeegnerPoint, PointH2, PointH3, node_arrays
from .lattice import (
    AlgebraicInt,
    BinaryQuadraticForm,
    ImagQuadField,
    divisor_sigma,
    enumerate_by_norm,
)
from .lattice import _CLASS_NUMBER_ONE, _factor_int, _prime_above
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
    "EisensteinH2",
    "EisensteinH3",
    "SeriesPlan",
    "GammaFactorReport",
    "eis_h2",
    "eis_h2_heegner",
    "eis_h3_coset",
    "eis_h3_lattice",
    "gamma_factors",
    "reg_triple",
    "lower_bound_avg",
]

_IMAG_ORDER_SWITCH = 8.0  # |Im nu| above which the balanced K route is used

# most K arguments one block of nodes sends to `_k_scaled`: a plan splits its
# nodes, in order, into blocks of equal node count within this bound.  The
# cosh-integral route holds two (arguments x grid) float arrays per call, so
# larger blocks raise peak RSS (1024 costs about 1.5 MB more) and run no faster
BLOCK_K_ARGS = 256


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

    The error is absolute: about 1e-15 on the scaled values of one octave,
    up to 1e-14.  Past the turning point x = |Im nu| the scaled K decays like
    e^{-x}, so the relative error there grows without bound: at |Im nu| = 8,
    x = 60 the value is 2.4e-22 and the error 4e-17 to 6e-16, depending on
    the other arguments of the group.  The Fourier series only needs the
    absolute error: on the critical line the scaled K multiplies
    coefficients of modulus O(n^eps).
    """
    sig, tau, x_min, x_max = nu.real, nu.imag, float(xs[0]), float(xs[-1])
    v0 = 2.0 * max(1.0, tau / x_min)
    total_phase = x_max * v0 + tau * math.asinh(v0)
    if total_phase > 60000.0:
        raise ValueError("argument range too wide for the balanced K route")
    # <= 1.3 cycles per 24-point panel on average; the phase rate peaks at
    # x + tau near v = 0, which a batch with x_max well below tau would
    # otherwise under-resolve (2e-10 absolute at tau = 60, x = pi)
    panels = int(max(total_phase, 0.5 * (tau + x_max) * v0) / 8.0) + 2
    v, wv = panel_nodes(0.0, v0, panels, 24)
    lw = np.arcsinh(v)
    g = np.cosh(nu * lw) / np.sqrt(1.0 + v * v)
    vals = _real_dot(np.cos(np.outer(xs, v)), wv * g)

    # tail: |integrand| <= e^{-x u / 2} since tau / v0 <= x_min / 2; panel
    # lengths track both the steepest decay still visible at each u and the
    # slow residual phase tau * log|w|
    u_end = 84.0 / x_min
    edges = [0.0]
    while edges[-1] < u_end:
        u_here = edges[-1]
        len_decay = max(10.0 / x_max, 0.2 * u_here)
        len_phase = 1.2 * (v0 * v0 + u_here * u_here) / (tau * v0) if tau > 0.0 else u_end
        edges.append(u_here + min(len_decay, len_phase, 2.0))
        if len(edges) > 500:
            raise ValueError("tail panelling did not converge")
    u_parts = [gl_nodes(a, b, 20) for a, b in zip(edges, edges[1:])]
    u = np.concatenate([p[0] for p in u_parts])
    wu = np.concatenate([p[1] for p in u_parts])
    decay = np.exp(-np.outer(xs, u))
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


def _cheb_eval(u: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[i, k] T_k(u[i]) for each i, elementwise in i."""
    return (np.cos(np.outer(np.arccos(u), np.arange(coef.shape[1]))) * coef).sum(axis=1)


class _KTable:
    """Balanced-route scaled K_nu at one order, from a piecewise-Chebyshev table.

    Panel j covers the octave [2^j, 2^(j+1)].  On first use it is filled at
    the second-kind points cos(k pi / n), k = 0..n, for n in _CHEB_LEVELS in
    turn, one `_k_scaled_batch` call per level reusing all earlier values.
    A level is taken once at least its last eighth of coefficients is
    chopped and its two check points agree with the direct values within
    1e-14 absolute; a panel that no level passes keeps no coefficients, and
    `_k_scaled_batch` serves the arguments in it.  Coefficients depend only
    on (nu, j), so a value never depends on which arguments came first.
    """

    def __init__(self, nu: complex) -> None:
        self.nu = nu
        self._panels: dict[int, np.ndarray] = {}

    def _fill(self, j: int) -> np.ndarray:
        xs = math.ldexp(1.0, j - 1) * (3.0 + _CHEB_U)
        vals = np.full(xs.size, np.nan, dtype=complex)
        self._panels[j] = np.zeros(0, dtype=complex)
        for n in _CHEB_LEVELS:
            nodes, check, fit = _cheb_level(n)
            new = np.concatenate([nodes, check])
            new = new[np.isnan(vals[new].real)]
            vals[new] = _k_scaled_batch(self.nu, xs[new])
            coef = _real_dot(fit, vals[nodes])
            coef = coef[:np.flatnonzero(np.abs(coef) > _CHEB_CHOP).max(initial=0) + 1]
            miss = np.abs(_cheb_eval(_CHEB_U[check], coef[None, :]) - vals[check])
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
        out = _cheb_eval(4.0 * mant - 3.0, coef[inverse])
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
    """(block, n, kvals) per slice of nodes sending at most BLOCK_K_ARGS arguments
    to one `_k_scaled` call: n is the block's largest count, and kvals[i, k] the
    scaled K at freqs[k] * heights[i] for k < counts[i], zero past it."""
    step = max(1, BLOCK_K_ARGS // max(freqs.size, 1))
    for a in range(0, heights.size, step):
        block = slice(a, a + step)
        n = int(counts[block].max())
        used = np.arange(n) < counts[block, None]
        kvals = np.zeros(used.shape, dtype=complex)
        kvals[used] = _k_scaled(nu, (freqs[:n] * heights[block, None])[used], table)
        yield block, n, kvals


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
    zeta factors as w_d zeta(s) L(s, chi_d), which keeps the whole critical
    strip in reach; other discriminants fall back to the incomplete-gamma
    Epstein evaluator and inherit its |Im s| range.
    """
    s = complex(s)
    _h2_guard(s)
    # the factorization needs d to be one of the nine field discriminants;
    # d = -12, -16, -27, -28 have class number one but are not fundamental
    fields = [f for f in map(ImagQuadField, _CLASS_NUMBER_ONE) if f.discriminant == point.d]
    if fields:
        form_zeta = fields[0].unit_count * riemann_zeta(s) * dirichlet_L(s, point.d)
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


def _canonical_key(w: AlgebraicInt) -> tuple[int, int]:
    for unit in w.field.units():
        rep = w * unit
        if _in_sector(rep):
            return rep.u, rep.v
    raise ArithmeticError("no associate in the fundamental sector")


@lru_cache(maxsize=64)
def _h3_term_table(field_: ImagQuadField, s_key: tuple[float, float], cap: int):
    """(omega, |omega|^s sigma_{-s}(omega), distinct norms, index of each omega's
    norm) for norm(omega) <= cap, sorted by norm: a smaller cap's is a prefix."""
    s = complex(*s_key)
    els = enumerate_by_norm(field_, cap)
    zvals = np.array([e.to_complex() for e in els], dtype=complex)
    cache: dict[tuple[int, int], complex] = {}
    coeff = np.empty(len(els), dtype=complex)
    for i, e in enumerate(els):
        key = _canonical_key(e)
        got = cache.get(key)
        if got is None:
            got = cache[key] = divisor_sigma(field_, -s, e)
        coeff[i] = got
    norms, inverse = np.unique([e.norm() for e in els], return_inverse=True)
    coeff = coeff * np.exp(s * np.log(np.sqrt(norms[inverse].astype(float))))
    return zvals, coeff, norms, inverse


@dataclass(frozen=True)
class EisensteinH3(_FourierSeries):
    """Fourier-expansion evaluator for the cusp-at-infinity series on H^3.

    Arguments are passed in the convention where the critical line is
    Re S = 1; internally the expansion runs in s = S - 1.  The normalization
    flag selects the full series E = (w/2) E_inf or the bare cusp series.
    """

    field: ImagQuadField
    norm_cap: int | None = None
    height_floor: float = 0.5
    abs_tol: float = 1e-10
    normalization: str = "E"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.normalization not in ("E", "E_inf"):
            raise ValueError("normalization must be 'E' or 'E_inf'")
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
            out = const + pref * r * series
            if self.normalization == "E":
                out = out * (self.field.unit_count / 2.0)
            return out

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


def _prime_divisors(c: AlgebraicInt) -> list[AlgebraicInt]:
    """Distinct prime elements dividing c, one per prime ideal."""
    field_ = c.field
    out: list[AlgebraicInt] = []
    for p, _ in _factor_int(c.norm()):
        chi = field_.chi(p)
        if chi == -1:
            out.append(field_.element(p, 0))
        elif chi == 0:
            out.append(_prime_above(field_, p))
        else:
            pi = _prime_above(field_, p)
            for cand in (pi, pi.conj()):
                if c.divide_exact(cand) is not None:
                    out.append(cand)
    return out


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
        for p in _prime_divisors(c):
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
# Gamma-factor quotients and regularized triple products.


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


def reg_triple(dim: int, t: float, tprime: float,
               field_: ImagQuadField | None = None) -> complex:
    """Regularized triple product of critical-line series, constant set to 1.

    Only the growth of the modulus is meaningful; the omitted normalizing
    constant is independent of t and t'.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    t, tp = float(t), float(tprime)
    if abs(t) < 1e-9 or abs(tp) < 1e-9:
        raise ValueError("t = 0 or t' = 0 lands on a zeta pole of the ratio")
    if dim == 2:
        log_num = (2.0 * log_xi(complex(0.5, -tp))
                   + log_xi(complex(0.5, 2.0 * t - tp))
                   + log_xi(complex(0.5, -(2.0 * t + tp))))
        log_den = (2.0 * log_xi(complex(1.0, 2.0 * t)).real
                   + log_xi(complex(1.0, -2.0 * tp)))
        return cmath.exp(log_num - log_den)
    fld = field_ or ImagQuadField(-1)
    u = complex(0.5, 0.5 * tp)
    log_gamma_part = (2.0 * log_gamma(u)
                      + log_gamma(u - 1j * t) + log_gamma(u + 1j * t)
                      - log_gamma(complex(1.0, tp))
                      - 2.0 * log_gamma(complex(1.0, t)).real)
    zeta_part = (dedekind_zeta(fld, u) ** 2
                 * dedekind_zeta(fld, u - 1j * t)
                 * dedekind_zeta(fld, u + 1j * t)
                 / (dedekind_zeta(fld, complex(1.0, tp))
                    * abs(dedekind_zeta(fld, complex(1.0, t))) ** 2))
    return cmath.exp(log_gamma_part) * zeta_part


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
