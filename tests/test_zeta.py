from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from quelab import zeta
from quelab.lattice import BinaryQuadraticForm, ImagQuadField, repr_count
from quelab.specfun import log_gamma
from quelab.zeta import (
    _hurwitz_reg,
    _lattice_values,
    ZetaBackend,
    dedekind_fourth_moment,
    dedekind_zeta,
    default_backend,
    dirichlet_L,
    epstein_Z,
    epstein_lattice_sum,
    hurwitz_zeta,
    log_xi,
    riemann_zeta,
    scattering_phi_K,
    scattering_phi_Q,
    zeta_moment,
)

ALL_D = (-1, -2, -3, -7, -11, -19, -43, -67, -163)

ZETA_HALF = -1.4603545088095866      # eta-series oracle
CATALAN = 0.9159655941772190          # alternating-series oracle
ZETA_K_QI_AT_2 = 1.5067030099229850   # zeta(2) * Catalan


def test_riemann_zeta_classics():
    assert riemann_zeta(2.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert riemann_zeta(0.5).real == pytest.approx(ZETA_HALF, abs=1e-9)
    assert abs(riemann_zeta(0.5 + 14.134725j)) <= 1e-5


def test_riemann_zeta_pole():
    with pytest.raises(ValueError):
        riemann_zeta(1.0)


def test_backend_methods_agree():
    em = ZetaBackend(method="euler_maclaurin")
    rs = ZetaBackend(method="riemann_siegel")
    rng = np.random.default_rng(3)
    for _ in range(60):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-100, 100))
        assert abs(em.zeta(s) - rs.zeta(s)) <= 1e-9


def test_backend_cache_is_pure_optimization():
    cached = ZetaBackend()
    s = 0.5 + 37.25j
    first = cached.zeta(s)
    assert cached.zeta(s) == first
    assert cached.cache_size() >= 1
    cached.clear_cache()
    assert cached.cache_size() == 0
    assert cached.zeta(s) == first
    assert first == _hurwitz_reg(s, 1.0) + 1.0 / (s - 1.0)
    with pytest.raises(ValueError):
        ZetaBackend(method="mystery")


def test_backend_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(zeta, "_CACHE_LIMIT", 8)
    be = ZetaBackend()
    ss = [complex(0.5, 10.0 + k) for k in range(20)]
    first = [be.zeta(s) for s in ss]
    assert be.cache_size() == 8
    # the oldest values were evicted; recomputing them gives the same bits
    assert [be.zeta(s) for s in ss[:4]] == first[:4]
    assert be.cache_size() == 8


def test_hurwitz_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    # a = 1 reduces to the plain zeta value
    assert hurwitz_zeta(3.0, 1.0).real == pytest.approx(riemann_zeta(3.0).real, rel=1e-12)


def test_dirichlet_l_examples():
    assert dirichlet_L(2.0, -4).real == pytest.approx(CATALAN, abs=1e-10)
    assert dirichlet_L(1.0, -4).real == pytest.approx(math.pi / 4.0, abs=1e-10)
    s = 0.7 + 3.2j
    assert dirichlet_L(s.conjugate(), -4) == pytest.approx(dirichlet_L(s, -4).conjugate(), abs=1e-12)
    with pytest.raises(ValueError):
        dirichlet_L(2.0, -5)


def test_dedekind_zeta_value_and_symmetry():
    qi = ImagQuadField(-1)
    assert dedekind_zeta(qi, 2.0).real == pytest.approx(ZETA_K_QI_AT_2, abs=1e-10)
    s = 1.3 + 2.0j
    assert dedekind_zeta(qi, s.conjugate()) == pytest.approx(dedekind_zeta(qi, s).conjugate(), abs=1e-12)
    with pytest.raises(ValueError):
        dedekind_zeta(qi, 1.0)


def test_dedekind_zeta_vs_principal_ideal_sum():
    # (1/4) sum over nonzero Gaussian integers of N^{-2}, truncated at N <= 1e6;
    # the dropped tail is below pi/1e6
    u, v = np.meshgrid(np.arange(-1000, 1001), np.arange(-1000, 1001))
    norms = u * u + v * v
    mask = (norms > 0) & (norms <= 10**6)
    direct = 0.25 * np.sum(norms[mask].astype(float) ** -2.0)
    assert abs(direct - dedekind_zeta(ImagQuadField(-1), 2.0).real) < 1e-5


def test_dedekind_residue_all_fields():
    eps = 1e-7
    for D in ALL_D:
        fld = ImagQuadField(D)
        got = eps * dedekind_zeta(fld, 1.0 + eps).real
        want = 2.0 * math.pi / (fld.unit_count * math.sqrt(abs(fld.discriminant)))
        assert abs(got - want) / want < 1e-5


def test_epstein_square_form_value():
    got = epstein_Z(BinaryQuadraticForm(1, 0, 1), 2.0)
    assert got.real == pytest.approx(6.02681203969193, abs=1e-10)
    composed = 4.0 * riemann_zeta(2.0) * dirichlet_L(2.0, -4)
    assert abs(got - composed) < 1e-10


def test_epstein_matches_direct_sum():
    # brute-force lattice sums in the convergent half-plane, tail < 1e-6
    m, n = np.meshgrid(np.arange(-800, 801), np.arange(-800, 801))
    for (a, b, c, s) in ((1, 0, 1, 2.3), (2, 1, 3, 2.5)):
        q = (a * m * m + b * m * n + c * n * n).astype(float)
        mask = q > 0
        direct = np.sum(q[mask] ** -s)
        got = epstein_Z(BinaryQuadraticForm(a, b, c), s)
        assert abs(got - direct) < 1e-6


def test_epstein_functional_equation():
    def completed(form: BinaryQuadraticForm, s: complex) -> complex:
        delta = -form.discriminant / 4.0
        return cmath.exp(0.5 * s * math.log(delta) - s * math.log(math.pi)
                         + log_gamma(s)) * epstein_Z(form, s)

    s = 0.3 + 5.0j
    for (a, b, c) in ((1, 0, 1), (2, 1, 3)):
        F = BinaryQuadraticForm(a, b, c)
        lhs, rhs = completed(F, s), completed(F, 1.0 - s)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_epstein_domain():
    F = BinaryQuadraticForm(1, 0, 1)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            epstein_Z(F, bad)


def test_epstein_lattice_sum_rank4_identity():
    # r_4(n) = 8 sigma(n) - 32 sigma(n/4) gives
    # Z_{Z^4}(s) = 8 (1 - 4^{1-s}) zeta(s) zeta(s-1)
    got = epstein_lattice_sum(np.eye(4), 3.0)
    want = 8.0 * (1.0 - 4.0 ** -2.0) * riemann_zeta(3.0) * riemann_zeta(2.0)
    assert abs(got - want) < 1e-8 * abs(want)


def test_epstein_lattice_sum_rank2_consistency():
    # sum over Z^2 of (m^2 + n^2)^{-s} = 4 zeta(s) L(s, chi_{-4})
    got = epstein_lattice_sum(np.eye(2), 1.7)
    want = 4.0 * riemann_zeta(1.7) * dirichlet_L(1.7, -4)
    assert abs(got - want) < 1e-9 * abs(want)
    with pytest.raises(ValueError):
        epstein_lattice_sum(np.eye(4), 2.0)
    with pytest.raises(ValueError):
        epstein_lattice_sum(np.eye(4), 0.0)


def test_lattice_values_count_representations():
    for (a, b, c) in ((1, 0, 1), (2, 1, 3), (1, 1, 7)):
        Q = BinaryQuadraticForm(a, b, c)
        values, counts = _lattice_values(np.array([[a, b / 2.0], [b / 2.0, c]]), 60.0)
        assert np.all(values == np.round(values)), (a, b, c)
        got = dict(zip(values.astype(int).tolist(), counts.tolist()))
        want = {m: repr_count(Q, m) for m in range(1, 61) if repr_count(Q, m)}
        assert got == want, (a, b, c)


def test_epstein_one_class_forms_factor():
    # the principal form of a one-class discriminant d with two units has
    # Z(s) = 2 zeta(s) L(s, chi_d), across the strip and up to Im s = 8
    for (a, b, c) in ((1, 1, 2), (1, 0, 2), (1, 1, 3), (1, 1, 5)):
        Q = BinaryQuadraticForm(a, b, c)
        for s in (2.3, 0.5 + 3j, 0.3 + 5j, 0.5 + 8j):
            want = 2.0 * riemann_zeta(s) * dirichlet_L(s, Q.discriminant)
            assert abs(epstein_Z(Q, s) - want) <= 1e-11 * abs(want), ((a, b, c), s)


def test_scattering_phi_q_unitary():
    for t in (3.0, 7.0, 11.0):
        assert abs(abs(scattering_phi_Q(0.5 + 1j * t)) - 1.0) <= 1e-9
    val = scattering_phi_Q(0.75)
    assert abs(val.imag) < 1e-12


def test_scattering_phi_q_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def xi(w):
        return mpmath.pi ** (-w / 2) * mpmath.gamma(w / 2) * mpmath.zeta(w)

    points = [complex(0.5, t) for t in (3.0, 11.0, 40.0, 150.0)]
    points += [complex(0.8, 5.0), complex(0.2, 7.0)]
    # left of the strip, where phi comes from the reflected point 1 - s
    points += [complex(-0.3, 20.0), complex(-1.0, 12.0), complex(0.0, 40.0)]
    with mpmath.workdps(30):
        for s in points:
            w = mpmath.mpc(s.real, s.imag)
            want = complex(xi(2 * w - 1) / xi(2 * w))
            got = scattering_phi_Q(s)
            assert abs(got - want) <= 1e-12 * abs(want), (s, abs(got - want) / abs(want))


def test_log_xi_matches_mpmath():
    """exp(log_xi(w)) at w = 2s and 2s - 1 on the critical line s = 1/2 + it;
    the worst measured gap is 4.4e-13 relative, at w = 300i."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for t in (3.0, 40.0, 150.0):
            for w in (complex(1.0, 2.0 * t), complex(0.0, 2.0 * t)):
                mw = mpmath.mpc(w.real, w.imag)
                want = complex(mpmath.pi ** (-mw / 2) * mpmath.gamma(mw / 2) * mpmath.zeta(mw))
                got = cmath.exp(log_xi(w))
                assert abs(got - want) <= 1e-12 * abs(want), (w, abs(got - want) / abs(want))


def test_scattering_phi_k_matches_mpmath():
    """phi_K(s) = Lambda_K(s) / Lambda_K(1+s) on Re s = 0, with
    Lambda_K(s) = (2 pi)^{-s} |d_K|^{s/2} Gamma(s) zeta(s) L(s, chi_d) from
    30-digit mpmath; the character is Euler's criterion mod |d_K| for odd d_K."""
    mpmath = pytest.importorskip("mpmath")

    def completed(s, d, chi):
        return ((2 * mpmath.pi) ** (-s) * mpmath.mpf(-d) ** (s / 2) * mpmath.gamma(s)
                * mpmath.zeta(s) * mpmath.dirichlet(s, chi))

    with mpmath.workdps(30):
        for D in (-1, -3, -43):
            d = ImagQuadField(D).discriminant
            q = -d
            chi = ([0, 1, 0, -1] if d == -4 else
                   [0] + [1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)])
            for t in (3.0, 40.0):
                s = mpmath.mpc(0.0, t)
                want = complex(completed(s, d, chi) / completed(s + 1, d, chi))
                got = scattering_phi_K(ImagQuadField(D), complex(0.0, t))
                assert abs(got - want) <= 1e-12 * abs(want), (D, t, abs(got - want) / abs(want))


def test_scattering_phi_q_functional_equation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = complex(rng.uniform(-1.5, 2.5), rng.uniform(-20, 20))
        if min(abs(s - 1.0), abs(s), abs(s - 0.5)) < 0.15:
            continue
        assert abs(scattering_phi_Q(s) * scattering_phi_Q(1.0 - s) - 1.0) <= 5e-9


def test_scattering_phi_k_composed_value():
    qi = ImagQuadField(-1)
    got = scattering_phi_K(qi, 2.0)
    want = (2.0 * math.pi / (2.0 * 2.0)) * dedekind_zeta(qi, 2.0) / dedekind_zeta(qi, 3.0)
    assert abs(got - want) < 1e-12
    assert abs(got.imag) < 1e-12


def test_scattering_phi_k_inverse_pairing():
    fld = ImagQuadField(-7)
    for s in (0.3 + 2j, 1.4 - 5j, 0.8 + 11j):
        assert abs(scattering_phi_K(fld, s) * scattering_phi_K(fld, -s) - 1.0) <= 1e-9


def test_zeta_moment_basics():
    assert zeta_moment(2, 0.0) == 0.0
    assert zeta_moment(2, 200.0) > zeta_moment(2, 100.0) > 0.0
    with pytest.raises(ValueError):
        zeta_moment(3, 10.0)
    with pytest.raises(ValueError):
        zeta_moment(2, -1.0)


def test_dedekind_fourth_moment_holder():
    qi = ImagQuadField(-1)
    zero = dedekind_fourth_moment(qi, 0.0)
    assert zero.value == 0.0 and zero.holder_bound == 0.0
    for T in (50.0, 100.0):
        res = dedekind_fourth_moment(qi, T)
        assert 0.0 < res.value <= res.holder_bound


def test_dedekind_fourth_moment_vs_riemann_sum():
    qi = ImagQuadField(-1)
    res = dedekind_fourth_moment(qi, 100.0)
    be = default_backend()
    step = 0.05
    ts = np.arange(0.5 * step, 100.0, step)
    coarse = sum(abs(be.zeta(0.5 + 1j * t) * dirichlet_L(0.5 + 1j * t, -4)) ** 4
                 for t in ts) * step
    assert abs(res.value - coarse) / coarse < 0.02
