from __future__ import annotations

import math

import numpy as np
import pytest

from quelab import eisenstein
from quelab.geometry import GeodesicBall, HeegnerPoint, PointH2, PointH3, ball_nodes, sample_ball
from quelab.eisenstein import (
    EisensteinH2,
    EisensteinH3,
    GammaFactorReport,
    eis_h2,
    eis_h2_heegner,
    eis_h3_coset,
    eis_h3_lattice,
    gamma_factors,
    lower_bound_avg,
    _cheb_eval,
    _k_scaled_batch,
    _KTable,
    _reduce_h2,
    _reduce_h3,
)
from quelab.lattice import ImagQuadField, divisor_sigma, enumerate_by_norm
from quelab.zeta import dirichlet_L, riemann_zeta

QI = ImagQuadField(-1)

# frozen regression values
E_AT_I_2 = 2.7842015453307912
H3_QI_25 = 4.812375013155018          # E_inf at P = (0.3+0.2i, 1.1), S = 2.5
H3_D7_25 = 4.253899794713765          # P = (0.25+0.3i, 1.0), S = 2.5, D = -7
LOWER_BOUND_I = 0.13654285031362218   # w = i form, R = 0.4, t = 5

HEEGNER_POINTS = (
    HeegnerPoint(1, 0, 1),    # z = i, d = -4
    HeegnerPoint(1, -1, 1),   # z = (1 + i sqrt 3)/2, d = -3
    HeegnerPoint(1, -1, 2),   # z = (1 + i sqrt 7)/2, d = -7
)


def test_h2_value_at_i_s2():
    got = eis_h2(PointH2(0.0, 1.0), 2.0)
    assert got.real == pytest.approx(E_AT_I_2, abs=1e-10)
    assert abs(got.imag) < 1e-12
    # the same number out of the zeta factorization at the d = -4 point
    composed = (2.0 * riemann_zeta(2.0) * dirichlet_L(2.0, -4) / riemann_zeta(4.0)).real
    assert got.real == pytest.approx(composed, abs=1e-10)
    assert eis_h2_heegner(HeegnerPoint(1, 0, 1), 2.0).real == pytest.approx(composed, abs=1e-10)


def test_h2_two_routes_on_critical_line():
    """Fourier expansion against the form-zeta route at quadratic points."""
    ts = (-15.0, -12.5, -7.5, -2.5, 2.5, 7.5, 12.5)
    for hp in HEEGNER_POINTS:
        for t in ts:
            s = complex(0.5, t)
            a = eis_h2(hp.z, s)
            b = eis_h2_heegner(hp, s)
            assert abs(a - b) <= 1e-6, (hp.d, t, abs(a - b))


@pytest.mark.parametrize("t", [150.0, 250.0, 300.0])
def test_h2_value_matches_heegner_route_at_large_t(t):
    """The direct K route, split by octave, against the form-zeta route at z = i."""
    s = complex(0.5, t)
    got = EisensteinH2().value(PointH2(0.0, 1.0), s)
    assert abs(got - eis_h2_heegner(HeegnerPoint(1, 0, 1), s)) <= 1e-11


@pytest.mark.parametrize("t", [2.5, 3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 7.5, 7.9, 7.99])
def test_h2_value_matches_heegner_route_below_switch(t):
    """The cosh-integral K route (|Im nu| < 8) against the form-zeta route at z = i."""
    s = complex(0.5, t)
    got = EisensteinH2().value(PointH2(0.0, 1.0), s)
    assert abs(got - eis_h2_heegner(HeegnerPoint(1, 0, 1), s)) <= 1e-11


@pytest.mark.parametrize("t", [340.0, 400.0])
def test_h2_value_is_finite_at_large_t(t):
    # one K batch over all terms of the series spanned too wide a range here
    assert np.isfinite(EisensteinH2().value(PointH2(0.0, 1.0), complex(0.5, t)))


def test_h2_heegner_fallback_discriminant():
    # class number of d = -20 is 2, so the one-class factorization does not
    # apply and the generic continuation route must take over
    hp = HeegnerPoint(1, 0, 5)
    assert hp.d == -20
    for t in (3.0, 8.0):
        s = complex(0.5, t)
        assert abs(eis_h2(hp.z, s) - eis_h2_heegner(hp, s)) <= 1e-9


def test_h2_heegner_uses_factorization_only_at_field_discriminants():
    # d = -8 factors as w zeta(s) L(s, chi_-8); d = -12 has class number one
    # but is not a field discriminant, so it must take the Epstein route
    for hp in (HeegnerPoint(1, 0, 2), HeegnerPoint(1, 0, 3)):
        for t in (3.0, 8.0):
            s = complex(0.5, t)
            assert abs(eis_h2(hp.z, s) - eis_h2_heegner(hp, s)) <= 1e-9, (hp.d, t)


def test_h2_truncation_doubling_below_tail_bound():
    for (x, y, t) in ((0.13, 0.92, 9.0), (0.0, 1.0, 21.0), (0.37, 1.4, 3.0)):
        z = PointH2(x, y)
        s = complex(0.5, t)
        base = EisensteinH2()
        n1 = base.terms_for(y, t)
        v1 = EisensteinH2(truncation=n1).value(z, s)
        v2 = EisensteinH2(truncation=2 * n1).value(z, s)
        assert abs(v1 - v2) < base.tail_bound(y, t, n1)


def test_h2_guards():
    ev = EisensteinH2()
    for bad in (1.0, 0.5, 0.0):
        with pytest.raises(ValueError):
            ev.value(PointH2(0.0, 1.0), bad)
    with pytest.raises(ValueError):
        EisensteinH2(height_floor=2.0).value(PointH2(0.0, 1.0), 0.5 + 3j)
    with pytest.raises(ValueError):
        EisensteinH2(truncation=1, height_floor=0.1)
    with pytest.raises(ValueError):
        EisensteinH2(abs_tol=2.0)


def test_h3_frozen_value_and_lattice_route():
    P = PointH3(0.3 + 0.2j, 1.1)
    ev = EisensteinH3(field=QI)
    got = ev.value(P, 2.5) * 2 / QI.unit_count  # the bare cusp series E_inf
    assert got.real == pytest.approx(H3_QI_25, abs=1e-9)
    assert abs(got.imag) < 1e-12
    for S in (2.5, 1.0 + 4.0j):
        f = ev.value(P, S) * 2 / QI.unit_count
        l = eis_h3_lattice(P, S, QI)
        assert abs(f - l) <= 1e-10 * max(1.0, abs(f))


def test_h3_second_field_two_routes():
    fld = ImagQuadField(-7)
    P = PointH3(0.25 + 0.3j, 1.0)
    ev = EisensteinH3(field=fld)
    got = ev.value(P, 2.5)
    assert got.real == pytest.approx(H3_D7_25, abs=1e-9)
    assert abs(got - eis_h3_lattice(P, 2.5, fld)) <= 1e-10 * abs(got)


def test_h3_coset_builds_each_prime_mask_once(monkeypatch):
    """One `_not_divisible` call per distinct prime dividing some c in the sum."""
    calls = []
    not_divisible = eisenstein._not_divisible

    def counted(du, dv, p):
        calls.append(p)
        return not_divisible(du, dv, p)

    monkeypatch.setattr(eisenstein, "_not_divisible", counted)
    cap = 12
    eis_h3_coset(PointH3(0.3 + 0.2j, 1.1), 2.5, QI, cap=cap)
    primes = {p for c in enumerate_by_norm(QI, cap * cap) if eisenstein._in_sector(c)
              for p, _, _ in eisenstein._ideal_factorization(c)}
    assert len(calls) == len(set(calls)) and set(calls) == primes


def test_h3_fourier_vs_coset_real_s():
    """Two-route agreement on the real axis where the sum converges.

    The coset sum truncated at |c|, |d| <= cap carries a tail proportional
    to cap^{4-2S}; one extrapolation step with the known exponent removes it.
    """
    P = PointH3(0.3 + 0.2j, 1.1)
    ev = EisensteinH3(field=QI)
    for S in (2.2, 3.0):
        fourier = (ev.value(P, S) * 2 / QI.unit_count).real
        c40 = eis_h3_coset(P, S, QI, cap=40).real
        c80 = eis_h3_coset(P, S, QI, cap=80).real
        alpha = 2.0 * S - 4.0
        accel = c80 + (c80 - c40) / (2.0**alpha - 1.0)
        assert abs(accel - fourier) <= 1e-4, (S, abs(accel - fourier))


def test_h3_cap_doubling_below_tail_bound():
    for (z, r, tau) in ((0.2 + 0.3j, 0.9, 7.0), (0.1 + 0.05j, 1.2, 12.0)):
        P = PointH3(z, r)
        S = complex(1.0, tau)
        ev = EisensteinH3(field=QI, height_floor=0.8)
        c1 = ev.cap_for(0.9, tau)
        v1 = EisensteinH3(field=QI, norm_cap=c1, height_floor=0.8).value(P, S)
        v2 = EisensteinH3(field=QI, norm_cap=2 * c1, height_floor=0.8).value(P, S)
        assert abs(v1 - v2) < ev.tail_bound(0.9, tau, c1)


def test_h3_guards():
    ev = EisensteinH3(field=QI)
    P = PointH3(0.4 + 0.4j, 0.9)
    for bad in (2.0, 1.0, 0.0):
        with pytest.raises(ValueError):
            ev.value(P, bad)
    with pytest.raises(ValueError):
        EisensteinH3(field=QI, height_floor=1.5).value(P, 2.5)
    with pytest.raises(ValueError):
        EisensteinH3(field=QI, norm_cap=2)


@pytest.mark.parametrize("dim, center, t", [
    (2, PointH2(0.1, 1.2), 8.5),
    (2, PointH2(-0.37, 0.95), 12.0),
    (2, PointH2(0.0, 1.0), 40.0),
    (3, PointH3(0.1 + 0.05j, 1.2), 9.0),
])
def test_plan_matches_value_on_a_ball(dim, center, t):
    """Table-backed plan against the direct one-shot route, relative to the
    largest |E| on the ball (pointwise ratios blow up near zeros of E)."""
    ev = EisensteinH2() if dim == 2 else EisensteinH3(field=QI)
    s = complex(0.5 if dim == 2 else 1.0, t)
    pts = sample_ball(GeodesicBall(dim, center, t ** (-1.0 / 3.0)), 5, 40)
    series = ev.plan(s)
    planned = np.array([series(p) for p in pts])
    direct = np.array([ev.value(p, s) for p in pts])
    assert np.max(np.abs(planned - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("tau", [8.0, 12.5, 40.0])
def test_k_table_matches_direct_route(tau):
    nu = complex(0.0, tau)
    xs = np.geomspace(math.pi, 250.0, 500)
    direct = np.concatenate([_k_scaled_batch(nu, xs[i:i + 50]) for i in range(0, 500, 50)])
    assert np.max(np.abs(_KTable(nu)(xs) - direct)) <= 1e-14


@pytest.mark.parametrize("tau", [100.0, 180.0])
def test_k_table_matches_direct_route_at_large_order(tau):
    nu = complex(0.0, tau)
    xs = np.geomspace(1.0, 400.0, 400)
    table = _KTable(nu)
    assert np.max(np.abs(table(xs) - _k_scaled_batch(nu, xs))) <= 5e-14
    assert sum(coef.size == 0 for coef in table._panels.values()) <= 1  # fallback panels


def test_k_table_fills_reuse_values_within_one_octave(monkeypatch):
    """Each fill is one direct call on one octave; the levels of a panel never
    ask for the same point twice."""
    calls = []

    def counted(nu, xs):
        calls.append(np.array(xs))
        return _k_scaled_batch(nu, xs)

    monkeypatch.setattr(eisenstein, "_k_scaled_batch", counted)
    table = _KTable(complex(0.0, 40.0))
    table(np.geomspace(3.0, 200.0, 300))
    assert 1 < len(table._panels) < len(calls)
    by_panel = {}
    for xs in calls:
        j = math.floor(math.log2(xs.min()))
        assert xs.max() <= 2.0 ** (j + 1)
        by_panel.setdefault(j, []).append(xs)
    for pieces in by_panel.values():
        points = np.concatenate(pieces)
        assert np.unique(points).size == points.size
    calls.clear()
    table(np.geomspace(3.0, 200.0, 77))
    assert calls == []


@pytest.mark.parametrize("size", [0, 1, 2, 28, 107])
def test_cheb_eval_matches_cosine_sum(size):
    """Clenshaw's recurrence against sum_k c_k cos(k arccos u), on rows of
    mixed length read by index.  The coefficients decay geometrically, as a
    resolved table's do; near u = +-1 the recurrence's rounding grows with
    the length of a series whose coefficients do not decay."""
    rng = np.random.default_rng(size)
    coef = (rng.normal(size=(4, size)) + 1j * rng.normal(size=(4, size))) * 0.7 ** np.arange(size)
    for i in range(1, 4):
        coef[i, size - i * size // 4:] = 0.0
    u = np.concatenate([[-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 200),
                        1.0 - np.geomspace(1e-16, 1e-2, 20), np.geomspace(1e-16, 1e-2, 20) - 1.0])
    rows = rng.integers(0, 4, u.size)
    want = (np.cos(np.outer(np.arccos(u), np.arange(size))) * coef[rows]).sum(axis=1)
    got = _cheb_eval(u, coef, rows)
    assert got.shape == u.shape
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(coef).sum(axis=1)[rows])


@pytest.mark.parametrize("tau", [8.0, 12.5, 26.0, 40.0, 100.0, 180.0])
def test_k_table_zero_panels_lie_below_the_chop(tau):
    """A panel the K_{1/2} bound zeroes starts past the turning point x = tau,
    where |K_{i tau}(x)| decreases, so the 30-digit scaled K at its left end
    bounds it: that is below the chop.  The direct route, whose noise there
    reaches 1e-14, stays within the table tolerance of zero.  At tau = 26 the
    bound at x = 64 is within e^10 of the chop, and the scaled K is 6.7e-14."""
    mpmath = pytest.importorskip("mpmath")
    nu = complex(0.0, tau)
    table = _KTable(nu)
    table(np.geomspace(1.0, 400.0, 400))
    zero = [j for j, coef in table._panels.items() if coef.size == 1 and coef[0] == 0.0]
    assert bool(zero) == (tau <= 100.0)
    for j in zero:
        assert 2.0 ** j > tau
        with mpmath.workdps(30):
            edge = abs(mpmath.exp(mpmath.pi * tau / 2) * mpmath.besselk(nu, 2.0 ** j))
        assert edge <= eisenstein._CHEB_CHOP
        xs = 2.0 ** (j - 1) * (3.0 + eisenstein._CHEB_U)
        assert np.max(np.abs(_k_scaled_batch(nu, xs))) <= eisenstein._CHEB_TOL


def test_k_table_failed_panel_falls_back_bit_for_bit(monkeypatch):
    monkeypatch.setattr(eisenstein, "_CHEB_TOL", -1.0)  # no check can pass
    nu = complex(0.0, 12.5)
    xs = np.linspace(9.0, 15.0, 9)  # all in the panel [2^3, 2^4]
    assert np.array_equal(_KTable(nu)(xs), _k_scaled_batch(nu, xs))
    wide = np.geomspace(4.0, 90.0, 40)
    table, low = _KTable(nu), wide < 64.0
    got = table(wide)
    assert np.array_equal(got[low], _k_scaled_batch(nu, wide[low]))
    # [64, 128] lies past the K_{1/2} bound: a zero panel, not a fallback
    assert np.array_equal(table._panels[6], np.zeros(1)) and not got[~low].any()


def test_plan_values_do_not_depend_on_evaluation_order():
    ev = EisensteinH2()
    s = complex(0.5, 12.0)
    pts = sample_ball(GeodesicBall(2, PointH2(0.2, 1.1), 0.6), 11, 30)
    forward_plan = ev.plan(s)
    forward = [forward_plan(p) for p in pts]
    reverse = [ev.plan(s)(p) for p in reversed(pts)][::-1]
    again = [forward_plan(p) for p in reversed(pts)][::-1]
    assert forward == reverse == again


def test_value_makes_one_direct_k_call(monkeypatch):
    calls = []

    def counted(nu, xs):
        calls.append(np.max(xs) / np.min(xs))
        return _k_scaled_batch(nu, xs)

    monkeypatch.setattr(eisenstein, "_k_scaled_batch", counted)
    EisensteinH2().value(PointH2(0.13, 0.92), complex(0.5, 12.0))
    assert len(calls) == 1 and calls[0] > 4.0  # one call, split inside it by octave
    EisensteinH3(field=QI).value(PointH3(0.1 + 0.05j, 1.2), complex(1.0, 9.0))
    assert len(calls) == 2


# balls that span at least two truncations (H^2 term counts, H^3 norm caps)
BLOCK_CASES = [
    (EisensteinH2(), PointH2(0.1, 1.2), 6.5),                         # cosh-integral K
    (EisensteinH2(), PointH2(0.1, 1.2), 12.0),                        # Chebyshev table
    (EisensteinH3(field=QI), PointH3(0.1 + 0.05j, 1.2), 9.0),         # Chebyshev table
    (EisensteinH3(field=ImagQuadField(-43)), PointH3(0.1 + 0.1j, 1.5), 4.8),  # cosh
]


def _block_case(ev, center, t):
    """(s, node arrays, the nodes as points, truncation per node) of a ball."""
    dim = 3 if isinstance(center, PointH3) else 2
    s = complex(0.5 if dim == 2 else 1.0, t)
    *nodes, _ = ball_nodes(GeodesicBall(dim, center, t ** (-1.0 / 3.0)), 10 if dim == 2 else 6)
    if dim == 2:
        points = [PointH2(z.real, z.imag) for z in nodes[0].tolist()]
        truncation = ev.terms_for(_reduce_h2(nodes[0]).imag, t)
    else:
        points = [PointH3(z, r) for z, r in zip(nodes[0].tolist(), nodes[1].tolist())]
        truncation = ev.cap_for(_reduce_h3(ev.field, *nodes)[1], t)
    return s, nodes, points, truncation


@pytest.mark.parametrize("ev, center, t", BLOCK_CASES,
                         ids=["h2_cosh", "h2_table", "gauss_table", "d43_cosh"])
def test_block_values_match_per_node_value(ev, center, t):
    """A plan's block evaluation against the one-node `value`, relative to
    the largest |E| on the ball."""
    s, nodes, points, truncation = _block_case(ev, center, t)
    assert len(set(truncation.tolist())) >= 2
    block = ev.plan(s).values(*nodes)
    single = np.array([ev.value(p, s) for p in points])
    assert np.max(np.abs(block - single)) <= 1e-13 * np.max(np.abs(single))


@pytest.mark.parametrize("ev, center, t", BLOCK_CASES,
                         ids=["h2_cosh", "h2_table", "gauss_table", "d43_cosh"])
def test_block_values_do_not_depend_on_block_size(monkeypatch, ev, center, t):
    """Blocks of one node against the default blocks.  Either way each node
    sends K exactly the arguments of its own truncation: its term count on
    H^2, the distinct norms up to its cap on H^3.  On both K routes one K
    call serves a run of blocks of at most TABLE_K_ARGS arguments.  On the
    table route the length of that run moves no value by a bit; on the cosh
    route it moves values by rounding only."""
    s, nodes, _, truncation = _block_case(ev, center, t)
    if isinstance(ev, EisensteinH2):
        per_node = truncation.tolist()
    else:
        per_node = [eisenstein._h3_term_table(ev.field, (s.real, s.imag), cap)[2].size
                    for cap in truncation.tolist()]
    calls = []
    _k_scaled = eisenstein._k_scaled

    def counted(nu, xs, table=None):
        calls.append(len(xs))
        return _k_scaled(nu, xs, table)

    block_args, table_args = eisenstein.BLOCK_K_ARGS, eisenstein.TABLE_K_ARGS

    def run(block, table):
        monkeypatch.setattr(eisenstein, "BLOCK_K_ARGS", block)
        monkeypatch.setattr(eisenstein, "TABLE_K_ARGS", table)
        calls.clear()
        return ev.plan(s).values(*nodes)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    monkeypatch.setattr(eisenstein, "_k_scaled", counted)
    default = run(block_args, table_args)
    assert sum(calls) == sum(per_node) and max(calls) <= table_args
    table_route = eisenstein._k_shift(complex(0.0, t)) > 0.0
    same = np.array_equal if table_route else close
    one_node_blocks = run(1, 1)
    assert calls == per_node
    assert close(one_node_blocks, default)
    assert same(run(1, table_args), one_node_blocks)
    # blocks small enough that a ball spans several: one K call per block
    # against one per run of them
    block = max(1, sum(per_node) // 4)
    blocks = run(block, block)
    assert 1 < len(calls) and sum(calls) == sum(per_node)
    assert max(calls) <= max(block, max(per_node))
    assert same(run(block, table_args), blocks)


@pytest.mark.parametrize("ev, center, t", BLOCK_CASES[2:], ids=["gauss_table", "d43_cosh"])
def test_h3_values_build_one_term_table(monkeypatch, ev, center, t):
    """Nodes of several norm caps share the term table of the largest cap."""
    s, nodes, _, truncation = _block_case(ev, center, t)
    assert len(set(truncation.tolist())) >= 2
    calls = []
    _h3_term_table = eisenstein._h3_term_table

    def counted(field_, s_key, cap):
        calls.append(cap)
        return _h3_term_table(field_, s_key, cap)

    monkeypatch.setattr(eisenstein, "_h3_term_table", counted)
    ev.plan(s).values(*nodes)
    assert calls == [int(truncation.max())]


@pytest.fixture
def fresh_h3_tables(monkeypatch):
    """Empty per-field tables and term-table cache; call it again to reset both."""
    def reset():
        monkeypatch.setattr(eisenstein, "_H3_FIELD_TABLES", {})
        eisenstein._h3_term_table.cache_clear()
    reset()
    yield reset
    eisenstein._h3_term_table.cache_clear()


def _term_table_reference(field_, s, cap):
    """The term table built element by element over `enumerate_by_norm`."""
    els = enumerate_by_norm(field_, cap)
    sigma = np.array([divisor_sigma(field_, -s, e) for e in els])
    norms = np.array([e.norm() for e in els])
    coeff = sigma * np.exp(s * np.log(np.sqrt(norms.astype(float))))
    return (np.array([e.to_complex() for e in els]), coeff,
            *np.unique(norms, return_inverse=True))


@pytest.mark.parametrize("D", [-1, -2, -3, -7, -11, -19, -43, -67, -163])
def test_h3_term_table_is_bitwise_the_per_element_sum(fresh_h3_tables, D):
    """Caps asked in increasing, decreasing and random order, from empty
    tables each time: no value depends on which caps came first."""
    field_ = ImagQuadField(D)
    caps = [1, 2, 5, 16, 25, 100, 441]
    shuffled = np.random.default_rng(-D).permutation(caps).tolist()
    for s in (complex(0.5, 0.0), complex(0.0, 7.0), complex(-0.2, 100.0)):
        want = {cap: _term_table_reference(field_, s, cap) for cap in caps}
        for order in (caps, caps[::-1], shuffled):
            fresh_h3_tables()
            for cap in order:
                got = eisenstein._h3_term_table(field_, (s.real, s.imag), cap)
                for a, b in zip(got, want[cap]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_h3_field_tables_are_bounded_and_factor_each_element_once(monkeypatch, fresh_h3_tables):
    """One entry per field, grown to the largest cap asked for; over several
    caps and spectral parameters each element of Z[i] is factored once."""
    calls = []
    _ideal_factorization = eisenstein._ideal_factorization

    def counted(omega):
        calls.append(omega)
        return _ideal_factorization(omega)

    monkeypatch.setattr(eisenstein, "_ideal_factorization", counted)
    for s_key in ((0.0, 7.0), (0.5, 12.0)):
        for cap in (16, 25, 100, 441, 100):
            eisenstein._h3_term_table(QI, s_key, cap)
    assert len(calls) == len(set(calls)) == len(enumerate_by_norm(QI, 441))
    for D in (-1, -3, -43, -3):
        eisenstein._h3_term_table(ImagQuadField(D), (0.0, 7.0), 49)
    tables = eisenstein._H3_FIELD_TABLES
    assert sorted(f.D for f in tables) == [-43, -3, -1]
    assert [tables[ImagQuadField(D)][0] for D in (-1, -3, -43)] == [441, 49, 49]


def test_values_of_no_nodes_are_empty():
    z = np.zeros(0, dtype=complex)
    assert EisensteinH2().plan(complex(0.5, 12.0)).values(z).shape == (0,)
    assert EisensteinH3(field=QI).plan(complex(1.0, 9.0)).values(z, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("order", [2.0, 8.0, 13.0, 40.0, 80.0, 180.0, 0.3 + 20j, 0.3 + 100j])
def test_balanced_k_route_matches_mpmath(order):
    """`_k_scaled_batch`, one argument per call and all in one batch, and
    from tau = 8 on `_KTable`, in absolute error on the scaled K.  A real
    order is tau in nu = i tau; a complex one is nu itself, off the critical
    line.  The arguments include the H^2 `value` arguments 2 pi n at z = i
    and x near 1, where the phase rounding of the quadrature is largest."""
    mpmath = pytest.importorskip("mpmath")
    nu = complex(order) if isinstance(order, complex) else complex(0.0, order)
    tau = nu.imag
    n_terms = EisensteinH2().terms_for(1.0, tau)
    xs = np.array([0.9, 1.0, 1.1, 2.5, 7.0, tau / 2.0 + 1.0, tau, 1.5 * tau + 3.0, 120.0, 250.0]
                  + [2.0 * math.pi * n for n in range(1, n_terms + 1)])
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.exp(mpmath.pi * tau / 2)
                                 * mpmath.besselk(mpmath.mpc(nu.real, tau), x)) for x in xs])
    single = np.concatenate([_k_scaled_batch(nu, xs[i:i + 1]) for i in range(xs.size)])
    assert np.max(np.abs(single - want)) <= 5e-14
    assert np.max(np.abs(_k_scaled_batch(nu, xs) - want)) <= 5e-14
    if tau >= 8.0:
        assert np.max(np.abs(_KTable(nu)(xs) - want)) <= 5e-14


def test_gamma_factors_report_shape():
    rep = gamma_factors(3, 30.0, 50.0)
    assert isinstance(rep, GammaFactorReport)
    assert rep.Q == pytest.approx(4.0 * 30 - abs(2 * 30 + 50) - abs(2 * 30 - 50), abs=1e-12)
    assert rep.P == pytest.approx((1 + 50.0) * (1 + 30.0) ** 2, rel=1e-12)
    assert rep.gamma_asym == pytest.approx(math.exp(0.5 * math.pi * rep.Q) / rep.P, rel=1e-12)

    rep2 = gamma_factors(2, 30.0, 50.0)
    assert rep2.P == pytest.approx((1 + 50.0) * math.sqrt((1 + 110.0) * (1 + 10.0)), rel=1e-12)

    with pytest.raises(ValueError):
        gamma_factors(4, 10.0, 10.0)
    with pytest.raises(ValueError):
        gamma_factors(3, -1.0, 10.0)


def test_gamma_surrogate_bounded_dim3():
    for t_j in (20.0, 50.0, 100.0):
        for t in (20.0, 60.0, 100.0):
            rep = gamma_factors(3, t_j, t)
            ratio = rep.gamma_exact / rep.gamma_asym
            assert 0.1 <= ratio <= 10.0


def test_lower_bound_avg_frozen():
    got = lower_bound_avg(HeegnerPoint(1, 0, 1), 0.4, 5.0)
    assert got == pytest.approx(LOWER_BOUND_I, rel=1e-10)
    with pytest.raises(ValueError):
        lower_bound_avg(HeegnerPoint(1, 0, 1), 0.0, 5.0)
    with pytest.raises(ValueError):
        lower_bound_avg(HeegnerPoint(1, 0, 1), 0.4, 1.0)
