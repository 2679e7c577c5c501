from __future__ import annotations

import math

import numpy as np
import pytest

from quelab.lattice import _ideal_factorization
from quelab.lattice import (
    AlgebraicInt,
    BinaryQuadraticForm,
    ImagQuadField,
    divisor_sigma,
    enumerate_by_norm,
    kronecker_chi,
    repr_count,
)

ALL_D = (-1, -2, -3, -7, -11, -19, -43, -67, -163)


def test_field_basic_data():
    qi = ImagQuadField(-1)
    assert qi.discriminant == -4 and qi.unit_count == 4
    assert ImagQuadField(-3).unit_count == 6
    assert ImagQuadField(-7).unit_count == 2
    assert ImagQuadField(-7).discriminant == -7
    assert ImagQuadField(-2).discriminant == -8
    with pytest.raises(ValueError):
        ImagQuadField(-5)


def test_enumerate_gaussian_small():
    qi = ImagQuadField(-1)
    elems = enumerate_by_norm(qi, 5)
    assert len(elems) == 20
    hist: dict[int, int] = {}
    for e in elems:
        hist[e.norm()] = hist.get(e.norm(), 0) + 1
    assert hist == {1: 4, 2: 4, 4: 4, 5: 8}


def test_enumerate_units_only():
    for D in ALL_D:
        fld = ImagQuadField(D)
        elems = enumerate_by_norm(fld, 1)
        assert len(elems) == fld.unit_count
        assert all(e.norm() == 1 for e in elems)


def test_enumerate_sqrt_minus_two():
    fld = ImagQuadField(-2)
    elems = enumerate_by_norm(fld, 2)
    assert {(e.u, e.v) for e in elems} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_enumerate_sorted_and_unique():
    fld = ImagQuadField(-7)
    elems = enumerate_by_norm(fld, 40)
    keys = [(e.norm(), e.angle()) for e in elems]
    assert keys == sorted(keys)
    assert len({(e.u, e.v) for e in elems}) == len(elems)


@pytest.mark.parametrize("D", ALL_D)
def test_enumerate_matches_brute_force(D):
    """The array enumeration against every element of a box that holds the
    ellipse, sorted by (norm, angle)."""
    fld = ImagQuadField(D)
    for Nmax in (1, 2, 40, 441):
        box = range(-2 * math.isqrt(Nmax) - 2, 2 * math.isqrt(Nmax) + 3)
        brute = sorted((w for u in box for v in box
                        if 0 < (w := AlgebraicInt(fld, u, v)).norm() <= Nmax),
                       key=lambda w: (w.norm(), w.angle()))
        got = enumerate_by_norm(fld, Nmax)
        assert got == brute
        assert all(type(w.u) is int and type(w.v) is int for w in got)
    with pytest.raises(ValueError):
        enumerate_by_norm(fld, 10**8)


def test_enumerate_domain_errors():
    with pytest.raises(ValueError):
        enumerate_by_norm(ImagQuadField(-1), 0)
    with pytest.raises(ValueError):
        enumerate_by_norm(ImagQuadField(-1), 10**8)


def test_enumerate_count_matches_repr_count():
    # cross-module identity: counting Gaussian integers by norm is counting
    # representations by x^2 + y^2
    q = BinaryQuadraticForm(1, 0, 1)
    total = sum(repr_count(q, m) for m in range(1, 61))
    assert len(enumerate_by_norm(ImagQuadField(-1), 60)) == total


def test_norm_multiplicative():
    fld = ImagQuadField(-11)
    rng = np.random.default_rng(4)
    for _ in range(300):
        a = AlgebraicInt(fld, int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
        b = AlgebraicInt(fld, int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
        assert (a * b).norm() == a.norm() * b.norm()


def test_divisor_sigma_units_and_examples():
    qi = ImagQuadField(-1)
    one_plus_i = qi.element(1, 1)
    for s in (0.0, 1.0, 0.5 + 2.0j):
        for u in (qi.element(1, 0), qi.element(0, 1), qi.element(-1, 0), qi.element(0, -1)):
            assert divisor_sigma(qi, s, u) == pytest.approx(1.0, abs=1e-12)
    assert divisor_sigma(qi, 0.0, one_plus_i) == pytest.approx(2.0, abs=1e-12)
    assert divisor_sigma(qi, 1.0, one_plus_i) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        divisor_sigma(qi, 1.0, qi.element(0, 0))


def _brute_sigma(fld: ImagQuadField, s: complex, w: AlgebraicInt, pool) -> complex:
    nw = w.norm()
    acc = 0.0 + 0.0j
    for d in pool:
        nd = d.norm()
        if nd <= nw and nw % nd == 0 and w.divide_exact(d) is not None:
            acc += nd ** complex(s)
    return acc / fld.unit_count


def test_divisor_sigma_against_brute_force():
    s = 0.75 + 0.5j
    for D in (-1, -3, -43):
        fld = ImagQuadField(D)
        pool = enumerate_by_norm(fld, 120)
        for w in pool:
            got = divisor_sigma(fld, s, w)
            want = _brute_sigma(fld, s, w, pool)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_ideal_factorization_valuations_by_exact_division():
    """Each (prime, norm, exponent) triple is an exact prime-power divisor:
    pi^e divides omega and pi^(e+1) does not (by `divide_exact`), distinct
    triples name distinct prime ideals, and the norms multiply to N(omega)."""
    for D in ALL_D:
        fld = ImagQuadField(D)
        for w in enumerate_by_norm(fld, 150):
            triples = _ideal_factorization(w)
            assert math.prod(q ** e for _, q, e in triples) == w.norm()
            assert len({(p.u, p.v) for p, _, _ in triples}) == len(triples)
            for p, q, e in triples:
                assert p.norm() == q and e >= 1
                rest = w
                for _ in range(e):
                    rest = rest.divide_exact(p)
                    assert rest is not None
                assert rest.divide_exact(p) is None


def test_norm_and_content_fix_the_factorization_pattern():
    """(norm, content gcd(u, v)) keys and sorted (ideal norm, exponent)
    patterns are in one-to-one correspondence, so a divisor sum keyed by
    (norm, content) is the element's own."""
    for D in ALL_D:
        fld = ImagQuadField(D)
        by_key, by_pattern = {}, {}
        for w in enumerate_by_norm(fld, 1000):
            key = (w.norm(), math.gcd(w.u, w.v))
            pattern = tuple(sorted((q, e) for _, q, e in _ideal_factorization(w)))
            by_key.setdefault(key, set()).add(pattern)
            by_pattern.setdefault(pattern, set()).add(key)
        assert all(len(v) == 1 for v in by_key.values()), D
        assert all(len(v) == 1 for v in by_pattern.values()), D


def test_divisor_sigma_multiplicative_on_coprime_pairs():
    fld = ImagQuadField(-7)
    pool = [e for e in enumerate_by_norm(fld, 60) if e.norm() > 1]
    s = 0.7 + 0.3j
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 1000:
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        if math.gcd(a.norm(), b.norm()) != 1:
            continue
        prod = divisor_sigma(fld, s, a * b)
        split = divisor_sigma(fld, s, a) * divisor_sigma(fld, s, b)
        assert abs(prod - split) <= 1e-9 * max(1.0, abs(split))
        checked += 1


def test_repr_count_examples():
    q = BinaryQuadraticForm(1, 0, 1)
    assert repr_count(q, 1) == 4
    assert repr_count(q, 3) == 0
    assert repr_count(q, 5) == 8


def test_kronecker_chi_examples():
    assert kronecker_chi(-4, 2) == 0
    assert kronecker_chi(-4, 3) == -1
    assert kronecker_chi(-4, 5) == 1


def test_kronecker_chi_multiplicative_exhaustive():
    chi = {m: kronecker_chi(-7, m) for m in range(1, 401)}
    for m in range(1, 201):
        for n in range(1, 201):
            if m * n <= 400:
                assert chi[m * n] == chi[m] * chi[n]


def test_kronecker_chi_vanishing():
    for d in (-4, -8, -7, -11):
        for m in range(1, 120):
            if math.gcd(m, abs(d)) > 1:
                assert kronecker_chi(d, m) == 0
            else:
                assert kronecker_chi(d, m) in (-1, 1)


def test_form_positive_definite_guard():
    with pytest.raises(ValueError):
        BinaryQuadraticForm(0, 0, 1)
    with pytest.raises(ValueError):
        BinaryQuadraticForm(1, 3, 1)
    assert BinaryQuadraticForm(2, 1, 3).discriminant == -23
