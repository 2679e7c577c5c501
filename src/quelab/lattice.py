"""Exact arithmetic in the nine class-number-one imaginary quadratic rings.

Elements are stored as integer pairs (u, v) with respect to the integral
basis {1, omega}, omega = sqrt(D) for D = 2, 3 mod 4 and (1 + sqrt(D))/2
for D = 1 mod 4.  Everything here is exact; complex embeddings are used
only for ordering and for downstream analytic code.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ImagQuadField",
    "AlgebraicInt",
    "BinaryQuadraticForm",
    "enumerate_by_norm",
    "divisor_sigma",
    "repr_count",
    "kronecker_chi",
]

_CLASS_NUMBER_ONE = (-1, -2, -3, -7, -11, -19, -43, -67, -163)
_ENUM_CAP = 10**7  # keeps enumerate_by_norm list sizes at desk scale


@dataclass(frozen=True)
class ImagQuadField:
    D: int

    def __post_init__(self) -> None:
        if self.D not in _CLASS_NUMBER_ONE:
            raise ValueError(f"D must be one of {_CLASS_NUMBER_ONE}")

    @property
    def half_basis(self) -> bool:
        # D = 1 mod 4 in Python semantics (D negative): -3 % 4 == 1.
        return self.D % 4 == 1

    @property
    def discriminant(self) -> int:
        return self.D if self.half_basis else 4 * self.D

    @property
    def unit_count(self) -> int:
        if self.D == -1:
            return 4
        if self.D == -3:
            return 6
        return 2

    @property
    def omega(self) -> complex:
        root = 1j * math.sqrt(-self.D)
        return (1 + root) / 2 if self.half_basis else root

    def chi(self, m: int) -> int:
        return kronecker_chi(self.discriminant, m)

    def element(self, u: int, v: int) -> "AlgebraicInt":
        return AlgebraicInt(self, u, v)


@dataclass(frozen=True)
class AlgebraicInt:
    field: ImagQuadField
    u: int
    v: int

    def norm(self) -> int:
        D, u, v = self.field.D, self.u, self.v
        if self.field.half_basis:
            return u * u + u * v + v * v * (1 - D) // 4
        return u * u - D * v * v

    def conj(self) -> "AlgebraicInt":
        if self.field.half_basis:
            return AlgebraicInt(self.field, self.u + self.v, -self.v)
        return AlgebraicInt(self.field, self.u, -self.v)

    def to_complex(self) -> complex:
        return self.u + self.v * self.field.omega

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __mul__(self, other: "AlgebraicInt") -> "AlgebraicInt":
        if self.field != other.field:
            raise ValueError("mixed fields")
        u1, v1, u2, v2 = self.u, self.v, other.u, other.v
        D = self.field.D
        if self.field.half_basis:
            # omega^2 = omega + (D - 1)/4
            cross = v1 * v2
            return AlgebraicInt(
                self.field,
                u1 * u2 + cross * (D - 1) // 4,
                u1 * v2 + u2 * v1 + cross,
            )
        return AlgebraicInt(self.field, u1 * u2 + D * v1 * v2, u1 * v2 + u2 * v1)

    def divide_exact(self, other: "AlgebraicInt") -> "AlgebraicInt | None":
        """self/other if other divides self in the ring, else None."""
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        num = self * other.conj()
        if num.u % n or num.v % n:
            return None
        return AlgebraicInt(self.field, num.u // n, num.v // n)

    def angle(self) -> float:
        return cmath.phase(self.to_complex()) % (2.0 * math.pi)


@dataclass(frozen=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b * self.b - 4 * self.a * self.c >= 0:
            raise ValueError("form must be positive definite")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _coordinates(field: ImagQuadField, Nmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer arrays (u, v, norm) of the nonzero elements of norm <= Nmax, by (norm, angle)."""
    if Nmax < 1:
        raise ValueError("Nmax must be >= 1")
    if Nmax > _ENUM_CAP:
        raise ValueError(f"Nmax above enumeration cap {_ENUM_CAP}")
    absD, top = -field.D, 4 * Nmax if field.half_basis else Nmax
    # row v is one run of u: |2u + v| <= isqrt(4 Nmax - |D| v^2) on the half basis,
    # where norm = (u + v/2)^2 + |D| v^2 / 4; else |u| <= isqrt(Nmax - |D| v^2)
    vmax = math.isqrt(top // absD)
    rows = np.arange(-vmax, vmax + 1)
    width = np.array([math.isqrt(top - absD * v * v) for v in rows.tolist()])
    if field.half_basis:
        lo, hi = (1 - rows - width) // 2, (width - rows) // 2
    else:
        lo, hi = -width, width
    counts = np.maximum(hi - lo + 1, 0)
    v = np.repeat(rows, counts)
    u = np.arange(v.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    norm = u * u + (u * v + v * v * ((1 + absD) // 4) if field.half_basis else absD * v * v)
    # [1:] drops zero, the one element of norm 0
    order = np.lexsort((np.angle(u + v * field.omega) % (2.0 * math.pi), norm))[1:]
    return u[order], v[order], norm[order]


def enumerate_by_norm(field: ImagQuadField, Nmax: int) -> list[AlgebraicInt]:
    """All nonzero elements of norm <= Nmax, sorted by (norm, angle)."""
    u, v, _ = _coordinates(field, Nmax)
    return [AlgebraicInt(field, a, b) for a, b in zip(u.tolist(), v.tolist())]


@lru_cache(maxsize=4096)
def _factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization, adequate for norms up to ~1e9."""
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    p = 5
    step = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += step
        step = 6 - step  # 5, 7, 11, 13, ... wheel
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=4096)
def _prime_above(field: ImagQuadField, p: int) -> AlgebraicInt:
    """An element of norm p, for p split or ramified. O(sqrt(p)) scan."""
    absD = -field.D
    if field.half_basis:
        vmax = math.isqrt(4 * p // absD)
        for v in range(vmax + 1):
            t2 = 4 * p - absD * v * v
            t = math.isqrt(t2)
            if t * t == t2 and (t - v) % 2 == 0:
                return AlgebraicInt(field, (t - v) // 2, v)
    else:
        vmax = math.isqrt(p // absD)
        for v in range(vmax + 1):
            u2 = p - absD * v * v
            u = math.isqrt(u2)
            if u * u == u2:
                return AlgebraicInt(field, u, v)
    raise ArithmeticError(f"no element of norm {p}; prime is inert")


@lru_cache(maxsize=4096)
def _ideal_factorization(omega: AlgebraicInt) -> tuple[tuple[AlgebraicInt, int, int], ...]:
    """(prime element, prime ideal norm, exponent) for each prime ideal
    dividing the principal ideal (omega)."""
    field = omega.field
    triples: list[tuple[AlgebraicInt, int, int]] = []
    for p, a in _factor_int(omega.norm()):
        chi = field.chi(p)
        if chi == -1:
            if a % 2:
                raise ArithmeticError("odd valuation at an inert prime")
            triples.append((field.element(p, 0), p * p, a // 2))
        elif chi == 0:
            triples.append((_prime_above(field, p), p, a))
        else:
            pi, rest, e = _prime_above(field, p), omega, 0
            while e < a and (q := rest.divide_exact(pi)) is not None:
                rest, e = q, e + 1
            if e:
                triples.append((pi, p, e))
            if a - e:
                triples.append((pi.conj(), p, a - e))
    return tuple(triples)


def divisor_sigma(field: ImagQuadField, s: complex, omega: AlgebraicInt) -> complex:
    """Sum of N(d)^s over unit-class divisors d of omega.  Local factors multiply in sorted
    (norm, exponent) order, so it is bitwise a function of the exponents of (omega)."""
    if omega.field != field:
        raise ValueError("element does not belong to the given field")
    if omega.is_zero():
        raise ValueError("divisor sum of zero is undefined")
    total = 1.0 + 0.0j
    for q, e in sorted((q, e) for _, q, e in _ideal_factorization(omega)):
        qs = complex(q) ** complex(s)
        acc = 1.0 + 0.0j
        term = 1.0 + 0.0j
        for _ in range(e):
            term *= qs
            acc += term
        total *= acc
    return total


def repr_count(Q: BinaryQuadraticForm, m: int) -> int:
    """Number of integer pairs (x, y) with Q(x, y) = m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    absdisc = -Q.discriminant
    count = 0
    ymax = math.isqrt(4 * Q.a * m // absdisc)
    for y in range(-ymax, ymax + 1):
        # 4a Q(x,y) = (2ax + by)^2 + |disc| y^2
        t2 = 4 * Q.a * m - absdisc * y * y
        if t2 < 0:
            continue
        t = math.isqrt(t2)
        if t * t != t2:
            continue
        for sign in ((t, -t) if t else (t,)):
            num = sign - Q.b * y
            if num % (2 * Q.a) == 0:
                count += 1
    return count


@lru_cache(maxsize=4096)
def kronecker_chi(d_K: int, m: int) -> int:
    """Kronecker symbol (d_K / m) for m >= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    a, b = d_K, m
    tab2 = (0, 1, 0, -1, 0, -1, 0, 1)
    if a % 2 == 0 and b % 2 == 0:
        return 0
    v = 0
    while b % 2 == 0:
        v += 1
        b //= 2
    k = 1 if v % 2 == 0 else tab2[a % 8]
    while True:
        if a == 0:
            return k if b == 1 else 0
        v = 0
        while a % 2 == 0:
            v += 1
            a //= 2
        if v % 2 == 1:
            k *= tab2[b % 8]
        if a & b & 2:
            k = -k
        r = abs(a)
        a = b % r
        b = r
