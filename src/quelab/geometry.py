"""Upper-half-space models of H^2 and H^3.

Points carry dimensionless hyperbolic coordinates with positive height.
Balls are geodesic; integration uses geodesic polar coordinates with the
radial weight sinh^{n-1}, sampling uses exact inverse-CDF in the radius.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from ._quad import gl_nodes

__all__ = [
    "PointH2",
    "PointH3",
    "Mobius3",
    "GeodesicBall",
    "HeegnerPoint",
    "distance",
    "ball_volume",
    "apply_mobius",
    "sample_ball",
    "ball_nodes",
    "ball_quadrature",
    "node_arrays",
]

_MIN_RADIUS = 1e-8  # degenerate balls are rejected rather than approximated


@dataclass(frozen=True)
class PointH2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.y > 0.0:
            raise ValueError("PointH2 needs positive height y")

    @property
    def as_complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class PointH3:
    z: complex
    r: float

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError("PointH3 needs positive height r")


Point = Union[PointH2, PointH3]


@dataclass(frozen=True)
class Mobius3:
    """PSL2(C) element; a matrix and its negation act identically."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > 1e-12:
            raise ValueError(f"determinant must be 1, got {det}")


@dataclass(frozen=True)
class GeodesicBall:
    dimension: int
    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.radius < _MIN_RADIUS:
            raise ValueError(f"degenerate ball: radius < {_MIN_RADIUS}")
        if self.dimension == 2 and not isinstance(self.center, PointH2):
            raise ValueError("dimension-2 ball needs a PointH2 center")
        if self.dimension == 3 and not isinstance(self.center, PointH3):
            raise ValueError("dimension-3 ball needs a PointH3 center")


@dataclass(frozen=True)
class HeegnerPoint:
    """Root of a positive definite integral binary quadratic form in H^2."""

    a: int
    b: int
    c: int
    d: int = field(init=False)
    z: PointH2 = field(init=False)

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("form must be positive definite (a > 0)")
        disc = self.b * self.b - 4 * self.a * self.c
        if disc >= 0:
            raise ValueError("form must be positive definite (b^2 - 4ac < 0)")
        object.__setattr__(self, "d", disc)
        object.__setattr__(
            self,
            "z",
            PointH2(-self.b / (2.0 * self.a), math.sqrt(-disc) / (2.0 * self.a)),
        )


def _acosh_clamped(v: float) -> float:
    return math.acosh(v) if v > 1.0 else 0.0


def distance(n: int, P: Point, Q: Point) -> float:
    """Hyperbolic distance; n in {2, 3}."""
    if n == 2:
        if not (isinstance(P, PointH2) and isinstance(Q, PointH2)):
            raise ValueError("dimension mismatch: expected PointH2 operands")
        dz2 = (P.x - Q.x) ** 2 + (P.y - Q.y) ** 2
        return _acosh_clamped(1.0 + dz2 / (2.0 * P.y * Q.y))
    if n == 3:
        if not (isinstance(P, PointH3) and isinstance(Q, PointH3)):
            raise ValueError("dimension mismatch: expected PointH3 operands")
        delta = (abs(P.z - Q.z) ** 2 + P.r * P.r + Q.r * Q.r) / (2.0 * P.r * Q.r)
        return _acosh_clamped(delta)
    raise ValueError("distance defined for n in {2, 3} only")


def ball_volume(n: int, R: float) -> float:
    """Volume of a geodesic R-ball in H^n, n in {2, 3}."""
    if R <= 0.0:
        raise ValueError("radius must be positive")
    if n == 2:
        return 2.0 * math.pi * (math.cosh(R) - 1.0)
    if n == 3:
        return math.pi * (math.sinh(2.0 * R) - 2.0 * R)
    raise ValueError("ball volume defined for n in {2, 3} only")


def apply_mobius(M: Mobius3, P: PointH3) -> PointH3:
    """Action (aP+b)(cP+d)^{-1} on P = z + rj, in closed form."""
    w = M.c * P.z + M.d
    den = abs(w) ** 2 + abs(M.c) ** 2 * P.r * P.r
    if den <= 0.0:
        raise ArithmeticError("degenerate Mobius denominator")
    z_new = ((M.a * P.z + M.b) * w.conjugate() + M.a * M.c.conjugate() * P.r * P.r) / den
    return PointH3(z_new, P.r / den)


# ----------------------------------------------------------------------------
# Geodesic polar coordinates about a center.


def _polar_h2(center: PointH2, rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    # Poincare disk point tanh(rho/2) e^{i phi} -> upper half-plane (0 -> i),
    # then scaled and shifted onto the center
    w = np.tanh(0.5 * rho) * (np.cos(phi) + 1j * np.sin(phi))
    return center.x + center.y * (1j * (1.0 + w) / (1.0 - w))


def _polar_h3(center: PointH3, rho: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Poincare ball point tanh(rho/2) n -> upper half-space (0 -> j), by the
    # inversion about S((0,0,-1), sqrt 2); n holds unit vectors in its rows
    tau = np.tanh(0.5 * rho)
    s1, s2, s3 = tau * n[:, 0], tau * n[:, 1], tau * n[:, 2] + 1.0
    den = s1 * s1 + s2 * s2 + s3 * s3
    z0 = 2.0 * s1 / den + 1j * (2.0 * s2 / den)
    return center.z + center.r * z0, center.r * (-1.0 + 2.0 * s3 / den)


def _points(nodes: tuple[np.ndarray, ...]) -> list[Point]:
    # inverse of node_arrays: (z,) -> PointH2, (z, r) -> PointH3
    if len(nodes) == 1:
        return [PointH2(z.real, z.imag) for z in nodes[0].tolist()]
    return [PointH3(z, r) for z, r in zip(nodes[0].tolist(), nodes[1].tolist())]


def node_arrays(points: list[Point | complex]) -> tuple[np.ndarray, ...]:
    """Points of one space as node arrays: (z, r) for PointH3, else (z,) for
    PointH2 or complex z."""
    if points and isinstance(points[0], PointH3):
        return (np.array([p.z for p in points], dtype=complex),
                np.array([p.r for p in points], dtype=float))
    return (np.array([p.as_complex if isinstance(p, PointH2) else p for p in points],
                     dtype=complex),)


def _radius_from_cdf(n: int, R: float, u: np.ndarray) -> np.ndarray:
    """Invert the normalized radial volume CDF; exact for n=2, bisection for n=3."""
    if n == 2:
        return np.arccosh(1.0 + u * (math.cosh(R) - 1.0))
    total = math.sinh(2.0 * R) - 2.0 * R
    target = u * total
    lo = np.zeros_like(u)
    hi = np.full_like(u, R)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = np.sinh(2.0 * mid) - 2.0 * mid
        smaller = val < target
        lo = np.where(smaller, mid, lo)
        hi = np.where(smaller, hi, mid)
    return 0.5 * (lo + hi)


def sample_ball(ball: GeodesicBall, seed: int, count: int) -> list[Point]:
    """i.i.d. points uniform w.r.t. hyperbolic volume in the ball; deterministic."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    rho = _radius_from_cdf(ball.dimension, ball.radius, rng.random(count))
    if ball.dimension == 2:
        return _points((_polar_h2(ball.center, rho, rng.random(count) * 2.0 * math.pi),))
    vec = rng.normal(size=(count, 3))
    vec /= np.linalg.norm(vec, axis=1)[:, None]
    return _points(_polar_h3(ball.center, rho, vec))


def ball_nodes(ball: GeodesicBall, order: int = 32) -> tuple[np.ndarray, ...]:
    """Tensor Gauss-Legendre rule over the ball w.r.t. hyperbolic volume.

    Returns (z, w) in H^2 and (z, r, w) in H^3: node coordinates and
    weights as flat arrays, radius outermost and azimuth innermost, with
    order nodes per polar coordinate.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    rho, w_rho = gl_nodes(0.0, ball.radius, order)
    phi, w_phi = gl_nodes(0.0, 2.0 * math.pi, order)
    if ball.dimension == 2:
        rr, pp = (a.ravel() for a in np.meshgrid(rho, phi, indexing="ij"))
        w = np.outer(w_rho * np.sinh(rho), w_phi).ravel()
        return _polar_h2(ball.center, rr, pp), w
    theta, w_theta = gl_nodes(0.0, math.pi, order)
    rr, tt, pp = (a.ravel() for a in np.meshgrid(rho, theta, phi, indexing="ij"))
    n = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=1)
    w = ((w_rho * np.sinh(rho) ** 2)[:, None, None] * (w_theta * np.sin(theta))[:, None]
         * w_phi).ravel()
    return (*_polar_h3(ball.center, rr, n), w)


def ball_quadrature(ball: GeodesicBall, f: Callable[[Point], complex], order: int = 32) -> complex:
    """Tensor Gauss-Legendre integral of f over the ball w.r.t. hyperbolic volume.

    Calls the scalar f at each node of `ball_nodes`; integrands that take
    node arrays should use `ball_nodes` directly.
    """
    *nodes, w = ball_nodes(ball, order)
    return sum((wk * f(p) for wk, p in zip(w.tolist(), _points(nodes))), 0j)
