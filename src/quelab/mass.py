"""Shrinking-ball mass of |E|^2 and its deviation from the equidistribution
main term.

The central observable is the ball average of the squared Eisenstein series,
normalized by the logarithmic growth of the continuous spectrum:

    normalized = (1 / (logfactor * vol B)) * integral over B of |E|^2,

where the log factor is log(1/4 + t^2) on the modular surface and
log(1 + t^2) on a Bianchi manifold.  The main terms are 1/vol for the
modular surface and w sqrt|d_K| / (4 vol) for class-number-one Bianchi
manifolds (the corrected constant; an earlier published value was wrong).
Both manifold volumes come from in-package zeta identities rather than
hard-coded decimals, except vol(modular surface) = pi/3 which is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GeodesicBall,
    ball_nodes,
    ball_quadrature,
    ball_volume,
    node_arrays,
    sample_ball,
)
from .selberg import BallKernel, h_char
from .zeta import dedekind_zeta

__all__ = [
    "MassResult",
    "ball_mass",
    "bianchi_main_term",
    "bianchi_volume",
    "mean_value_residual",
    "variance_window",
    "H2_MAIN_TERM",
    "MAX_GRID_POINTS",
    "MAX_BALL_NODES",
    # re-exported: perfbench's tracer patches quelab.mass.ball_quadrature
    "ball_quadrature",
]

# 1 / vol(PSL_2(Z) \ H^2) with vol = pi/3
H2_MAIN_TERM = 3.0 / math.pi

# most t values one grid may hold: a CLI grid, or the window of variance_window
MAX_GRID_POINTS = 100_000

# most nodes one ball mass may hold: order ** dim quadrature nodes, or
# mc_count Monte Carlo draws; node arrays are allocated up front
MAX_BALL_NODES = 1_000_000


def bianchi_volume(field_) -> float:
    """vol of the Bianchi manifold from the residue identity |d|^{3/2} zeta_K(2)/(4 pi^2)."""
    dk = abs(field_.discriminant)
    zk2 = dedekind_zeta(field_, 2.0).real
    return dk ** 1.5 * zk2 / (4.0 * math.pi ** 2)


def bianchi_main_term(field_) -> float:
    """w sqrt|d_K| / (4 vol), the corrected equidistribution constant."""
    dk = abs(field_.discriminant)
    return field_.unit_count * math.sqrt(dk) / (4.0 * bianchi_volume(field_))


@dataclass(frozen=True)
class MassResult:
    raw_mass: float
    normalized_mass: float
    main_term: float
    deviation: float
    method: str
    stderr: float = 0.0


def _log_factor(dim: int, t: float) -> float:
    if dim == 2:
        return math.log(0.25 + t * t)
    return math.log(1.0 + t * t)


def _spectral_s(dim: int, t: complex) -> complex:
    return complex(0.5, 0.0) + 1j * t if dim == 2 else complex(1.0, 0.0) + 1j * t


def ball_mass(dim: int, ball: GeodesicBall, t: float, evaluator,
              method: str = "quadrature", order: int = 32,
              mc_count: int = 4096, seed: int = 0) -> MassResult:
    """Mass of |E|^2 over a geodesic ball, raw and normalized.

    `evaluator.plan(s)` supplies the series; s is built from t on the
    critical line of the surface.  The quadrature nodes (`ball_nodes`), or
    the Monte Carlo draws, go to the plan's `values` as node arrays, which
    the Eisenstein plans sum in blocks of at most `eisenstein.BLOCK_K_ARGS`
    K-Bessel arguments, evaluating K for up to `eisenstein.TABLE_K_ARGS` of
    them at once; quadrature sums w |E|^2.
    Monte Carlo draws are deterministic in `seed` and merged by
    `math.fsum`, which rounds correctly, so the sum does not depend on how
    the draws are ordered.  A ball of more than MAX_BALL_NODES nodes
    (order ** dim, or mc_count) raises ValueError before any node is built.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if ball.dimension != dim:
        raise ValueError("ball dimension does not match dim")
    if t < 2.0:
        raise ValueError("t must be >= 2")
    if method not in ("quadrature", "monte_carlo"):
        raise ValueError("method must be 'quadrature' or 'monte_carlo'")
    if method == "monte_carlo" and mc_count < 1000:
        raise ValueError("monte_carlo needs mc_count >= 1000")
    count = order ** dim if method == "quadrature" else mc_count
    if count > MAX_BALL_NODES:
        raise ValueError(f"ball has more than {MAX_BALL_NODES} nodes")
    s = _spectral_s(dim, t)
    vol = ball_volume(dim, ball.radius)
    main = H2_MAIN_TERM if dim == 2 else bianchi_main_term(evaluator.field)
    stderr = 0.0
    series = evaluator.plan(s)
    if method == "quadrature":
        *nodes, w = ball_nodes(ball, order)
        raw = float(np.sum(w * np.abs(series.values(*nodes)) ** 2))
    else:
        pts = sample_ball(ball, seed, mc_count)
        vals = (np.abs(series.values(*node_arrays(pts))) ** 2).tolist()
        mean = math.fsum(vals) / mc_count
        var = math.fsum((v - mean) ** 2 for v in vals) / (mc_count - 1)
        raw = vol * mean
        stderr = vol * math.sqrt(var / mc_count)
    raw = max(raw, 0.0)
    normalized = raw / (_log_factor(dim, t) * vol)
    return MassResult(
        raw_mass=raw,
        normalized_mass=normalized,
        main_term=main,
        deviation=normalized - main,
        method=method,
        stderr=stderr,
    )


def mean_value_residual(dim: int, ball: GeodesicBall, t: complex, evaluator,
                        order: int = 32) -> float:
    """|ball average of E  -  h(t) E(center)| / |h(t) E(center)|.

    The sharpest end-to-end probe in the package: the ball average of any
    Laplace eigenfunction equals the spherical transform of the normalized
    indicator kernel times the center value.  The average sums w E over the
    `ball_nodes` rule, from one `values` call of `evaluator.plan(s)`; the
    center goes through `evaluator.value`, so for the Eisenstein evaluators
    the check also compares the Chebyshev K table against the direct K route.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if ball.dimension != dim:
        raise ValueError("ball dimension does not match dim")
    s = _spectral_s(dim, t)
    *nodes, w = ball_nodes(ball, order)
    avg = complex(np.dot(w, evaluator.plan(s).values(*nodes))) / ball_volume(dim, ball.radius)
    h = h_char(BallKernel(dim, ball.radius), t)
    center = evaluator.value(ball.center, s)
    pred = h * center
    if abs(pred) < 1e-12:
        raise ArithmeticError("h(t) E(center) below 1e-12; residual non-informative")
    return abs(avg - pred) / abs(pred)


def variance_window(dim: int, center, R: float, T: float, grid_step: float,
                    evaluator, order: int = 24) -> float:
    """Trapezoidal integral over [T, 2T] of deviation(t)^2 at fixed radius.

    The window holds about T / grid_step nodes, at most MAX_GRID_POINTS.
    """
    if grid_step > 0.5:
        raise ValueError("grid_step must be <= 0.5")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    if T < 5.0:
        raise ValueError("T must be >= 5")
    if T / grid_step >= MAX_GRID_POINTS:
        raise ValueError(f"window [T, 2T] has more than {MAX_GRID_POINTS} points")
    ball = GeodesicBall(dim, center, R)
    ts = []
    tk = T
    while tk < 2.0 * T - 1e-12:
        ts.append(tk)
        tk += grid_step
    ts.append(2.0 * T)
    devs = [ball_mass(dim, ball, tk, evaluator, order=order).deviation ** 2
            for tk in ts]
    total = 0.0
    for (t0, t1), (d0, d1) in zip(zip(ts, ts[1:]), zip(devs, devs[1:])):
        total += 0.5 * (t1 - t0) * (d0 + d1)
    return total
