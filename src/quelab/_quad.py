"""Shared quadrature plumbing: cached Gauss-Legendre rules and panel composition."""
from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=128)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached.

    Building a rule costs more than n^2: about 3.5 ms at n = 128, 0.3 s at
    n = 1448 and 2.1 s at n = 2848 (numpy 2.4, 2-vCPU Xeon).  For many
    nodes compose short rules with panel_nodes instead.
    """
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to [a, b]."""
    return panel_nodes((a, b), n)


def panel_nodes(edges: np.typing.ArrayLike, per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre: `per_panel` nodes on each panel [edges[j], edges[j+1]],
    laid out as edges[j] + half (x + 1) with half the panel's half-width."""
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(per_panel)
    half = 0.5 * (edges[1:, None] - edges[:-1, None])
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()
