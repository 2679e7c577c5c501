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
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def panel_nodes(a: float, b: float, panels: int, per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre: `panels` equal panels of `per_panel` nodes each."""
    edges = np.linspace(a, b, panels + 1)
    x, w = gauss_legendre(per_panel)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w, (panels, per_panel)).ravel()
    return nodes, weights
