from __future__ import annotations

import numpy as np

from quelab._quad import gl_nodes, panel_nodes

# uneven panels, one of them short
EDGES = (-0.4, 0.3, 1.1, 1.15, 2.0, 3.25)


def test_panel_nodes_are_the_per_panel_rules_concatenated():
    for n in (1, 4, 10, 20):
        nodes, weights = panel_nodes(EDGES, n)
        parts = [gl_nodes(a, b, n) for a, b in zip(EDGES, EDGES[1:])]
        assert nodes.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        assert weights.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
    nodes, weights = panel_nodes((0.0, 1.0), 3)
    assert nodes.shape == weights.shape == (3,)
    assert panel_nodes((0.5,), 6)[0].shape == (0,)


def test_panel_nodes_are_exact_on_odd_degree_two_n_minus_one():
    a, b = EDGES[0], EDGES[-1]
    for n in (1, 3, 6, 12):
        nodes, weights = panel_nodes(EDGES, n)
        want = (b ** (2 * n) - a ** (2 * n)) / (2 * n)
        got = float(np.dot(nodes ** (2 * n - 1), weights))
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, got, want)
