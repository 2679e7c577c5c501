"""Seeded workload generator.

Each workload is a list of experiment configs in plain JSON form; the worker
turns them into `quelab.cli.ExperimentConfig` objects.  The seed moves ball
centres and spectral parameters inside boxes chosen so that rows cost about
the same from seed to seed; the kinds, fields, radius rules and orders are
fixed.  Everything here is standard-library Python, so the parent process
never imports quelab or numpy.
"""
from __future__ import annotations

import random


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _grid(start: float, step: float, rows: int) -> list[float]:
    return [start, round(start + (rows - 1) * step, 6), step]


def _config(kind: str, surface: str, t_grid: list[float], **extra) -> dict:
    cfg = {
        "kind": kind,
        "surface": surface,
        "t_grid": t_grid,
        "radius_rule": "fixed",
        "radius_value": 0.0,
        "center": None,
    }
    cfg.update(extra)
    return cfg


def _h2_center(rng: random.Random) -> dict:
    return {"x": _u(rng, -0.3, 0.3), "y": _u(rng, 1.15, 1.25)}


def _h3_center(rng: random.Random) -> dict:
    # reduced heights stay near r = 1.5, far above height_floor = 0.5; the
    # norm cap grows like 1 / r^2, so the r box is kept narrow
    return {"x": _u(rng, -0.25, 0.25), "y": _u(rng, -0.25, 0.25), "r": _u(rng, 1.45, 1.55)}


def qe_h2(rng: random.Random, tiny: bool) -> list[dict]:
    """delta-third scans whose t values, taken together, cover 6 to 13.6 in
    steps of about 0.54.

    Four of the fifteen quadrature rows lie below the K-route switch at
    t = 8, so the row percentiles fall inside the run of balanced-route rows,
    whose cost grows smoothly with t, rather than at the edge between routes.
    """
    shape = {"radius_rule": "power", "radius_value": 1.0 / 3.0}
    configs = []
    for i in range(1 if tiny else 3):
        start = 6.0 + 0.54 * i + _u(rng, 0.0, 0.1)
        configs.append(_config(
            "qe_scan", "h2", _grid(start, 4.0 if tiny else 1.62, 2 if tiny else 5),
            center=_h2_center(rng), order=20, **shape))
    # a minority of Monte Carlo rows, one on each K route
    configs.append(_config(
        "qe_scan", "h2", _grid(_u(rng, 6.4, 7.2), 3.0, 1 if tiny else 2),
        center=_h2_center(rng), method="monte_carlo", mc_count=1000,
        seed=rng.randrange(1 << 20), order=20, **shape))
    return configs


def qe_bianchi(rng: random.Random, tiny: bool) -> list[dict]:
    """delta-two-fifths scans alternating Z[i] and Q(sqrt -43).

    Orders stay above twice t * R on every row.  Z[i] rows straddle the
    K-route switch; D = -43 rows, which recompute zeta_K(1+s) at every point,
    stay below it so that a run still holds enough rows.
    """
    shape = {"radius_rule": "power", "radius_value": 0.4}
    gauss_lo = _config("qe_scan", "bianchi(-1)", _grid(_u(rng, 4.5, 5.0), 2.5, 2),
                       center=_h3_center(rng), order=8, **shape)
    d43_a = _config("qe_scan", "bianchi(-43)", _grid(_u(rng, 4.2, 4.8), 1.0, 1),
                    center=_h3_center(rng), order=6, **shape)
    gauss_hi = _config("qe_scan", "bianchi(-1)", _grid(_u(rng, 8.2, 8.8), 0.8, 2),
                       center=_h3_center(rng), order=8, **shape)
    d43_b = _config("qe_scan", "bianchi(-43)", _grid(_u(rng, 4.8, 5.4), 1.0, 1),
                    center=_h3_center(rng), order=6, **shape)
    if tiny:
        gauss_lo["t_grid"] = _grid(gauss_lo["t_grid"][0], 1.0, 1)
        gauss_lo["order"] = 6
        return [gauss_lo, d43_a]
    return [gauss_lo, d43_a, gauss_hi, d43_b]


def spectral_sweep(rng: random.Random, tiny: bool) -> list[dict]:
    """One-shot spectral parameters across five kinds; no ball quadrature."""
    def n(full: int) -> int:
        return 2 if tiny else full

    # eval rows: two below the K-route switch, the rest where cost changes
    # slowly with t, so that row percentiles move little with the seed
    return [
        _config("eval", "h2", _grid(_u(rng, 3.0, 3.5), 3.5, n(2)),
                center={"x": 0.0, "y": 1.0}),
        _config("eval", "h2", _grid(_u(rng, 60.0, 61.5), 11.0, n(12)),
                center={"x": 0.0, "y": 1.0}),
        _config("eval", "bianchi(-1)", _grid(_u(rng, 3.0, 3.5), 3.5, n(2)),
                center=_h3_center(rng)),
        _config("eval", "bianchi(-1)", _grid(_u(rng, 40.0, 41.5), 7.0, n(10)),
                center=_h3_center(rng)),
        _config("omega_scan", "h2", _grid(_u(rng, 20.0, 25.0), 35.0, n(4)),
                center={"a": 1, "b": 0, "c": 1},
                radius_rule="power", radius_value=0.75),
        _config("moments", "h2", _grid(_u(rng, 35.0, 36.5), 20.0, n(6)),
                moment_k=2),
        _config("selberg_check", "h2", _grid(_u(rng, 10.0, 15.0), 40.0, n(4)),
                radius_rule="power", radius_value=0.5, kernel_dim=3),
    ]


_GENERATORS = {"qe_h2": qe_h2, "qe_bianchi": qe_bianchi, "spectral_sweep": spectral_sweep}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The configs of one workload; the same seed gives the same list."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)
