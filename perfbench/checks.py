"""Output checks, run in their own process after every timed repetition.

Each check yields (name, gap, tolerance); it fails when gap > tolerance and
check_ratio is the largest gap / tolerance.  Tolerances are the acceptance
gate's.  The checks read the tables that `quelab.cli.write_csv` wrote:

- no row carries an error;
- every repetition's table, minus the wall_time_ms column, is byte-identical;
- mean_value_residual <= 1e-3 on the h2 and the Z[i] qe_scan row with the
  largest predicted average |h(t) E(centre)|, the residual's denominator,
  at a check order of its own (as in the gate, the identity needs more
  nodes than a scan row uses);
- raw_mass of those two rows, of the first Q(sqrt -43) quadrature row and
  of the first Monte Carlo row, recomputed here from the evaluator's
  pointwise values (tensor quadrature at the row's order, or the row's own
  Monte Carlo sample), within 1e-9 relative; and normalized_mass =
  raw_mass / (log factor * ball volume), main_term = the surface's main
  term and deviation = normalized_mass - main_term on every qe_scan row;
- ||phi_K(it)| - 1| <= 1e-9 at every Bianchi qe_scan row's t, which checks
  the Hurwitz / Dirichlet L / Dedekind zeta layer that D = -43 rows lean on;
- h2 eval rows at z = i against eis_h2_heegner: ||E| - |E_Heegner|| <= 1e-6;
- selberg_check rows: the reported route gap <= 1e-8;
- moments rows: Euler-Maclaurin zeta against Riemann-Siegel <= 1e-9 at the
  ten Gauss-Legendre nodes of one seeded quarter-unit panel below T.
"""
from __future__ import annotations

import csv
import io
import math
import random
from pathlib import Path

MEAN_VALUE_TOL = 1e-3
UNITARITY_TOL = 1e-9
HEEGNER_TOL = 1e-6
SELBERG_TOL = 1e-8
ZETA_ROUTE_TOL = 1e-9
MASS_TOL = 1e-9
CHECK_ORDER = {2: 20, 3: 14}


def _strip_timing(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("wall_time_ms")
    return "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows)


def _rows_by_config(configs: list[tuple], table: list[dict]):
    """Pair every CSV row with its (generated dict, ExperimentConfig), in order."""
    it = iter(table)
    for spec, config in configs:
        for index, t in enumerate(config.t_values()):
            row = next(it)
            if float(row["t"]) != t:
                raise ValueError(f"row t = {row['t']} does not match grid t = {t}")
            yield spec, config, index, row


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _raw_mass(config, index: int, t: float, evaluator) -> float:
    """|E|^2 over the row's ball from pointwise evaluator values, as ball_mass
    is specified: tensor quadrature at the row's order, or the mean over the
    row's own Monte Carlo sample times the ball volume."""
    from quelab.geometry import GeodesicBall, ball_quadrature, ball_volume, sample_ball

    dim = 2 if config.surface == "h2" else 3
    s = complex(0.5 if dim == 2 else 1.0, t)
    ball = GeodesicBall(dim, config.center, config.radius_for(t))
    if config.method == "quadrature":
        raw = ball_quadrature(ball, lambda p: abs(evaluator.value(p, s)) ** 2,
                              order=config.order).real
    else:
        pts = sample_ball(ball, config.seed + 9973 * index, config.mc_count)
        raw = ball_volume(dim, ball.radius) * math.fsum(
            abs(evaluator.value(p, s)) ** 2 for p in pts) / config.mc_count
    return max(raw, 0.0)


def run_checks(configs: list[tuple], csv_paths: list[str]) -> dict:
    """Check the tables of every repetition; configs pairs each generated
    config dict with its ExperimentConfig."""
    import numpy as np
    from quelab.eisenstein import EisensteinH2, EisensteinH3, eis_h2_heegner
    from quelab.geometry import GeodesicBall, HeegnerPoint, ball_volume
    from quelab.lattice import ImagQuadField
    from quelab.mass import H2_MAIN_TERM, bianchi_main_term, mean_value_residual
    from quelab.zeta import ZetaBackend, scattering_phi_K

    texts = [Path(p).read_text() for p in csv_paths]
    stripped = [_strip_timing(t) for t in texts]
    mismatched = sum(1 for s in stripped[1:] if s != stripped[0])
    tables = [list(csv.DictReader(io.StringIO(t))) for t in texts]
    error_rows = sum(1 for table in tables for r in table if r["error"])

    evaluators = {"h2": EisensteinH2(), "bianchi(-1)": EisensteinH3(ImagQuadField(-1)),
                  "bianchi(-43)": EisensteinH3(ImagQuadField(-43))}
    checks: list[tuple[str, float, float]] = []
    best_qe: dict[str, tuple] = {}
    recompute: dict[str, tuple] = {}
    em, rs = ZetaBackend(), ZetaBackend(method="riemann_siegel")
    for spec, config, index, row in _rows_by_config(configs, tables[0]):
        if row["error"]:
            continue
        t = float(row["t"])
        kind, surface = spec["kind"], spec["surface"]
        if kind == "qe_scan":
            dim = 2 if surface == "h2" else 3
            raw, normalized = float(row["raw_mass"]), float(row["normalized_mass"])
            log_factor = math.log((0.25 if dim == 2 else 1.0) + t * t)
            vol = ball_volume(dim, config.radius_for(t))
            checks.append((f"normalization {surface} t={t:.6g}",
                           _rel(normalized, raw / (log_factor * vol)), MASS_TOL))
            main = H2_MAIN_TERM if dim == 2 else bianchi_main_term(ImagQuadField(config.field_D))
            checks.append((f"main term {surface} t={t:.6g}",
                           _rel(float(row["main_term"]), main), MASS_TOL))
            checks.append((f"deviation {surface} t={t:.6g}",
                           abs(float(row["deviation"]) - (normalized - float(row["main_term"]))),
                           MASS_TOL * max(abs(normalized), 1.0)))
            if surface != "h2":
                phi = scattering_phi_K(ImagQuadField(config.field_D), 1j * t)
                checks.append((f"unitarity {surface} t={t:.6g}",
                               abs(abs(phi) - 1.0), UNITARITY_TOL))
            if config.method == "monte_carlo":
                recompute.setdefault(f"{surface} monte_carlo", (config, index, row))
            elif surface == "bianchi(-43)":
                recompute.setdefault(surface, (config, index, row))
            else:
                s = complex(0.5 if surface == "h2" else 1.0, t)
                pred = abs(float(row["h_value"]) * evaluators[surface].value(config.center, s))
                if pred > best_qe.get(surface, (-1.0,))[0]:
                    best_qe[surface] = (pred, config, t)
                    recompute[surface] = (config, index, row)
        elif kind == "eval" and surface == "h2" and config.center.as_complex == 1j:
            heeg = eis_h2_heegner(HeegnerPoint(1, 0, 1), complex(0.5, t))
            gap = abs(math.sqrt(float(row["raw_mass"])) - abs(heeg))
            checks.append((f"heegner t={t:.6g}", gap, HEEGNER_TOL))
        elif kind == "selberg_check":
            checks.append((f"selberg t={t:.6g}", float(row["deviation"]), SELBERG_TOL))
        elif kind == "moments":
            lo = 0.25 * random.Random(f"{t}").randrange(int(t / 0.25))
            x, _ = np.polynomial.legendre.leggauss(10)
            gap = max(abs(em.zeta(complex(0.5, u)) - rs.zeta(complex(0.5, u)))
                      for u in lo + 0.125 * (x + 1.0))
            checks.append((f"zeta routes T={t:.6g} panel {lo:g}", gap, ZETA_ROUTE_TOL))

    for label, (config, index, row) in sorted(recompute.items()):
        t = float(row["t"])
        raw = _raw_mass(config, index, t, evaluators[config.surface])
        checks.append((f"raw mass {label} t={t:.6g}", _rel(float(row["raw_mass"]), raw),
                       MASS_TOL))
    for surface, (_, config, t) in sorted(best_qe.items()):
        dim = 2 if surface == "h2" else 3
        ball = GeodesicBall(dim, config.center, config.radius_for(t))
        order = max(config.order, CHECK_ORDER[dim])
        res = mean_value_residual(dim, ball, t, evaluators[surface], order=order)
        checks.append((f"mean value {surface} t={t:.6g} order {order}", res, MEAN_VALUE_TOL))

    failed = [c for c in checks if not c[1] <= c[2]]
    ratios = [g / tol if math.isfinite(g) else math.inf for _, g, tol in checks]
    return {
        "rows": sum(len(table) for table in tables),
        "error_rows": error_rows,
        "tables": len(texts),
        "mismatched_tables": mismatched,
        "checks": len(checks),
        "failed_checks": [f"{n}: {g:.3e} > {tol:g}" for n, g, tol in failed],
        "check_ratio": max(ratios, default=0.0),
        "worst": checks[ratios.index(max(ratios))][0] if checks else "",
    }
