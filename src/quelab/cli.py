"""Batch experiment driver: declarative configs in, deterministic tables out.

Experiment kinds mirror the shapes of the underlying study: lower-bound
scans at arithmetic points (omega_scan), normalized-mass scans against the
equidistribution main term (qe_scan), windowed variance integrals
(variance), moments of zeta on the critical line (moments), transform
validation (selberg_check), and plain series evaluation (eval).

Config grammar is INI-style key = value under fixed section headers; every
key is validated and unknown keys are hard errors.  Output is a CSV with
one header line, columns in ResultRow order, floats at 17 significant
digits, plus an optional JSON-lines mirror.  Given the same config and
seed the bytes are identical: rows are computed one after another in grid
order, per-row Monte Carlo seeds are derived from the row index, and
wall_time_ms is reported as 0 unless --timings is passed (real timings are
inherently nondeterministic).  --threads is accepted for compatibility and
ignored.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from importlib import resources

from .eisenstein import EisensteinH2, EisensteinH3, lower_bound_avg
from .geometry import GeodesicBall, HeegnerPoint, PointH2, PointH3
from .lattice import ImagQuadField
from .mass import H2_MAIN_TERM, MAX_BALL_NODES, MAX_GRID_POINTS, ball_mass, variance_window
from .selberg import BallKernel, amplitude_in_range, h_char, h_closed_h3
from .zeta import zeta_moment

__all__ = ["ExperimentConfig", "ResultRow", "run_experiment", "main"]

KINDS = ("omega_scan", "qe_scan", "variance", "moments", "selberg_check", "eval")

COLUMNS = ("t", "R", "raw_mass", "normalized_mass", "main_term", "deviation",
           "lower_bound", "h_value", "wall_time_ms", "error")

_ALLOWED_KEYS = {
    "experiment": {"kind", "surface", "seed", "order", "method", "mc_count",
                   "moment_k", "kernel_dim", "variance_step"},
    "grid": {"t_start", "t_stop", "t_step"},
    "radius": {"rule", "r", "delta", "a"},
    "center": {"x", "y", "r", "a", "b", "c"},
    "evaluator": {"truncation", "norm_cap", "abs_tol", "height_floor"},
}


# largest t a moments grid may reach: a row integrates over [0, t] with
# 40 t nodes of about 2 t + 1 Euler-Maclaurin terms each, so its cost grows
# like t^2
MAX_MOMENT_T = 1000.0


class ConfigError(Exception):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ResultRow:
    t: float
    R: float
    raw_mass: float = 0.0
    normalized_mass: float = 0.0
    main_term: float = 0.0
    deviation: float = 0.0
    lower_bound: float = 0.0
    h_value: float = 0.0
    wall_time_ms: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    surface: str                      # "h2" or "bianchi(D)"
    field_D: int | None
    t_grid: tuple[float, float, float]
    radius_rule: str                  # "fixed" | "power" | "planck"
    radius_value: float
    center: object                    # PointH2 | PointH3 | HeegnerPoint | None
    seed: int = 0
    order: int = 24
    method: str = "quadrature"
    mc_count: int = 4096
    moment_k: int = 2
    kernel_dim: int = 3
    variance_step: float = 0.25
    evaluator_overrides: tuple = ()

    def t_values(self) -> list[float]:
        return _grid_values(self.t_grid)

    def radius_for(self, t: float) -> float:
        if self.radius_rule == "fixed":
            return self.radius_value
        if t <= 1.0:
            raise ValueError("radius rules t^-delta and planck need t > 1")
        if self.radius_rule == "power":
            return t ** (-self.radius_value)
        return math.log(t) ** self.radius_value / t


def _grid_values(t_grid: tuple[float, float, float]) -> list[float]:
    start, stop, step = t_grid
    out, k = [], 0
    while True:
        tk = start + k * step
        if tk > stop + 1e-9:
            return out
        out.append(tk)
        k += 1


def _parse_surface(text: str) -> tuple[str, int | None]:
    if text == "h2":
        return "h2", None
    m = re.fullmatch(r"bianchi\((-\d+)\)", text)
    if m:
        return text, int(m.group(1))
    raise ConfigError(f"surface must be 'h2' or 'bianchi(D)', got {text!r}")


def _get(section, key, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}' in [{section.name}]")
        return default
    try:
        value = conv(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}' in [{section.name}]: {exc}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def load_config(path: str, kind_override: str | None = None,
                seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file (or 'preset:<name>')."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if path.startswith("preset:"):
            name = path[len("preset:"):]
            ref = resources.files("quelab").joinpath("presets", name + ".cfg")
            try:
                text = ref.read_text()
            except FileNotFoundError:
                raise ConfigError(f"no bundled preset named {name!r}") from None
            parser.read_string(text)
        elif not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
    except configparser.Error as exc:
        # duplicate keys, a missing section header, ...; keep it to one line
        raise ConfigError("malformed config: " + " ".join(str(exc).split())) from exc

    for sec in parser.sections():
        if sec not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{sec}]")
        for key in parser[sec]:
            if key not in _ALLOWED_KEYS[sec]:
                raise ConfigError(f"unknown key '{key}' in [{sec}]")
    if "experiment" not in parser or "grid" not in parser:
        raise ConfigError("config needs [experiment] and [grid] sections")

    exp = parser["experiment"]
    kind = _get(exp, "kind", str, default=kind_override)
    if kind is None:
        raise ConfigError("missing required key 'kind' in [experiment]")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind_override is not None and kind != kind_override:
        raise ConfigError(
            f"config kind {kind!r} does not match subcommand {kind_override!r}")
    surface, field_D = _parse_surface(_get(exp, "surface", str, default="h2"))
    foreign = "norm_cap" if surface == "h2" else "truncation"
    if "evaluator" in parser and foreign in parser["evaluator"]:
        raise ConfigError(f"'{foreign}' in [evaluator] does not apply to surface {surface}")

    grid = parser["grid"]
    t_grid = (
        _get(grid, "t_start", float, required=True),
        _get(grid, "t_stop", float, required=True),
        _get(grid, "t_step", float, required=True),
    )
    if t_grid[2] <= 0.0:
        raise ConfigError("t_step must be positive")
    if (t_grid[1] - t_grid[0]) / t_grid[2] >= MAX_GRID_POINTS:
        raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")

    rule, rvalue = "fixed", 0.0
    if "radius" in parser:
        rad = parser["radius"]
        rule = _get(rad, "rule", str, required=True)
        if rule == "fixed":
            rvalue = _get(rad, "r", float, required=True)
            if rvalue <= 0.0:
                raise ConfigError("fixed radius r must be positive")
        elif rule == "power":
            rvalue = _get(rad, "delta", float, required=True)
            if not 0.0 < rvalue < 1.0:
                raise ConfigError("power-rule delta must lie in (0, 1)")
        elif rule == "planck":
            rvalue = _get(rad, "a", float, required=True)
        else:
            raise ConfigError(f"radius rule must be fixed|power|planck, got {rule!r}")
    elif kind not in ("moments", "eval"):
        raise ConfigError(f"kind {kind!r} needs a [radius] section")

    center: object = None
    if "center" in parser:
        cen = parser["center"]
        try:
            if kind == "omega_scan":
                center = HeegnerPoint(_get(cen, "a", int, required=True),
                                      _get(cen, "b", int, required=True),
                                      _get(cen, "c", int, required=True))
            elif surface == "h2":
                center = PointH2(_get(cen, "x", float, required=True),
                                 _get(cen, "y", float, required=True))
            else:
                center = PointH3(complex(_get(cen, "x", float, required=True),
                                         _get(cen, "y", float, required=True)),
                                 _get(cen, "r", float, required=True))
        except ValueError as exc:
            raise ConfigError(f"bad [center]: {exc}") from exc
    elif kind in ("omega_scan", "qe_scan", "variance", "eval"):
        raise ConfigError(f"kind {kind!r} needs a [center] section")

    overrides = ()
    if "evaluator" in parser:
        ev = parser["evaluator"]
        pairs = []
        for key, conv in (("truncation", int), ("norm_cap", int),
                          ("abs_tol", float), ("height_floor", float)):
            if key in ev:
                pairs.append((key, _get(ev, key, conv)))
        overrides = tuple(pairs)

    if kind == "omega_scan" and surface != "h2":
        raise ConfigError("omega_scan runs on surface h2 (arithmetic-point bound)")
    if kind == "moments" and surface != "h2":
        raise ConfigError("moments runs on surface h2")
    if kind == "moments":
        ts = _grid_values(t_grid)
        if ts and ts[0] <= 1.0:  # the k = 2 main term t log(t)^4 / (2 pi^2) is 0 at t = 1
            raise ConfigError(f"moments need t > 1, got t = {ts[0]:g}")
        top = max(ts, default=0.0)
        if top > MAX_MOMENT_T:
            raise ConfigError(f"moments grid reaches t = {top:g}, above {MAX_MOMENT_T:g}")

    seed = _get(exp, "seed", int, default=0)
    if seed_override is not None:
        seed = seed_override
    method = _get(exp, "method", str, default="quadrature")
    if method not in ("quadrature", "monte_carlo"):
        raise ConfigError("method must be quadrature or monte_carlo")
    order = _get(exp, "order", int, default=24)
    if order < 2:
        raise ConfigError("order must be >= 2")
    mc_count = _get(exp, "mc_count", int, default=4096)
    if method == "monte_carlo" and mc_count < 1000:
        raise ConfigError("monte_carlo needs mc_count >= 1000")
    dim = 2 if surface == "h2" else 3
    if kind == "variance" or (kind == "qe_scan" and method == "quadrature"):
        if order ** dim > MAX_BALL_NODES:
            raise ConfigError(f"order ** {dim} exceeds {MAX_BALL_NODES} ball nodes")
    elif kind == "qe_scan" and mc_count > MAX_BALL_NODES:
        raise ConfigError(f"mc_count exceeds {MAX_BALL_NODES} ball nodes")
    moment_k = _get(exp, "moment_k", int, default=2)
    if moment_k not in (2, 6):
        raise ConfigError("moment_k must be 2 or 6")
    kernel_dim = _get(exp, "kernel_dim", int, default=3)
    if kernel_dim < 2:
        raise ConfigError("kernel_dim must be >= 2")
    variance_step = _get(exp, "variance_step", float, default=0.25)
    if not 0.0 < variance_step <= 0.5:
        raise ConfigError("variance_step must lie in (0, 0.5]")
    if kind == "variance" and t_grid[1] / variance_step >= MAX_GRID_POINTS:
        raise ConfigError(f"variance window [t_stop, 2 t_stop] has more than "
                          f"{MAX_GRID_POINTS} points")

    config = ExperimentConfig(
        kind=kind,
        surface=surface,
        field_D=field_D,
        t_grid=t_grid,
        radius_rule=rule,
        radius_value=rvalue,
        center=center,
        seed=seed,
        order=order,
        method=method,
        mc_count=mc_count,
        moment_k=moment_k,
        kernel_dim=kernel_dim,
        variance_step=variance_step,
        evaluator_overrides=overrides,
    )
    if kind not in ("moments", "eval"):
        # every row but those two takes h_char; the planck radius is not
        # monotone in t, so each grid point is checked
        n = kernel_dim if kind == "selberg_check" else dim
        for t in _grid_values(t_grid):
            try:
                R = config.radius_for(t)
            except ValueError as exc:  # t <= 1 under a t-dependent rule
                raise ConfigError(f"{exc}, got t = {t:g}") from exc
            except OverflowError:
                R = math.inf
            if not amplitude_in_range(n, R):
                raise ConfigError(f"ball-kernel amplitude leaves float64 range for "
                                  f"dimension {n} at t = {t:g}, R = {R:g}")
    return config


def _build_evaluator(config: ExperimentConfig):
    kwargs = dict(config.evaluator_overrides)
    if config.surface == "h2":
        return EisensteinH2(**kwargs)
    return EisensteinH3(ImagQuadField(config.field_D), **kwargs)


def _dim(config: ExperimentConfig) -> int:
    return 2 if config.surface == "h2" else 3


def _compute_row(config: ExperimentConfig, evaluator, index: int,
                 t: float, timings: bool) -> ResultRow:
    t0 = time.perf_counter()
    try:
        row = _compute_row_inner(config, evaluator, index, t)
    except Exception as exc:  # per-row isolation: batch never aborts
        msg = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        row = ResultRow(t=t, R=0.0, error=msg)
    if timings:
        ms = (time.perf_counter() - t0) * 1000.0
        row = ResultRow(**{**row.__dict__, "wall_time_ms": ms})
    return row


def _compute_row_inner(config: ExperimentConfig, evaluator, index: int,
                       t: float) -> ResultRow:
    kind = config.kind
    dim = _dim(config)

    if kind == "moments":
        raw = zeta_moment(config.moment_k, t)
        if config.moment_k == 2:
            main = t * math.log(t) ** 4 / (2.0 * math.pi ** 2)
            return ResultRow(t=t, R=0.0, raw_mass=raw, normalized_mass=raw / main,
                             main_term=main, deviation=raw / main - 1.0)
        return ResultRow(t=t, R=0.0, raw_mass=raw)

    if kind == "eval":
        s = complex(0.5, t) if dim == 2 else complex(1.0, t)
        val = evaluator.value(config.center, s)
        return ResultRow(t=t, R=0.0, raw_mass=abs(val) ** 2)

    R = config.radius_for(t)

    if kind == "selberg_check":
        kernel = BallKernel(config.kernel_dim, R)
        h = h_char(kernel, t)
        dev = 0.0
        if config.kernel_dim == 3:
            dev = abs(h - h_closed_h3(R, t))
        return ResultRow(t=t, R=R, h_value=h.real, deviation=dev)

    h = h_char(BallKernel(dim, R), t).real

    if kind == "omega_scan":
        lb = lower_bound_avg(config.center, R, t)
        return ResultRow(t=t, R=R, main_term=H2_MAIN_TERM, lower_bound=lb, h_value=h)

    if kind == "variance":
        v = variance_window(dim, config.center, R, t, config.variance_step,
                            evaluator, order=config.order)
        return ResultRow(t=t, R=R, raw_mass=v, h_value=h)

    # qe_scan
    ball = GeodesicBall(dim, config.center, R)
    res = ball_mass(dim, ball, t, evaluator, method=config.method,
                    order=config.order, mc_count=config.mc_count,
                    seed=config.seed + 9973 * index)
    return ResultRow(t=t, R=R, raw_mass=res.raw_mass,
                     normalized_mass=res.normalized_mass,
                     main_term=res.main_term, deviation=res.deviation,
                     h_value=h)


def run_experiment(config: ExperimentConfig, threads: int = 1,
                   timings: bool = False) -> list[ResultRow]:
    """One ResultRow per grid point, in grid order, deterministically.

    Rows run one after another; `threads` is accepted and ignored.
    """
    evaluator = None
    if config.kind in ("qe_scan", "variance", "eval"):
        evaluator = _build_evaluator(config)
    return [_compute_row(config, evaluator, i, t, timings)
            for i, t in enumerate(config.t_values())]


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        for r in rows:
            vals = [_fmt(getattr(r, c)) for c in COLUMNS[:-1]] + [r.error]
            fh.write(",".join(vals) + "\n")


def write_jsonl(rows: list[ResultRow], config: ExperimentConfig, path: str) -> None:
    meta = {
        "schema": "quelab-result-v1",
        "kind": config.kind,
        "surface": config.surface,
        "rows": len(rows),
        # the Bianchi main-term constant follows the corrected value, not
        # the original published one
        "h3_main_term": "corrected",
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for r in rows:
            obj = {c: getattr(r, c) for c in COLUMNS}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True,
                     help="config file path or 'preset:<name>'")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--jsonl", default=None, help="optional JSON-lines mirror")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility and ignored: rows run serially")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--timings", action="store_true",
                     help="record real wall times (breaks byte determinism)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quelab",
        description="deterministic experiment tables for ball-mass statistics "
                    "of Eisenstein series",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd in ("omega-scan", "qe-scan", "variance", "moments",
                "selberg-check", "eval"):
        _add_common(subs.add_parser(cmd))
    args = parser.parse_args(argv)

    kind = args.command.replace("-", "_")
    try:
        config = load_config(args.config, kind_override=kind,
                             seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.threads < 1:
        print("config error: threads must be >= 1", file=sys.stderr)
        return 2

    try:
        rows = run_experiment(config, timings=args.timings)
    except Exception as exc:  # startup failure, e.g. evaluator construction
        print(f"startup error: {exc}", file=sys.stderr)
        return 2

    write_csv(rows, args.out)
    if args.jsonl:
        write_jsonl(rows, config, args.jsonl)

    failures = sum(1 for r in rows if r.error)
    if rows and failures * 2 > len(rows):
        print(f"numeric failure in {failures}/{len(rows)} rows", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
