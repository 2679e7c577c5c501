"""Batch experiment driver: declarative configs in, deterministic tables out.

Experiment kinds mirror the shapes of the underlying study: lower-bound
scans at arithmetic points (omega_scan), normalized-mass scans against the
equidistribution main term (qe_scan), windowed variance integrals
(variance), moments of zeta on the critical line (moments), transform
validation (selberg_check), and plain series evaluation (eval).

Config grammar is INI-style key = value under fixed section headers; every
key present is validated, read by the kind or not, and unknown keys are hard
errors.  Output is a CSV with one header line, columns in ResultRow order,
floats at 17 significant digits, plus an optional JSON-lines mirror.  Given
the same config and seed the bytes are identical: rows are computed one
after another in grid order, per-row Monte Carlo seeds are derived from the
row index, and wall_time_ms is reported as 0 unless --timings is passed
(real timings are inherently nondeterministic).  --threads is accepted for
compatibility and ignored.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
import time
from dataclasses import dataclass, fields
from importlib import resources

from .eisenstein import EisensteinH2, EisensteinH3, lower_bound_avg
from .geometry import GeodesicBall, HeegnerPoint, PointH2, PointH3
from .lattice import ImagQuadField
from .mass import (H2_MAIN_TERM, MAX_BALL_NODES, MAX_GRID_POINTS, _spectral_s, ball_mass,
                   variance_window)
from .selberg import BallKernel, amplitude_in_range, h_char, h_closed_h3
from .zeta import MAX_MOMENT_T, zeta_moment

__all__ = ["ExperimentConfig", "ResultRow", "run_experiment", "main"]

COLUMNS = ("t", "R", "raw_mass", "normalized_mass", "main_term", "deviation",
           "lower_bound", "h_value", "wall_time_ms", "error")

# every key a section may hold, with the type its value converts to; the
# [evaluator] keys go into evaluator_overrides in this order
_KEYS = {
    "experiment": {"kind": str, "surface": str, "seed": int, "order": int, "method": str,
                   "mc_count": int, "moment_k": int, "kernel_dim": int,
                   "variance_step": float},
    "grid": {"t_start": float, "t_stop": float, "t_step": float},
    "radius": {"rule": str, "r": float, "delta": float, "a": float},
    "center": {"x": float, "y": float, "r": float, "a": int, "b": int, "c": int},
    "evaluator": {"truncation": int, "norm_cap": int, "abs_tol": float,
                  "height_floor": float},
}

# the [radius] key that holds each rule's value
_RULE_KEY = {"fixed": "r", "power": "delta", "planck": "a"}


@dataclass(frozen=True)
class _Kind:
    radius: bool      # needs [radius]; every row takes h_char at R(t)
    center: bool      # needs [center]
    h2_only: str      # the error off surface h2, "" when any surface will do
    t_min: float      # smallest grid point its library call accepts
    evaluator: bool   # rows evaluate an Eisenstein series


_KINDS = {
    # lower_bound_avg and ball_mass need t >= 2, variance_window T >= 5;
    # moments need t > 1, checked with MAX_MOMENT_T
    "omega_scan": _Kind(True, True, "omega_scan runs on surface h2 (arithmetic-point bound)",
                        2.0, False),
    "qe_scan": _Kind(True, True, "", 2.0, True),
    "variance": _Kind(True, True, "", 5.0, True),
    "moments": _Kind(False, False, "moments runs on surface h2", -math.inf, False),
    "selberg_check": _Kind(True, False, "", -math.inf, False),
    "eval": _Kind(False, True, "", -math.inf, True),
}
KINDS = tuple(_KINDS)


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


def _read(parser: configparser.ConfigParser) -> dict[str, dict]:
    """Every section's values, converted by _KEYS; names are checked first."""
    if parser.defaults():  # configparser would merge its keys into every section
        raise ConfigError("unknown section [DEFAULT]")
    for sec in parser.sections():
        if sec not in _KEYS:
            raise ConfigError(f"unknown section [{sec}]")
        for key in parser[sec]:
            if key not in _KEYS[sec]:
                raise ConfigError(f"unknown key '{key}' in [{sec}]")
    values: dict[str, dict] = {}
    for sec in parser.sections():
        values[sec] = {}
        for key, text in parser[sec].items():
            try:
                value = _KEYS[sec][key](text)
            except ValueError as exc:
                raise ConfigError(f"bad value for '{key}' in [{sec}]: {exc}") from exc
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            values[sec][key] = value
    return values


def _need(values: dict[str, dict], sec: str, key: str):
    if key not in values[sec]:
        raise ConfigError(f"missing required key '{key}' in [{sec}]")
    return values[sec][key]


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

    values = _read(parser)
    if "experiment" not in values or "grid" not in values:
        raise ConfigError("config needs [experiment] and [grid] sections")

    exp = values["experiment"]
    kind = exp.get("kind", kind_override)
    if kind is None:
        raise ConfigError("missing required key 'kind' in [experiment]")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind_override is not None and kind != kind_override:
        raise ConfigError(f"config kind {kind!r} does not match subcommand {kind_override!r}")
    spec = _KINDS[kind]
    surface, field_D = _parse_surface(exp.get("surface", "h2"))
    ev = values.get("evaluator", {})
    foreign = "norm_cap" if surface == "h2" else "truncation"
    if foreign in ev:
        raise ConfigError(f"'{foreign}' in [evaluator] does not apply to surface {surface}")

    t_grid = tuple(_need(values, "grid", key) for key in _KEYS["grid"])
    if t_grid[2] <= 0.0:
        raise ConfigError("t_step must be positive")
    if (t_grid[1] - t_grid[0]) / t_grid[2] >= MAX_GRID_POINTS:
        raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")
    ts = _grid_values(t_grid)

    rule, rvalue = "fixed", 0.0
    if "radius" in values:
        rule = _need(values, "radius", "rule")
        if rule not in _RULE_KEY:
            raise ConfigError(f"radius rule must be {'|'.join(_RULE_KEY)}, got {rule!r}")
        rvalue = _need(values, "radius", _RULE_KEY[rule])
        if rule == "fixed" and rvalue <= 0.0:
            raise ConfigError("fixed radius r must be positive")
        if rule == "power" and not 0.0 < rvalue < 1.0:
            raise ConfigError("power-rule delta must lie in (0, 1)")
    elif spec.radius:
        raise ConfigError(f"kind {kind!r} needs a [radius] section")

    center: object = None
    if "center" in values:
        try:
            if kind == "omega_scan":
                center = HeegnerPoint(*(_need(values, "center", key) for key in "abc"))
            elif surface == "h2":
                center = PointH2(*(_need(values, "center", key) for key in "xy"))
            else:
                x, y, r = (_need(values, "center", key) for key in "xyr")
                center = PointH3(complex(x, y), r)
        except ValueError as exc:
            raise ConfigError(f"bad [center]: {exc}") from exc
    elif spec.center:
        raise ConfigError(f"kind {kind!r} needs a [center] section")

    overrides = tuple((key, ev[key]) for key in _KEYS["evaluator"] if key in ev)

    if spec.h2_only and surface != "h2":
        raise ConfigError(spec.h2_only)
    if kind == "moments" and ts:
        if ts[0] <= 1.0:  # the k = 2 main term t log(t)^4 / (2 pi^2) is 0 at t = 1
            raise ConfigError(f"moments need t > 1, got t = {ts[0]!r}")
        if ts[-1] > MAX_MOMENT_T:
            raise ConfigError(f"moments grid reaches t = {ts[-1]:g}, above {MAX_MOMENT_T:g}")

    # the [experiment] scalars, with ExperimentConfig's defaults
    opts = {f.name: exp.get(f.name, f.default) for f in fields(ExperimentConfig)
            if f.name in _KEYS["experiment"] and f.name not in ("kind", "surface")}
    if seed_override is not None:
        opts["seed"] = seed_override
    if opts["method"] not in ("quadrature", "monte_carlo"):
        raise ConfigError("method must be quadrature or monte_carlo")
    if opts["order"] < 2:
        raise ConfigError("order must be >= 2")
    if opts["method"] == "monte_carlo" and opts["mc_count"] < 1000:
        raise ConfigError("monte_carlo needs mc_count >= 1000")
    dim = 2 if surface == "h2" else 3
    if kind == "variance" or (kind == "qe_scan" and opts["method"] == "quadrature"):
        if opts["order"] ** dim > MAX_BALL_NODES:
            raise ConfigError(f"order ** {dim} exceeds {MAX_BALL_NODES} ball nodes")
    elif kind == "qe_scan" and opts["mc_count"] > MAX_BALL_NODES:
        raise ConfigError(f"mc_count exceeds {MAX_BALL_NODES} ball nodes")
    if opts["moment_k"] not in (2, 6):
        raise ConfigError("moment_k must be 2 or 6")
    if opts["kernel_dim"] < 2:
        raise ConfigError("kernel_dim must be >= 2")
    if not 0.0 < opts["variance_step"] <= 0.5:
        raise ConfigError("variance_step must lie in (0, 0.5]")
    if kind == "variance" and t_grid[1] / opts["variance_step"] >= MAX_GRID_POINTS:
        raise ConfigError(f"variance window [t_stop, 2 t_stop] has more than "
                          f"{MAX_GRID_POINTS} points")

    config = ExperimentConfig(kind=kind, surface=surface, field_D=field_D, t_grid=t_grid,
                              radius_rule=rule, radius_value=rvalue, center=center,
                              evaluator_overrides=overrides, **opts)
    if spec.radius:
        # the planck radius is not monotone in t, so each grid point is checked
        n = opts["kernel_dim"] if kind == "selberg_check" else dim
        for t in ts:
            try:
                R = config.radius_for(t)
            except ValueError as exc:  # t <= 1 under a t-dependent rule
                raise ConfigError(f"{exc}, got t = {t!r}") from exc
            except OverflowError:
                R = math.inf
            if not amplitude_in_range(n, R):
                raise ConfigError(f"ball-kernel amplitude leaves float64 range for "
                                  f"dimension {n} at t = {t:g}, R = {R:g}")
    # after the radius checks, so that t <= 1 under a t-dependent rule is
    # reported as such
    if ts and ts[0] < spec.t_min:
        raise ConfigError(f"{kind} needs t >= {spec.t_min:g}, got t = {ts[0]!r}")
    return config


def _build_evaluator(config: ExperimentConfig):
    kwargs = dict(config.evaluator_overrides)
    if config.surface == "h2":
        return EisensteinH2(**kwargs)
    return EisensteinH3(ImagQuadField(config.field_D), **kwargs)


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
    dim = 2 if config.surface == "h2" else 3

    if kind == "moments":
        raw = zeta_moment(config.moment_k, t)
        if config.moment_k == 2:
            main = t * math.log(t) ** 4 / (2.0 * math.pi ** 2)
            return ResultRow(t=t, R=0.0, raw_mass=raw, normalized_mass=raw / main,
                             main_term=main, deviation=raw / main - 1.0)
        return ResultRow(t=t, R=0.0, raw_mass=raw)

    if kind == "eval":
        val = evaluator.value(config.center, _spectral_s(dim, t))
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
    if _KINDS[config.kind].evaluator:
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
    for kind in KINDS:
        _add_common(subs.add_parser(kind.replace("_", "-")))
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
