"""Config parsing, row semantics, determinism, and exit codes of the driver."""
from __future__ import annotations

import configparser
import json
import math
import re
import textwrap
from pathlib import Path

import pytest

from quelab import cli
from quelab.cli import (
    COLUMNS,
    KINDS,
    MAX_MOMENT_T,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    load_config,
    main,
    run_experiment,
    write_csv,
    write_jsonl,
)
from quelab.eisenstein import EisensteinH2, lower_bound_avg
from quelab.geometry import GeodesicBall, HeegnerPoint, PointH2, PointH3
from quelab.mass import H2_MAIN_TERM, ball_mass, variance_window
from quelab.selberg import BallKernel, h_char
from quelab.zeta import zeta_moment

_DATA = Path(__file__).parent / "data"

# subcommand kind for each bundled preset
_PRESETS = {
    "delta-third": "qe_scan",
    "delta-two-fifths": "qe_scan",
    "delta-three-quarters": "omega_scan",
    "planck-omega": "omega_scan",
}


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "exp.cfg"
    path.write_text(textwrap.dedent(text))
    return str(path)


_QE_MC = """\
    [experiment]
    kind = qe_scan
    surface = h2
    seed = 3
    order = 12
    method = monte_carlo
    mc_count = 2000

    [grid]
    t_start = 5.0
    t_stop = 9.0
    t_step = 2.0

    [radius]
    rule = fixed
    r = 0.4

    [center]
    x = 0.1
    y = 1.2
    """


def test_load_config_happy_path(tmp_path):
    config = load_config(_write(tmp_path, _QE_MC))
    assert config.kind == "qe_scan"
    assert config.surface == "h2"
    assert config.field_D is None
    assert config.seed == 3
    assert config.order == 12
    assert config.method == "monte_carlo"
    assert config.mc_count == 2000
    assert config.radius_rule == "fixed"
    assert config.center == PointH2(0.1, 1.2)
    assert config.t_values() == [5.0, 7.0, 9.0]
    assert config.radius_for(123.0) == 0.4


def test_load_config_bianchi_center(tmp_path):
    config = load_config(_write(tmp_path, """\
        [experiment]
        kind = eval
        surface = bianchi(-7)

        [grid]
        t_start = 1.0
        t_stop = 3.0
        t_step = 1.0

        [center]
        x = 0.25
        y = 0.3
        r = 1.0
        """))
    assert config.field_D == -7
    assert config.center == PointH3(0.25 + 0.3j, 1.0)


def test_load_config_heegner_center_and_overrides(tmp_path):
    config = load_config(_write(tmp_path, """\
        [experiment]
        kind = omega_scan
        surface = h2

        [grid]
        t_start = 5.0
        t_stop = 5.0
        t_step = 1.0

        [radius]
        rule = power
        delta = 0.4

        [center]
        a = 1
        b = 0
        c = 1

        [evaluator]
        truncation = 12
        abs_tol = 1e-9
        """))
    assert config.center == HeegnerPoint(1, 0, 1)
    assert config.evaluator_overrides == (("truncation", 12), ("abs_tol", 1e-9))


def test_t_values_endpoint_tolerance():
    # 0.1 + 3*0.1 overshoots 0.4 by one ulp-ish amount; the grid keeps it
    config = ExperimentConfig(kind="moments", surface="h2", field_D=None,
                              t_grid=(0.1, 0.4, 0.1), radius_rule="fixed",
                              radius_value=1.0, center=None)
    values = config.t_values()
    assert len(values) == 4
    assert values[0] == 0.1
    assert values[-1] == pytest.approx(0.4, abs=1e-9)


def test_radius_rules():
    base = dict(kind="qe_scan", surface="h2", field_D=None,
                t_grid=(5.0, 9.0, 2.0), center=PointH2(0.0, 1.0))
    power = ExperimentConfig(radius_rule="power", radius_value=0.4, **base)
    assert power.radius_for(10.0) == pytest.approx(10.0 ** -0.4, rel=1e-15)
    planck = ExperimentConfig(radius_rule="planck", radius_value=1.0, **base)
    assert planck.radius_for(50.0) == pytest.approx(math.log(50.0) / 50.0, rel=1e-15)
    with pytest.raises(ValueError, match="t > 1"):
        power.radius_for(1.0)
    with pytest.raises(ValueError, match="t > 1"):
        planck.radius_for(0.5)


def test_config_error_unknown_section(tmp_path):
    path = _write(tmp_path, _QE_MC + "\n    [extras]\n    foo = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        load_config(path)


def test_config_error_unknown_key(tmp_path):
    path = _write(tmp_path, _QE_MC.replace("seed = 3", "seed = 3\n    bogus = 1"))
    with pytest.raises(ConfigError, match=r"unknown key 'bogus' in \[experiment\]"):
        load_config(path)


def test_config_error_missing_sections(tmp_path):
    path = _write(tmp_path, "[experiment]\nkind = moments\n")
    with pytest.raises(ConfigError, match=r"\[experiment\] and \[grid\]"):
        load_config(path)


def test_config_error_bad_surface(tmp_path):
    path = _write(tmp_path, _QE_MC.replace("surface = h2", "surface = h4"))
    with pytest.raises(ConfigError, match="surface must be"):
        load_config(path)


def test_config_error_bad_kind_and_mismatch(tmp_path):
    path = _write(tmp_path, _QE_MC)
    with pytest.raises(ConfigError, match="does not match subcommand"):
        load_config(path, kind_override="variance")
    bad = _write(tmp_path, _QE_MC.replace("kind = qe_scan", "kind = qe"))
    with pytest.raises(ConfigError, match="kind must be one of"):
        load_config(bad)


def test_config_error_grid_and_radius(tmp_path):
    bad_step = _write(tmp_path, _QE_MC.replace("t_step = 2.0", "t_step = 0.0"))
    with pytest.raises(ConfigError, match="t_step must be positive"):
        load_config(bad_step)
    bad_delta = _write(tmp_path, _QE_MC.replace(
        "rule = fixed\n    r = 0.4", "rule = power\n    delta = 1.5"))
    with pytest.raises(ConfigError, match=r"delta must lie in \(0, 1\)"):
        load_config(bad_delta)
    bad_r = _write(tmp_path, _QE_MC.replace("r = 0.4", "r = -0.4"))
    with pytest.raises(ConfigError, match="r must be positive"):
        load_config(bad_r)
    bad_rule = _write(tmp_path, _QE_MC.replace("rule = fixed", "rule = cube"))
    with pytest.raises(ConfigError, match="fixed|power|planck"):
        load_config(bad_rule)


def test_config_error_required_sections_by_kind(tmp_path):
    no_radius = _write(tmp_path, """\
        [experiment]
        kind = qe_scan

        [grid]
        t_start = 5.0
        t_stop = 5.0
        t_step = 1.0

        [center]
        x = 0.0
        y = 1.0
        """)
    with pytest.raises(ConfigError, match=r"needs a \[radius\] section"):
        load_config(no_radius)
    no_center = _write(tmp_path, """\
        [experiment]
        kind = qe_scan

        [grid]
        t_start = 5.0
        t_stop = 5.0
        t_step = 1.0

        [radius]
        rule = fixed
        r = 0.4
        """)
    with pytest.raises(ConfigError, match=r"needs a \[center\] section"):
        load_config(no_center)


def test_config_error_surface_restrictions(tmp_path):
    omega_h3 = _write(tmp_path, """\
        [experiment]
        kind = omega_scan
        surface = bianchi(-1)

        [grid]
        t_start = 5.0
        t_stop = 5.0
        t_step = 1.0

        [radius]
        rule = fixed
        r = 0.4

        [center]
        a = 1
        b = 0
        c = 1
        """)
    with pytest.raises(ConfigError, match="omega_scan runs on surface h2"):
        load_config(omega_h3)
    moments_h3 = _write(tmp_path, """\
        [experiment]
        kind = moments
        surface = bianchi(-1)

        [grid]
        t_start = 100.0
        t_stop = 100.0
        t_step = 1.0
        """)
    with pytest.raises(ConfigError, match="moments runs on surface h2"):
        load_config(moments_h3)


def test_moments_grid_may_reach_max_moment_t(tmp_path):
    # the limit counts the grid's largest point, not t_stop
    text = """\
        [experiment]
        kind = moments

        [grid]
        t_start = 990.0
        t_stop = {stop}
        t_step = 10.0
        """
    assert load_config(_write(tmp_path, text.format(stop="1009.0"))).t_values()[-1] == MAX_MOMENT_T
    with pytest.raises(ConfigError, match="moments grid reaches t = 1010, above 1000"):
        load_config(_write(tmp_path, text.format(stop="1010.0")))


def test_config_error_experiment_scalars(tmp_path):
    bad_method = _write(tmp_path, _QE_MC.replace(
        "method = monte_carlo", "method = sampling"))
    with pytest.raises(ConfigError, match="method must be"):
        load_config(bad_method)
    bad_k = _write(tmp_path, _QE_MC.replace(
        "seed = 3", "seed = 3\n    moment_k = 3"))
    with pytest.raises(ConfigError, match="moment_k must be 2 or 6"):
        load_config(bad_k)
    bad_step = _write(tmp_path, _QE_MC.replace(
        "seed = 3", "seed = 3\n    variance_step = 0.7"))
    with pytest.raises(ConfigError, match=r"variance_step must lie in \(0, 0.5\]"):
        load_config(bad_step)


def test_config_error_unreadable_and_unknown_preset(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError, match="no bundled preset named"):
        load_config("preset:nope")


def test_preset_delta_third_parses():
    config = load_config("preset:delta-third")
    assert config.kind == "qe_scan"
    assert config.surface == "h2"
    assert config.radius_rule == "power"
    assert config.radius_value == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert config.center == PointH2(0.083, 1.13)
    assert config.t_values() == [5.0, 7.0, 9.0]


def test_run_experiment_empty_grid():
    config = ExperimentConfig(kind="moments", surface="h2", field_D=None,
                              t_grid=(5.0, 4.0, 1.0), radius_rule="fixed",
                              radius_value=1.0, center=None)
    assert run_experiment(config) == []


def test_run_experiment_isolates_pole_rows(tmp_path):
    config = load_config(_write(tmp_path, """\
        [experiment]
        kind = eval
        surface = h2

        [grid]
        t_start = 0.0
        t_stop = 2.0
        t_step = 1.0

        [center]
        x = 0.0
        y = 1.3
        """))
    rows = run_experiment(config)
    assert len(rows) == 3
    # t = 0 puts s on the excluded critical point; the row records the
    # failure (commas stripped for CSV safety) and the rest still compute
    assert rows[0].error == "ValueError: completed-zeta pole line; s = 0; 1/2 unsupported"
    assert "," not in rows[0].error
    assert rows[0].raw_mass == 0.0
    for row in rows[1:]:
        assert row.error == ""
        assert row.raw_mass > 0.0


def test_omega_scan_rows_match_standalone_calls(tmp_path):
    config = load_config(_write(tmp_path, """\
        [experiment]
        kind = omega_scan
        surface = h2

        [grid]
        t_start = 5.0
        t_stop = 8.0
        t_step = 3.0

        [radius]
        rule = fixed
        r = 0.4

        [center]
        a = 1
        b = 0
        c = 1
        """))
    rows = run_experiment(config)
    assert [row.t for row in rows] == [5.0, 8.0]
    for row in rows:
        assert row.main_term == H2_MAIN_TERM
        assert row.lower_bound == lower_bound_avg(HeegnerPoint(1, 0, 1), 0.4, row.t)
        assert row.h_value == h_char(BallKernel(2, 0.4), row.t).real
        assert row.error == ""


def test_moments_rows_match_standalone_calls():
    # k = 2 fills the comparison with t log^4 t / (2 pi^2); k = 6 only raw_mass
    for k in (2, 6):
        config = ExperimentConfig(kind="moments", surface="h2", field_D=None,
                                  t_grid=(100.0, 200.0, 100.0), radius_rule="fixed",
                                  radius_value=1.0, center=None, moment_k=k)
        rows = run_experiment(config)
        assert len(rows) == 2
        for row in rows:
            assert row.raw_mass == zeta_moment(k, row.t)
            if k == 6:
                assert row == ResultRow(t=row.t, R=0.0, raw_mass=row.raw_mass)
                continue
            main_term = row.t * math.log(row.t) ** 4 / (2.0 * math.pi ** 2)
            assert row.main_term == main_term
            assert row.normalized_mass == row.raw_mass / main_term
            assert row.deviation == row.normalized_mass - 1.0


def test_selberg_check_rows_agree_with_closed_form():
    config = ExperimentConfig(kind="selberg_check", surface="h2", field_D=None,
                              t_grid=(2.0, 5.0, 3.0), radius_rule="fixed",
                              radius_value=0.5, center=None)
    rows = run_experiment(config)
    for row in rows:
        assert row.R == 0.5
        assert abs(row.h_value) <= 1.0 + 1e-12
        assert row.deviation <= 1e-8


# library functions that rows call through quelab.cli's own bindings
_ROW_BINDINGS = ("zeta_moment", "ball_mass", "lower_bound_avg", "h_char", "h_closed_h3")


def test_rows_call_library_through_module_bindings(monkeypatch):
    # a tracer counts these calls by patching the names in quelab.cli; a row
    # that reached a function through a reference taken earlier, such as a
    # table of function objects, would run but go uncounted
    counts = dict.fromkeys(_ROW_BINDINGS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _ROW_BINDINGS:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    base = dict(surface="h2", field_D=None, t_grid=(5.0, 5.0, 1.0), radius_rule="fixed",
                radius_value=0.4, order=6, variance_step=0.5)
    point = PointH2(0.1, 1.2)
    configs = [ExperimentConfig(kind="omega_scan", center=HeegnerPoint(1, 0, 1), **base),
               ExperimentConfig(kind="qe_scan", center=point, **base),
               ExperimentConfig(kind="variance", center=point, **base),
               ExperimentConfig(kind="moments", center=None, **base),
               ExperimentConfig(kind="selberg_check", center=None, **base),
               ExperimentConfig(kind="eval", center=point, **base)]
    assert [config.kind for config in configs] == list(KINDS)
    for config in configs:
        assert [row.error for row in run_experiment(config)] == [""]
    assert all(n >= 1 for n in counts.values()), counts


def test_thread_count_does_not_change_bytes(tmp_path):
    config = load_config(_write(tmp_path, _QE_MC))
    serial = run_experiment(config, threads=1)
    threaded = run_experiment(config, threads=4)
    assert serial == threaded
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(serial, str(a))
    write_csv(threaded, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_seed_override_changes_monte_carlo_rows(tmp_path):
    path = _write(tmp_path, _QE_MC)
    rows0 = run_experiment(load_config(path, seed_override=0))
    rows1 = run_experiment(load_config(path, seed_override=1))
    assert all(r.error == "" for r in rows0 + rows1)
    assert any(a.raw_mass != b.raw_mass for a, b in zip(rows0, rows1))
    # same seed reproduces the exact rows
    assert rows0 == run_experiment(load_config(path, seed_override=0))


def test_timings_flag_fills_wall_time():
    config = ExperimentConfig(kind="moments", surface="h2", field_D=None,
                              t_grid=(100.0, 200.0, 100.0), radius_rule="fixed",
                              radius_value=1.0, center=None)
    silent = run_experiment(config, timings=False)
    timed = run_experiment(config, timings=True)
    assert all(row.wall_time_ms == 0.0 for row in silent)
    assert all(row.wall_time_ms > 0.0 for row in timed)


def test_write_csv_format(tmp_path):
    rows = [ResultRow(t=5.0, R=0.25, raw_mass=1.5, error=""),
            ResultRow(t=6.0, R=0.0, error="ValueError: boom")]
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "%.17g" % 5.0
    assert first[2] == "%.17g" % 1.5
    assert first[-1] == ""
    assert lines[2].split(",")[-1] == "ValueError: boom"


def test_write_jsonl_schema(tmp_path):
    config = ExperimentConfig(kind="moments", surface="h2", field_D=None,
                              t_grid=(100.0, 100.0, 1.0), radius_rule="fixed",
                              radius_value=1.0, center=None)
    rows = run_experiment(config)
    path = tmp_path / "out.jsonl"
    write_jsonl(rows, config, str(path))
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])
    assert meta == {"schema": "quelab-result-v1", "kind": "moments",
                    "surface": "h2", "rows": 1, "h3_main_term": "corrected"}
    body = [json.loads(line) for line in lines[1:]]
    assert len(body) == 1
    assert set(body[0]) == set(COLUMNS)
    assert body[0]["raw_mass"] == rows[0].raw_mass


def test_main_happy_path_and_artifacts(tmp_path, capsys):
    path = _write(tmp_path, _QE_MC)
    out = tmp_path / "rows.csv"
    jsonl = tmp_path / "rows.jsonl"
    rc = main(["qe-scan", "--config", path, "--out", str(out),
               "--jsonl", str(jsonl), "--threads", "2"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 4
    assert json.loads(jsonl.read_text().splitlines()[0])["rows"] == 3
    assert capsys.readouterr().err == ""


def test_main_config_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, _QE_MC.replace("seed = 3", "seed = 3\n    bogus = 1"))
    rc = main(["qe-scan", "--config", path, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key 'bogus'")


# _QE_MC as an omega_scan config: a Heegner form in place of the point
_OMEGA = _QE_MC.replace("kind = qe_scan", "kind = omega_scan").replace(
    "x = 0.1\n    y = 1.2", "a = 1\n    b = 0\n    c = 1")


def _assert_config_error(tmp_path, capsys, command, text, message):
    rc = main([command, "--config", _write(tmp_path, text), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, edit, message", [
    ("qe-scan", ("order = 12", "order = 1"), "order must be >= 2"),
    ("qe-scan", ("mc_count = 2000", "mc_count = 999"), "monte_carlo needs mc_count >= 1000"),
    ("qe-scan", ("y = 1.2\n", "y = 1.2\n\n    [evaluator]\n    truncation = abc\n"),
     "bad value for 'truncation' in [evaluator]: invalid literal for int()"),
    ("qe-scan", ("t_step = 2.0", "t_step = nan"), "t_step must be finite, got nan"),
    ("qe-scan", ("t_start = 5.0", "t_start = -inf"), "t_start must be finite, got -inf"),
    ("qe-scan", ("t_stop = 9.0", "t_stop = inf"), "t_stop must be finite, got inf"),
    ("qe-scan", ("t_step = 2.0", "t_step = 1e-12"), "grid has more than 100000 points"),
    ("variance", ("kind = qe_scan", "kind = variance\n    variance_step = 1e-300"),
     "variance window [t_stop, 2 t_stop] has more than 100000 points"),
    ("qe-scan", ("order = 12\n    method = monte_carlo", "order = 1001\n    method = quadrature"),
     "order ** 2 exceeds 1000000 ball nodes"),
    ("variance", ("kind = qe_scan\n    surface = h2\n    seed = 3\n    order = 12",
                  "kind = variance\n    surface = h2\n    seed = 3\n    order = 1001"),
     "order ** 2 exceeds 1000000 ball nodes"),
    ("qe-scan", ("mc_count = 2000", "mc_count = 1000001"), "mc_count exceeds 1000000 ball nodes"),
    ("qe-scan", ("y = 1.2\n", "y = 1.2\n\n    [evaluator]\n    norm_cap = 1\n"),
     "'norm_cap' in [evaluator] does not apply to surface h2"),
    ("qe-scan", ("[experiment]\n    kind = qe_scan\n    surface = h2",
                 "[evaluator]\n    truncation = 1\n\n    [experiment]\n    kind = qe_scan\n"
                 "    surface = bianchi(-1)"),
     "'truncation' in [evaluator] does not apply to surface bianchi(-1)"),
    ("selberg-check", ("kind = qe_scan", "kind = selberg_check\n    kernel_dim = 100000"),
     "ball-kernel amplitude leaves float64 range for dimension 100000 at t = 5, R = 0.4"),
    ("qe-scan", ("rule = fixed\n    r = 0.4", "rule = planck\n    a = 1e6"),
     "ball-kernel amplitude leaves float64 range for dimension 2 at t = 5, R = inf"),
    ("qe-scan", ("t_start = 5.0\n    t_stop = 9.0\n    t_step = 2.0\n\n    [radius]\n"
                 "    rule = fixed\n    r = 0.4",
                 "t_start = 0.5\n    t_stop = 2.5\n    t_step = 1.0\n\n    [radius]\n"
                 "    rule = planck\n    a = 1.0"),
     "radius rules t^-delta and planck need t > 1, got t = 0.5"),
    ("moments", ("kind = qe_scan\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = 5.0\n    t_stop = 9.0",
                 "kind = moments\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = 5.0\n    t_stop = 1001.0"),
     "moments grid reaches t = 1001, above 1000"),
    ("moments", ("kind = qe_scan\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = 5.0\n    t_stop = 9.0\n    t_step = 2.0",
                 "kind = moments\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = -2.0\n    t_stop = 1.0\n    t_step = 1.0"),
     "moments need t > 1, got t = -2.0"),
    ("moments", ("kind = qe_scan\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = 5.0",
                 "kind = moments\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = 1.0"),
     "moments need t > 1, got t = 1.0"),
    ("moments", ("kind = qe_scan\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = 5.0",
                 "kind = moments\n    surface = h2\n    seed = 3\n    order = 12\n"
                 "    method = monte_carlo\n    mc_count = 2000\n\n    [grid]\n"
                 "    t_start = 0.9999999999999999"),
     "moments need t > 1, got t = 0.9999999999999999"),
    ("qe-scan", ("t_start = 5.0", "t_start = 1.5"), "qe_scan needs t >= 2, got t = 1.5"),
    # each edit below replaces the whole of _QE_MC
    ("omega-scan", (_QE_MC, _OMEGA.replace("t_start = 5.0", "t_start = 1.5")),
     "omega_scan needs t >= 2, got t = 1.5"),
    ("variance", (_QE_MC, _QE_MC.replace("kind = qe_scan", "kind = variance")
                  .replace("t_start = 5.0", "t_start = 4.5")),
     "variance needs t >= 5, got t = 4.5"),
    ("qe-scan", ("r = 0.4", "r = 0.4\n    a = abc"),
     "bad value for 'a' in [radius]: could not convert string to float: 'abc'"),
    ("qe-scan", ("[experiment]", "[DEFAULT]\n    seed = 1\n\n    [experiment]"),
     "unknown section [DEFAULT]"),
], ids=["order", "mc_count", "evaluator_value", "t_step_nan", "t_start_inf", "t_stop_inf",
        "grid_size", "variance_window_size", "quadrature_nodes", "variance_nodes",
        "monte_carlo_nodes", "norm_cap_on_h2", "truncation_on_bianchi", "kernel_range",
        "radius_overflow", "radius_rule_t_at_most_one", "moments_t_above_max",
        "moments_t_negative", "moments_t_one", "moments_t_just_below_one",
        "qe_scan_t_below_floor", "omega_scan_t_below_floor", "variance_t_below_floor",
        "unread_key_value", "default_section"])
def test_main_rejects_bad_values_at_parse_time(tmp_path, capsys, monkeypatch, command,
                                                edit, message):
    # a non-finite or oversized grid would hang or exhaust memory in
    # t_values(); make it fail fast instead, should the parse-time check
    # ever let one through
    def no_grid(self):
        raise RuntimeError("grid expanded after a bad config was accepted")
    monkeypatch.setattr(ExperimentConfig, "t_values", no_grid)
    _assert_config_error(tmp_path, capsys, command, _QE_MC.replace(*edit), message)


# the library call whose t (or T) floor each kind's grid must respect
_FLOOR_CALLS = {
    "omega_scan": lambda t: lower_bound_avg(HeegnerPoint(1, 0, 1), 0.4, t),
    "qe_scan": lambda t: ball_mass(2, GeodesicBall(2, PointH2(0.1, 1.2), 0.4), t,
                                   EisensteinH2(), order=4).raw_mass,
    "variance": lambda t: variance_window(2, PointH2(0.1, 1.2), 0.4, t, 0.5,
                                          EisensteinH2(), order=4),
}


@pytest.mark.parametrize("kind", sorted(_FLOOR_CALLS))
def test_grid_floor_matches_the_library_call(tmp_path, kind):
    floor = cli._KINDS[kind].t_min
    below = math.nextafter(floor, -math.inf)
    with pytest.raises(ValueError, match=f"must be >= {floor:g}"):
        _FLOOR_CALLS[kind](below)
    assert math.isfinite(_FLOOR_CALLS[kind](floor))
    text = _OMEGA if kind == "omega_scan" else _QE_MC.replace("kind = qe_scan", f"kind = {kind}")

    def starting_at(t):
        return _write(tmp_path, text.replace("t_start = 5.0", f"t_start = {t!r}"))

    assert load_config(starting_at(floor)).t_values()[0] == floor
    with pytest.raises(ConfigError, match=f"{kind} needs t >= {floor:g}, got t = {below!r}"):
        load_config(starting_at(below))


_PLANCK_CHECK = """\
    [experiment]
    kind = selberg_check
    surface = h2
    kernel_dim = 1001

    [grid]
    t_start = 5.0
    t_stop = 605.0
    t_step = {step}

    [radius]
    rule = planck
    a = 3.5
    """


def test_kernel_range_is_checked_at_every_grid_point(tmp_path, capsys):
    # R = log(t)^3.5 / t is about 1.06 at t = 5, 1.10 at t = 605 and 2.07 at
    # t = 105; dimension 1001 admits R in about (0.72, 1.3) only
    _assert_config_error(tmp_path, capsys, "selberg-check", _PLANCK_CHECK.format(step=100.0),
                         "ball-kernel amplitude leaves float64 range for dimension 1001 "
                         "at t = 105, R = 2.07")
    out = tmp_path / "ends.csv"
    assert main(["selberg-check", "--config", _write(tmp_path, _PLANCK_CHECK.format(step=600.0)),
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2 and all(math.isfinite(float(row.split(",")[7])) for row in rows)


# every float key, each with the edits that put it into _QE_MC
_FLOAT_KEYS = {
    "t_start": [("t_start = 5.0", "t_start = {}")],
    "t_stop": [("t_stop = 9.0", "t_stop = {}")],
    "t_step": [("t_step = 2.0", "t_step = {}")],
    "variance_step": [("seed = 3", "seed = 3\n    variance_step = {}")],
    "r": [("r = 0.4", "r = {}")],
    "delta": [("rule = fixed\n    r = 0.4", "rule = power\n    delta = {}")],
    "a": [("rule = fixed\n    r = 0.4", "rule = planck\n    a = {}")],
    "x": [("x = 0.1", "x = {}")],
    "y": [("y = 1.2", "y = {}")],
    "center_r": [("surface = h2", "surface = bianchi(-1)"), ("y = 1.2", "y = 1.2\n    r = {}")],
    "abs_tol": [("y = 1.2\n", "y = 1.2\n\n    [evaluator]\n    abs_tol = {}\n")],
    "height_floor": [("y = 1.2\n", "y = 1.2\n\n    [evaluator]\n    height_floor = {}\n")],
}


def test_float_keys_cover_every_float_key_of_the_table():
    # each entry's edits, with a marker value, put the marker under one
    # (section, key)
    covered = set()
    for edits in _FLOAT_KEYS.values():
        text = _QE_MC
        for old, new in edits:
            text = text.replace(old, new.format("1.375"))
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(textwrap.dedent(text))
        covered |= {(sec, key) for sec in parser.sections()
                    for key, value in parser[sec].items() if value == "1.375"}
    assert covered == {(sec, key) for sec, keys in cli._KEYS.items()
                       for key, conv in keys.items() if conv is float}


def test_readme_grammar_lists_every_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    listed: dict[str, set] = {}
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = listed.setdefault(m.group(1), set())
        elif m := re.match(r"(\w+) =", line):
            section.add(m.group(1))
    assert listed == {sec: set(keys) for sec, keys in cli._KEYS.items()}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
def test_main_rejects_non_finite_float_keys(tmp_path, capsys, key, value):
    text = _QE_MC
    for old, new in _FLOAT_KEYS[key]:
        assert old in text
        text = text.replace(old, new.format(value))
    name = key.removeprefix("center_")
    _assert_config_error(tmp_path, capsys, "qe-scan", text, f"{name} must be finite, got {value}")


@pytest.mark.parametrize("command, text, message", [
    ("qe-scan", _QE_MC.replace("y = 1.2", "y = -1"),
     "bad [center]: PointH2 needs positive height y"),
    ("qe-scan", _QE_MC.replace("surface = h2", "surface = bianchi(-1)")
     .replace("y = 1.2", "y = 0.2\n    r = 0"),
     "bad [center]: PointH3 needs positive height r"),
    ("omega-scan", _QE_MC.replace("kind = qe_scan", "kind = omega_scan")
     .replace("x = 0.1\n    y = 1.2", "a = 1\n    b = 3\n    c = 1"),
     "bad [center]: form must be positive definite"),
    ("selberg-check", _QE_MC.replace("kind = qe_scan", "kind = selberg_check\n    kernel_dim = 1"),
     "kernel_dim must be >= 2"),
], ids=["h2_height", "bianchi_height", "indefinite_form", "kernel_dim"])
def test_main_rejects_bad_center_and_kernel_dim(tmp_path, capsys, command, text, message):
    # the point and form constructors' ValueError becomes a config error
    _assert_config_error(tmp_path, capsys, command, text, message)


@pytest.mark.parametrize("text", [
    "[experiment]\nkind = eval\nkind = eval\n",
    "kind = eval\n",
], ids=["duplicate_key", "no_section_header"])
def test_main_rejects_malformed_ini(tmp_path, capsys, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    rc = main(["eval", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed config: ")
    assert err.count("\n") == 1


def test_main_subcommand_mismatch_exit_code(tmp_path, capsys):
    path = _write(tmp_path, _QE_MC)
    rc = main(["variance", "--config", path, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "does not match subcommand" in capsys.readouterr().err


def test_main_rejects_bad_thread_count(tmp_path, capsys):
    path = _write(tmp_path, _QE_MC)
    rc = main(["qe-scan", "--config", path, "--out", str(tmp_path / "x.csv"),
               "--threads", "0"])
    assert rc == 2
    assert "threads must be >= 1" in capsys.readouterr().err


def test_main_majority_failure_exit_code(tmp_path, capsys):
    path = _write(tmp_path, """\
        [experiment]
        kind = eval
        surface = h2

        [grid]
        t_start = 0.0
        t_stop = 0.0
        t_step = 1.0

        [center]
        x = 0.0
        y = 1.3
        """)
    out = tmp_path / "rows.csv"
    rc = main(["eval", "--config", path, "--out", str(out)])
    assert rc == 3
    assert "numeric failure in 1/1 rows" in capsys.readouterr().err
    # the table is still written, with the error recorded in the row
    assert "ValueError" in out.read_text().splitlines()[1]


def test_main_empty_grid_writes_header_only(tmp_path):
    path = _write(tmp_path, """\
        [experiment]
        kind = moments

        [grid]
        t_start = 5.0
        t_stop = 4.0
        t_step = 1.0
        """)
    out = tmp_path / "rows.csv"
    rc = main(["moments", "--config", path, "--out", str(out)])
    assert rc == 0
    assert out.read_text() == ",".join(COLUMNS) + "\n"


def test_main_ignores_thread_env_var(tmp_path, monkeypatch):
    path = _write(tmp_path, _QE_MC)
    plain = tmp_path / "plain.csv"
    monkeypatch.delenv("QUELAB_THREADS", raising=False)
    assert main(["qe-scan", "--config", path, "--out", str(plain)]) == 0
    for value in ("2", "abc"):
        monkeypatch.setenv("QUELAB_THREADS", value)
        from_env = tmp_path / "from_env.csv"
        assert main(["qe-scan", "--config", path, "--out", str(from_env)]) == 0
        assert plain.read_bytes() == from_env.read_bytes()


# Golden tables hold across machines within this relative bound per cell.
# Bytes are identical only on one machine (criterion 12): the BLAS kernel
# picked at run time changes the last bits of np.dot and np.linalg.inv, which
# moves preset cells by up to 5.5e-14 relative, while a real change such as
# order + 2 moves raw_mass by 2e-5 or more.
_GOLDEN_RTOL = 1e-12
_EXACT_COLUMNS = ("wall_time_ms", "error")


def _cell_scale(header: list[str], row: list[str], col: str) -> float:
    # deviation = normalized_mass - main_term loses digits to cancellation,
    # so its gap is measured against the larger of the two
    value = abs(float(row[header.index(col)]))
    if col == "deviation":
        return max(value, abs(float(row[header.index("main_term")])))
    return value


def _golden_mismatches(name: str, produced: str, golden: str) -> list[str]:
    """Every way a produced preset CSV departs from its golden table.

    The header, the row and column counts, the exact columns and the golden
    zeros must match exactly; every other cell within _GOLDEN_RTOL of its
    scale.
    """
    got, want = produced.splitlines(), golden.splitlines()
    if got[:1] != want[:1]:
        return [f"{name}: header {got[:1]} differs from golden {want[:1]}"]
    if len(got) != len(want):
        got_t = [line.split(",")[0] for line in got[1:]]
        want_t = [line.split(",")[0] for line in want[1:]]
        return [f"{name}: rows at t = {got_t}, golden has t = {want_t}"]
    header = want[0].split(",")
    problems = []
    for got_line, want_line in zip(got[1:], want[1:]):
        got_row, want_row = got_line.split(","), want_line.split(",")
        where = f"{name}: t={want_row[0]}"
        if len(got_row) != len(header):
            problems.append(f"{where}: {len(got_row)} columns, golden has "
                            f"{len(header)}")
            continue
        for col, g, p in zip(header, want_row, got_row):
            if col in _EXACT_COLUMNS:
                if p != g:
                    problems.append(f"{where} column {col}: golden {g!r}, "
                                    f"produced {p!r}, must match exactly")
                continue
            if float(g) == 0.0:
                if float(p) != 0.0:
                    problems.append(f"{where} column {col}: golden {g}, "
                                    f"produced {p}, must stay 0")
                continue
            gap = abs(float(p) - float(g)) / _cell_scale(header, want_row, col)
            if not gap <= _GOLDEN_RTOL:
                problems.append(f"{where} column {col}: golden {g}, produced "
                                f"{p}, relative gap {gap:.2e} > {_GOLDEN_RTOL:.0e}")
    return problems


def test_bundled_presets_match_golden_tables(tmp_path):
    problems = []
    for name in sorted(_PRESETS):
        config = load_config(f"preset:{name}")
        assert config.kind == _PRESETS[name]
        out = tmp_path / f"{name}.csv"
        write_csv(run_experiment(config, threads=1), str(out))
        golden = _DATA / f"golden_{name}.csv"
        problems += _golden_mismatches(name, out.read_text(), golden.read_text())
    assert not problems, "\n".join(problems)


def _with_cell(lines: list[str], i: int, j: int, text: str) -> str:
    row = lines[i].split(",")
    row[j] = text
    return "\n".join(lines[:i] + [",".join(row)] + lines[i + 1:]) + "\n"


def test_golden_compare_rejects_changes_past_the_bound():
    for name in sorted(_PRESETS):
        golden = (_DATA / f"golden_{name}.csv").read_text()
        assert _golden_mismatches(name, golden, golden) == []
        lines = golden.splitlines()
        header = lines[0].split(",")
        numeric = [(i, j, col) for i in range(1, len(lines))
                   for j, col in enumerate(header) if col not in _EXACT_COLUMNS]

        # all nonzero numeric cells moved at once by 1e-13 of their scale:
        # accepted
        nudged = [line.split(",") for line in lines]
        for i, j, col in numeric:
            if float(nudged[i][j]):
                scale = _cell_scale(header, lines[i].split(","), col)
                nudged[i][j] = "%.17g" % (float(nudged[i][j]) + 1e-13 * scale)
        assert _golden_mismatches(
            name, "\n".join(",".join(row) for row in nudged), golden) == []

        # any single numeric cell moved by 1e-11 of its scale: rejected,
        # named by preset, t and column
        for i, j, col in numeric:
            row = lines[i].split(",")
            nonzero = float(row[j]) != 0.0
            step = 1e-11 * _cell_scale(header, row, col) if nonzero else 1e-300
            for sign in (1.0, -1.0):
                moved = "%.17g" % (float(row[j]) + sign * step)
                problems = _golden_mismatches(
                    name, _with_cell(lines, i, j, moved), golden)
                assert len(problems) == 1, (name, row[0], col, problems)
                parts = [name, f"t={row[0]}", f"column {col}", row[j], moved]
                if nonzero:
                    parts.append("relative gap")
                for part in parts:
                    assert part in problems[0], (part, problems[0])

        broken = {
            "header": golden.replace("h_value", "h_val", 1),
            "missing row": "\n".join(lines[:-1]) + "\n",
            "extra row": golden + lines[-1] + "\n",
            "missing column": "\n".join(lines[:-1] + [lines[-1][:-1]]) + "\n",
            "error cell": _with_cell(lines, len(lines) - 1,
                                     header.index("error"), "ValueError: pole"),
            "wall time": _with_cell(lines, 1, header.index("wall_time_ms"), "3"),
            "not a number": _with_cell(lines, 1, header.index("h_value"), "nan"),
        }
        for what, text in broken.items():
            assert len(_golden_mismatches(name, text, golden)) == 1, (name, what)
