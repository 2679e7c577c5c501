"""End-to-end acceptance gate: twelve checks, one test (and one report line) each.

Each test exercises a documented guarantee of the package as a whole, prints
the measured margin against the stated tolerance, and enforces the stated
wall-clock budget.  Tolerances and budgets are fixed contract values, not
tuning knobs; see the per-test docstrings.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from quelab.cli import main
from quelab.eisenstein import (
    EisensteinH2,
    EisensteinH3,
    eis_h2,
    eis_h2_heegner,
    eis_h3_coset,
    gamma_factors,
    lower_bound_avg,
)
from quelab.geometry import GeodesicBall, HeegnerPoint, PointH2, PointH3
from quelab.lattice import (
    BinaryQuadraticForm,
    ImagQuadField,
    divisor_sigma,
    enumerate_by_norm,
)
from quelab.mass import ball_mass, bianchi_volume, mean_value_residual
from quelab.selberg import BallKernel, h_bessel_asym, h_char, h_closed_h3
from quelab.zeta import (
    dirichlet_L,
    epstein_Z,
    riemann_zeta,
    scattering_phi_K,
    zeta_moment,
)

_FIELDS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)

_PRESET_COMMANDS = (
    ("delta-third", "qe-scan"),
    ("delta-two-fifths", "qe-scan"),
    ("delta-three-quarters", "omega-scan"),
    ("planck-omega", "omega-scan"),
)


def test_criterion_01_kernel_transform_normalized_at_constant():
    """h equals 1 at the constant-eigenfunction parameter, all dims and radii."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5, 9):
        for R in (0.05, 0.5, 1.0):
            h = h_char(BallKernel(n, R), 1j * (n - 1) / 2.0)
            worst = max(worst, abs(h - 1.0))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst |h - 1| = {worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_transform_routes_and_asymptotics_agree():
    """Characteristic-function and closed-form transforms match on a 102-point
    grid; the oscillatory asymptotic is within 2% deep in its regime."""
    t0 = time.perf_counter()
    worst = 0.0
    for R in (0.1, 0.5, 1.0):
        kernel = BallKernel(3, R)
        for t in np.geomspace(0.1, 200.0, 34):
            worst = max(worst, abs(h_char(kernel, float(t)) - h_closed_h3(R, float(t))))
    asym = h_bessel_asym(BallKernel(3, 1e-3), 1e5)
    closed = h_closed_h3(1e-3, 1e5)
    rel = abs(asym - closed) / abs(closed)
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst route gap {worst:.3e} (tol 1e-8), "
          f"asymptotic rel err {rel:.3e} (tol 2e-2), {elapsed:.2f}s")
    assert worst <= 1e-8
    assert rel <= 0.02
    assert elapsed < 10.0


def test_criterion_03_surface_series_two_routes_on_critical_line():
    """Fourier evaluation at z = i matches the quadratic-form route for
    twenty critical-line points with |Im s| up to 30."""
    t0 = time.perf_counter()
    evaluator = EisensteinH2()
    gauss = HeegnerPoint(1, 0, 1)
    worst = 0.0
    for t in np.linspace(-30.0, 30.0, 20):
        s = complex(0.5, float(t))
        worst = max(worst, abs(eis_h2(1j, s, evaluator) - eis_h2_heegner(gauss, s)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: worst route gap {worst:.3e} (tol 1e-6), {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_04_bianchi_series_two_routes_at_real_s():
    """Fourier evaluation over the Gaussian integers matches the coset sum
    at S = 2.5 after one extrapolation step in the truncation cap."""
    t0 = time.perf_counter()
    qi = ImagQuadField(-1)
    P = PointH3(0.3 + 0.2j, 1.1)
    fourier = EisensteinH3(qi).value(P, 2.5) * 2 / qi.unit_count  # bare cusp series
    c40 = eis_h3_coset(P, 2.5, qi, cap=40)
    c80 = eis_h3_coset(P, 2.5, qi, cap=80)
    # tail is proportional to cap^(4 - 2S); at S = 2.5 one Richardson step
    # with the known exponent is 2*c80 - c40
    accel = 2.0 * c80 - c40
    diff = abs(fourier - accel)
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: route gap {diff:.3e} (tol 1e-4), {elapsed:.2f}s")
    assert diff <= 1e-4
    assert elapsed < 60.0


def test_criterion_05_mean_value_identity_residual():
    """Ball averages of the series reproduce the transform prediction to
    0.1% in both dimensions."""
    t0 = time.perf_counter()
    r2 = mean_value_residual(2, GeodesicBall(2, PointH2(0.0, 1.0), 0.4),
                             5.0, EisensteinH2())
    r3 = mean_value_residual(3, GeodesicBall(3, PointH3(0.1 + 0.2j, 1.0), 0.3),
                             8.0, EisensteinH3(ImagQuadField(-1)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: residuals h2 {r2:.3e}, h3 {r3:.3e} (tol 1e-3), "
          f"{elapsed:.1f}s")
    assert r2 <= 1e-3
    assert r3 <= 1e-3
    assert elapsed < 120.0


def test_criterion_06_picard_manifold_volume():
    """Volume of the Gaussian-integer quotient matches 0.305322 to 1e-5."""
    t0 = time.perf_counter()
    vol = bianchi_volume(ImagQuadField(-1))
    diff = abs(vol - 0.305322)
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: volume {vol:.9f}, |diff| = {diff:.3e} (tol 1e-5), "
          f"{elapsed:.2f}s")
    assert diff <= 1e-5
    assert elapsed < 1.0


def test_criterion_07_scattering_unitarity_nine_fields():
    """|phi_K(it)| = 1 on the critical axis for all nine class-number-one
    fields at t in {1, 5, 10, 25}."""
    t0 = time.perf_counter()
    worst = 0.0
    for D in _FIELDS:
        fld = ImagQuadField(D)
        for t in (1.0, 5.0, 10.0, 25.0):
            worst = max(worst, abs(abs(scattering_phi_K(fld, 1j * t)) - 1.0))
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: worst ||phi|-1| = {worst:.3e} (tol 1e-9), {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_08_divisor_sums_exact_and_square_form_factorizes():
    """Divisor sums match a brute-force associate-class scan up to norm 500
    in all nine fields, and the square-form lattice sum factors as
    4 zeta(s) L(s, chi_-4) at twenty random points."""
    t0 = time.perf_counter()
    checked = 0
    for D in _FIELDS:
        fld = ImagQuadField(D)
        pool = enumerate_by_norm(fld, 500)
        by_norm: dict[int, list] = {}
        for e in pool:
            by_norm.setdefault(e.norm(), []).append(e)
        for w in pool:
            nw = w.norm()
            hits, norm_sum = 0, 0
            for nd, group in by_norm.items():
                if nd > nw or nw % nd:
                    continue
                for d in group:
                    if w.divide_exact(d) is not None:
                        hits += 1
                        norm_sum += nd
            count = hits // fld.unit_count
            total = norm_sum // fld.unit_count
            s0 = divisor_sigma(fld, 0.0, w)
            s1 = divisor_sigma(fld, 1.0, w)
            assert abs(s0.imag) < 1e-9 and abs(s1.imag) < 1e-9
            assert round(s0.real) == count, (D, w.u, w.v)
            assert round(s1.real) == total, (D, w.u, w.v)
            checked += 1

    form = BinaryQuadraticForm(1, 0, 1)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(0.2, 2.5), rng.uniform(-12, 12))
        if abs(s - 1) < 0.1 or abs(s) < 0.1:
            s += 0.2
        worst = max(worst, abs(epstein_Z(form, s)
                               - 4.0 * riemann_zeta(s) * dirichlet_L(s, -4)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: {checked} divisor sums exact, worst factorization "
          f"gap {worst:.3e} (tol 1e-8), {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_09_arithmetic_lower_bound_stays_below_mass():
    """The averaged lower bound at the Gaussian point never exceeds the
    normalized ball mass across ten (t, R) configurations."""
    t0 = time.perf_counter()
    evaluator = EisensteinH2()
    gauss = HeegnerPoint(1, 0, 1)
    configs = ((5.0, 0.2), (5.0, 0.6), (8.0, 0.3), (10.0, 0.3), (12.0, 0.45),
               (14.0, 0.25), (16.0, 0.5), (18.0, 0.35), (20.0, 0.6), (20.0, 0.2))
    slack = float("inf")
    for t, R in configs:
        res = ball_mass(2, GeodesicBall(2, PointH2(0.0, 1.0), R), t,
                        evaluator, order=32)
        bound = lower_bound_avg(gauss, R, t)
        assert bound < res.normalized_mass, (t, R, bound, res.normalized_mass)
        slack = min(slack, res.normalized_mass - bound)
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: min slack {slack:.4f} (must stay > 0), {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_10_second_moment_tracks_log_fourth_growth():
    """The second moment of zeta grows like T log^4 T / (2 pi^2): the ratio
    stays within [0.3, 3] and the raw values increase."""
    t0 = time.perf_counter()
    raws, ratios = [], []
    for T in (100.0, 200.0, 400.0):
        raw = zeta_moment(2, T)
        raws.append(raw)
        ratios.append(raw / (T * math.log(T) ** 4 / (2.0 * math.pi ** 2)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 10: ratios {[round(r, 4) for r in ratios]} "
          f"(bounds [0.3, 3]), {elapsed:.1f}s")
    assert all(0.3 <= r <= 3.0 for r in ratios)
    assert raws[0] < raws[1] < raws[2]
    assert elapsed < 300.0


def test_criterion_11_gamma_factor_surrogate_stays_bounded():
    """Exact and asymptotic spectral gamma weights stay within a factor of
    ten of each other on the [20, 100]^2 parameter grid."""
    t0 = time.perf_counter()
    lo, hi = float("inf"), 0.0
    for t_j in range(20, 101, 10):
        for t in range(20, 101, 10):
            rep = gamma_factors(3, float(t_j), float(t))
            ratio = rep.gamma_exact / rep.gamma_asym
            lo, hi = min(lo, ratio), max(hi, ratio)
    elapsed = time.perf_counter() - t0
    print(f"criterion 11: ratio range [{lo:.3f}, {hi:.3f}] "
          f"(bounds [0.1, 10]), {elapsed:.2f}s")
    assert lo >= 0.1
    assert hi <= 10.0
    assert elapsed < 60.0


def test_criterion_12_cli_output_independent_of_thread_count(tmp_path):
    """Every bundled preset produces byte-identical CSV under 1 and 8 threads."""
    t0 = time.perf_counter()
    for name, command in _PRESET_COMMANDS:
        single = tmp_path / f"{name}-t1.csv"
        pooled = tmp_path / f"{name}-t8.csv"
        assert main([command, "--config", f"preset:{name}",
                     "--out", str(single), "--threads", "1"]) == 0
        assert main([command, "--config", f"preset:{name}",
                     "--out", str(pooled), "--threads", "8"]) == 0
        assert single.read_bytes() == pooled.read_bytes(), name
    elapsed = time.perf_counter() - t0
    print(f"criterion 12: 4 presets byte-identical across thread counts, "
          f"{elapsed:.1f}s")
    assert elapsed < 120.0
