"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s); the
assertions pin the stated tolerances, nothing is deferred to later
calibration.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gaugeproj import (DIVERGENT, FINITE, GaugeFitError, NaturalMeasure,
                       averaged_projected_energy, build_from_gauge,
                       check_integral_condition, check_limit_condition,
                       classify_series, codoubling_exponent, cover_cost,
                       discrete_energy, doubling_constant, doubling_exponent,
                       doubling_roundtrip_violations, eq35_bound, exp_power,
                       frostman_scan, gap_report, log_power, log_radius_grid,
                       mc_energy, mc_energy_atoms, parse_config, potential,
                       power, power_log, power_log_power, project_disc_cover,
                       project_hierarchy, qualifying_levels, run_pipeline,
                       sweep_directions, sweep_partner,
                       tabulated, validate_hierarchy)
from gaugeproj.diophantine import GAP_BAND, INFINITE_BAND, ZERO_BAND

CONSTRUCTION_EXPONENTS = (0.3, 0.5, 0.8)
DEPTH = 5


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion-{num}: {label}", flush=True)
        raise
    print(f"PASS criterion-{num}: {label}", flush=True)


@pytest.fixture(scope="module")
def hierarchies(h03_depth5, h05_depth5, h08_depth5):
    return {0.3: h03_depth5, 0.5: h05_depth5, 0.8: h08_depth5}


def test_criterion_1_construction_suite():
    with criterion(1, "construction inequalities hold at depth 5, < 5 s per gauge"):
        for s in CONSTRUCTION_EXPONENTS:
            t0 = time.time()
            h = build_from_gauge(power(s), DEPTH)
            report = validate_hierarchy(h)
            elapsed = time.time() - t0
            assert elapsed < 5.0, f"s={s} took {elapsed:.1f}s"
            for check in ("Eq20", "Eq21", "Eq22", "Eq23", "Eq32", "Eq33",
                          "child-containment", "Eq25"):
                rows = report.by_check(check)
                assert rows, f"missing {check}"
                bad = [r for r in rows if not r.passed]
                assert not bad, f"s={s} {check}: {bad}"
            # Eq25 chain, explicit form
            for k in range(1, h.depth + 1):
                r_ratio = math.exp(h.log_radius(k - 1) - h.log_radius(k))
                assert h.counts[k - 1] < (2.0 / 3.0) * r_ratio


def test_criterion_2_frostman_suite(hierarchies):
    with criterion(2, "mass-bound scans: zero violations; scaled control violates"):
        for s, h in hierarchies.items():
            m = NaturalMeasure(h, h.depth)
            scan = frostman_scan(m, 10_000, seed=101)
            assert scan.violations == 0, f"s={s}: {scan.violations} violations"
            assert scan.c_bound == max(8.0 / h.a, 1.0 / h.a)
            control = frostman_scan(m, 10_000, seed=101, mass_scale=10.0)
            assert control.violations >= 1, f"s={s}: control did not trip"


def test_criterion_3_projection_bound_suite(hierarchies):
    with criterion(3, "sweeps respect the cover-cost budget; budgets decrease"):
        for s, h in hierarchies.items():
            g = sweep_partner(h.gauge)
            table = sweep_directions(h, g, 256)
            assert table.rows, f"s={s}: no qualifying rows"
            for row in table.rows:
                assert row.cost <= row.bound * (1.0 + 1e-9), f"s={s}: {row}"
                # the batched row is its angle's own projection, bit for bit
                assert row.k in qualifying_levels(h, row.theta), f"s={s}: {row}"
                pr = project_hierarchy(h, row.theta, row.k + 1)
                assert row.cost == pr.copies * cover_cost(g, pr.pattern), \
                    f"s={s}: {row}"
            bounds = [eq35_bound(h, g, k) for k in range(1, h.depth)]
            assert all(a > b for a, b in zip(bounds, bounds[1:])), \
                f"s={s}: bound sequence {bounds} not strictly decreasing"


def test_criterion_4_quadrature_vs_closed_form():
    with criterion(4, "integral/limit verdicts match closed forms"):
        v = check_integral_condition(power(0.5), power(0.25))
        assert v.status == FINITE and v.value == pytest.approx(1.0, abs=1e-6)
        v = check_integral_condition(log_power(2.0), log_power(1.0))
        assert v.status == FINITE
        assert v.value == pytest.approx(1.0 / math.log(2.0), abs=1e-4)
        assert check_integral_condition(power(0.5), power(0.5)).status == DIVERGENT
        tau = 6.0
        pair = (power_log(0.5, 2.0, 1 / tau), power_log(0.5, 2.5, 1 / tau))
        assert check_integral_condition(*pair).status == DIVERGENT
        witness = (power(0.5), power_log(0.5, 0.5, 1.0))
        assert check_limit_condition(*witness).status == FINITE
        assert check_limit_condition(*witness).value == 0.0
        assert check_integral_condition(*witness).status == DIVERGENT


def test_criterion_5_energy_suite(hierarchies):
    with criterion(5, "energies: segment 8/3, potential identity, angle average"):
        rng = np.random.default_rng(11)
        atoms = rng.uniform(0.0, 1.0, 10_000)
        exact = discrete_energy(power(0.5), atoms)
        assert exact == pytest.approx(8.0 / 3.0, rel=0.02)
        est = mc_energy_atoms(power(0.5), atoms, None, 10 ** 6, seed=12)
        assert est.mean == pytest.approx(8.0 / 3.0, rel=0.02)

        m4 = NaturalMeasure(hierarchies[0.5], 4)
        g = power(0.25)
        energy = mc_energy(g, m4, 2 * 10 ** 5, seed=21)
        rng = np.random.default_rng(22)
        xs = m4.sample_atoms(128, rng)
        pots = [potential(g, m4, x, 4000, seed=100 + i) for i, x in enumerate(xs)]
        avg = float(np.mean(pots))
        se = float(np.std(pots, ddof=1) / math.sqrt(len(pots)))
        assert abs(avg - energy.mean) <= 3.0 * math.hypot(se, energy.stderr)

        ape = averaged_projected_energy(m4, g, pairs=100_000, seed=17)
        assert ape.average <= ape.bound * 1.05


def test_criterion_6_lipschitz_transfer():
    with criterion(6, "projected-merged covers never cost more than planar"):
        gs = [power(0.3), power(0.7), power(1.0), log_power(0.5),
              log_power(1.5), power_log(0.5, 0.5, 1.0),
              power_log(0.25, 1.0, 1.0 / 6.0),
              tabulated([(-12.0, -4.8), (-6.0, -2.4), (-1.0, -0.4)])]
        thetas = [i * math.pi / 32 for i in range(32)]
        rng = np.random.default_rng(99)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(8, 48))
            centers = rng.uniform(0.0, 1.0, (n, 2))
            radii = np.exp(rng.uniform(math.log(1e-4), math.log(1e-3), n))
            planar = {id(g): float(np.sum(g.value(2.0 * radii))) for g in gs}
            for theta in thetas:
                cover = project_disc_cover(centers, radii, theta)
                lengths = np.array([b - a for a, b in cover.intervals])
                for g in gs:
                    cost = float(np.sum(g.value(lengths)))
                    if cost > planar[id(g)] * (1.0 + 1e-12):
                        violations += 1
        assert violations == 0


def test_criterion_7_diophantine_suite():
    with criterion(7, "series verdicts match the closed forms; gap bands"):
        for k in (1, 2):
            for tau in (1.0, 2.0, 3.0):
                for s in (0.5, 0.9, 1.1, 2.0):
                    sv = classify_series(log_power(s), exp_power(tau), k)
                    expect_conv = s > (k + 1) / tau
                    assert sv.converges == expect_conv, (k, tau, s)
                    assert sv.diverges == (not expect_conv), (k, tau, s)
        for k in (1, 2):
            for tau in (2.0, 3.0):
                delta = (k + 1) / tau
                for s in (0.5, 1.0, 1.5, 2.0, 2.5):
                    sv = classify_series(power_log(delta, s, 1.0 / tau),
                                         power_log_power(tau), k)
                    assert sv.diverges == (s >= k), (k, tau, s)
        rep = gap_report(0.5)
        assert rep.classify(1.5) == ZERO_BAND
        assert rep.classify(2.0) == ZERO_BAND
        assert rep.classify(2.5) == GAP_BAND
        assert rep.classify(3.0) == GAP_BAND
        assert rep.classify(3.5) == INFINITE_BAND
        assert all(r.consistent for r in rep.rows)


def test_criterion_8_doubling_machinery():
    with criterion(8, "scaling fits exact for powers; round trip; log gauges"):
        grid = log_radius_grid()
        for s in (0.3, 0.7, 0.95):
            fit = doubling_exponent(power(s), log_grid=grid)
            assert fit.s == pytest.approx(s, abs=1e-12)
            assert fit.kappa == 1.0
        for g in (power(0.7), log_power(2.0)):
            c = doubling_constant(g, log_grid=grid)
            assert doubling_roundtrip_violations(g, c, 10_000, seed=8,
                                                 log_grid=grid) == 0
        fits = [doubling_exponent(log_power(3.0),
                                  log_grid=log_radius_grid(decades=d)).s
                for d in (30, 60, 120)]
        assert fits[0] > fits[1] > fits[2]
        with pytest.raises(GaugeFitError):
            codoubling_exponent(log_power(3.0), log_grid=grid)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical config and seeds give byte-identical bundles"):
        cfg = parse_config(json.dumps({
            "f": {"family": "power", "s": 0.5}, "depth": 4, "angles": 128,
            "pairs": 50_000, "scan_samples": 2000, "seed": 7}))
        run_pipeline(cfg, tmp_path / "a")
        run_pipeline(cfg, tmp_path / "b")
        for name in ("report.json", "checks.csv", "sweep.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
