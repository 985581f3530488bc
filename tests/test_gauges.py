import json
import math
import tracemalloc

import numpy as np
import pytest

from gaugeproj import (GaugeError, GaugeFitError, GaugeFunction, IntervalCover,
                       codoubling_exponent, cover_cost, doubling_constant,
                       doubling_exponent, doubling_roundtrip_violations,
                       log_power, log_radius_grid, log_ratio, parse_gauge,
                       power, power_log, tabulated)

GRID = log_radius_grid()


def test_evaluate_power():
    assert power(0.5).value(0.25) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_logpower():
    assert log_power(1.0).value(math.exp(-2)) == pytest.approx(0.5, abs=1e-15)


def test_evaluate_powerlog():
    # r**0.5 * (-log r)**2 at r = e**-4
    expected = math.exp(-2) * 16
    assert power_log(0.5, 2, 1.0).value(math.exp(-4)) == pytest.approx(expected)


def test_evaluate_domain_error():
    with pytest.raises(GaugeError):
        power(0.5).value(0.0)
    with pytest.raises(GaugeError):
        power(0.5).value(-1.0)


def test_evaluate_underflow_recommends_log():
    assert power(0.5).value(1e-300) == pytest.approx(1e-150, rel=1e-12)
    # f(r) underflows in linear coordinates; log f stays exact
    assert power(2.5).value(1e-300) == 0.0
    assert power(2.5).log_value(math.log(1e-300)) == pytest.approx(
        2.5 * math.log(1e-300), rel=1e-15)


def test_evaluate_log_examples():
    assert power(0.5).log_value(-1000.0) == -500.0
    assert log_power(2.0).log_value(-math.e) == pytest.approx(-2.0, abs=1e-14)
    expected = -50 + 2 * math.log(100)
    assert power_log(0.5, 2, 1.0).log_value(-100.0) == pytest.approx(expected)


def test_evaluate_log_consistency():
    gs = [power(0.7), log_power(1.5), power_log(0.4, 1.2, 0.5),
          tabulated([(-30.0, -12.0), (-10.0, -5.0), (-1.0, -0.5)])]
    rs = np.exp(np.linspace(-20, -0.05, 61))
    for g in gs:
        for r in rs:
            lhs = g.log_value(math.log(r))
            rhs = math.log(g.value(r))
            assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("g", [power(0.3), power(1.0), log_power(0.8),
                               log_power(3.0), power_log(0.5, 0.5, 1.0),
                               power_log(0.5, 2.0, 1.0),
                               power_log(0.3, 1.0, 1.0 / 6.0),
                               tabulated([(-40.0, -20.0), (-5.0, -3.0), (-0.5, -0.4)])])
def test_monotone_and_vanishing(g):
    v = np.linspace(-200.0, 0.0, 4001)
    vals = np.asarray(g.log_value(v))
    assert np.all(np.diff(vals) >= -1e-12)
    # f(10**-m) sinks below any epsilon
    deep = np.asarray(g.log_value(np.array([-10.0, -100.0, -1000.0, -10000.0])))
    assert np.all(np.diff(deep) < 0)


def test_logstar_cutoff_flat_above_half():
    g = log_power(2.0)
    assert g.value(0.5) == g.value(0.9) == g.value(2.0)


def test_powerlog_clamp_keeps_max():
    g = power_log(0.5, 2.0, 1.0)  # unclamped peak at r = e**-4
    peak = g.value(math.exp(-4))
    assert g.value(math.exp(-3)) == pytest.approx(peak)
    assert g.value(0.4) == pytest.approx(peak)


def test_gauge_validation():
    with pytest.raises(GaugeError):
        power(0.0)
    with pytest.raises(GaugeError):
        power_log(0.0, 1.0, 1.0)  # decreasing near zero
    with pytest.raises(GaugeError):
        power_log(0.5, 1.0, 0.0)
    with pytest.raises(GaugeError):
        tabulated([(-1.0, -1.0)])
    with pytest.raises(GaugeError):
        tabulated([(-2.0, -1.0), (-1.0, -2.0)])  # decreasing log f
    with pytest.raises(GaugeError):
        tabulated([(-1.0, -1.0), (-1.0, -0.5)])  # non-increasing log r
    # flat below the first knot, so f(r) does not vanish as r -> 0
    with pytest.raises(GaugeError, match="rise between its first two"):
        tabulated([(-20.0, -3.0), (-1.0, -3.0), (0.0, -1.0)])
    with pytest.raises(GaugeError, match="powerlog family"):
        GaugeFunction("logpower", s=1.0, beta=2.0)


@pytest.mark.parametrize("g,want", [
    (power(0.3), (0.3, 0.0)), (log_power(1.5), (0.0, -1.5)),
    (power_log(0.5, 2.0, 0.25), (0.5, 2.0)), (power_log(0.0, -1.0), (0.0, -1.0)),
    (tabulated([(-10.0, -4.0), (-2.0, -1.0), (0.0, -1.0)]), (0.375, 0.0))],
    ids=["power", "logpower", "powerlog", "powerlog-delta0", "table"])
def test_exponents_are_the_laws_pair(g, want):
    assert g.exponents == want
    if g.family != "table":
        # log f = alpha * v + lam * log(beta * (-v)) below the logstar
        # cutoff and the clamp (log r = -4 for powerlog(0.5, 2))
        alpha, lam = want
        v = np.linspace(-300.0, -5.0, 50)
        assert np.allclose(g.log_value(v),
                           alpha * v + lam * np.log(g.beta * -v), rtol=1e-13)


def test_table_interpolation_log_linear():
    g = tabulated([(-10.0, -5.0), (-2.0, -1.0)])
    assert g.log_value(-6.0) == pytest.approx(-3.0)
    # constant above the largest sample
    assert g.log_value(-0.5) == pytest.approx(-1.0)
    # first-segment slope below the smallest
    assert g.log_value(-12.0) == pytest.approx(-6.0)


def test_parse_gauge_round_trip():
    specs = [
        {"family": "power", "s": 0.5},
        {"family": "logpower", "s": 2.0},
        {"family": "powerlog", "delta": 0.5, "s": 1.5, "beta": 0.25},
        {"family": "table", "table": [[-10.0, -5.0], [-1.0, -0.6]]},
    ]
    for spec in specs:
        g = parse_gauge(spec)
        again = parse_gauge(json.loads(json.dumps(g.to_dict())))
        assert again == g
    with pytest.raises(GaugeError):
        parse_gauge({"family": "power", "s": 0.5, "bogus": 1})
    with pytest.raises(GaugeError):
        parse_gauge({"family": "unknown"})


def test_log_ratio_stable_at_extreme_depth():
    f = power(0.5)
    g = power_log(0.5, 0.5, 1.0)
    v = -2.0 ** 60
    expected = -0.5 * math.log(-v)
    assert log_ratio(f, g, v) == pytest.approx(expected, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [2.0, -1.0])
def test_log_term_stays_finite_where_beta_times_log_r_overflows(s):
    # beta |log r| = 3.4e308 overflows; log f = 0.5 log r + s log(beta |log r|)
    g = power_log(0.5, s, 2.0)
    v = -1.7e308
    want = 0.5 * v + s * (math.log(2.0) + math.log(-v))
    for arg in (v, np.array([v, -1e308])):
        got = np.atleast_1d(g.log_value(arg))
        assert np.all(np.isfinite(got))
        assert got[0] == pytest.approx(want, rel=1e-15)
    assert g.log_value_slow(v) == pytest.approx(s * (math.log(2.0) + math.log(-v)),
                                                rel=1e-15)
    # below the overflow the formula's own float ops are kept
    assert g.log_value(-1e300) == 0.5 * -1e300 + s * math.log(2.0 * 1e300)


@pytest.mark.parametrize("g", [power_log(0.5, 2.0, 2.0), power_log(0.5, -1.0, 2.0),
                               power_log(0.3, 0.15, 1.0)])
def test_law_limits_at_zero_radius(g):
    # r = 0 is log r = -inf and w = log(-log r) = inf: log f(0) = -inf for
    # any lam, since the power factor wins, and the slowly varying part
    # tends to lam * inf.  pytest turns a RuntimeWarning into an error.
    lam = g.exponents[1]
    assert g.log_value(-math.inf) == -math.inf
    assert g.log_value_slow(-math.inf) == math.copysign(math.inf, lam)
    assert g.log_value_deep(math.inf) == -math.inf
    # in arrays too, next to a finite entry and a NaN, which stays NaN
    v, w = np.array([-math.inf, -3.0, math.nan]), np.array([math.inf, 1.0, math.nan])
    for got, want in ((g.log_value(v), [-math.inf, g.log_value(-3.0)]),
                      (g.log_value_slow(v), [math.copysign(math.inf, lam),
                                             g.log_value_slow(-3.0)]),
                      (g.log_value_deep(w), [-math.inf, g.log_value_deep(1.0)])):
        assert got[:2].tolist() == want and math.isnan(got[2])
    # a zero-length interval costs g(0) = 0
    assert cover_cost(g, IntervalCover([0.0, 1.0], [0.0, 1.5])) == cover_cost(
        g, IntervalCover([1.0], [1.5]))
    assert cover_cost(g, IntervalCover([0.0], [0.0])) == 0.0


# ---------------------------------------------------------------------------
# Scaling exponent fits
# ---------------------------------------------------------------------------

def test_doubling_power_exact():
    fit = doubling_exponent(power(0.7), log_grid=GRID)
    assert fit.s == pytest.approx(0.7, abs=1e-12)
    assert fit.kappa == 1.0
    assert fit.constant == pytest.approx(2 ** 0.7, rel=1e-12)


def test_codoubling_power_exact():
    fit = codoubling_exponent(power(0.7), log_grid=GRID)
    assert fit.s == pytest.approx(0.7, abs=1e-12)
    assert fit.kappa == 1.0


def test_doubling_logpower_sinks_with_grid():
    fits = [doubling_exponent(log_power(3.0), log_grid=log_radius_grid(decades=d)).s
            for d in (30, 60, 120)]
    assert fits[0] > fits[1] > fits[2]
    assert fits[2] < 0.05
    # doubling ratio f(2r)/f(r) approaches 1 at depth
    g = log_power(3.0)
    deep = math.exp(g.log_value(-1e5 + math.log(2)) - g.log_value(-1e5))
    assert deep == pytest.approx(1.0, abs=1e-3)


def test_codoubling_logpower_fails():
    with pytest.raises(GaugeFitError):
        codoubling_exponent(log_power(3.0), log_grid=GRID)


def test_powerlog_exponents_near_radial_power():
    fit = doubling_exponent(power_log(0.5, 1.0, 1.0), log_grid=GRID)
    assert fit.s == pytest.approx(0.5, abs=0.05)
    fit = codoubling_exponent(power_log(0.5, 2.0, 1.0), log_grid=GRID)
    assert fit.s == pytest.approx(0.5, abs=0.05)


def test_grid_preconditions():
    with pytest.raises(GaugeError):
        doubling_exponent(power(0.5), log_grid=np.linspace(-1, -2, 8))
    with pytest.raises(GaugeError):
        doubling_exponent(power(0.5), log_grid=np.linspace(-1, -2, 64))


def test_doubling_roundtrip_lemma():
    # from a doubling constant c found on the grid, the exponent form holds
    # with kappa = 1/c and s = log2(c) on random (lambda, r) pairs
    for g in (power(0.7), log_power(2.0), power_log(0.5, 0.5, 1.0)):
        c = doubling_constant(g, log_grid=GRID)
        assert doubling_roundtrip_violations(g, c, 10_000, seed=5,
                                             log_grid=GRID) == 0


# ---------------------------------------------------------------------------
# In-place evaluation: exact against the plain expressions
# ---------------------------------------------------------------------------

LOG2 = math.log(2.0)


def reference_log_value(f, log_r):
    """log_value as plain chained expressions, one temporary per step."""
    v = np.asarray(log_r, dtype=float)
    if f.family == "power":
        out = f.s * v
    elif f.family == "logpower":
        u = np.maximum(-v, LOG2)
        out = -f.s * np.log(u)
    elif f.family == "powerlog":
        vc = np.minimum(v, f._clamp_v)
        u = np.maximum(-vc, LOG2)
        out = f.delta * vc + f.s * np.log(f.beta * u)
    else:
        knots = np.asarray(f.table, dtype=float)
        out = np.interp(v, knots[:, 0], knots[:, 1])
        slope0 = (knots[1, 1] - knots[0, 1]) / (knots[1, 0] - knots[0, 0])
        below = v < knots[0, 0]
        if np.any(below):
            out = np.where(below, knots[0, 1] + slope0 * (v - knots[0, 0]), out)
    return out if out.ndim else float(out)


def reference_reciprocal(f, r):
    r = np.asarray(r, dtype=float)
    if f.family == "power":
        out = r ** (-f.s)
    else:
        out = np.exp(-np.asarray(reference_log_value(f, np.log(r))))
    return out if out.ndim else float(out)


# power_log(0.5, 0.5) clamps above r = e**-1; power_log(0.3, -1, 2) has no clamp
EXACT_GAUGES = [power(0.5), log_power(1.5), power_log(0.5, 0.5),
                power_log(0.3, -1.0, 2.0), power_log(0.8, 0.8, 0.5),
                tabulated([(-50.0, -30.0), (-10.0, -5.0), (-1.0, -0.5)])]
EXACT_RADII = np.concatenate([
    [1e-300, 1e-200, 1e-30, 1e-12, 0.3, math.exp(-1.0), 0.37, 0.4, 0.49,
     0.5, 0.6, 0.9, 1.0, 3.0],
    np.random.default_rng(11).uniform(1e-9, 1.0, 500),
    np.exp(np.random.default_rng(12).uniform(-690.0, 0.0, 500)),
])


@pytest.mark.parametrize("f", EXACT_GAUGES, ids=lambda f: f.family)
def test_log_value_and_reciprocal_equal_the_plain_expressions(f):
    r = EXACT_RADII.copy()
    log_r = np.log(r)
    got, want = f.log_value(log_r), reference_log_value(f, log_r)
    assert got.tobytes() == want.tobytes()
    got, want = f.reciprocal(r), reference_reciprocal(f, r)
    assert got.tobytes() == want.tobytes()
    # a strided view and a 2-d block take the same path
    assert (f.log_value(log_r[::3]).tobytes()
            == reference_log_value(f, log_r[::3]).tobytes())
    block = r[:1000].reshape(40, 25)
    assert f.reciprocal(block).tobytes() == reference_reciprocal(f, block).tobytes()


@pytest.mark.parametrize("f", EXACT_GAUGES, ids=lambda f: f.family)
@pytest.mark.parametrize("x", [1e-300, 0.01, 0.4, 0.75])
def test_scalar_and_0d_inputs_return_float(f, x):
    v = math.log(x)
    for arg in (v, np.float64(v), np.array(v)):
        got = f.log_value(arg)
        assert type(got) is float and got == reference_log_value(f, v)
    for arg in (x, np.float64(x), np.array(x)):
        got = f.reciprocal(arg)
        assert type(got) is float and got == reference_reciprocal(f, x)


@pytest.mark.parametrize("f", EXACT_GAUGES, ids=lambda f: f.family)
def test_evaluation_leaves_the_input_unmodified(f):
    log_r = np.log(EXACT_RADII)
    frozen = log_r.copy()
    frozen.setflags(write=False)  # a write into it would raise
    f.log_value(frozen)
    f.log_value_slow(frozen)
    assert frozen.tobytes() == log_r.tobytes()
    r = EXACT_RADII.copy()
    f.reciprocal(r)
    f.value(r)
    assert r.tobytes() == EXACT_RADII.tobytes()


@pytest.mark.parametrize("f", [power_log(0.5, 0.5), log_power(1.5)],
                         ids=lambda f: f.family)
def test_reciprocal_allocation_peak(f):
    """One reciprocal over 100k radii holds at most three radius-sized
    buffers at once: the log radii and log_value's working arrays."""
    r = np.random.default_rng(0).uniform(1e-12, 0.4, 100_000)
    f.reciprocal(r)
    tracemalloc.start()
    try:
        f.reciprocal(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the allowance covers array headers, not another buffer
    assert peak <= 3 * r.nbytes + 4096


def _log_value_deep_reference(f, log_u):
    # every family forms u = e**w, through exp(min(w, 709))
    w = np.asarray(log_u, dtype=float)
    u = np.exp(np.minimum(w, 709.0))
    u = np.where(w > 709.0, np.inf, u)
    v = -u
    if f.family == "power":
        out = f.s * v
    elif f.family == "logpower":
        out = -f.s * np.maximum(w, math.log(math.log(2.0)))
    elif f.family == "powerlog":
        wl = np.maximum(w, math.log(math.log(2.0)))
        radial = f.delta * v if f.delta else np.zeros_like(v)
        out = radial + f.s * (math.log(f.beta) + wl)
        # at r = 0 (w = inf) a power factor wins: f(0) = 0
        out = np.where(np.isneginf(radial), -np.inf, out)
        if math.isfinite(f._clamp_v):
            out = np.where(v >= f._clamp_v, f.log_value(f._clamp_v), out)
    else:
        alpha = f.exponents[0]
        knots = np.asarray(f.table, dtype=float)
        deep_const = knots[0, 1] - alpha * knots[0, 0]
        shallow = np.isfinite(v) & (v >= knots[0, 0])
        out = np.where(shallow, f.log_value(np.where(shallow, v, 0.0)),
                       alpha * v + deep_const)
    return out if out.ndim else float(out)


DEEP_GAUGES = [power(0.5), log_power(1.1), power_log(0.75, 1.5, 0.25),
               power_log(0.5, 2.0, 1.0), power_log(0.0, -1.0, 2.0),
               tabulated([(v, 0.4 * v) for v in (-400.0, -100.0, -10.0, -1.0, 0.0)]),
               tabulated([(-200.0, -100.0), (-100.0, -5.0), (-1.0, -5.0)])]


@pytest.mark.parametrize("f", DEEP_GAUGES, ids=lambda f: f.family)
def test_log_value_deep_matches_the_exp_of_every_node(f):
    rng = np.random.default_rng(31)
    edges = [708.0, 708.5, 709.0, np.nextafter(709.0, 710.0), 709.5, 709.7,
             709.79, 710.0, 1e5, math.inf, -math.inf, math.nan, -3.0, 0.0,
             math.log(math.log(2.0)), 1.0, 3.0]
    w = np.concatenate([edges, np.linspace(-5.0, 720.0, 4001),
                        rng.uniform(707.0, 711.0, 2000)])
    for x in (w, rng.permutation(w), w[:12].reshape(3, 4)):
        with np.errstate(all="ignore"):
            got = np.asarray(f.log_value_deep(x))
            want = np.asarray(_log_value_deep_reference(f, x))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for x in edges:
        with np.errstate(all="ignore"):
            got, want = f.log_value_deep(x), _log_value_deep_reference(f, x)
        assert type(got) is type(want) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), x
