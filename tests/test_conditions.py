import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gaugeproj import (DIVERGENT, FINITE, INCONCLUSIVE, GaugeError,
                       check_divergence_of_df_over_g, check_integral_condition,
                       check_length_criterion, check_limit_condition,
                       check_rate_condition, classify_log_tail, log_power,
                       power, power_log, sweep_partner, tabulated)
from gaugeproj import conditions
from gaugeproj.conditions import (DIVERGENT_ABOVE, FINITE_BELOW, LOG2, SHELLS,
                                  _block_logsumexp, _exp,
                                  _gl, _logsumexp, _panel_values,
                                  _ratio_integrand, _shell_node_data,
                                  _shell_nodes,
                                  _tail_integral, dyadic_shell_sums)

TAU = 6.0
GAP_WITNESS = (power(0.5), power_log(0.5, 0.5, 1.0))


def closed_form_power(s_f, s_g):
    # -int f d(1/g) for f = r**s_f, g = r**s_g with s_f > s_g
    return s_g / (s_f - s_g)


def closed_form_logpower(s_f, s_g):
    return s_g / (s_f - s_g) * math.log(2.0) ** (s_g - s_f)


# ---------------------------------------------------------------------------
# Integral condition
# ---------------------------------------------------------------------------

def test_integral_power_pair():
    v = check_integral_condition(power(0.5), power(0.25))
    assert v.status == FINITE
    assert v.value == pytest.approx(1.0, rel=1e-9)


def test_integral_equal_gauges_diverges():
    assert check_integral_condition(power(0.5), power(0.5)).status == DIVERGENT


def test_integral_logpower_pair():
    v = check_integral_condition(log_power(2.0), log_power(1.0))
    assert v.status == FINITE
    assert v.value == pytest.approx(1.0 / math.log(2.0), abs=1e-6)


def test_integral_gap_family_pair_diverges():
    f = power_log(0.5, 2.0, 1.0 / TAU)
    g = power_log(0.5, 2.5, 1.0 / TAU)
    assert check_integral_condition(f, g).status == DIVERGENT


@pytest.mark.parametrize("s_f,s_g", [(0.5, 0.25), (0.9, 0.3), (1.0, 0.2)])
def test_quadrature_vs_closed_form_power(s_f, s_g):
    v = check_integral_condition(power(s_f), power(s_g))
    assert v.status == FINITE
    assert v.value == pytest.approx(closed_form_power(s_f, s_g), rel=1e-6)


@pytest.mark.parametrize("s_f,s_g", [(2.0, 1.0), (3.0, 1.5), (2.5, 0.5)])
def test_quadrature_vs_closed_form_logpower(s_f, s_g):
    v = check_integral_condition(log_power(s_f), log_power(s_g))
    assert v.status == FINITE
    assert v.value == pytest.approx(closed_form_logpower(s_f, s_g), rel=1e-6)


def test_integral_rejects_decreasing_g():
    from gaugeproj import tabulated
    # a gauge, but flat on the whole probe grid above log r = -100
    bad = tabulated([(-200.0, -100.0), (-100.0, -5.0), (-1.0, -5.0)])
    with pytest.raises(GaugeError, match="flat on the entire grid"):
        check_integral_condition(power(0.5), bad)


def closed_rule(f, g):
    """The integral condition read from the two exponent pairs: with
    a = alpha_f - alpha_g and b = lam_f - lam_g - [alpha_g = 0], the
    integrand is r**a (-log r)**b dr/r near 0, so -int f d(1/g) is finite
    iff a > 0, or a = 0 and b < -1.  Returns (a, b, verdict)."""
    (alpha_f, lam_f), (alpha_g, lam_g) = f.exponents, g.exponents
    a, b = alpha_f - alpha_g, lam_f - lam_g - (alpha_g == 0)
    return a, b, FINITE if a > 0 or (a == 0 and b < -1) else DIVERGENT


RULE_GAUGES = [power(0.3), power(0.5), power(0.8),
               log_power(0.5), log_power(1.0), log_power(2.0), log_power(3.0),
               power_log(0.5, 1.0), power_log(0.5, -1.0), power_log(0.3, 2.0, 0.5),
               power_log(0.8, 0.5, 2.0), power_log(0.5, 3.0, 1.0 / 3.0),
               power_log(0.0, -1.0), power_log(0.0, -2.5, 2.0)]


def test_integral_verdict_follows_the_closed_exponent_rule():
    # every ordered pair off the edge band a = 0, |b + 1| < 0.25, where
    # the shell classifier's tail exponent is too near 0 to read
    decided = 0
    for f in RULE_GAUGES:
        for g in RULE_GAUGES:
            a, b, want = closed_rule(f, g)
            if a == 0 and abs(b + 1) < 0.25:
                continue
            assert check_integral_condition(f, g).status == want, (f, g, a, b)
            decided += 1
    assert decided == 186


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_integral_verdict_at_the_edge_beta_one_diverges(s):
    # f = r**s, g = r**s (-log r): a = 0, b = -1
    f, g = power(s), power_log(s, 1.0, 1.0)
    assert closed_rule(f, g) == (0.0, -1.0, DIVERGENT)
    assert check_integral_condition(f, g).status == DIVERGENT


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22")
@pytest.mark.parametrize("beta", [1.005, 1.02, 1.05, 1.1])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_integral_verdict_at_the_edge_follows_the_rule(s, beta):
    # f = r**s, g = r**s (-log r)**beta: b = -beta < -1, a finite integral
    # that the shell classifier reads as divergent or inconclusive
    f, g = power(s), power_log(s, beta, 1.0)
    assert closed_rule(f, g)[2] == FINITE
    assert check_integral_condition(f, g).status == FINITE


# ---------------------------------------------------------------------------
# Limit condition and the gap witness
# ---------------------------------------------------------------------------

def test_limit_power_pair_zero():
    v = check_limit_condition(power(0.5), power(0.25))
    assert v.status == FINITE and v.value == 0.0


def test_limit_identity_not_zero():
    assert check_limit_condition(power(1.0), power(1.0)).status == DIVERGENT


def test_gap_witness_limit_zero_integral_divergent():
    f, g = GAP_WITNESS
    assert check_limit_condition(f, g).status == FINITE
    assert check_integral_condition(f, g).status == DIVERGENT


@pytest.mark.parametrize("f,g", [
    (power(0.5), power(0.25)),
    (log_power(2.0), log_power(1.0)),
    (power_log(0.5, 2.0, 1.0 / TAU), power_log(0.5, 3.5, 1.0 / TAU)),
])
def test_integral_finite_implies_limit_zero(f, g):
    assert check_integral_condition(f, g).status == FINITE
    assert check_limit_condition(f, g).status == FINITE


# ---------------------------------------------------------------------------
# Rate condition
# ---------------------------------------------------------------------------

def test_rate_power_pair_bounded():
    v = check_rate_condition(power(0.5), power(0.25))
    assert v.status == FINITE
    assert v.value == pytest.approx(1.0, rel=1e-9)


def test_rate_logpower_pair_closed_form():
    # for t <= 2**-8, -int f d(1/g(t.)) = int_0^inf f(e**-u) du = 2/log 2,
    # so R(t) = g(t) * 2/log 2 = 2/(-log t * log 2), largest at t = 2**-8
    v = check_rate_condition(log_power(2.0), log_power(1.0))
    assert v.status == FINITE
    expected = [2.0 / (8.0 * 2 ** j * math.log(2.0) ** 2) for j in range(7)]
    assert v.shell_sums == pytest.approx(expected, rel=1e-9)
    assert v.value == pytest.approx(expected[0], rel=1e-9)


def test_rate_equal_gauges_diverges():
    assert check_rate_condition(power(0.5), power(0.5)).status == DIVERGENT


@pytest.mark.parametrize("s_f", [1.05, 1.06, 1.08])
def test_rate_inconclusive_scale_is_inconclusive(s_f):
    # the block exponent 1 - s_f lies in the inconclusive band, at every
    # scale: the rate verdict may not call that divergent
    f, g = log_power(s_f), log_power(1.0)
    assert check_integral_condition(f, g).status == INCONCLUSIVE
    v = check_rate_condition(f, g)
    assert v.status == INCONCLUSIVE
    assert v.value is None and v.shell_sums == ()
    assert v.diagnostics.startswith(
        f"scaled integral at log t = {-8 * LOG2:.1f} is inconclusive")


def test_rate_builds_f_side_only_after_a_finite_first_scale(monkeypatch):
    built = []

    def spy(fn):
        built.append(fn)
        return _shell_node_data(fn)
    monkeypatch.setattr(conditions, "_shell_node_data", spy)
    f_slow, f_fast = power_log(0.3, 0.5, 1.0), power_log(0.5, 0.5, 1.0)
    assert check_rate_condition(f_slow, power(0.5)).status == DIVERGENT
    assert built == []
    assert check_rate_condition(f_fast, power(0.25)).status == FINITE
    assert len(built) == 1
    # a power f has no slowly varying part to build
    assert check_rate_condition(power(0.5), power(0.25)).status == FINITE
    assert len(built) == 1


@pytest.mark.parametrize("f,g", [
    (power(0.5), power(0.25)),
    (log_power(2.0), log_power(1.0)),
])
def test_rate_finite_implies_integral_finite(f, g):
    assert check_rate_condition(f, g).status == FINITE
    assert check_integral_condition(f, g).status == FINITE


# ---------------------------------------------------------------------------
# Length criterion
# ---------------------------------------------------------------------------

def test_length_criterion_values():
    v = check_length_criterion(power(1.5))
    assert v.status == FINITE
    assert v.value == pytest.approx(2.0, rel=1e-9)
    assert "positive length" in v.diagnostics
    assert check_length_criterion(power(1.0)).status == DIVERGENT
    assert check_length_criterion(power(0.5)).status == DIVERGENT


def test_length_criterion_precondition():
    with pytest.raises(GaugeError, match="decreasing"):
        check_length_criterion(power(2.5))


# ---------------------------------------------------------------------------
# Stieltjes df/g
# ---------------------------------------------------------------------------

def test_df_over_g_growth_pair_diverges():
    f, g = GAP_WITNESS  # g(r) = f(r log(1/r))
    assert check_divergence_of_df_over_g(f, g).status == DIVERGENT


def test_df_over_g_identity_diverges():
    assert check_divergence_of_df_over_g(power(1.0), power(1.0)).status == DIVERGENT


def test_df_over_g_overflowing_shells_stay_divergent():
    # f = r**0.2 against g = r**0.8: the deep shell sums exceed the float
    # range; an infinite shell sum is the divergent answer, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check_divergence_of_df_over_g(power(0.2), power(0.8))
    assert v.status == DIVERGENT
    assert math.isinf(v.shell_sums[-1])


def test_df_over_g_power_pair_finite_with_boundary_shift():
    v = check_divergence_of_df_over_g(power(0.5), power(0.25))
    assert v.status == FINITE
    # equals the integral condition plus the boundary term f(1)/g(1) = 1,
    # up to the midpoint-rule offset of the dyadic Stieltjes sums
    integral = check_integral_condition(power(0.5), power(0.25)).value
    assert v.value == pytest.approx(integral + 1.0, rel=0.02)


# ---------------------------------------------------------------------------
# Tail classifier
# ---------------------------------------------------------------------------

def test_classifier_geometric_tail_finite():
    n = np.arange(1, 513, dtype=float)
    status, lam, _ = classify_log_tail(np.log(0.5 ** n))
    assert status == FINITE and lam < -1


def test_classifier_critical_harmonic_divergent():
    n = np.arange(1, 4097, dtype=float)
    status, lam, _ = classify_log_tail(np.log(1.0 / n))
    assert status == DIVERGENT
    assert lam == pytest.approx(0.0, abs=0.02)


def test_classifier_slow_polynomial_divergent():
    n = np.arange(1, 4097, dtype=float)
    status, lam, _ = classify_log_tail(np.log(n ** -0.5))
    assert status == DIVERGENT and lam == pytest.approx(0.5, abs=0.02)


def test_classifier_summable_polynomial_finite():
    n = np.arange(1, 4097, dtype=float)
    status, lam, _ = classify_log_tail(np.log(n ** -2.0))
    assert status == FINITE and lam == pytest.approx(-1.0, abs=0.02)


def test_classifier_inconclusive_band():
    n = np.arange(1, 4097, dtype=float)
    status, lam, _ = classify_log_tail(np.log(n ** -1.05))
    assert status == INCONCLUSIVE


def test_classifier_vanished_tail_is_finite():
    terms = np.full(256, -math.inf)
    terms[:8] = 0.0
    status, _, detail = classify_log_tail(terms)
    assert status == FINITE and "vanished" in detail


# ---------------------------------------------------------------------------
# log-sum-exp without SciPy
# ---------------------------------------------------------------------------

_INF = math.inf
_LSE_CASES = [
    [0.0], [1.0, 2.0, 3.0], [-3.5, 0.25, 7.0, -1e3],
    [-_INF, 0.0], [-_INF, -2.0, -_INF], [-_INF], [-_INF, -_INF, -_INF],
    [_INF, 1.0], [_INF, -_INF], [_INF, _INF], [math.nan, 1.0],
    [1.0, math.nan, _INF], [-_INF, math.nan],
    [5.0, 5.0, 5.0], [3.0, 3.0, 1.0], [-_INF, 4.0, 4.0, -_INF],
    [709.0, 709.5, 710.0], [710.0, 710.0], [709.78, 709.79], [711.0, -711.0],
    [-745.0, -746.0], [-800.0, -800.0, -1e4], [1e308, 1e308],
    [0.0, -1e-300], list(-0.01 * np.arange(5000)),
    list(np.random.default_rng(3).normal(scale=50.0, size=999)),
]


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


@pytest.mark.parametrize("terms", _LSE_CASES)
def test_logsumexp_matches_scipy_bit_for_bit(terms):
    from scipy.special import logsumexp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(np.array(terms))
    assert type(got) is type(logsumexp(np.array(terms)))
    assert _bits(got) == _bits(logsumexp(np.array(terms)))


def test_logsumexp_matches_scipy_along_axis_1():
    from scipy.special import logsumexp
    a = np.random.default_rng(5).normal(scale=300.0, size=(40, 24))
    a[3, :] = -_INF
    a[4, 5] = _INF
    a[7, 2] = math.nan
    a[9, :4] = a[9].max()
    a[11, :] = 709.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(a)
    assert got.shape == (40,)
    assert _bits(got) == _bits(logsumexp(a, axis=1))
    # random 1-d and 2-d arrays, some all -inf, with +-inf and NaN entries
    # and repeated maxima: always the last axis, as scipy's axis=-1
    rng = np.random.default_rng(31)
    for _ in range(300):
        shape = (int(rng.integers(1, 40)),)
        if rng.random() < 0.5:
            shape = (int(rng.integers(1, 12)),) + shape
        a = rng.normal(0.0, 10.0 ** rng.uniform(0.0, 3.0), shape)
        for value in (-_INF, _INF, math.nan, a.max()):
            if rng.random() < 0.3:
                a[rng.random(shape) < 0.2] = value
        if rng.random() < 0.2:
            a[..., :] = -_INF
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(a)
        assert _bits(got) == _bits(logsumexp(a, axis=-1))


def _planted_rows(shape, seed):
    # random rows, then one row of each edge case the kernel branches on
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 30.0, shape)
    rows, k = a.reshape(-1, shape[-1]), shape[-1]
    rows[0] = -_INF                                    # every entry -inf
    rows[1, 1] = _INF
    rows[2, k - 1] = math.nan
    rows[3, ::2] = rows[3].max()                       # repeated maxima
    rows[4] = -rng.uniform(700.0, 800.0, k)            # spread past -746:
    rows[4, 0] = 0.0                                   # zeros, subnormals
    rows[5] = [0.0, -745.0, -746.0, -708.5] * (k // 4)  # the clip floor
    rows[6, 1::2] = -_INF                              # zero terms
    rows[7] = 709.5                                    # every entry maximal
    rows[8, :2] = [_INF, -_INF]
    return a


@pytest.mark.parametrize("shape", [(9, 4), (300, 4), (256, 24), (3, 5, 24), (2, 6, 4)])
def test_logsumexp_matches_scipy_on_kernel_shapes(shape):
    # the angle-kernel cells are (n, 4), the deep-octave blocks (256, 24);
    # each row alone, as a 1-d array, gives the same bits too
    from scipy.special import logsumexp
    a = _planted_rows(shape, sum(shape))
    rows = a.reshape(-1, shape[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logsumexp(a)
        each = [_logsumexp(row) for row in rows]
    assert _bits(got) == _bits(logsumexp(a, axis=-1))
    for row, value in zip(rows, each):
        want = logsumexp(row)
        assert type(value) is type(want) and _bits(value) == _bits(want)
    spread = np.concatenate(([0.0], -np.geomspace(1.0, 800.0, 2046)))
    assert _bits(_logsumexp(spread)) == _bits(logsumexp(spread))


# ---------------------------------------------------------------------------
# Block-wise kernels against their whole-array and looped forms
# ---------------------------------------------------------------------------

def _panel_values_whole(fn, lo, hi, order):
    # every node in one fn call
    x, w = _gl(order)
    width = hi - lo
    v = lo[:, None] + width[:, None] * x[None, :]
    vals = fn(v.ravel()).reshape(v.shape)
    return width * (vals @ w)


def _tail_integral_loop(fn, u0):
    # one fn call and one np.dot per panel, stopping at the first small piece
    w0 = math.log(u0)
    total = 0.0
    for m in range(200):
        lo, hi = w0 + m, w0 + m + 1.0
        x, w = _gl(16)
        us = np.exp(lo + (hi - lo) * x)
        vals = fn(-us) * us
        piece = float((hi - lo) * np.dot(vals, w))
        total += piece
        if m > 2 and abs(piece) <= 1e-15 * max(abs(total), 1e-300):
            break
    return total


def _classify_log_tail_loop(log_terms):
    # one _logsumexp call per base-2 block, then the same fit
    lt = np.asarray(log_terms, dtype=float)
    n = len(lt)
    blocks = []
    j = 0
    while 2 ** (j + 1) <= n:
        blocks.append(_logsumexp(lt[2 ** j:2 ** (j + 1)]))
        j += 1
    blocks = np.asarray(blocks)
    if len(blocks) < 3:
        return INCONCLUSIVE, math.nan, "too few blocks to classify"
    skip = max(len(blocks) - 5, min(2, len(blocks) - 3))
    window = blocks[skip:]
    peak = blocks.max()
    if peak == -math.inf or window.max() < peak - 600.0:
        return FINITE, -math.inf, "tail vanished below working precision"
    finite_mask = np.isfinite(window)
    if finite_mask.sum() < 3:
        return FINITE, -math.inf, "tail vanished below working precision"
    idx = np.arange(skip, len(blocks), dtype=float)[finite_mask]
    y = window[finite_mask] / LOG2
    x0 = idx - idx.mean()
    lam = float(np.dot(x0, y) / np.dot(x0, x0))
    detail = (f"block decay exponent {lam:.4f} over trailing {finite_mask.sum()} "
              f"blocks (finite <= {FINITE_BELOW}, divergent >= {DIVERGENT_ABOVE})")
    if lam <= FINITE_BELOW:
        return FINITE, lam, detail
    if lam >= DIVERGENT_ABOVE:
        return DIVERGENT, lam, detail
    return INCONCLUSIVE, lam, detail


SHELL_FAMILIES = [power(0.5), log_power(1.5), power_log(0.5, 2.0, 1.0 / TAU),
                  tabulated([(v, 0.4 * v) for v in (-400.0, -100.0, -10.0, -1.0, 0.0)])]
SHIFTS = (0.0, -8.0 * LOG2, -512.0 * LOG2)


@pytest.mark.parametrize("f", SHELL_FAMILIES, ids=lambda f: f.family)
@pytest.mark.parametrize("g", [power(0.3), log_power(1.0)], ids=lambda g: g.family)
def test_blockwise_shell_quadrature_and_tail_are_exact(f, g):
    edges_hi = -LOG2 * np.arange(SHELLS, dtype=float)
    edges_lo = edges_hi - LOG2
    for shift in SHIFTS:
        fn = _ratio_integrand(f, g, shift)
        for order in (12, 24):
            got = _panel_values(fn, _shell_nodes(order), edges_hi - edges_lo)
            want = _panel_values_whole(fn, edges_lo, edges_hi, order)
            assert got.tobytes() == want.tobytes(), (shift, order)
        with np.errstate(all="ignore"):  # divergent pairs overflow in the tail
            want = _tail_integral_loop(fn, SHELLS * LOG2)
        got = _tail_integral(fn, SHELLS * LOG2)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), shift


def _fresh_shell_nodes(shells, order):
    edges_hi = -LOG2 * np.arange(shells, dtype=float)
    edges_lo = edges_hi - LOG2
    x, _ = _gl(order)
    return edges_lo[:, None] + (edges_hi - edges_lo)[:, None] * x


def test_shell_nodes_are_built_once_read_only_and_exact():
    for order in (12, 24):
        nodes = _shell_nodes(order)
        assert _shell_nodes(order) is nodes
        assert not nodes.flags.writeable
        assert nodes.shape == (SHELLS, order)
        assert nodes.tobytes() == _fresh_shell_nodes(SHELLS, order).tobytes()
        with pytest.raises(ValueError):
            nodes[0, 0] = 0.0
    # the cost the cache keeps: 2048 shells x (12 + 24) nodes x 8 B
    check_integral_condition(power(0.5), power(0.25))
    kept = {order: v.nbytes for (shells, order), v in conditions._SHELL_NODES.items()
            if shells == SHELLS}
    assert set(kept) == {12, 24}
    assert sum(kept.values()) == 2048 * 36 * 8 == 589_824


def test_shell_nodes_follow_the_shell_count(monkeypatch):
    monkeypatch.setattr(conditions, "SHELLS", 1024)
    for order in (12, 24):
        nodes = _shell_nodes(order)
        assert nodes.shape == (1024, order)
        assert nodes.tobytes() == _fresh_shell_nodes(1024, order).tobytes()
    assert dyadic_shell_sums(_ratio_integrand(power(0.5), power(0.25))).shape == (1024,)
    monkeypatch.undo()
    assert _shell_nodes(24).shape == (SHELLS, 24)


@pytest.mark.parametrize("pieces,total", [
    ([1.0, 1.0, 1.0, 1e-20, 5.0], 3.0),  # the fourth piece may stop the sum
    ([1.0, 1.0, 1e-20, 4.0], 6.0),       # the third piece may not
    ([1.0] * 20 + [1e-20, 5.0], 20.0),   # a stop past the first stages
    ([1.0] * 200, 200.0),                # no stop: all 200 panels
])
def test_tail_integral_stops_at_first_small_piece(pieces, total):
    # panel m of the tail integral has unit width in log u, so an integrand
    # of level[m] / u there contributes level[m]
    w0 = math.log(SHELLS * LOG2)
    level = np.array(pieces + [0.0] * (200 - len(pieces)))

    def fn(v):
        u = -np.asarray(v)
        return level[np.minimum((np.log(u) - w0).astype(int), 199)] / u
    got = _tail_integral(fn, SHELLS * LOG2)
    assert got == _tail_integral_loop(fn, SHELLS * LOG2)
    assert got == pytest.approx(total, rel=1e-14)


def test_classify_log_tail_matches_per_block_loop():
    # every block is summed as its own slice, so the verdict is the
    # per-block loop's bit for bit
    rng = np.random.default_rng(11)
    for _ in range(3000):
        n = int(rng.integers(8, 2049))
        q = np.arange(1, n + 1, dtype=float)
        lt = rng.normal(-1.5, 1.0) * np.log(q) + rng.normal(0.0, 2.0, n)
        if rng.random() < 0.3:
            lt[rng.random(n) < rng.random()] = -math.inf
        if rng.random() < 0.2:
            lt -= 720.0 + 40.0 * rng.random(n)  # exps near the subnormal edge
        assert classify_log_tail(lt) == _classify_log_tail_loop(lt)


def _log_ratio_reference(f, g, shift, v):
    v = np.asarray(v, dtype=float)
    return ((f.exponents[0] - g.exponents[0]) * v - g.exponents[0] * shift
            + np.asarray(f.log_value_slow(v))
            - np.asarray(g.log_value_slow(v + shift)))


def _ratio_integrand_reference(f, g, shift):
    # the integrand as one expression, with numpy's exp on every node
    def fn(v):
        lr = _log_ratio_reference(f, g, shift, v)
        dl = np.asarray(g.dlog(np.asarray(v, dtype=float) + shift), dtype=float)
        return np.exp(np.clip(lr, -745.0, 700.0)) * dl
    return fn


def _rates_reference(f, g):
    # R(t) at the rate condition's seven scales, each from a fresh integrand
    rates = []
    for j in range(7):
        lt = -(8.0 * 2 ** j) * LOG2
        fn = _ratio_integrand_reference(f, g, lt)
        with np.errstate(all="ignore"):
            total = dyadic_shell_sums(fn).sum() + _tail_integral(fn, SHELLS * LOG2)
        rates.append(math.exp(g.log_value(lt)) * float(total))
    return tuple(rates)


_SLOPE_09_TABLE = tabulated([(v, 0.9 * v) for v in (
    -400.0, -200.0, -100.0, -50.0, -20.0, -10.0, -5.0, -2.0, -1.0, 0.0)])
# pairs whose integrand reaches the -745 clip floor and the subnormal band
# before it; with g = power(0.6) the floor times dlog g = 0.6 is 5e-324,
# not 0.  R(t) = s_g / (alpha_f - s_g) at every scale
UNDERFLOW_PAIRS = [
    (power(0.9), power(0.25), 0.25 / 0.65),
    (power(0.95), power(0.6), 0.6 / 0.35),
    (_SLOPE_09_TABLE, power(0.2), 0.2 / 0.7),
]
UNDERFLOW_SHIFTS = [0.0] + [-(8.0 * 2 ** j) * LOG2 for j in range(7)]


@pytest.mark.parametrize("f,g,rate", UNDERFLOW_PAIRS, ids=["power", "power-dl06", "table"])
def test_underflow_shell_sums_and_tails_are_exact(f, g, rate):
    # every shift puts shell or tail nodes on the clip floor; with g =
    # power(0.6) the integrand there is the least subnormal
    u = np.exp(np.linspace(math.log(SHELLS * LOG2), math.log(SHELLS * LOG2) + 200.0, 999))
    nodes = np.concatenate([-LOG2 * np.arange(SHELLS, dtype=float), -u])
    f_slow = _shell_node_data(f.log_value_slow)
    band_seen = False
    for shift in UNDERFLOW_SHIFTS:
        fn = _ratio_integrand(f, g, shift)
        want_fn = _ratio_integrand_reference(f, g, shift)
        want = dyadic_shell_sums(want_fn)
        for node_data in (None, f_slow):
            got = dyadic_shell_sums(fn, node_data)
            assert got.tobytes() == want.tobytes(), (shift, node_data is None)
        with np.errstate(all="ignore"):
            want_tail = _tail_integral(want_fn, SHELLS * LOG2)
        got_tail = _tail_integral(fn, SHELLS * LOG2)
        assert np.float64(got_tail).tobytes() == np.float64(want_tail).tobytes(), shift
        with np.errstate(all="ignore"):
            lr = _log_ratio_reference(f, g, shift, nodes)
            at_floor = lr <= -745.0
            assert at_floor.any(), shift
            if g.s > 0.5:
                assert np.all(want_fn(nodes[at_floor]) == 5e-324), shift
        band_seen = band_seen or bool(np.any((lr > -745.0) & (lr < -708.4)))
    assert band_seen  # subnormal integrand values, still numpy's exp


@pytest.mark.parametrize("f,g,rate", UNDERFLOW_PAIRS, ids=["power", "power-dl06", "table"])
def test_underflow_rate_values(f, g, rate):
    v = check_rate_condition(f, g)
    assert v.status == FINITE
    assert v.shell_sums == _rates_reference(f, g)
    assert v.shell_sums == pytest.approx([rate] * 7, rel=1e-14)
    assert v.value == max(v.shell_sums)


_EXP_EDGES = [-math.inf, -1e300, -800.0, -746.0, np.nextafter(-746.0, 0.0),
              -745.2, -745.1332, np.nextafter(-745.0, -800.0), -745.0,
              np.nextafter(-745.0, 0.0), -744.0, -720.0, -708.4, -708.0,
              -1.0, -0.0, 0.0, 1.0, 700.0, 708.0, 709.0, 709.7, 709.79,
              710.0, 1e300, math.inf, math.nan]


@pytest.mark.parametrize("lo,hi", [(-math.inf, math.inf), (-745.0, 700.0),
                                   (-745.0, math.inf), (-math.inf, 700.0)])
def test_exp_is_numpy_exp_of_clip(lo, hi):
    rng = np.random.default_rng(17)
    grid = np.array(_EXP_EDGES + list(rng.uniform(-760.0, -700.0, 500))
                    + list(rng.uniform(-50.0, 50.0, 500)))
    cases = [grid, np.full(64, -745.0), np.full(64, -math.inf), np.full(64, -1.0),
             np.array([]), grid[:24].reshape(4, 6)]
    for _ in range(4):
        cases.append(rng.permutation(grid))
    for x in cases:
        with np.errstate(all="ignore"):
            want = np.exp(np.clip(x, lo, hi))
            t = x.copy()
            got = _exp(t, lo, hi)
        assert got is t
        assert _bits(got) == _bits(want)


def test_block_logsumexp_is_logsumexp_per_block():
    rng = np.random.default_rng(29)
    for _ in range(200):
        sizes = rng.integers(1, 300, rng.integers(1, 8))
        a = rng.normal(0.0, 10.0 ** rng.uniform(0.0, 3.0), sizes.sum())
        for cut in rng.integers(0, len(a), 3):
            a[cut] = rng.choice([-math.inf, math.inf, math.nan, a.max(), -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _block_logsumexp(a, sizes)
        starts = np.cumsum(sizes) - sizes
        want = [_logsumexp(a[i:i + n]) for i, n in zip(starts, sizes)]
        assert _bits(got) == _bits(np.array(want))
    assert _block_logsumexp(np.empty(0), np.empty(0, dtype=int)).shape == (0,)


@pytest.mark.parametrize("f,g,limit_mb", [
    (power(0.5), sweep_partner(power(0.5)), 1.5),
])
def test_shell_verdict_working_set(f, g, limit_mb):
    # the shell quadrature evaluates its nodes one block at a time; on all
    # 2048 x 24 nodes at once it peaked at 2.8 MB.  The cached shell nodes
    # (590 KB) are built by the first call, before tracing starts
    check_integral_condition(f, g)
    tracemalloc.start()
    try:
        check_integral_condition(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


@pytest.mark.parametrize("f,g", [(_SLOPE_09_TABLE, power(0.2)),
                                 (log_power(2.0), log_power(1.0))],
                         ids=["table", "logpower"])
def test_rate_condition_working_set(f, g):
    # scales 2-7 share f's slowly varying part at the 73 728 shell nodes
    # (590 KB); one scale alone peaks at about 0.71 MB
    check_rate_condition(f, g)
    tracemalloc.start()
    try:
        assert check_rate_condition(f, g).status == FINITE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6
