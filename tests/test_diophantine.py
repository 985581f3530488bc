import math
import tracemalloc

import numpy as np
import pytest

from gaugeproj import (GAP_BAND, INFINITE_BAND, ZERO_BAND, ApproxFunction,
                       GaugeError, classify_series, exp_power, gap_report,
                       log_power, parse_approx, power, power_log,
                       power_log_power, tabulated)
from gaugeproj.conditions import LOG2, _logsumexp
from gaugeproj.diophantine import _octave_log_sums, _term_log


def pure_power(tau):
    return ApproxFunction("pure_power", tau)


def series_term(f, psi, k, q):
    """log(q**k * f(psi(q))) at one q, as the series machinery forms it."""
    return float(_term_log(f, psi, k, np.log([q]))[0])


def test_approx_functions_decrease():
    # psi decreases exactly where its one parametrisation, log(-log psi),
    # increases
    qs = np.arange(2, 20)
    for psi in (exp_power(2.0), power_log_power(3.0), pure_power(1.5)):
        vals = np.exp(-np.exp(psi.log_depth(np.log(qs))))
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)
        # the parametrisation keeps increasing far beyond the range where
        # psi itself is representable
        deep = psi.log_depth(np.log(2.0) * np.arange(1, 64))
        assert np.all(np.isfinite(deep))
        assert np.all(np.diff(deep) > 0)


def test_parse_approx_round_trip():
    psi = parse_approx({"family": "exp_power", "tau": 3.0})
    assert psi == exp_power(3.0)
    with pytest.raises(GaugeError):
        parse_approx({"family": "exp_power", "tau": 3.0, "junk": 1})


def test_series_term_exp_power_exact_power_of_q():
    # terms q**(k - tau*s) for the log-scale gauge with steep rates
    f, psi, k = log_power(1.5), exp_power(2.0), 2
    for q in (8.0, 64.0, 2.0 ** 40):
        assert series_term(f, psi, k, q) == pytest.approx(
            (k - 2.0 * 1.5) * math.log(q), rel=1e-12)


def test_series_term_harmonic():
    assert series_term(power(1.0), pure_power(2.0), 1, 16) == pytest.approx(
        -math.log(16))


def test_series_term_gap_family_shape():
    # q**k f(psi(q)) ~ 1/(q (log q)**(1+k-s)) for the critical calibration
    k, tau, s = 2, 6.0, 1.0
    delta = (k + 1) / tau
    f = power_log(delta, s, 1.0 / tau)
    psi = power_log_power(tau)
    for q in (2.0 ** 20, 2.0 ** 30):
        lq = math.log(q)
        expected = -lq - (1 + k - s) * math.log(lq)
        assert series_term(f, psi, k, q) == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tau", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("s", [0.5, 0.9, 1.1, 2.0])
def test_classify_logpower_exp_grid(k, tau, s):
    sv = classify_series(log_power(s), exp_power(tau), k)
    if s > (k + 1) / tau:
        assert sv.converges
    else:
        assert sv.diverges


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tau", [2.0, 3.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_classify_powerlog_grid(k, tau, s):
    delta = (k + 1) / tau
    sv = classify_series(power_log(delta, s, 1.0 / tau), power_log_power(tau), k)
    if s >= k:
        assert sv.diverges
    else:
        assert sv.converges


def test_classify_harmonic_diverges():
    assert classify_series(power(1.0), pure_power(2.0), 1).diverges


def test_fitted_exponent_matches_closed_form():
    for (s, tau, k) in [(1.5, 2.0, 2), (0.5, 3.0, 1), (2.0, 1.0, 2)]:
        sv = classify_series(log_power(s), exp_power(tau), k)
        assert sv.fitted_exponent == pytest.approx(k - tau * s, rel=0.01)


def test_classify_premise_rejects_nonmonotone():
    # slopes 0.5 / 2.0 / 0.25 make r**-1 f(r) wiggle across the sampled range
    bad = tabulated([(-60.0, -40.0), (-40.0, -30.0), (-30.0, -10.0),
                     (-10.0, -5.0)])
    with pytest.raises(GaugeError, match="monotone"):
        classify_series(bad, pure_power(1.0), 1)


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

def test_gap_report_bands():
    rep = gap_report(0.5)
    assert rep.tau == pytest.approx(6.0)
    assert rep.classify(1.5) == ZERO_BAND
    assert rep.classify(3.5) == INFINITE_BAND
    assert rep.classify(2.5) == GAP_BAND
    # documented edge conventions: s = 2 stays zero, s = 3 stays in the gap
    assert rep.classify(2.0) == ZERO_BAND
    assert rep.classify(3.0) == GAP_BAND


def test_gap_report_bands_partition_positive_axis():
    rep = gap_report(0.5)
    edges = [b[:2] for b in rep.bands]
    assert edges[0][0] == 0.0 and math.isinf(edges[-1][1])
    for (a, b), (c, d) in zip(edges, edges[1:]):
        assert b == c
    samples = np.concatenate([np.linspace(0.01, 10, 997), [2.0, 3.0]])
    for s in samples:
        assert sum(lo < s <= hi for lo, hi, _ in rep.bands) == 1


def test_gap_report_cross_checks():
    rep = gap_report(0.5, s_values=(1.5, 2.5, 3.5))
    assert all(r.consistent for r in rep.rows)
    by_s = {r.s: r for r in rep.rows}
    assert by_s[1.5].integral_status == "divergent"
    assert by_s[2.5].integral_status == "divergent"
    assert by_s[3.5].integral_status == "finite"


def test_gap_report_validates_inputs():
    with pytest.raises(GaugeError):
        gap_report(1.5)
    with pytest.raises(GaugeError):
        gap_report(0.5, k=0)
    with pytest.raises(GaugeError):
        gap_report(0.5).classify(0.0)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_gap_bands_reject_s_that_is_not_positive_finite(s):
    rep = gap_report(0.5)
    with pytest.raises(GaugeError, match="positive finite"):
        rep.classify(s)
    with pytest.raises(GaugeError, match="positive finite"):
        gap_report(0.5, 2, [2.5, s])


def test_classify_series_block_count():
    f, psi = log_power(1.1), exp_power(3.0)
    assert classify_series(f, psi, 2, 0).verdict.status == "inconclusive"
    with pytest.raises(GaugeError, match="block count"):
        classify_series(f, psi, 2, -5)


# ---------------------------------------------------------------------------
# Block-wise deep octaves
# ---------------------------------------------------------------------------

def _deep_octaves_whole(f, psi, k, n_blocks):
    # octaves 12..n_blocks with all their quadrature nodes in one array
    nodes = 24
    x = (np.arange(nodes) + 0.5) / nodes
    ns = np.arange(12, n_blocks + 1, dtype=float)
    lq = (ns[:, None] + x[None, :]) * LOG2
    terms = _term_log(f, psi, k, lq.ravel()).reshape(lq.shape)
    return _logsumexp(terms + lq) + math.log(LOG2 / nodes)


@pytest.mark.parametrize("f,psi,k", [
    (log_power(1.1), exp_power(3.0), 2),
    (log_power(0.5), exp_power(1.0), 1),
    (power_log(0.75, 1.5, 0.25), power_log_power(4.0), 2),
    (power_log(1.0, 0.7, 1.0 / 3.0), power_log_power(3.0), 1),
    (power(0.5), pure_power(5.0), 2),
])
def test_deep_octaves_blockwise_are_exact(f, psi, k):
    # 16 384 blocks fill the last row block only in part
    got = _octave_log_sums(f, psi, k, 16384)[11:]
    assert got.tobytes() == _deep_octaves_whole(f, psi, k, 16384).tobytes()


@pytest.mark.parametrize("f,psi", [
    (log_power(1.1), exp_power(3.0)),
    (power_log(0.75, 1.5, 0.25), power_log_power(4.0)),
])
def test_classify_series_working_set(f, psi):
    # deep octaves are built one row block at a time: on all 16 373 x 24
    # nodes at once the call peaked at 19-29 MB.  The tail classifier
    # reduces its blocks without padding: a 14 x 8 192 padded array held
    # the peak at 2.2 MB
    classify_series(f, psi, 2)
    tracemalloc.start()
    try:
        classify_series(f, psi, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6
