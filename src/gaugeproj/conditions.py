"""Numeric verdicts for the analytic conditions separating projection regimes.

Every check reduces to the behaviour of an integral or series near zero.
The machinery is shared:

1. split (0, 1] into dyadic shells [2**-(n+1), 2**-n] and compute each
   shell's contribution by Gauss-Legendre quadrature in log coordinates;
2. condense the shell contributions into base-2 blocks (Cauchy
   condensation) and fit the block decay exponent;
3. map the fitted exponent to finite / divergent / inconclusive.

Condensation makes the classification scale-free: shell tails n**p turn
into blocks with exponent p + 1, so summability (p < -1) maps to negative
block exponents, geometric decay maps far below, and the critical 1/n
family lands exactly at zero.  The thresholds (finite at or below -0.1,
divergent at or above -0.02) are artifact decisions and are carried in
every verdict's diagnostics.

The kernels keep their working sets in cache.  The shells' 12- and
24-point GL nodes are built once per process and shell count, read-only
(590 KB for 2048 shells).  Shell quadrature evaluates its integrand
``BLOCK_NODES`` of them at a time into one array of all node values, then
takes every shell's weighted sum in one product.  The tail classifier
reads all its base-2 blocks from one blockwise log-sum-exp, each block
summed as its own slice; the tail continuation evaluates its panels in at
most four growing stages.  The rate condition evaluates f's slowly
varying part at the shell nodes once for all its scales after the first.
Each node gets the float operations of one call on all of them, so the
verdicts do not depend on the block size.

Log-sum-exp zeroes the maximal entries after the exp, so a row whose
spread stays above -708 takes plain np.exp; its maxima, counts, shifts
and exps run node-major, its row sums row-major in numpy's order.

Every exponential of the kernels goes through ``_exp``, which returns
numpy's exp bit for bit but does not ask exp for the results it already
knows, 0 below -746 and exp(-745) at the clip floor: numpy takes 100 or
more times as long on those entries as on normal ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauges import LOG2, GaugeFunction, GaugeError, _ls_slope, log_ratio

FINITE = "finite"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

FINITE_BELOW = -0.1    # block decay exponent at or under this: summable
DIVERGENT_ABOVE = -0.02  # at or over this: bounded-below or growing blocks

SHELLS = 2048  # dyadic shells [2**-(n+1), 2**-n], n < SHELLS, in every shell sum

# Nodes per working array of the block-wise kernels (shell quadrature here,
# deep octaves in diophantine): each float64 temporary is 48 KiB, so it
# stays L2-resident and under glibc's 128 KiB mmap threshold.  A
# classify_series call on all 16 373 x 24 deep-octave nodes at once took
# about 6 200 page faults and 39 ms; in blocks of 256 rows, 470 faults
# and 24 ms.
BLOCK_NODES = 256 * 24


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one analytic check.

    ``value`` is populated only when the status is finite; ``shell_sums``
    are the per-shell (or per-probe) contributions the verdict was read
    from, and ``diagnostics`` records grid, fitted exponent and thresholds.
    """

    status: str
    value: float | None
    shell_sums: tuple[float, ...]
    diagnostics: str


# numpy's float64 exp takes about 1.5 ns per entry on normal results, but
# 125-220 ns where the result is subnormal (x in about [-745.13, -708.4],
# the clip floor -745 included) and 17-20 ns where it underflows to 0.
_EXP_NORMAL_FROM = -708.0  # exp is normal at and above this
_EXP_ZERO_BELOW = -746.0   # exp rounds to exactly 0 below this
_EXP_FLOOR = -745.0        # the kernels' clip floor
_EXP_AT_FLOOR = np.exp(np.full(1, _EXP_FLOOR))[0]  # 5e-324, the least subnormal


def _exp(t: np.ndarray, lo: float = -math.inf, hi: float = math.inf) -> np.ndarray:
    """numpy's exp of t clipped to [lo, hi], bit for bit, in place on t,
    a fresh float64 array.

    exp runs only where its result is not known beforehand: entries below
    -746 (-inf included) are exactly 0 and entries at the -745 clip floor
    are exp(-745); subnormal results in between are still exp's.  Arrays
    with no entry below -708 take plain np.exp.
    """
    if lo > -math.inf:  # np.clip's own steps, without its wrapper
        np.maximum(t, lo, out=t)
    if hi < math.inf:
        np.minimum(t, hi, out=t)
    if not t.size or t.min() >= _EXP_NORMAL_FROM:
        return np.exp(t, out=t)
    zero = t < _EXP_ZERO_BELOW
    floor = t == _EXP_FLOOR
    np.exp(t, out=t, where=~(zero | floor))
    t[zero] = 0.0
    t[floor] = _EXP_AT_FLOOR
    return t


# ---------------------------------------------------------------------------
# Tail classification
# ---------------------------------------------------------------------------

def _logsumexp(a):
    """log(sum(exp(a))) over the last axis, without overflow and without
    RuntimeWarnings.

    SciPy's algorithm, so results agree with ``scipy.special.logsumexp``
    bit for bit: every entry equal to the maximum is split off the shifted
    sum s, the result is log1p(s / m) + log(m) + max for m maximal entries,
    and where that is not finite (all entries -inf, an inf or a NaN) it is
    the direct log(sum(exp(a))), computed for those rows only.  Every
    row's value depends on that row alone.

    The maxima are zeroed after the exp, so exp sees no -inf it did not
    get and takes ``_exp``'s plain path whenever the row spread allows.
    Max, count, shift and exp do not depend on the order of a row's
    entries, so they run on a node-major copy, entry j of every row in one
    contiguous run, instead of along rows as short as 4 or 24 entries.
    Only the row sums run row-major, in numpy's pairwise order.
    """
    a = np.asarray(a, dtype=float)
    rows = a.reshape(-1, a.shape[-1])
    with np.errstate(all="ignore"):
        t = rows.T.copy()
        a_max = t.max(axis=0)
        at_max = t == a_max
        m = at_max.sum(axis=0, dtype=float)
        t -= a_max
        _exp(t)
        t[at_max] = 0.0
        out = t.T.copy().sum(axis=1)
        out /= m
        np.log1p(out, out=out)
        out += np.log(m)
        out += a_max
        bad = ~np.isfinite(out)
        if bad.any():
            # the direct form is inf, -inf or NaN, so its summation order
            # does not matter
            out[bad] = np.log(np.sum(np.exp(rows[bad]), axis=-1))
    return out.reshape(a.shape[:-1])[()]


def _block_logsumexp(a: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """_logsumexp of each consecutive block of the 1-d array a, block i
    holding sizes[i] > 0 entries, bit for bit as the block alone gives it.

    Maxima, counts, shifts and exps run once over all blocks; only the
    pairwise sums run block by block, each over its own contiguous slice.
    """
    if not len(sizes):
        return np.empty(0)
    starts = np.cumsum(sizes) - sizes
    with np.errstate(all="ignore"):
        a_max = np.maximum.reduceat(a, starts)
        a_max_each = np.repeat(a_max, sizes)
        at_max = a == a_max_each
        m = np.add.reduceat(at_max, starts, dtype=float)
        t = a - a_max_each
        _exp(t)
        t[at_max] = 0.0
        out = np.array([t[i:i + n].sum() for i, n in zip(starts.tolist(), sizes.tolist())])
        out /= m
        np.log1p(out, out=out)
        out += np.log(m)
        out += a_max
        for j in np.flatnonzero(~np.isfinite(out)):
            out[j] = np.log(np.sum(np.exp(a[starts[j]:starts[j] + sizes[j]])))
    return out


def classify_log_tail(log_terms):
    """Classify a positive-term tail given the logs of its terms.

    Returns (status, fitted_block_exponent, detail).  Terms may be -inf
    (exact zeros).  A window of trailing base-2 blocks is fitted with
    least squares on log2(block sum) against block index; the fitted
    exponent is finite at or below ``FINITE_BELOW`` and divergent at or
    above ``DIVERGENT_ABOVE``.
    """
    lt = np.asarray(log_terms, dtype=float)
    n_blocks = len(lt).bit_length() - 1  # blocks [2**j, 2**(j+1)) inside lt
    if n_blocks < 3:
        return INCONCLUSIVE, math.nan, "too few blocks to classify"
    blocks = _block_logsumexp(lt[1:2 ** n_blocks], 2 ** np.arange(n_blocks))
    # only the trailing blocks carry the asymptotics; early ones still feel
    # slowly varying prefactors
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
    lam = _ls_slope(idx, y)
    detail = (f"block decay exponent {lam:.4f} over trailing {finite_mask.sum()} "
              f"blocks (finite <= {FINITE_BELOW}, divergent >= {DIVERGENT_ABOVE})")
    if lam <= FINITE_BELOW:
        return FINITE, lam, detail
    if lam >= DIVERGENT_ABOVE:
        return DIVERGENT, lam, detail
    return INCONCLUSIVE, lam, detail


# ---------------------------------------------------------------------------
# Shell quadrature
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        from numpy.polynomial.legendre import leggauss  # only when needed
        x, w = leggauss(order)
        _GL_CACHE[order] = ((x + 1.0) / 2.0, w / 2.0)  # on [0, 1]
    return _GL_CACHE[order]


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    """The order-point GL nodes of the [lo_i, hi_i] panels, one row each."""
    x, _ = _gl(order)
    return lo[:, None] + (hi - lo)[:, None] * x


def _shell_edges():
    edges_hi = -LOG2 * np.arange(SHELLS, dtype=float)
    return edges_hi - LOG2, edges_hi


_SHELL_NODES: dict[tuple[int, int], np.ndarray] = {}


def _shell_nodes(order: int) -> np.ndarray:
    """The (SHELLS, order) GL nodes of the dyadic shells, read-only: built
    once per (SHELLS, order), as ``_gl`` builds its nodes once per order.
    The 12- and 24-point blocks of 2048 shells hold 590 KB."""
    key = (SHELLS, order)
    if key not in _SHELL_NODES:
        nodes = _panel_nodes(*_shell_edges(), order)
        nodes.flags.writeable = False
        _SHELL_NODES[key] = nodes
    return _SHELL_NODES[key]


def _node_blocks(nodes: np.ndarray):
    """``BLOCK_NODES // order`` rows of the (panels, order) node array at
    a time: yields the block's first row and its nodes, in node order."""
    rows = BLOCK_NODES // nodes.shape[1]
    for a in range(0, len(nodes), rows):
        yield a, nodes[a:a + rows]


def _panel_values(fn, nodes: np.ndarray, width: np.ndarray,
                  node_data=None) -> np.ndarray:
    """Integral of fn over each panel by fixed-order GL, from the panels'
    (panels, order) nodes and their widths.

    fn runs on ``BLOCK_NODES // order`` panels at a time; every node gets
    the same float operations as in one call on all of them.  Given
    ``node_data`` (one value per node, in node order), fn also receives
    the block's slice of it.
    """
    order = nodes.shape[1]
    _, w = _gl(order)
    vals = np.empty(nodes.shape)
    for a, v in _node_blocks(nodes):
        extra = () if node_data is None else (node_data[a * order:a * order + v.size],)
        vals[a:a + len(v)] = fn(v.ravel(), *extra).reshape(v.shape)
    return width * (vals @ w)


def _shell_node_data(fn) -> dict[int, np.ndarray]:
    """fn on the nodes of the 12- and 24-point passes of
    dyadic_shell_sums, in node order, ``BLOCK_NODES`` nodes at a time."""
    data = {}
    for order in (12, 24):
        nodes = _shell_nodes(order)
        data[order] = np.empty(nodes.size)
        for a, v in _node_blocks(nodes):
            data[order][a * order:a * order + v.size] = fn(v.ravel())
    return data


def dyadic_shell_sums(fn, node_data=None) -> np.ndarray:
    """Per-shell integrals of fn(log r) d(log r) over [2**-(n+1), 2**-n],
    n < SHELLS.

    fn must be vectorised over log radii.  Each shell gets 24-point
    Gauss-Legendre quadrature; shells where the 12-point value disagrees
    beyond 1e-11 (relative to the shell) are re-integrated on four
    subpanels, in one round; that suffices for the piecewise smooth
    integrands used here.  With ``node_data`` from ``_shell_node_data``,
    fn takes its values at a block's nodes as a second argument on the
    12- and 24-point passes; the subpanels get none.  fn receives the
    shells' nodes read-only.
    """
    edges_lo, edges_hi = _shell_edges()
    width = edges_hi - edges_lo
    data = node_data or {}
    coarse = _panel_values(fn, _shell_nodes(12), width, data.get(12))
    fine = _panel_values(fn, _shell_nodes(24), width, data.get(24))
    sums = fine.copy()
    scale = np.maximum(np.abs(fine), 1e-300)
    bad = np.abs(fine - coarse) > 1e-11 * scale
    for i in np.nonzero(bad)[0]:
        sub = np.linspace(edges_lo[i], edges_hi[i], 5)
        sums[i] = _panel_values(fn, _panel_nodes(sub[:-1], sub[1:], 24),
                                np.diff(sub)).sum()
    return sums


def _tail_integral(fn, u0: float) -> float:
    """Integral of fn(-u) du over [u0, inf), via u = e**w unit panels.

    fn is the same log-radius integrand; u = -log r.  Converges whenever
    the integrand decays at least like a power of u; the pieces of at most
    200 panels of 16-point quadrature are summed in order, up to the first
    one from the fourth on under 1e-15 of the running total.

    Panels are evaluated in stages ending at panels 4, 16, 64 and 200, one
    fn call each, until a stage holds the stop.  Most tails stop at the
    fourth panel; panels far past the stop reach subnormal values, whose
    arithmetic is slow, or overflow, and none past the stop is read.  The
    nodes u and the shell integrands' values come from ``_exp``, so the
    integrand's clip floor, which deep panels reach, costs no exp call.
    """
    x, w = _gl(16)
    lo = math.log(u0) + np.arange(200, dtype=float)
    hi = lo + 1.0
    pieces = np.empty(200)
    for start, stop in ((0, 4), (4, 16), (16, 64), (64, 200)):
        with np.errstate(all="ignore"):
            us = _exp(lo[start:stop, None] + (hi - lo)[start:stop, None] * x)
            vals = fn(-us.ravel()).reshape(us.shape) * us
            # row-wise dot products, as np.dot gives them: vals @ w (a
            # matrix product) may sum a row in another order
            pieces[start:stop] = (hi - lo)[start:stop] * np.vecdot(vals, w)
            totals = np.cumsum(pieces[:stop])  # sequential: the running total
            done = np.abs(pieces[:stop]) <= 1e-15 * np.maximum(np.abs(totals), 1e-300)
        done[:3] = False
        if done.any():
            return float(totals[np.argmax(done)])
    return float(totals[-1])


def _log_of(sums: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(sums > 0, np.log(np.maximum(sums, 1e-320)), -math.inf)


def _shell_verdict(fn, node_data=None):
    """Dyadic shell sums of fn, their tail class and, when the tail is
    finite, the continuation below 2**-SHELLS and the total.

    Returns (sums, status, detail, tail, total); tail and total are None
    unless the status is finite.  ``node_data`` is dyadic_shell_sums'.
    """
    sums = dyadic_shell_sums(fn, node_data)
    status, _, detail = classify_log_tail(_log_of(sums))
    if status != FINITE:
        return sums, status, detail, None, None
    tail = _tail_integral(fn, SHELLS * LOG2)
    return sums, status, detail, tail, float(sums.sum() + tail)


def _check_g_increasing(g: GaugeFunction, probe: np.ndarray) -> None:
    d = np.asarray(g.dlog(probe))
    if np.any(d < -1e-12):
        raise GaugeError("g must be increasing: negative slope on the grid")
    if not np.any(d > 0):
        raise GaugeError("g is flat on the entire grid")


def _ratio_integrand(f: GaugeFunction, g: GaugeFunction, shift: float = 0.0):
    """(f(r)/g(t*r)) * dlog g(t*r), the density of -f d(1/g(t.)) in log r.

    ``shift`` is log t; the integral condition reads it at t = 1.  The
    ratio is assembled from the power/slow decomposition of each gauge so
    that shared power factors cancel exactly.  The integrand takes f's
    slowly varying part at its nodes as an optional second argument, for
    callers that hold it from another shift.
    """
    d_alpha = f.exponents[0] - g.exponents[0]
    g_alpha_shift = g.exponents[0] * shift

    def fn(v, f_slow=None):
        v = np.asarray(v, dtype=float)
        vs = v + shift
        # d_alpha * v - g_alpha_shift + f_slow - g_slow(vs), step by step;
        # a power gauge's slow part is 0 and its dlog the constant s
        lr = d_alpha * v
        lr -= g_alpha_shift
        if f.family != "power":
            lr += f.log_value_slow(v) if f_slow is None else f_slow
        if g.family != "power":
            lr -= g.log_value_slow(vs)
        out = _exp(lr, -745.0, 700.0)
        out *= g.s if g.family == "power" else g.dlog(vs)
        return out
    return fn


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------

def check_integral_condition(f: GaugeFunction, g: GaugeFunction) -> ConditionVerdict:
    """Verdict on -integral_0^1 f(r) d(1/g(r)) < infinity.

    The integrand f * g'/g**2 is integrated shell by shell in log-r
    coordinates; when finite, the value includes a continuation integral
    for the truncated tail below 2**-SHELLS.
    """
    probe = -LOG2 * np.arange(1, 64, dtype=float)
    _check_g_increasing(g, probe)
    sums, status, detail, tail, value = _shell_verdict(_ratio_integrand(f, g))
    tail_note = "" if tail is None else f"; tail continuation {tail:.3e}"
    diag = (f"{SHELLS} dyadic shells, quadrature in log r; {detail}{tail_note}")
    return ConditionVerdict(status, value, tuple(sums.tolist()), diag)


def check_limit_condition(f: GaugeFunction, g: GaugeFunction) -> ConditionVerdict:
    """Verdict on lim_{r->0} f(r)/g(r) = 0.

    The ratio is sampled at r = 2**-n with n log-spaced up to 2**60
    (log-space evaluation makes arbitrarily deep radii free), so slowly
    vanishing ratios still certify below the 1e-6 tolerance.
    """
    ns = 2.0 ** np.arange(0, 61)
    v = -ns * LOG2
    lr = np.asarray(log_ratio(f, g, v), dtype=float)
    ratios = _exp(lr, -745.0, 700.0)
    tail = ratios[-12:]
    decreasing = bool(np.all(np.diff(tail) <= 1e-12 * np.maximum(tail[:-1], 1e-300)))
    if decreasing and tail[-1] < 1e-6:
        diag = f"ratio at r = 2^-2^60: {tail[-1]:.3e}; decreasing tail"
        return ConditionVerdict(FINITE, 0.0, tuple(ratios.tolist()), diag)
    lt = np.log(np.maximum(tail, 1e-320))
    slope = _ls_slope(np.arange(len(tail), dtype=float), lt)
    if tail.min() >= 1e-6 and slope >= -0.01:
        diag = f"ratio bounded away from 0 (tail min {tail.min():.3e}, slope {slope:.3f})"
        return ConditionVerdict(DIVERGENT, None, tuple(ratios.tolist()), diag)
    diag = f"tail neither certified zero nor bounded away (last {tail[-1]:.3e})"
    return ConditionVerdict(INCONCLUSIVE, None, tuple(ratios.tolist()), diag)


def check_rate_condition(f: GaugeFunction, g: GaugeFunction) -> ConditionVerdict:
    """Verdict on sup_t g(t) * (-integral_0^1 f(r) d(1/g(t r))) < infinity.

    Each scaled integral is evaluated like the plain integral condition,
    over SHELLS shells; the rescaled values R(t) are then examined for
    boundedness along t = 2**-8, 2**-16, ..., 2**-512.
    """
    log_t = [-(8.0 * 2 ** j) * LOG2 for j in range(7)]
    rates = []
    f_slow = None
    for lt in log_t:
        _, status, detail, _, total = _shell_verdict(
            _ratio_integrand(f, g, shift=lt), f_slow)
        if status != FINITE:
            diag = f"scaled integral at log t = {lt:.1f} is {status}: {detail}"
            return ConditionVerdict(status, None, tuple(rates), diag)
        rates.append(math.exp(g.log_value(lt)) * total)
        if f_slow is None and f.family != "power":
            # the shell nodes do not move with t: the later scales share
            # f's slowly varying part there, built once the first is finite
            f_slow = _shell_node_data(f.log_value_slow)
    w = np.log(-np.asarray(log_t))
    slope = _ls_slope(w, np.log(np.maximum(rates, 1e-320)))
    diag = (f"R(t) over {len(rates)} scales, trend slope {slope:.3f} "
            f"in log(-log t) (finite <= 0.05, divergent >= 0.15)")
    if slope <= 0.05:
        return ConditionVerdict(FINITE, float(max(rates)), tuple(rates), diag)
    if slope >= 0.15:
        return ConditionVerdict(DIVERGENT, None, tuple(rates), diag)
    return ConditionVerdict(INCONCLUSIVE, None, tuple(rates), diag)


def check_length_criterion(f: GaugeFunction) -> ConditionVerdict:
    """Verdict on integral_0^1 f(r)/r**2 dr < infinity.

    Precondition (checked): f(r)/r**2 decreasing, i.e. dlog f <= 2.  A
    finite verdict predicts positive-length projections almost everywhere.
    """
    probe = -LOG2 * np.arange(0, 256, dtype=float) - 0.3
    if np.any(np.asarray(f.dlog(probe)) > 2.0 + 1e-12):
        raise GaugeError("precondition violated: f(r)/r^2 must be decreasing")

    def fn(v):
        lf = np.asarray(f.log_value(v), dtype=float)
        return _exp(lf - v, -745.0, 700.0)

    sums, status, detail, _, value = _shell_verdict(fn)
    note = ("; a.e. projection has positive length predicted"
            if status == FINITE else "")
    diag = f"shell quadrature of f(r)/r^2; {detail}{note}"
    return ConditionVerdict(status, value, tuple(sums.tolist()), diag)


def check_divergence_of_df_over_g(f: GaugeFunction,
                                  g: GaugeFunction) -> ConditionVerdict:
    """Verdict on integral_0^1 df(r)/g(r) via midpoint Stieltjes shell sums.

    Shell n contributes (f(2**-n) - f(2**-(n+1))) / g(xi_n) with xi_n the
    log-scale shell midpoint; everything is assembled in log space so deep
    shells where f itself underflows still participate.
    """
    n = np.arange(SHELLS, dtype=float)
    v_hi = -n * LOG2
    v_lo = v_hi - LOG2
    lf_hi = np.asarray(f.log_value(v_hi), dtype=float)
    lf_lo = np.asarray(f.log_value(v_lo), dtype=float)
    d = lf_lo - lf_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        log_df = np.where(d < 0, lf_hi + np.log(-np.expm1(np.minimum(d, -1e-320))),
                          -math.inf)
    log_g_mid = np.asarray(g.log_value(v_hi - 0.5 * LOG2), dtype=float)
    log_terms = log_df - log_g_mid
    status, lam, detail = classify_log_tail(log_terms)
    value = float(np.exp(_logsumexp(log_terms))) if status == FINITE else None
    diag = f"{SHELLS} Stieltjes shells with log-midpoint evaluation; {detail}"
    with np.errstate(over="ignore"):  # an infinite shell sum is a divergent one
        shell_sums = np.exp(log_terms)
    return ConditionVerdict(status, value, tuple(shell_sums.tolist()), diag)
