"""Series criteria for simultaneously approximable sets and the gap bands.

The measure of the set of points admitting infinitely many rational
approximations at rate psi is decided by the series sum over q of
q**k f(psi(q)): zero when it converges, full when it diverges (for
gauges with r**-k f(r) monotone).  Everything here works on the log of
the terms, so approximation rates as steep as exp(-q**tau) are handled
at any depth via the log(-log psi) parametrisation.  The deep octaves
are built and reduced ``conditions.BLOCK_NODES`` quadrature nodes at a
time, so the default 16 384 blocks never hold all 16 373 x 24 nodes at
once; each octave's sum depends on its own nodes alone.

The gap report classifies, for the family r**delta * (-log* r / tau)**s,
where a given s sits relative to the projection theory: small s collapses
for every direction, large s is infinite almost everywhere, and the band
in between is genuinely open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import (BLOCK_NODES, ConditionVerdict, FINITE, DIVERGENT,
                         _block_logsumexp, _exp, _logsumexp, classify_log_tail,
                         check_integral_condition)
from .gauges import (LOG2, GaugeFunction, GaugeError, _ls_slope, power_log,
                     spec_float)

APPROX_FAMILIES = ("exp_power", "power_log_power", "pure_power")


@dataclass(frozen=True)
class ApproxFunction:
    """A decreasing approximation-rate function of the integer denominator."""

    family: str
    tau: float

    def __post_init__(self):
        if self.family not in APPROX_FAMILIES:
            raise GaugeError(f"unknown approximation family {self.family!r}")
        if not self.tau > 0:
            raise GaugeError("rate exponent tau must be positive")

    def log_psi(self, log_q):
        """log psi(q) as a function of log q (may be -inf for steep rates)."""
        lq = np.asarray(log_q, dtype=float)
        if self.family == "exp_power":
            out = -np.exp(np.minimum(self.tau * lq, 709.0))
        elif self.family == "power_log_power":
            out = -self.tau * (lq + np.log(lq))
        else:
            out = -self.tau * lq
        return out if out.ndim else float(out)

    def log_depth(self, log_q):
        """log(-log psi(q)): the stable parametrisation for steep rates."""
        lq = np.asarray(log_q, dtype=float)
        if self.family == "exp_power":
            out = self.tau * lq
        elif self.family == "power_log_power":
            out = math.log(self.tau) + np.log(lq + np.log(lq))
        else:
            out = math.log(self.tau) + np.log(lq)
        return out if out.ndim else float(out)


def exp_power(tau: float) -> ApproxFunction:
    return ApproxFunction("exp_power", tau)


def power_log_power(tau: float) -> ApproxFunction:
    return ApproxFunction("power_log_power", tau)


def parse_approx(doc: dict) -> ApproxFunction:
    if not isinstance(doc, dict) or set(doc) - {"family", "tau"}:
        raise GaugeError("approximation spec must be {family, tau}")
    if "family" not in doc:
        raise GaugeError("spec lacks key 'family'")
    return ApproxFunction(doc["family"], spec_float(doc, "tau"))


def _term_log(f: GaugeFunction, psi: ApproxFunction, k: int,
              lq: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = k * lq + np.asarray(f.log_value_deep(psi.log_depth(lq)), dtype=float)
    np.copyto(out, -math.inf, where=np.isnan(out))
    return out


@dataclass(frozen=True)
class SeriesVerdict:
    """Convergence verdict plus the measure statement it implies."""

    verdict: ConditionVerdict
    measure_statement: str
    fitted_exponent: float

    @property
    def converges(self) -> bool:
        return self.verdict.status == FINITE

    @property
    def diverges(self) -> bool:
        return self.verdict.status == DIVERGENT


def _check_monotone_premise(f: GaugeFunction, psi: ApproxFunction, k: int,
                            n_blocks: int) -> None:
    # r**-k f(r) must be monotone over the sampled psi range
    lq = LOG2 * np.arange(1, min(n_blocks, 64) + 1, dtype=float)
    t = np.asarray(f.log_value_deep(psi.log_depth(lq)), dtype=float)
    vals = t - k * np.asarray(psi.log_psi(lq), dtype=float)
    vals = vals[np.isfinite(vals)]
    d = np.diff(vals)
    if len(d) and not (np.all(d >= -1e-9) or np.all(d <= 1e-9)):
        raise GaugeError(
            "premise violated: r**-k f(r) is not monotone on the sampled range")


def _octave_log_sums(f: GaugeFunction, psi: ApproxFunction, k: int,
                     n_blocks: int) -> np.ndarray:
    """log of the series sum over each octave q in [2**n, 2**(n+1)), n >= 1.

    Octaves up to q = 4096 are summed exactly; beyond that the sum is a
    midpoint quadrature of q**k f(psi(q)) dq in log q, which preserves the
    tail trend the classifier reads, over one block of octaves at a time.
    """
    exact_until = min(11, n_blocks)
    out = np.empty(n_blocks)
    lq = np.log(np.arange(2, 2 ** (exact_until + 1), dtype=float))
    out[:exact_until] = _block_logsumexp(_term_log(f, psi, k, lq),
                                         2 ** np.arange(1, exact_until + 1))
    nodes = 24
    x = (np.arange(nodes) + 0.5) / nodes
    rows = BLOCK_NODES // nodes
    for a in range(exact_until, n_blocks, rows):
        ns = np.arange(a + 1, min(a + rows, n_blocks) + 1, dtype=float)
        lq = (ns[:, None] + x) * LOG2
        terms = _term_log(f, psi, k, lq.ravel()).reshape(lq.shape)
        terms += lq
        # octave sum ~ integral of e**(term + log q) d log q
        out[a:a + len(ns)] = _logsumexp(terms) + math.log(LOG2 / nodes)
    return out


def classify_series(f: GaugeFunction, psi: ApproxFunction, k: int,
                    n_blocks: int = 16384) -> SeriesVerdict:
    """Convergence verdict for the series sum over q of q**k f(psi(q)).

    Deep octaves are what separate the critical cases: slowly varying
    factors of the power-log family masquerade as decay thousands of
    octaves in, so the default block count is much larger than the
    exactly-summed range.  The verdict reads only the tail trend, which
    the per-octave quadrature preserves.
    """
    if k < 1:
        raise GaugeError("ambient dimension k must be >= 1")
    if n_blocks < 0:
        raise GaugeError("block count must be >= 0")
    _check_monotone_premise(f, psi, k, n_blocks)
    log_blocks = _octave_log_sums(f, psi, k, n_blocks)
    status, lam, detail = classify_log_tail(log_blocks)
    value = float(np.exp(_logsumexp(log_blocks))) if status == FINITE else None

    lq = LOG2 * np.arange(2, 42, dtype=float)
    terms = _term_log(f, psi, k, lq)
    good = np.isfinite(terms)
    if good.sum() >= 2:
        fitted = _ls_slope(lq[good], terms[good])
    else:
        fitted = -math.inf

    if status == FINITE:
        statement = "series converges: the approximable set is null for this gauge"
    elif status == DIVERGENT:
        statement = ("series diverges: the approximable set has full gauge "
                     "measure (infinite when the unit-cube measure is)")
    else:
        statement = "series trend inconclusive at this block depth"
    diag = f"{n_blocks} octave blocks; {detail}"
    block_sums = _exp(np.minimum(log_blocks, 700.0))
    verdict = ConditionVerdict(status, value, tuple(block_sums.tolist()), diag)
    return SeriesVerdict(verdict, statement, fitted)


# ---------------------------------------------------------------------------
# Gap report
# ---------------------------------------------------------------------------

ZERO_BAND = "zero for all directions"
GAP_BAND = "gap of uncertainty: unknown"
INFINITE_BAND = "infinite for almost every direction"


@dataclass(frozen=True)
class RegimeRow:
    s: float
    band: str
    integral_status: str
    consistent: bool


@dataclass(frozen=True)
class RegimeReport:
    """Band classification of the family r**delta (-log* r / tau)**s.

    Bands (with k the ambient dimension): s <= k collapses under every
    projection, s > k+1 is infinite for almost every direction, and the
    band in between is labelled unknown, never guessed.  Each sampled s
    carries the integral-condition cross-check (finite exactly when
    s > k+1).
    """

    delta: float
    k: int
    tau: float
    bands: tuple[tuple[float, float, str], ...]
    rows: tuple[RegimeRow, ...]

    def classify(self, s: float) -> str:
        return _band(self.bands, s)


def _band(bands, s: float) -> str:
    """The label of the band (lo, hi] holding s; the bands cover every
    positive finite s."""
    if not (math.isfinite(s) and s > 0):
        raise GaugeError(f"exponent s must be a positive finite number, got {s}")
    return next(label for lo, hi, label in bands if lo < s <= hi)


def gap_report(delta: float, k: int = 2, s_values=None) -> RegimeReport:
    """Regime classification for the gauge family of the approximable set
    of dimension delta, cross-checked per sampled s by the integral
    condition on (f_{delta,k}, f_{delta,s})."""
    if not 0 < delta < 1:
        raise GaugeError("delta must lie in (0, 1), i.e. tau > k+1")
    if k < 1:
        raise GaugeError("ambient dimension k must be >= 1")
    tau = (k + 1) / delta
    bands = (
        (0.0, float(k), ZERO_BAND),
        (float(k), float(k + 1), GAP_BAND),
        (float(k + 1), math.inf, INFINITE_BAND),
    )
    if s_values is None:
        s_values = (k - 0.5, k + 0.5, k + 1.5)
    f_ref = power_log(delta, float(k), 1.0 / tau)
    rows = []
    for s in s_values:
        s = float(s)
        label = _band(bands, s)
        status = check_integral_condition(
            f_ref, power_log(delta, s, 1.0 / tau)).status
        consistent = (status == FINITE) == (label == INFINITE_BAND)
        rows.append(RegimeRow(s, label, status, consistent))
    return RegimeReport(delta, k, tau, bands, tuple(rows))
