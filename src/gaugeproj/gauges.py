"""Dimension (gauge) functions and their scaling diagnostics.

A gauge is an increasing, continuous function f on (0, 1] with f(r) -> 0
as r -> 0.  The three closed families are one law, f(r) = r**alpha *
(beta * (-logstar r))**lam, with the pair ``GaugeFunction.exponents``
(beta = 1 outside powerlog):

* ``power``      f(r) = r**s                              (s, 0),  s > 0
* ``logpower``   f(r) = (-logstar r)**(-s)                (0, -s), s > 0
* ``powerlog``   f(r) = r**delta * (-beta*logstar r)**s   (delta, s), beta > 0
* ``table``      monotone interpolation of (log r, log f) samples, whose
  log f must rise between its first two samples; (first-knot slope, 0)

``logstar r`` is log r for r < 1/2 and log(1/2) above, so every family is
defined for all r > 0.  With alpha, lam > 0 the law has an interior
maximum at r = exp(-lam/alpha); values above that point are clamped to the
maximum so the function stays (weakly) increasing.

All deep evaluation happens in log coordinates: radii far below the
floating-point range are handled through ``GaugeFunction.log_value``,
which never forms exp(log_r).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

LOG_HALF = math.log(0.5)
LOG2 = math.log(2.0)

FAMILIES = ("power", "logpower", "powerlog", "table")


class GaugeError(ValueError):
    """Invalid gauge parameters or evaluation domain."""


class GaugeFitError(GaugeError):
    """A scaling-exponent fit failed (non-doubling or non-codoubling input)."""


@dataclass(frozen=True)
class GaugeFunction:
    """One gauge function with its family tag and exponents.

    Instances are immutable and safe to share across workers; every
    operation on them is a pure function of its inputs.
    """

    family: str
    s: float = 0.0
    delta: float = 0.0
    beta: float = 1.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GaugeError(f"unknown gauge family {self.family!r}")
        if self.family in ("power", "logpower") and not self.s > 0:
            raise GaugeError(f"{self.family} gauge needs s > 0")
        if self.family == "powerlog":
            if not self.beta > 0:
                raise GaugeError("powerlog gauge needs beta > 0")
            if self.delta < 0:
                raise GaugeError("powerlog gauge needs delta >= 0")
            if self.delta == 0 and self.s >= 0:
                raise GaugeError("powerlog with delta = 0 needs s < 0 to vanish at 0")
        if self.family != "powerlog" and self.beta != 1.0:
            raise GaugeError("beta belongs to the powerlog family")
        if self.family == "table":
            if self.table is None or len(self.table) < 2:
                raise GaugeError("table gauge needs at least two (log r, log f) samples")
            log_r, log_f = zip(*self.table)
            if any(b <= a for a, b in zip(log_r, log_r[1:])):
                raise GaugeError("table log r values must be strictly increasing")
            if any(b < a for a, b in zip(log_f, log_f[1:])):
                raise GaugeError("table log f values must be non-decreasing")
            if log_f[1] == log_f[0]:
                raise GaugeError("table log f must rise between its first two "
                                 "samples, or f does not vanish at 0")

    @functools.cached_property
    def exponents(self) -> tuple[float, float]:
        """(alpha, lam) of the law f(r) = r**alpha * (beta*(-logstar r))**lam;
        a table gives (first-knot slope, 0), its behaviour as r -> 0."""
        if self.family == "power":
            return (self.s, 0.0)
        if self.family == "logpower":
            return (0.0, -self.s)
        if self.family == "powerlog":
            return (self.delta, self.s)
        (v0, f0), (v1, f1) = self.table[:2]
        return ((f1 - f0) / (v1 - v0), 0.0)

    @functools.cached_property
    def _clamp_v(self) -> float:
        """log r of the law's interior maximum, where alpha, lam > 0; inf
        when there is none or it lies above the logstar cutoff."""
        alpha, lam = self.exponents
        v_m = -lam / alpha if alpha > 0 and lam > 0 else math.inf
        return v_m if v_m < LOG_HALF else math.inf

    @functools.cached_property
    def _clamp_peak(self) -> float:
        """log f at the clamp point, its maximum."""
        return self.log_value(self._clamp_v)

    def _log_term(self, vc: np.ndarray) -> np.ndarray:
        """lam * log(beta * max(-vc, LOG2)), step by step in place on a
        fresh array, so each step is the float op of the formula.  Where
        beta * -vc overflows (beta > 1, |vc| near the float range), the
        log is log beta + log(-vc) instead, so log f stays finite."""
        u = np.negative(vc, out=np.empty_like(vc))
        np.maximum(u, LOG2, out=u)
        if self.beta != 1.0:
            with np.errstate(over="ignore"):
                np.multiply(self.beta, u, out=u)
        np.log(u, out=u)
        if self.beta > 1.0:
            over = np.isinf(u)
            if over.any():
                over &= np.isfinite(vc)
                u[over] = math.log(self.beta) + np.log(-vc[over])
        return np.multiply(self.exponents[1], u, out=u)

    def log_value(self, log_r):
        """log f(e**log_r), computed without forming e**log_r.

        The law alpha * vc + lam * log(beta * max(-vc, LOG2)), with
        vc = min(v, clamp), runs on working arrays of its own, never on the
        caller's array; a term whose exponent is 0 is left out.
        """
        v = np.asarray(log_r, dtype=float)
        alpha, lam = self.exponents
        if self.family == "table":
            knots = np.asarray(self.table, dtype=float)
            out = np.interp(v, knots[:, 0], knots[:, 1])
            # linear extrapolation below the first knot; constant above the last
            below = v < knots[0, 0]
            if np.any(below):
                out = np.where(below, knots[0, 1] + alpha * (v - knots[0, 0]), out)
        elif not lam:
            out = alpha * v
        else:
            # vc is a working array only under a power factor, the one
            # term that can clamp; it then holds alpha * vc and the sum
            vc = np.minimum(v, self._clamp_v, out=np.empty_like(v)) if alpha else v
            out = self._log_term(vc)
            if alpha:
                # at r = 0 the power factor wins: -inf, not -inf + inf; the
                # min keeps the mask out of the common case
                if lam > 0 and not vc.min(initial=math.inf) > -math.inf:
                    np.copyto(out, 0.0, where=np.isneginf(vc))
                out = np.add(np.multiply(alpha, vc, out=vc), out, out=vc)
        return out if out.ndim else float(out)

    def dlog(self, log_r):
        """Derivative of log f with respect to log r (piecewise constant or smooth).

        Zero on clamped/flat regions (r above the logstar cutoff or a powerlog
        maximum); this is what makes Stieltjes integrands vanish there.
        """
        v = np.asarray(log_r, dtype=float)
        alpha, lam = self.exponents
        if self.family == "table":
            knots = np.asarray(self.table, dtype=float)
            slopes = np.diff(knots[:, 1]) / np.diff(knots[:, 0])
            idx = np.clip(np.searchsorted(knots[:, 0], v, side="right") - 1,
                          0, len(slopes) - 1)
            out = np.where(v >= knots[-1, 0], 0.0, slopes[idx])
        elif not lam:
            out = np.full_like(v, alpha)
        else:
            out = np.where(v < LOG_HALF, alpha + lam / np.minimum(v, -LOG2), alpha)
            if alpha:
                out = np.where(v >= self._clamp_v, 0.0, out)
        return out if out.ndim else float(out)

    def log_value_slow(self, log_r):
        """The slowly varying part phi(v) = log f(v) - alpha * v.

        Kept separate so ratios of gauges sharing a power factor can be
        formed without catastrophic cancellation at extreme depths.
        """
        v = np.asarray(log_r, dtype=float)
        alpha, lam = self.exponents
        if self.family == "table":
            knots = np.asarray(self.table, dtype=float)
            out = np.interp(v, knots[:, 0], knots[:, 1]) - alpha * v
            out = np.where(v < knots[0, 0], knots[0, 1] - alpha * knots[0, 0], out)
        elif not lam:
            out = np.zeros_like(v)
        else:
            vc = np.minimum(v, self._clamp_v) if alpha else v
            out = self._log_term(vc)
            if alpha:
                # alpha * (vc - v), written so that r = 0 adds 0, not NaN
                out += alpha * np.minimum(self._clamp_v - v, 0.0)
        return out if out.ndim else float(out)

    def log_value_deep(self, log_u):
        """log f(r) parametrised by w = log(-log r), for radii so deep that
        even log r overflows the float range.

        Power factors honestly underflow to -inf there; log factors stay
        linear in w.  Used by the series machinery, where -log psi(q) can
        reach e**(tau * log q).  Only alpha > 0 forms u = -log r = e**w,
        taking u = inf past w = 709 without calling exp, which is slow near
        overflow; with alpha = 0 the law reads w alone.
        """
        w = np.asarray(log_u, dtype=float)
        alpha, lam = self.exponents
        if alpha:
            v = -np.exp(w, out=np.full_like(w, np.inf), where=~(w > 709.0))
        if self.family == "table":
            knots = np.asarray(self.table, dtype=float)
            shallow = np.isfinite(v) & (v >= knots[0, 0])
            out = np.where(shallow, self.log_value(np.where(shallow, v, 0.0)),
                           alpha * v + (knots[0, 1] - alpha * knots[0, 0]))
        elif not lam:
            out = alpha * v
        else:
            # past w = 709 a power factor is -inf whatever the log term, so
            # w is capped there: r = 0 (w = inf) gives -inf, not NaN
            wl = (np.clip(w, math.log(LOG2), 709.0) if alpha
                  else np.maximum(w, math.log(LOG2)))
            out = lam * (math.log(self.beta) + wl) if self.beta != 1.0 else lam * wl
            if alpha:
                out = alpha * v + out
                if math.isfinite(self._clamp_v):
                    out = np.where(v >= self._clamp_v, self._clamp_peak, out)
        return out if out.ndim else float(out)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise GaugeError("gauge argument must be positive")
        out = np.exp(self.log_value(np.log(r)))
        return out if out.ndim else float(out)

    def reciprocal(self, r):
        """1/f(r), vectorised; the power family skips the log/exp round trip
        (this sits in every energy hot loop).  Other families negate and
        exponentiate log_value's fresh array in place."""
        r = np.asarray(r, dtype=float)
        out = self._reciprocal(r, None if self.family == "power" else np.log(r))
        return out if out.ndim else float(out)

    def _reciprocal(self, r: np.ndarray, log_r) -> np.ndarray:
        """1/f(r) for a caller that holds log r as well: the power family
        reads r alone, the others ``log_r`` alone."""
        if self.family == "power":
            return r ** (-self.s)
        out = np.asarray(self.log_value(log_r))
        np.negative(out, out=out)
        np.exp(out, out=out)
        return out

    @functools.cached_property
    def doubling(self) -> ExponentFit:
        """doubling_exponent on the default radius grid, fitted once per
        instance and shared by every reader of this gauge."""
        return doubling_exponent(self)

    def to_dict(self) -> dict:
        doc: dict = {"family": self.family}
        if self.family == "power" or self.family == "logpower":
            doc["s"] = self.s
        elif self.family == "powerlog":
            doc.update(delta=self.delta, s=self.s, beta=self.beta)
        else:
            doc["table"] = [list(p) for p in self.table]
        return doc


def power(s: float) -> GaugeFunction:
    return GaugeFunction("power", s=s)


def log_power(s: float) -> GaugeFunction:
    return GaugeFunction("logpower", s=s)


def power_log(delta: float, s: float, beta: float = 1.0) -> GaugeFunction:
    return GaugeFunction("powerlog", s=s, delta=delta, beta=beta)


def tabulated(samples) -> GaugeFunction:
    return GaugeFunction("table", table=tuple((float(a), float(b)) for a, b in samples))


def parse_gauge(doc: dict) -> GaugeFunction:
    """Build a gauge from its JSON object form.

    Accepted shape: {"family": "power"|"logpower"|"powerlog"|"table",
    "s": ..., "delta": ..., "beta": ..., "table": [[log_r, log_f], ...]}.
    """
    if not isinstance(doc, dict):
        raise GaugeError("gauge spec must be a JSON object")
    family = doc.get("family")
    known = {"family", "s", "delta", "beta", "table"}
    extra = set(doc) - known
    if extra:
        raise GaugeError(f"unknown gauge keys: {sorted(extra)}")
    if family == "power":
        return power(spec_float(doc, "s"))
    if family == "logpower":
        return log_power(spec_float(doc, "s"))
    if family == "powerlog":
        return power_log(spec_float(doc, "delta"), spec_float(doc, "s"),
                         spec_float(doc, "beta", 1.0))
    if family == "table":
        if "table" not in doc:
            raise GaugeError("spec lacks key 'table'")
        table = doc["table"]
        if not (isinstance(table, (list, tuple)) and all(
                isinstance(p, (list, tuple)) and len(p) == 2
                and all(map(is_finite_number, p)) for p in table)):
            raise GaugeError("spec key 'table' must list [log_r, log_f] "
                             "number pairs")
        return tabulated(table)
    raise GaugeError(f"unknown gauge family {family!r}")


def is_finite_number(value) -> bool:
    """Whether a parsed JSON value is a finite number (booleans are not)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def spec_float(doc: dict, key: str, default: float | None = None) -> float:
    """``doc[key]`` as a float; GaugeError naming the key when it is missing
    (and has no default) or not a finite JSON number."""
    if key not in doc:
        if default is None:
            raise GaugeError(f"spec lacks key {key!r}")
        return default
    if not is_finite_number(doc[key]):
        raise GaugeError(f"spec key {key!r} is not a number: {doc[key]!r}")
    return float(doc[key])


def log_ratio(f: GaugeFunction, g: GaugeFunction, log_r):
    """log(f(r)/g(r)) formed stably even when f and g share a power factor."""
    v = np.asarray(log_r, dtype=float)
    out = ((f.exponents[0] - g.exponents[0]) * v
           + np.asarray(f.log_value_slow(v)) - np.asarray(g.log_value_slow(v)))
    return out if out.ndim else float(out)


def log_radius_grid(decades: float = 120.0) -> np.ndarray:
    """Log radii (natural log), 64 per decade, descending from 10**-2."""
    n = int(round(decades * 64)) + 1
    log10_r = np.linspace(-2.0, -2.0 - decades, n)
    return log10_r * math.log(10.0)


@dataclass(frozen=True)
class ExponentFit:
    """Fitted scaling exponent s with the prefactor kappa of
    f(lambda*r) >= kappa * lambda**s * f(r)   (doubling side), or
    f(lambda*r) <= kappa * lambda**s * f(r)   (codoubling side).

    ``constant`` is the implied doubling constant 2**s.
    """

    s: float
    kappa: float
    constant: float


def _as_log_grid(log_grid) -> np.ndarray:
    """The log radii in descending order; log_radius_grid() when None."""
    if log_grid is None:
        log_grid = log_radius_grid()
    v = np.sort(np.asarray(log_grid, dtype=float))[::-1]
    if len(v) < 16:
        raise GaugeError("grid needs at least 16 points")
    if v[0] - v[-1] < 6 * math.log(10.0):
        raise GaugeError("grid must span at least 6 decades")
    return v


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x: every fitted exponent of the
    package (doubling, block decay, limit and rate trends, series and
    cover-cost trends) is this one fit."""
    x0 = x - x.mean()
    return float(np.dot(x0, y) / np.dot(x0, x0))


def _pair_margins(v: np.ndarray, log_f: np.ndarray, s: float) -> np.ndarray:
    """log f(v_i) - log f(v_j) - s*(v_i - v_j) over strided (deep i, shallow j) pairs."""
    margins = []
    n = len(v)
    stride = 1
    while stride < n:
        margins.append((log_f[stride:] - log_f[:-stride]) - s * (v[stride:] - v[:-stride]))
        stride *= 8
    return np.concatenate(margins)


def doubling_exponent(f: GaugeFunction, *, log_grid=None) -> ExponentFit:
    """Least-squares scaling exponent with the largest kappa <= 1 for which
    f(lambda*r) >= kappa * lambda**s * f(r) holds on all sampled grid pairs.

    Exact power laws come back as (s, 1); slowly varying gauges report the
    grid-average slope, which sinks toward the asymptotic exponent as the
    grid extends.
    """
    v = _as_log_grid(log_grid)
    log_f = np.asarray(f.log_value(v), dtype=float)
    s = _ls_slope(v, log_f)
    if not math.isfinite(s):
        raise GaugeFitError("slope fit failed on this grid")
    margins = _pair_margins(v, log_f, s)
    worst = float(margins.min())
    if worst < -50.0:
        raise GaugeFitError(
            f"no finite doubling exponent fits: prefactor collapses to e^{worst:.1f}")
    kappa = 1.0 if worst >= -1e-9 else math.exp(min(worst, 0.0))
    return ExponentFit(s, kappa, 2.0 ** s)


def codoubling_exponent(f: GaugeFunction, *, log_grid=None) -> ExponentFit:
    """Largest exponent s with f(lambda*r) <= kappa * lambda**s * f(r) on the grid.

    Fails for gauges whose local slope collapses toward zero at depth
    (they decay slower than any power, so no positive exponent works).
    """
    v = _as_log_grid(log_grid)
    log_f = np.asarray(f.log_value(v), dtype=float)
    q = len(v) // 4
    s_head = _ls_slope(v[:q], log_f[:q])
    s_tail = _ls_slope(v[-q:], log_f[-q:])
    if s_tail <= max(0.15 * s_head, 1e-3):
        raise GaugeFitError(
            f"codoubling fails: deep-grid slope {s_tail:.4f} collapses "
            f"(shallow slope {s_head:.4f}); no s > 0 fits")
    half = len(v) // 2
    s = _ls_slope(v[half:], log_f[half:])
    margins = _pair_margins(v, log_f, s)
    best = float(margins.max())
    kappa = 1.0 if best <= 1e-9 else math.exp(best)
    return ExponentFit(s, kappa, 2.0 ** s)


def doubling_constant(f: GaugeFunction, *, log_grid=None) -> float:
    """Largest sampled ratio f(2r)/f(r), the doubling constant witnessed on the grid."""
    v = _as_log_grid(log_grid)
    v = v[v + LOG2 <= 0.0]
    ratios = np.asarray(f.log_value(v + LOG2)) - np.asarray(f.log_value(v))
    return float(np.exp(ratios.max()))


def doubling_roundtrip_violations(f: GaugeFunction, c: float, n_pairs: int,
                                  seed: int, *, log_grid=None) -> int:
    """Count violations of f(lambda*r) >= (1/c) * lambda**log2(c) * f(r),
    beyond a log-space slack of 1e-9, on random (lambda, r) pairs drawn
    from the grid range."""
    v = _as_log_grid(log_grid)
    v_min, v_max = float(v[-1]), float(v[0])
    rng = np.random.default_rng(seed)
    log_r = rng.uniform(v_min, v_max, n_pairs)
    log_lam = rng.uniform(v_min - log_r, 0.0)
    s = math.log2(c)
    lhs = np.asarray(f.log_value(log_r + log_lam))
    rhs = -math.log(c) + s * log_lam + np.asarray(f.log_value(log_r))
    return int(np.sum(lhs < rhs - 1e-9))
