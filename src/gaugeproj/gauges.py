"""Dimension (gauge) functions and their scaling diagnostics.

A gauge is an increasing, continuous function f on (0, 1] with f(r) -> 0
as r -> 0.  Four families are provided:

* ``power``      f(r) = r**s                        (s > 0)
* ``logpower``   f(r) = (-logstar r)**(-s)          (s > 0)
* ``powerlog``   f(r) = r**delta * (-beta*logstar r)**s   (beta > 0)
* ``table``      monotone interpolation of (log r, log f) samples

``logstar r`` is log r for r < 1/2 and log(1/2) above, so every family is
defined for all r > 0.  The powerlog family with s > 0 has an interior
maximum at r = exp(-s/delta); values above that point are clamped to the
maximum so the function stays (weakly) increasing.

All deep evaluation happens in log coordinates: radii far below the
floating-point range are handled through ``evaluate_log``, which never
forms exp(log_r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_HALF = math.log(0.5)
LOG2 = math.log(2.0)

FAMILIES = ("power", "logpower", "powerlog", "table")


class GaugeError(ValueError):
    """Invalid gauge parameters or evaluation domain."""


class GaugeFitError(GaugeError):
    """A scaling-exponent fit failed (non-doubling or non-codoubling input)."""


class EvaluationUnderflow(GaugeError):
    """evaluate() underflowed; use evaluate_log instead."""


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
        if self.family == "power" and not self.s > 0:
            raise GaugeError("power gauge needs s > 0")
        if self.family == "logpower" and not self.s > 0:
            raise GaugeError("logpower gauge needs s > 0")
        if self.family == "powerlog":
            if not self.beta > 0:
                raise GaugeError("powerlog gauge needs beta > 0")
            if self.delta < 0:
                raise GaugeError("powerlog gauge needs delta >= 0")
            if self.delta == 0 and self.s >= 0:
                raise GaugeError("powerlog with delta = 0 needs s < 0 to vanish at 0")
        if self.family == "table":
            if self.table is None or len(self.table) < 2:
                raise GaugeError("table gauge needs at least two (log r, log f) samples")
            log_r = [p[0] for p in self.table]
            log_f = [p[1] for p in self.table]
            if any(b <= a for a, b in zip(log_r, log_r[1:])):
                raise GaugeError("table log r values must be strictly increasing")
            if any(b < a for a, b in zip(log_f, log_f[1:])):
                raise GaugeError("table log f values must be non-decreasing")

    # -- clamp point of the powerlog family (log-radius of its maximum) ----
    @property
    def _clamp_v(self) -> float:
        if self.family != "powerlog" or self.s <= 0 or self.delta <= 0:
            return math.inf
        v_m = -self.s / self.delta
        return v_m if v_m < LOG_HALF else math.inf

    def log_value(self, log_r):
        """log f(e**log_r), computed without forming e**log_r.

        The logpower and powerlog formulas (in the comments) run step by
        step in place on working arrays of their own, never on the
        caller's array, so each step is the float op of the formula.
        """
        v = np.asarray(log_r, dtype=float)
        if self.family == "power":
            out = self.s * v
        elif self.family == "logpower":
            # -s * log(max(-v, LOG2))
            out = np.negative(v, out=np.empty_like(v))
            np.maximum(out, LOG2, out=out)
            np.log(out, out=out)
            np.multiply(-self.s, out, out=out)
        elif self.family == "powerlog":
            # delta * vc + s * log(beta * max(-vc, LOG2)),  vc = min(v, clamp)
            vc = np.minimum(v, self._clamp_v, out=np.empty_like(v))
            u = np.negative(vc, out=np.empty_like(vc))
            np.maximum(u, LOG2, out=u)
            np.multiply(self.beta, u, out=u)
            np.log(u, out=u)
            np.multiply(self.s, u, out=u)
            out = np.multiply(self.delta, vc, out=vc)
            np.add(out, u, out=out)
        else:
            knots = np.asarray(self.table, dtype=float)
            out = np.interp(v, knots[:, 0], knots[:, 1])
            # linear extrapolation below the first knot; constant above the last
            slope0 = (knots[1, 1] - knots[0, 1]) / (knots[1, 0] - knots[0, 0])
            below = v < knots[0, 0]
            if np.any(below):
                out = np.where(below, knots[0, 1] + slope0 * (v - knots[0, 0]), out)
        return out if out.ndim else float(out)

    def dlog(self, log_r):
        """Derivative of log f with respect to log r (piecewise constant or smooth).

        Zero on clamped/flat regions (r above the logstar cutoff or a powerlog
        maximum); this is what makes Stieltjes integrands vanish there.
        """
        v = np.asarray(log_r, dtype=float)
        if self.family == "power":
            out = np.full_like(v, self.s)
        elif self.family == "logpower":
            out = np.where(v < LOG_HALF, -self.s / np.minimum(v, -LOG2), 0.0)
        elif self.family == "powerlog":
            out = np.where(v < LOG_HALF, self.delta + self.s / np.minimum(v, -LOG2),
                           self.delta)
            out = np.where(v >= self._clamp_v, 0.0, out)
        else:
            knots = np.asarray(self.table, dtype=float)
            slopes = np.diff(knots[:, 1]) / np.diff(knots[:, 0])
            idx = np.clip(np.searchsorted(knots[:, 0], v, side="right") - 1,
                          0, len(slopes) - 1)
            out = slopes[idx]
            out = np.where(v >= knots[-1, 0], 0.0, out)
        return out if out.ndim else float(out)

    @property
    def power_part(self) -> float:
        """The exponent alpha of the exact power factor in log f = alpha*v + phi(v)."""
        if self.family == "power":
            return self.s
        if self.family == "powerlog":
            return self.delta
        if self.family == "table":
            knots = self.table
            return (knots[1][1] - knots[0][1]) / (knots[1][0] - knots[0][0])
        return 0.0

    def log_value_slow(self, log_r):
        """The slowly varying part phi(v) = log f(v) - power_part * v.

        Kept separate so ratios of gauges sharing a power factor can be
        formed without catastrophic cancellation at extreme depths.
        """
        v = np.asarray(log_r, dtype=float)
        if self.family == "power":
            out = np.zeros_like(v)
        elif self.family == "logpower":
            out = np.asarray(self.log_value(v), dtype=float)
        elif self.family == "powerlog":
            vc = np.minimum(v, self._clamp_v)
            u = np.maximum(-vc, LOG2)
            out = self.s * np.log(self.beta * u) + self.delta * (vc - v)
        else:
            knots = np.asarray(self.table, dtype=float)
            alpha = self.power_part
            out = np.interp(v, knots[:, 0], knots[:, 1]) - alpha * v
            out = np.where(v < knots[0, 0], knots[0, 1] - alpha * knots[0, 0], out)
        return out if out.ndim else float(out)

    def log_value_deep(self, log_u):
        """log f(r) parametrised by w = log(-log r), for radii so deep that
        even log r overflows the float range.

        Power-type factors honestly underflow to -inf there; log-type
        factors stay linear in w.  Used by the series machinery, where
        -log psi(q) can reach e**(tau * log q).
        """
        w = np.asarray(log_u, dtype=float)
        u = np.exp(np.minimum(w, 709.0))
        u = np.where(w > 709.0, np.inf, u)
        v = -u
        if self.family == "power":
            out = self.s * v
        elif self.family == "logpower":
            out = -self.s * np.maximum(w, math.log(LOG2))
        elif self.family == "powerlog":
            wl = np.maximum(w, math.log(LOG2))
            radial = self.delta * v if self.delta else np.zeros_like(v)
            out = radial + self.s * (math.log(self.beta) + wl)
            if math.isfinite(self._clamp_v):
                peak = self.log_value(self._clamp_v)
                out = np.where(v >= self._clamp_v, peak, out)
        else:
            alpha = self.power_part
            knots = np.asarray(self.table, dtype=float)
            deep_const = knots[0, 1] - alpha * knots[0, 0]
            radial = alpha * v if alpha else np.zeros_like(v)
            shallow = np.isfinite(v) & (v >= knots[0, 0])
            out = np.where(shallow, self.log_value(np.where(shallow, v, 0.0)),
                           radial + deep_const)
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
        if self.family == "power":
            out = r ** (-self.s)
        else:
            out = np.asarray(self.log_value(np.log(r)))
            np.negative(out, out=out)
            np.exp(out, out=out)
        return out if out.ndim else float(out)

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


def growth_partner(f: GaugeFunction) -> GaugeFunction:
    """The companion gauge g(r) = f(r * log(1/r)) of a power gauge.

    For f(r) = r**s this is r**s * (-log r)**s, the canonical pair whose
    projected cover costs the disc construction drives to zero.
    """
    if f.family != "power":
        raise GaugeError("growth partner is defined for power gauges")
    return power_log(f.s, f.s, 1.0)


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
        try:
            samples = [(float(a), float(b)) for a, b in doc["table"]]
        except (TypeError, ValueError):
            raise GaugeError("spec key 'table' must list [log_r, log_f] "
                             "number pairs") from None
        return tabulated(samples)
    raise GaugeError(f"unknown gauge family {family!r}")


def spec_float(doc: dict, key: str, default: float | None = None) -> float:
    """``doc[key]`` as a float; GaugeError naming the key when it is missing
    (and has no default) or not a number."""
    if key not in doc:
        if default is None:
            raise GaugeError(f"spec lacks key {key!r}")
        return default
    try:
        return float(doc[key])
    except (TypeError, ValueError):
        raise GaugeError(f"spec key {key!r} is not a number: {doc[key]!r}") from None


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------

def evaluate(f: GaugeFunction, r: float) -> float:
    """f(r) in linear coordinates.

    Raises EvaluationUnderflow when the result is not representable; deep
    radii should go through evaluate_log.
    """
    if r <= 0:
        raise GaugeError("gauge argument must be positive")
    log_val = f.log_value(math.log(r))
    val = math.exp(log_val) if log_val > -745 else 0.0
    if val == 0.0:
        raise EvaluationUnderflow(
            f"f(r) underflows at log r = {math.log(r):.3g}; use evaluate_log")
    return val


def evaluate_log(f: GaugeFunction, log_r: float):
    """log f(e**log_r); the primitive all deep machinery uses."""
    return f.log_value(log_r)


def log_ratio(f: GaugeFunction, g: GaugeFunction, log_r):
    """log(f(r)/g(r)) formed stably even when f and g share a power factor."""
    v = np.asarray(log_r, dtype=float)
    out = ((f.power_part - g.power_part) * v
           + np.asarray(f.log_value_slow(v)) - np.asarray(g.log_value_slow(v)))
    return out if out.ndim else float(out)


def log_radius_grid(log10_top: float = -2.0, decades: float = 120.0,
                    points_per_decade: int = 64) -> np.ndarray:
    """Log radii (natural log), descending from 10**log10_top."""
    n = int(round(decades * points_per_decade)) + 1
    log10_r = np.linspace(log10_top, log10_top - decades, n)
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
    side: str
    diagnostics: str = ""


def _as_log_grid(f: GaugeFunction, r_grid, log_grid) -> np.ndarray:
    if log_grid is not None:
        v = np.sort(np.asarray(log_grid, dtype=float))[::-1]
    else:
        r = np.asarray(r_grid, dtype=float)
        if np.any(r <= 0):
            raise GaugeError("grid radii must be positive")
        v = np.sort(np.log(r))[::-1]
    if len(v) < 16:
        raise GaugeError("grid needs at least 16 points")
    if v[0] - v[-1] < 6 * math.log(10.0):
        raise GaugeError("grid must span at least 6 decades")
    return v


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
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


def doubling_exponent(f: GaugeFunction, r_grid=None, *, log_grid=None) -> ExponentFit:
    """Least-squares scaling exponent with the largest kappa <= 1 for which
    f(lambda*r) >= kappa * lambda**s * f(r) holds on all sampled grid pairs.

    Exact power laws come back as (s, 1); slowly varying gauges report the
    grid-average slope, which sinks toward the asymptotic exponent as the
    grid extends.
    """
    v = _as_log_grid(f, r_grid, log_grid)
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
    span = (v[0] - v[-1]) / math.log(10.0)
    return ExponentFit(s, kappa, 2.0 ** s, "doubling",
                       f"ls fit over {len(v)} points, {span:.0f} decades")


def codoubling_exponent(f: GaugeFunction, r_grid=None, *, log_grid=None) -> ExponentFit:
    """Largest exponent s with f(lambda*r) <= kappa * lambda**s * f(r) on the grid.

    Fails for gauges whose local slope collapses toward zero at depth
    (they decay slower than any power, so no positive exponent works).
    """
    v = _as_log_grid(f, r_grid, log_grid)
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
    span = (v[0] - v[-1]) / math.log(10.0)
    return ExponentFit(s, kappa, 2.0 ** s, "codoubling",
                       f"deep-half ls fit over {len(v)} points, {span:.0f} decades")


def doubling_constant(f: GaugeFunction, r_grid=None, *, log_grid=None) -> float:
    """Largest sampled ratio f(2r)/f(r), the doubling constant witnessed on the grid."""
    v = _as_log_grid(f, r_grid, log_grid)
    v = v[v + LOG2 <= 0.0]
    ratios = np.asarray(f.log_value(v + LOG2)) - np.asarray(f.log_value(v))
    return float(np.exp(ratios.max()))


def doubling_roundtrip_violations(f: GaugeFunction, c: float, n_pairs: int,
                                  seed: int, *, log_grid=None,
                                  rtol: float = 1e-9) -> int:
    """Count violations of f(lambda*r) >= (1/c) * lambda**log2(c) * f(r)
    on random (lambda, r) pairs drawn from the grid range."""
    v = _as_log_grid(f, None, log_grid if log_grid is not None else log_radius_grid())
    v_min, v_max = float(v[-1]), float(v[0])
    rng = np.random.default_rng(seed)
    log_r = rng.uniform(v_min, v_max, n_pairs)
    log_lam = rng.uniform(v_min - log_r, 0.0)
    s = math.log2(c)
    lhs = np.asarray(f.log_value(log_r + log_lam))
    rhs = -math.log(c) + s * log_lam + np.asarray(f.log_value(log_r))
    return int(np.sum(lhs < rhs - rtol))
