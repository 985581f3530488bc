"""Orthogonal projections, interval covers, gauge cover costs and sweeps.

A disc projects onto the line at angle theta as an interval of the same
diameter, so projecting a disc cover and merging overlaps yields an
interval cover whose gauge cost upper-bounds the projected set's cover
cost at that mesh.  The direction sweep walks an angle grid, finds the
construction levels whose placement arc contains the projection
direction and compares the measured cover cost against the per-level
budget 8a g(r_{k+1}) / f(r_k).

Costs reported here are upper bounds for one admissible cover; no
infimum claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .gauges import GaugeFunction, GaugeError, doubling_exponent, log_radius_grid
from .hierarchy import DiscHierarchy
from .measure import NaturalMeasure, sample_distinct_pairs

COALESCE_GRID = 1e-14


@dataclass(frozen=True, eq=False)
class IntervalCover:
    """Sorted, pairwise-disjoint closed intervals on the line at angle theta.

    The cover is held as two read-only float64 arrays, ``lo`` and ``hi``,
    so merges, translations and costs stay in numpy; ``intervals`` builds
    the tuple-of-pairs view on demand.  Covers compare by identity.
    """

    theta: float
    lo: np.ndarray
    hi: np.ndarray
    rho: float

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).view()
        hi = np.asarray(self.hi, dtype=float).view()
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise GaugeError("lo and hi must be 1-d arrays of equal length")
        if np.any(hi < lo):
            raise GaugeError("intervals must have lo <= hi")
        if np.any(lo[1:] <= hi[:-1]):
            raise GaugeError("intervals must be sorted with positive gaps")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))

    @property
    def total_length(self) -> float:
        return float(np.sum(self.hi - self.lo))

    def to_dict(self) -> dict:
        return {"theta": self.theta, "rho": self.rho,
                "intervals": [list(iv) for iv in self.intervals]}


def merge_intervals(raw, theta: float = 0.0) -> IntervalCover:
    """Union of closed intervals as a sorted disjoint cover (sweep merge).

    ``raw`` is an (n, 2) array or any iterable of (lo, hi) pairs."""
    if not isinstance(raw, np.ndarray):
        raw = list(raw)
    arr = np.asarray(raw, dtype=float).reshape(-1, 2)
    return _merge_array(arr[:, 0], arr[:, 1], theta)


def _merge_array(lo: np.ndarray, hi: np.ndarray, theta: float) -> IntervalCover:
    if len(lo) == 0:
        return IntervalCover(theta, lo, hi, 0.0)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    running = np.maximum.accumulate(hi)
    new_run = np.ones(len(lo), dtype=bool)
    new_run[1:] = lo[1:] > running[:-1]  # touching endpoints merge
    starts = np.nonzero(new_run)[0]
    ends = np.append(starts[1:], len(lo)) - 1
    merged_lo = lo[starts]
    merged_hi = running[ends]
    return IntervalCover(theta, merged_lo, merged_hi,
                         float((merged_hi - merged_lo).max()))


def project_disc(center, log_r: float, theta: float) -> tuple[float, float]:
    """Projection of a disc onto the line at angle theta: an interval of the
    same diameter around the projected center."""
    c = float(center[0]) * math.cos(theta) + float(center[1]) * math.sin(theta)
    r = math.exp(log_r)
    return c - r, c + r


def project_disc_cover(centers, radii, theta: float) -> IntervalCover:
    """Project a whole disc cover and merge the resulting intervals."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    coord = centers[:, 0] * math.cos(theta) + centers[:, 1] * math.sin(theta)
    return _merge_array(coord - radii, coord + radii, theta)


def cover_cost(g: GaugeFunction, cover: IntervalCover) -> tuple[float, float]:
    """(sum of g(interval length), max length): the cost of this one cover,
    an upper bound for the gauge cover cost at mesh rho."""
    if cover.lo.size == 0:
        return 0.0, 0.0
    lengths = cover.hi - cover.lo
    costs = np.exp(np.asarray(g.log_value(np.log(lengths)), dtype=float))
    return float(np.sum(np.sort(costs))), float(lengths.max())


@dataclass(frozen=True)
class LevelProjection:
    """Merged projection of one hierarchy level plus the per-parent span
    of its child intervals (identical for every parent by construction).

    ``cover`` keeps the merged intervals as its ``lo``/``hi`` arrays."""

    cover: IntervalCover
    level: int
    per_parent_span: float


def _projected_level_coords(h: DiscHierarchy, theta: float, level: int) -> np.ndarray:
    coords = np.zeros(1)
    for j in range(1, level + 1):
        step = h.offsets(j) * math.cos(h.d[j - 1] - theta)
        coords = (coords[:, None] + step[None, :]).reshape(-1)
    return coords


def project_hierarchy(h: DiscHierarchy, theta: float, level: int) -> LevelProjection:
    """Project every level-`level` disc onto the line at angle theta.

    The children of every parent share the same projected offset pattern,
    so the pattern is merged once and translated to each projected parent
    center before the global merge.
    """
    if not 1 <= level <= h.depth:
        raise GaugeError("level must lie within the built hierarchy")
    r = h.radius(level)
    span_centers = 2.0 * (h.radius(level - 1) - r) * abs(math.cos(h.d[level - 1] - theta))
    per_parent_span = span_centers + 2.0 * r

    pattern_coord = h.offsets(level) * math.cos(h.d[level - 1] - theta)
    pattern = _merge_array(pattern_coord - r, pattern_coord + r, theta)
    parents = _projected_level_coords(h, theta, level - 1)
    lo = (parents[:, None] + pattern.lo[None, :]).reshape(-1)
    hi = (parents[:, None] + pattern.hi[None, :]).reshape(-1)
    return LevelProjection(_merge_array(lo, hi, theta), level, per_parent_span)


def eq35_bound(h: DiscHierarchy, g: GaugeFunction, k: int) -> float:
    """Projected cover-cost budget 8a g(r_{k+1}) / f(r_k) at level k."""
    if not 0 <= k < h.depth:
        raise GaugeError("k must satisfy 0 <= k < depth")
    log_val = (math.log(8.0 * h.a)
               + float(g.log_value(h.log_radius(k + 1)))
               - float(h.gauge.log_value(h.log_radius(k))))
    return math.exp(log_val)


def qualifying_levels(h: DiscHierarchy, theta: float, max_k: int | None = None) -> list[int]:
    """Levels k whose placement arc [d_k, d_k + theta_{k+1}) contains the
    projection direction d_theta = theta + pi/2 (mod pi)."""
    d_theta = math.fmod(theta + math.pi / 2.0, math.pi)
    top = h.depth - 1 if max_k is None else min(max_k, h.depth - 1)
    out = []
    for k in range(1, top + 1):
        arc = math.fmod(d_theta - h.d[k - 1] + math.pi, math.pi)
        if arc <= h.theta[k]:
            out.append(k)
    return out


@dataclass(frozen=True)
class SweepRow:
    theta: float
    k: int
    cost: float | None
    bound: float
    margin: float | None
    note: str = ""


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def violations(self, rtol: float = 1e-9) -> list[SweepRow]:
        return [r for r in self.rows
                if r.cost is not None and r.cost > r.bound * (1.0 + rtol)]

    def to_dicts(self) -> list[dict]:
        return [{"theta": r.theta, "k": r.k, "cost": r.cost, "bound": r.bound,
                 "margin": r.margin, "note": r.note} for r in self.rows]


def sweep_directions(h: DiscHierarchy, g: GaugeFunction, theta_grid,
                     level: int | None = None) -> SweepTable:
    """Angle sweep: for each direction, the levels whose placement arc
    captures it, the measured cover cost of projecting level k+1 and the
    budget it must respect.

    ``theta_grid`` is either an int (uniform grid on [0, pi)) or explicit
    angles.  Levels whose disc count exceeds the hierarchy cap report the
    bound without a measured cost.
    """
    if isinstance(theta_grid, int):
        if theta_grid < 32:
            raise GaugeError("angle grid needs at least 32 points")
        thetas = [i * math.pi / theta_grid for i in range(theta_grid)]
    else:
        thetas = [float(t) for t in theta_grid]
        if len(thetas) < 32:
            raise GaugeError("angle grid needs at least 32 points")
    rows: list[SweepRow] = []
    for theta in thetas:
        for k in qualifying_levels(h, theta, None if level is None else level - 1):
            bound = eq35_bound(h, g, k)
            if h.disc_count(k) <= h.disc_cap:
                cover = project_hierarchy(h, theta, k + 1).cover
                cost, _ = cover_cost(g, cover)
                rows.append(SweepRow(theta, k, cost, bound, bound - cost))
            else:
                rows.append(SweepRow(theta, k, None, bound, None,
                                     note="disc count over cap; bound only"))
    return SweepTable(tuple(rows))


# ---------------------------------------------------------------------------
# Projected measures and energies
# ---------------------------------------------------------------------------

def project_measure(m: NaturalMeasure, theta: float):
    """Pushforward of the atoms onto the line at angle theta.

    Returns (coords, masses) with atoms coalesced by coordinate equality
    after rounding at the 1e-14 grid; total mass is preserved exactly.
    """
    coords = m.atom_coords() @ np.array([math.cos(theta), math.sin(theta)])
    keys = np.round(coords / COALESCE_GRID).astype(np.int64)
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    masses = np.bincount(inverse, weights=m.atom_masses())
    return coords[first], masses


def angle_kernel_integral(s: float) -> float:
    """B(s) = integral over [0, pi] of |cos u|**(-s) du, by adaptive
    quadrature around the integrable singularity at pi/2 (requires s < 1)."""
    if s >= 1.0:
        raise GaugeError("the angle kernel integral requires exponent s < 1")
    if s <= 0.0:
        return math.pi
    val, _ = quad(lambda u: abs(math.cos(u)) ** (-s), 0.0, math.pi,
                  points=[math.pi / 2.0], limit=200)
    return float(val)


@dataclass(frozen=True)
class AveragedProjection:
    """Grid average of projected energies against its theoretical budget."""

    average: float
    bound: float
    planar_energy: float
    kernel: float
    kappa: float
    s: float
    pairs_used: int

    @property
    def ratio(self) -> float:
        return self.average / self.bound


def averaged_projected_energy(m: NaturalMeasure, g: GaugeFunction,
                              theta_grid: int = 64, pairs: int = 100_000,
                              seed: int = 0) -> AveragedProjection:
    """Angle average of the projected energies against kappa**-1 B(s) I_g.

    One batch of mass-proportional atom pairs is shared across the whole
    midpoint angle grid, so the per-pair inequality (the projected distance
    shrinks by |cos| of the angle to the pair direction) transfers directly
    to the averages.  Requires g doubling with fitted exponent below 1.
    """
    fit = doubling_exponent(g, log_grid=log_radius_grid())
    if fit.s >= 1.0:
        raise GaugeError(f"fitted doubling exponent {fit.s:.3f} >= 1")
    kernel = angle_kernel_integral(fit.s)
    rng = np.random.default_rng(seed)
    diff, d, _ = sample_distinct_pairs(
        lambda k: m.sample_atoms(k, rng) - m.sample_atoms(k, rng), pairs)
    planar = float(np.mean(g.reciprocal(d)))

    thetas = (np.arange(theta_grid) + 0.5) * math.pi / theta_grid
    acc = 0.0
    # projected distances |dx cos + dy sin| go through two reused buffers
    dx, dy = diff[:, 0].copy(), diff[:, 1].copy()
    pd, tmp = np.empty_like(dx), np.empty_like(dx)
    for theta in thetas:
        np.multiply(dx, math.cos(theta), out=pd)
        np.multiply(dy, math.sin(theta), out=tmp)
        np.add(pd, tmp, out=pd)
        np.abs(pd, out=pd)
        np.maximum(pd, 1e-300, out=pd)
        acc += float(np.mean(g.reciprocal(pd)))
    average = math.pi * acc / theta_grid
    bound = kernel / fit.kappa * planar
    return AveragedProjection(average, bound, planar, kernel, fit.kappa,
                              fit.s, pairs)


# ---------------------------------------------------------------------------
# Logarithmic dimension from cover-cost schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDimensionEstimate:
    value: float | None
    status: str  # "ok" | "inconclusive"
    trends: tuple[tuple[float, str], ...]


def _cost_trend(costs, tol: float = 0.05) -> str:
    c = np.asarray(costs, dtype=float)
    if np.any(c <= 0):
        return "shrinks"  # hit exact zero: certainly vanishing
    x = np.log(np.arange(1, len(c) + 1, dtype=float))
    y = np.log(c)
    x0 = x - x.mean()
    slope = float(np.dot(x0, y) / np.dot(x0, x0))
    if slope <= -tol:
        return "shrinks"
    if slope >= tol:
        return "grows"
    return "flat"


def estimate_log_dimension(cost_schedule) -> LogDimensionEstimate:
    """Boundary exponent of a family of cover-cost schedules.

    ``cost_schedule`` is a sequence of (s, costs-at-shrinking-mesh) pairs
    for the log-scale gauge family.  The estimate is the midpoint between
    the largest s whose costs grow and the smallest whose costs shrink;
    0 when every schedule shrinks, inf when every schedule grows, and
    inconclusive when the trends do not separate cleanly.
    """
    entries = sorted(((float(s), list(costs)) for s, costs in cost_schedule),
                     key=lambda e: e[0])
    if not entries:
        raise GaugeError("cost schedule is empty")
    trends = tuple((s, _cost_trend(c)) for s, c in entries)
    labels = [t for _, t in trends]
    if all(t == "shrinks" for t in labels):
        return LogDimensionEstimate(0.0, "ok", trends)
    if all(t == "grows" for t in labels):
        return LogDimensionEstimate(math.inf, "ok", trends)
    first_shrink = next((i for i, t in enumerate(labels) if t == "shrinks"), None)
    if (first_shrink is not None
            and all(t == "grows" for t in labels[:first_shrink])
            and all(t == "shrinks" for t in labels[first_shrink:])):
        lo = trends[first_shrink - 1][0]
        hi = trends[first_shrink][0]
        return LogDimensionEstimate(0.5 * (lo + hi), "ok", trends)
    return LogDimensionEstimate(None, "inconclusive", trends)
