"""Orthogonal projections, interval covers, gauge cover costs and sweeps.

A disc projects onto the line at angle theta as an interval of the same
diameter, so projecting a disc cover and merging overlaps yields an
interval cover whose gauge cost upper-bounds the projected set's cover
cost at that mesh.  The direction sweep marks, in one table over an angle
grid, the construction levels whose placement arc contains each projection
direction; one climb to the root serves every (angle, level) row, and each
measured cover cost is compared against its level's budget
8a g(r_{k+1}) / f(r_k).  A row whose pattern the climb proves to be one
interval (one child piece, and translates that overlap or touch pairwise
at every level from its own down to its last merge) is costed from its
hull and never built.

Costs reported here are upper bounds for one admissible cover; no
infimum claim is made.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import hierarchy
from .conditions import _gl, _logsumexp
from .gauges import GaugeFunction, GaugeError, _ls_slope
from .hierarchy import DiscCapExceeded, DiscHierarchy
from .measure import NaturalMeasure, _mean_stderr, divergence_pairs

MIN_ANGLES = 32  # fewest directions a sweep's angle grid may hold


@dataclass(frozen=True, eq=False)
class IntervalCover:
    """Sorted, pairwise-disjoint closed intervals on a line.

    The cover is held as two read-only float64 arrays, ``lo`` and ``hi``,
    so merges, translations and costs stay in numpy; ``intervals`` builds
    the tuple-of-pairs view on demand.  Covers compare by identity.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).view()
        hi = np.asarray(self.hi, dtype=float).view()
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise GaugeError("lo and hi must be 1-d arrays of equal length")
        # written so that a NaN endpoint fails both checks
        if not np.all(lo <= hi):
            raise GaugeError("intervals must have lo <= hi")
        if not np.all(lo[1:] > hi[:-1]):
            raise GaugeError("intervals must be sorted with positive gaps")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist()))


def merge_intervals(raw) -> IntervalCover:
    """Union of closed intervals as a sorted disjoint cover (sweep merge).

    ``raw`` is an (n, 2) array or any iterable of (lo, hi) pairs."""
    if not isinstance(raw, np.ndarray):
        raw = list(raw)
    arr = np.asarray(raw, dtype=float).reshape(-1, 2)
    return IntervalCover(*_merge_array(arr[:, 0], arr[:, 1]))


def _merge_array(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if len(lo) == 0:
        return lo, hi
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    running = np.maximum.accumulate(hi)
    new_run = np.ones(len(lo), dtype=bool)
    new_run[1:] = lo[1:] > running[:-1]  # touching endpoints merge
    starts = np.nonzero(new_run)[0]
    ends = np.append(starts[1:], len(lo)) - 1
    return lo[starts], running[ends]


def project_disc_cover(centers, radii, theta: float) -> IntervalCover:
    """Project a whole disc cover and merge the resulting intervals."""
    if not math.isfinite(theta):
        raise GaugeError("projection angle must be finite")
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    coord = centers[:, 0] * math.cos(theta) + centers[:, 1] * math.sin(theta)
    return IntervalCover(*_merge_array(coord - radii, coord + radii))


def cover_cost(g: GaugeFunction, cover: IntervalCover) -> float:
    """Sum of g(interval length): the cost of this one cover, an upper
    bound for the gauge cover cost at a mesh of its longest interval."""
    if cover.lo.size == 0:
        return 0.0
    costs = np.exp(np.asarray(g.log_value(np.log(cover.hi - cover.lo)),
                              dtype=float))
    return float(np.sum(np.sort(costs)))


@dataclass(frozen=True)
class LevelProjection:
    """Projection of one hierarchy level as ``copies`` disjoint translates
    of one merged ``pattern``.

    ``pattern`` is the merged projection of the descendants of one ancestor,
    in that ancestor's frame; the translates are separated by positive gaps,
    so the merged projection of the whole level is their union and its
    cover cost is ``copies`` times the pattern's.
    """

    pattern: IntervalCover
    copies: int


def _climb(h: DiscHierarchy, thetas: np.ndarray, levels: np.ndarray):
    """:func:`project_hierarchy` at every (angle, level) row at once, in one
    pass up the levels: each row's pattern hull [lo, hi], its last merge
    level (N_1 ... N_{last - 1} copies) and a generator of (row, lo, hi)
    building the patterns the climb cannot prove to be one interval, one
    row at a time.

    Level j projects the steps of every row with level >= j once: a row
    whose level is j starts its child pattern there, and the others test
    their translates.  Rounding is monotone, so merged translates span what
    counted ones would, and all disjointness tests run before any row is
    built.  A one-piece child pattern whose translates overlap or touch
    pairwise at every level from its own down to j is one interval at j,
    bit for bit its hull: that is the test the merge itself makes.  A row
    is built only when it has several child pieces, or merges translates
    at or below the level where that chain breaks.
    """
    def projected(j, th):  # rows sorted; math.cos gives one angle's bits
        cos = [math.cos(x) for x in (h.d[j - 1] - th).tolist()]
        return np.sort(np.multiply.outer(cos, h.offsets(j)), axis=1)

    # deepest rows first, so the rows with level >= j are a prefix
    order = np.argsort(-levels, kind="stable")
    th, lv = thetas[order], levels[order]
    top = int(lv.max(initial=0))
    span = np.empty((len(lv), 2))   # [lo, hi] per row, in its ancestor's frame
    hull = np.empty((len(lv), 2))
    # [row, j]: the row merges its translates at level j, or some of them
    # have a gap there; at its own level, the child pattern is merged and
    # has a gap between pieces.  Column 0 is a sentinel gap.
    merges = np.zeros((len(lv), top + 1), dtype=bool)
    gaps = np.zeros((len(lv), top + 1), dtype=bool)
    gaps[:, 0] = True
    counts = np.bincount(lv, minlength=top + 1).tolist()
    steps, child, n = {}, {}, 0
    for j in range(top, 0, -1):
        # rows [0, n_old) climb through level j, rows [n_old, n) start there
        n_old, n = n, n + counts[j]
        steps[j] = projected(j, th[:n])
        if n_old:
            s, sp = steps[j][:n_old], span[:n_old]
            gap = s[:, 1:] + sp[:, :1] > s[:, :-1] + sp[:, 1:]
            hit = merges[:n_old, j] = ~gap.all(axis=1)
            gaps[:n_old, j] = gap.any(axis=1)
            sp += s[:, [0, -1]]
            np.copyto(hull[:n_old], sp, where=hit[:, None])
        if n > n_old:
            r = h.radius(j)
            c_lo, c_hi = steps[j][n_old:] - r, steps[j][n_old:] + r  # c_hi: running max
            pieces = 1 + np.count_nonzero(c_lo[:, 1:] > c_hi[:, :-1], axis=1)
            span[n_old:n, 0], span[n_old:n, 1] = c_lo[:, 0], c_hi[:, -1]
            hull[n_old:n] = span[n_old:n]
            merges[n_old:n, j] = True
            gaps[n_old:n, j] = pieces > 1
            child[j] = (n_old, c_lo, c_hi, pieces)
    # a pattern whose lowest merge level lies above its highest gap level
    # is one interval, its hull; only the other rows are built
    last = merges.argmax(axis=1)
    build = last <= top - gaps[:, ::-1].argmax(axis=1)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))

    def built():
        for a in np.flatnonzero(build[rank]).tolist():
            i = int(rank[a])
            level = int(lv[i])
            js = np.flatnonzero(merges[i, :level])[::-1].tolist()
            n_old, c_lo, c_hi, pieces = child[level]
            c_lo, c_hi = c_lo[i - n_old], c_hi[i - n_old]
            p_lo, p_hi = ((c_lo[:1], c_hi[-1:]) if pieces[i - n_old] == 1
                          else _merge_array(c_lo, c_hi))
            for j, m in zip(js, [level] + js):
                size = len(p_lo) * math.prod(h.counts[j - 1:m - 1])
                if size > hierarchy.DISC_CAP:
                    raise DiscCapExceeded(
                        f"projecting level {level} at angle {float(th[i])!r} "
                        f"would merge {size} intervals, over the cap of "
                        f"{hierarchy.DISC_CAP}")
                for k in range(m - 1, j - 1, -1):  # inner level first
                    p_lo = np.add.outer(steps[k][i], p_lo).ravel()
                    p_hi = np.add.outer(steps[k][i], p_hi).ravel()
                p_lo, p_hi = _merge_array(p_lo, p_hi)
            yield a, p_lo, p_hi
    return hull[rank, 0], hull[rank, 1], last[rank].tolist(), built()


def project_hierarchy(h: DiscHierarchy, theta: float, level: int) -> LevelProjection:
    """Project every level-`level` disc onto the line at angle theta.

    The children of every parent share the same projected offset pattern,
    so the pattern is merged once.  Climbing towards the root, each level
    translates the current pattern by its sorted projected offsets: when
    adjacent translates are disjoint (touching endpoints merge, as in the
    merge itself) they are only counted; when they overlap or touch pairwise
    and the pattern is one interval, the merge is one interval, their hull;
    only other overlapping translates are materialised, together with the
    counted levels below them, and merged.  Every coordinate is relative to
    an ancestor, never the origin.  A merge of more than
    ``hierarchy.DISC_CAP`` intervals raises :class:`DiscCapExceeded` before
    anything is built.  The one-row case of the sweep's climb.
    """
    if not math.isfinite(theta):
        raise GaugeError("projection angle must be finite")
    if not 1 <= level <= h.depth:
        raise GaugeError("level must lie within the built hierarchy")
    lo, hi, last, built = _climb(h, np.array([theta], dtype=float),
                                 np.array([level]))
    _, lo, hi = next(built, (0, lo, hi))
    return LevelProjection(IntervalCover(lo, hi), h.disc_count(last[0] - 1))


def eq35_bound(h: DiscHierarchy, g: GaugeFunction, k: int) -> float:
    """Projected cover-cost budget 8a g(r_{k+1}) / f(r_k) at level k."""
    if not 0 <= k < h.depth:
        raise GaugeError("k must satisfy 0 <= k < depth")
    log_val = (math.log(8.0 * h.a)
               + float(g.log_value(h.log_radius(k + 1)))
               - float(h.gauge.log_value(h.log_radius(k))))
    return math.exp(log_val)


def _arc_table(h: DiscHierarchy, thetas: np.ndarray) -> np.ndarray:
    """(angles, depth - 1) booleans: [i, k - 1] is whether the angle
    thetas[i] qualifies level k (:func:`qualifying_levels`)."""
    if not np.all(np.isfinite(thetas)):
        raise GaugeError("projection angle must be finite")
    # remainder is Python's float %, fmod shifted into [0, pi)
    d_theta = np.remainder(thetas + math.pi / 2.0, math.pi)
    arc = np.fmod(d_theta[:, None] - np.array(h.d[:-1]) + math.pi, math.pi)
    return arc <= np.array(h.theta[1:])


def qualifying_levels(h: DiscHierarchy, theta: float) -> list[int]:
    """Levels k whose placement arc [d_k, d_k + theta_{k+1}) contains the
    projection direction d_theta = theta + pi/2 (mod pi)."""
    row = _arc_table(h, np.array([theta], dtype=float))[0]
    return (np.flatnonzero(row) + 1).tolist()


@dataclass(frozen=True)
class SweepRow:
    theta: float
    k: int
    cost: float
    bound: float
    margin: float


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    bounds: tuple[float, ...]   # eq35_bound at levels 1 .. depth - 1

    def violations(self) -> list[SweepRow]:
        return [r for r in self.rows if r.cost > r.bound * (1.0 + 1e-9)]

    def to_dicts(self) -> list[dict]:
        return [{"theta": r.theta, "k": r.k, "cost": r.cost, "bound": r.bound,
                 "margin": r.margin} for r in self.rows]


def sweep_directions(h: DiscHierarchy, g: GaugeFunction, theta_grid) -> SweepTable:
    """Angle sweep: for each direction, the levels whose placement arc
    captures it, the measured cover cost of projecting level k+1 and the
    budget it must respect.

    ``theta_grid`` is either an integral count (uniform grid on [0, pi))
    or explicit finite angles.  One arc table picks the rows, θ-major, and
    one climb serves them all, one projected-steps pass per level (see
    :func:`project_hierarchy`); a row proved to be one interval is costed
    from its hull in the one ``g.log_value`` call, and only the others are
    built.  Every row is measured: its cost is the pattern's cover cost
    times its count of disjoint copies, so no level is too deep to sweep.
    Each level's budget is computed once and kept in ``SweepTable.bounds``.
    """
    if isinstance(theta_grid, bool):
        raise GaugeError("angle grid must be a point count or a sequence of angles")
    if isinstance(theta_grid, numbers.Integral):
        n = int(theta_grid)
        thetas = [i * math.pi / n for i in range(n)]
    else:
        thetas = [float(t) for t in theta_grid]
    if len(thetas) < MIN_ANGLES:
        raise GaugeError(f"angle grid needs at least {MIN_ANGLES} points")
    angles = np.array(thetas)
    table = _arc_table(h, angles)
    bounds = tuple(eq35_bound(h, g, k) for k in range(1, h.depth))
    at, ks = np.nonzero(table)  # θ-major rows; row (a, k) projects level k + 1
    lo, hi, last, built = _climb(h, angles[at], ks + 2)
    # one g call for every row; rows with several intervals are redone
    cost = np.exp(np.asarray(g.log_value(np.log(hi - lo)), dtype=float))
    for a, p_lo, p_hi in built:
        if len(p_lo) > 1:
            cost[a] = cover_cost(g, IntervalCover(p_lo, p_hi))
    cost = [float(h.disc_count(m - 1)) for m in last] * cost
    rows = tuple(SweepRow(thetas[a], k + 1, c, bounds[k], bounds[k] - c)
                 for a, k, c in zip(at.tolist(), ks.tolist(), cost.tolist()))
    return SweepTable(rows, bounds)


# ---------------------------------------------------------------------------
# Projected energies
# ---------------------------------------------------------------------------

def angle_kernel_integral(s: float) -> float:
    """B(s) = integral over [0, pi] of |cos u|**(-s) du for s < 1.

    The closed form sqrt(pi) Gamma((1 - s)/2) / Gamma(1 - s/2), through
    ``math.lgamma``, holds for every s < 1 (negative s included); at s = 0
    it is one ulp off pi, so pi itself is returned there.
    """
    if s >= 1.0:
        raise GaugeError("the angle kernel integral requires exponent s < 1")
    if s == 0.0:
        return math.pi
    return math.sqrt(math.pi) * math.exp(math.lgamma((1.0 - s) / 2.0)
                                         - math.lgamma(1.0 - s / 2.0))


# The angle kernel K_g(r) = (1/pi) int_0^pi dtheta / g(r |cos theta|) is
# tabulated as log(g(r) K_g(r)) on a uniform log-radius grid of this step.
TABLE_STEP = 0.05
# Gauss-Legendre panels in t = log(pi/2 - theta) for the core of K_g; below
# the first edge sin(e**t) = e**t to 1e-18 and the tail is Phi-based
_CORE_EDGES = (-20.0, -16.0, -12.0, -8.0, -5.0, -3.0, -2.0, -1.0, -0.5, 0.0,
               math.log(math.pi / 2.0))
_CORE_ORDER = 16
# Phi(z) = int_{-inf}^z e**w / g(e**w) dw is integrated over this span
# below the grid, in panels of width 4, and closed below that by the local
# power law of g (exact for power g, whose decay e**((1 - s) w) is slowest)
_TAIL_SPAN = 400.0
_TAIL_PANELS = 100


def _log_phi(g: GaugeFunction, z0: float, n: int) -> np.ndarray:
    """log Phi(z0 + i TABLE_STEP) for i < n, in log space throughout.

    Phi(z0) is Gauss-Legendre panels over [z0 - _TAIL_SPAN, z0] plus the
    power-law closure below; each further grid step adds its own
    four-node integral to the running log-sum."""
    def log_integrand(w):
        return w - g.log_value(w)

    x, wts = _gl(_CORE_ORDER)
    width = _TAIL_SPAN / _TAIL_PANELS
    start = z0 - _TAIL_SPAN
    nodes = start + width * (np.arange(_TAIL_PANELS)[:, None] + x)
    prefix = _logsumexp(log_integrand(nodes.ravel())
                        + np.log(np.tile(width * wts, _TAIL_PANELS)))
    slope = float(g.log_value(start)) - float(g.log_value(start - 1.0))
    if slope >= 1.0:
        raise GaugeError("angle kernel diverges: g has local exponent >= 1")
    closure = float(log_integrand(start)) - math.log(1.0 - slope)
    x, wts = _gl(4)
    cells = z0 + TABLE_STEP * (np.arange(n - 1)[:, None] + x)
    log_cells = _logsumexp(log_integrand(cells) + np.log(TABLE_STEP * wts))
    head = np.logaddexp(prefix, closure)
    return np.logaddexp.accumulate(np.concatenate(([head], log_cells)))


def angle_kernel_table(g: GaugeFunction, log_lo: float,
                       log_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_i = log_lo + i TABLE_STEP reaching log_hi, and log(g(r) K_g(r))
    at r = e**x_i, for K_g(r) = (1/pi) int_0^pi dtheta / g(r |cos theta|).

    With u = pi/2 - theta and t = log u, K_g(r) = (2/pi) int e**t /
    g(r sin e**t) dt over t < log(pi/2).  The core t >= -20 takes fixed
    Gauss-Legendre panels; below it sin u = u to 1e-18, so the tail is
    e**-x Phi(x - 20) with Phi from :func:`_log_phi`.  g is read only
    through ``log_value``.  For power g the product g(r) K_g(r) is the
    constant B(s)/pi.
    """
    n = max(int(math.ceil((log_hi - log_lo) / TABLE_STEP)) + 1, 4)
    grid = log_lo + TABLE_STEP * np.arange(n)
    lg = np.asarray(g.log_value(grid), dtype=float)
    x, w = _gl(_CORE_ORDER)
    core = np.zeros(n)
    # one panel at a time keeps the working arrays at n x order
    for lo, hi in zip(_CORE_EDGES, _CORE_EDGES[1:]):
        t = lo + (hi - lo) * x
        log_sin = np.log(np.sin(np.exp(t)))
        vals = np.exp(lg[:, None] + t - g.log_value(grid[:, None] + log_sin))
        core += vals @ ((hi - lo) * w)
    # tail: e**-x Phi(x - 20) on the grid shifted down by the core's edge
    tail = np.exp(lg - grid + _log_phi(g, log_lo + _CORE_EDGES[0], n))
    return grid, math.log(2.0 / math.pi) + np.log(core + tail)


# rows c0 .. c3 of the cubic c0 + c1 t + c2 t**2 + c3 t**3 through the
# four table nodes T[i], ..., T[i + 3] at t = 0, 1, 2, 3
_CUBIC = np.array([[6.0, 0.0, 0.0, 0.0], [-11.0, 18.0, -9.0, 2.0],
                   [6.0, -15.0, 12.0, -3.0], [-1.0, 3.0, -3.0, 1.0]]) / 6.0


def kernel_lookup(grid: np.ndarray, table: np.ndarray, x) -> np.ndarray:
    """Cubic interpolation of a table on the uniform grid of
    :func:`angle_kernel_table` at log radii x inside it.  Linear
    interpolation of log(g K_g) would be off by up to 6e-5 near r_0, where
    log-type factors of g bend it; the four-node stencil keeps it near 1e-7.

    A read at offset pos from the first node takes cell i = pos - 1
    rounded down, clipped to the table's ends, and evaluates that cell's
    cubic through nodes i .. i + 3 by Horner's rule at t = pos - i.
    """
    c0, c1, c2, c3 = _CUBIC @ np.stack(
        (table[:-3], table[1:-2], table[2:-1], table[3:]))
    t = np.array(x, dtype=float, ndmin=1)
    t -= grid[0]
    t /= TABLE_STEP
    i = t.astype(np.intp)
    i -= 1
    np.clip(i, 0, len(table) - 4, out=i)
    t -= i
    out = c3[i]
    for c in (c2, c1, c0):
        out *= t
        out += c[i]
    return out.reshape(np.shape(x))[()]


@dataclass(frozen=True)
class AveragedProjection:
    """Angle average of the projected g-energies, by the exact angle
    kernel, against its theoretical budget.

    ``average`` is int_0^pi I_g(pi_theta mu) dtheta estimated from
    stratified pairs, with ``stderr`` sqrt(sum_k (p_k stderr_k)**2) over
    the strata (times pi); ``bound`` is ``kernel`` / kappa times the
    planar g-energy, with kappa the prefactor of g's doubling fit
    (``g.doubling``).  ``transfer_max`` is the largest g(r) K_g(r) on the
    kernel table and ``transfer_bound`` the doubling fit's per-distance
    budget B(s) / (pi kappa) for it.
    """

    average: float
    stderr: float
    bound: float
    kernel: float
    transfer_max: float
    transfer_bound: float

    @property
    def ratio(self) -> float:
        return self.average / self.bound


def averaged_projected_energy(m: NaturalMeasure, g: GaugeFunction,
                              pairs: int, seed: int) -> AveragedProjection:
    """Angle average of the projected energies against kappa**-1 B(s) I_g.

    By Fubini, int_0^pi I_g(pi_theta mu) dtheta = pi int int K_g(|x - y|)
    dmu dmu with the angle kernel K_g of :func:`angle_kernel_table`,
    tabulated once over [r_K e**-3, 2 r_0] and interpolated in log r by
    :func:`kernel_lookup`.  Each divergence-level pair
    (:func:`divergence_pairs`, one uniform draw per level from that
    level's ordered-pair step table) weighs 1/g(d), the planar energy's
    term, times the table's g(d) K_g(d); level k's pairs weigh p_k over
    their count, as in ``mc_energy``.  Requires g doubling with fitted
    exponent below 1.
    """
    fit = g.doubling
    if fit.s >= 1.0:
        raise GaugeError(f"fitted doubling exponent {fit.s:.3f} >= 1")
    kernel = angle_kernel_integral(fit.s)
    h = m.hierarchy
    grid, log_transfer = angle_kernel_table(
        g, h.log_radius(m.depth) - 3.0, math.log(2.0) + h.log_radius(0))
    rng = np.random.default_rng(seed)
    planar = average = var = 0.0
    for _, p, dz in divergence_pairs(m, pairs, rng):
        w = p / len(dz)
        # the moduli overwrite the stratum's real parts; one log serves
        # both 1/g and the kernel lookup
        d = np.abs(dz, out=dz.real)
        log_d = np.log(d)
        inv = g._reciprocal(d, log_d)
        planar += w * float(np.sum(inv))
        inv *= np.exp(kernel_lookup(grid, log_transfer, log_d))
        mean, stderr = _mean_stderr(inv)
        average += p * mean
        var += (p * stderr) ** 2
    bound = kernel / fit.kappa * planar
    return AveragedProjection(
        math.pi * average, math.pi * math.sqrt(var), bound, kernel,
        float(np.exp(log_transfer.max())), kernel / (math.pi * fit.kappa))


# ---------------------------------------------------------------------------
# Logarithmic dimension from cover-cost schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogDimensionEstimate:
    value: float | None
    status: str  # "ok" | "inconclusive"
    trends: tuple[tuple[float, str], ...]


def _cost_trend(costs) -> str:
    c = np.asarray(costs, dtype=float)
    if np.any(c <= 0):
        return "shrinks"  # hit exact zero: certainly vanishing
    x = np.log(np.arange(1, len(c) + 1, dtype=float))
    slope = _ls_slope(x, np.log(c))
    if slope <= -0.05:
        return "shrinks"
    if slope >= 0.05:
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
