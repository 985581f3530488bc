"""The natural measure on a hierarchy, mass-bound scans and energies.

The natural measure splits mass equally among children, so every level-k
disc carries exactly 1/(N_1 ... N_k).  Atoms sit at the centers of the
deepest built level.  Ball masses are computed by descending the implicit
tree (prune discs a ball misses, absorb discs it swallows whole), which
stays exact even when the full atom set is too large to materialise;
every ball goes through one batched descent, PROBE_CHUNK balls at a time.
A disc's children sit on one diameter, so the descent addresses them as
index ranges: the children a ball swallows are counted, and only those on
its boundary are measured.  A ball given its index path (a scan probe)
starts at the deepest ancestor whose level it can neither swallow nor
leave; a ball without one starts at the root.

Energies are the discrete analogue of the double integral of
1/f(|x - y|): exact chunked double sums for small atom sets, seeded pair
sampling for large ones.  The natural measure's pairs are drawn level by
level: two atoms first diverge at level k with probability p_k, and their
difference is built from the offsets of level k and below only, so no
pair difference loses digits to the root frame, and a level whose children
coincide in float64 is refused rather than given a zero distance.
Each level contributes one uniform draw from its ordered-pair step table,
the differences of its children's offsets along its direction, as complex
numbers: among the pairs of distinct children at level k, among all pairs
below it.  A pair's distance is the modulus of its complex difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauges import GaugeFunction, GaugeError
from . import hierarchy
from .hierarchy import DiscHierarchy, DiscCapExceeded


@dataclass(frozen=True, eq=False)
class NaturalMeasure:
    """Equal-split probability measure with atoms at depth-level centers."""

    hierarchy: DiscHierarchy
    depth: int

    def __post_init__(self):
        if not 1 <= self.depth <= self.hierarchy.depth:
            raise GaugeError("measure depth must lie within the built hierarchy")

    def sample_atoms(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Centers of n uniformly sampled atoms (equal masses make uniform
        path sampling mass-proportional), without materialising the level:
        the centers of :func:`_draw_paths`' index paths."""
        return _path_centers(self.hierarchy, _draw_paths(self, n, rng))


def _draw_paths(m: NaturalMeasure, n: int, rng: np.random.Generator) -> np.ndarray:
    """Index paths of n uniformly drawn atoms of m: row l - 1 holds the
    child each path takes at level l, one ``rng.integers`` call per level
    from the root down."""
    h = m.hierarchy
    paths = np.empty((m.depth, n), dtype=np.intp)
    for level in range(1, m.depth + 1):
        paths[level - 1] = rng.integers(0, h.counts[level - 1], size=n)
    return paths


def _path_sums(h: DiscHierarchy, paths: np.ndarray):
    """The centers of the discs the index paths reach, level by level: yields
    x and y for level 0 (the root), then for each row of ``paths``, as two
    arrays updated in place.  Each level adds its children's x and y
    offsets, looked up by index in N_l-entry tables, so a center is the
    same float sum at whatever level it is read."""
    x, y = np.zeros((2, paths.shape[1]))
    yield x, y
    for level, idx in enumerate(paths, 1):
        off = h.offsets(level)
        ex, ey = h.direction(level)
        x += (off * ex)[idx]
        y += (off * ey)[idx]
        yield x, y


def _path_centers(h: DiscHierarchy, paths: np.ndarray) -> np.ndarray:
    """Centers of the discs the index paths end in (see :func:`_path_sums`)."""
    *_, (x, y) = _path_sums(h, paths)
    return np.stack([x, y], axis=1)


MIN_PAIRS = 1000  # fewest pairs a Monte Carlo energy or potential may draw

PROBE_CHUNK = 4096  # balls descended together; a level's bands share DISC_CAP


def ball_masses(m: NaturalMeasure, xs, rs) -> np.ndarray:
    """Exact natural-measure masses of the closed balls B(xs[i], rs[i]).

    Descends the disc tree for all balls at once: subtrees entirely inside
    a ball contribute their full mass, subtrees a ball cannot reach are
    pruned, and only boundary discs are expanded.  The frontier holds one
    row per (ball, boundary disc) pair, processed PROBE_CHUNK balls at a
    time.  A row's children sit on one diameter, so the children its ball
    swallows and those it can reach are index ranges: the interior of the
    swallowed range is counted by index arithmetic, and the distance
    predicates run only on the two boundary bands between the ranges,
    at most ``hierarchy.DISC_CAP`` rows per level and chunk.  Balls carry
    no path, so each descends from the root; centers and radii are finite.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    rs = np.asarray(rs, dtype=float).reshape(-1)
    if len(xs) != len(rs):
        raise GaugeError("ball_masses needs one radius per center")
    if not (np.isfinite(xs).all() and np.isfinite(rs).all()):
        raise GaugeError("ball centers and radii must be finite")
    return _chunked_masses(m, xs, rs, np.empty((0, len(rs)), dtype=np.intp))


def _chunked_masses(m: NaturalMeasure, xs, rs, paths) -> np.ndarray:
    """The masses of :func:`_descend`, PROBE_CHUNK balls per call."""
    out = np.empty(len(rs))
    for lo in range(0, len(rs), PROBE_CHUNK):
        hi = lo + PROBE_CHUNK
        out[lo:hi] = _descend(m, xs[lo:hi], rs[lo:hi], paths[:, lo:hi])
    return out


def _start_levels(h: DiscHierarchy, depth: int, r: np.ndarray,
                  tol: float) -> np.ndarray:
    """Each ball's start level s(r) in :func:`_descend`: the deepest
    s < depth with r < r_s and r + tol < gap_j for every j <= s, where
    gap_j = step_j - 2 r_j (inf for a lone child) is the edge-to-edge
    distance of sibling level-j discs and tol the descent's float-error
    bound.  Swallowing a level-j disc needs r >= r_j >= r_s, and other
    level-s discs lie in siblings of the ball's ancestors, gap_j away, so
    the root descent adds 0 down to s and keeps the ancestor alone there.
    Siblings that nearly touch lower s: Eq33 is not assumed."""
    s = np.zeros(len(r), dtype=np.intp)
    ok = np.ones(len(r), dtype=bool)
    r_tol = r + tol
    for level in range(1, depth):
        off = h.offsets(level)
        r_lvl = h.radius(level)
        gap = off[1] - off[0] - 2.0 * r_lvl if len(off) > 1 else math.inf
        ok &= (r < r_lvl) & (r_tol < gap)
        s += ok
    return s


def _chord(rho: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Half-width sqrt(rho**2 - q**2) of a disc of radius rho on a line q
    off its center, 0 past its edge, as sqrt(rho - q) sqrt(rho + q)."""
    return np.sqrt(np.maximum(rho - q, 0.0)) * np.sqrt(rho + q)


def _child_bands(off: np.ndarray, t: np.ndarray, q: np.ndarray,
                 rad_cap: np.ndarray, grow: float, tol: float):
    """The children of one level that the frontier rows' balls swallow or
    may reach: per row, the count it swallows, and the children j on its
    boundary bands with their rows, for the caller's distance tests.

    Children sit at off[j] = -span + j * step along the parent's diameter,
    and a row's ball center sits t along it and q off it, so the children
    within rho of the center are |off[j] - t| <= sqrt(rho**2 - q**2): an
    index range.  The reach radius rad_cap + grow is widened by tol, so
    nothing outside its range passes; the swallow radius rad_cap - grow is
    narrowed by tol, so everything inside its range passes.  Bands over
    ``hierarchy.DISC_CAP`` rows in all raise, before they are built."""
    n = len(off)
    inv_step = (n - 1) / (2.0 * off[-1])
    c = (t + off[-1]) * inv_step
    # the reach and swallow half-widths, one row each
    rho = np.maximum(rad_cap + np.array([[grow], [-grow]]), 0.0)
    qq = np.maximum(q + np.array([[-tol], [tol]]), 0.0)
    w = _chord(rho, qq)
    w += np.array([[tol], [-tol]])
    # first index past each range end, one row each: reach start,
    # swallow end, swallow start, reach end
    ends = w[[0, 1, 1, 0]]
    ends *= np.array([[-inv_step], [inv_step], [-inv_step], [inv_step]])
    ends += c
    np.floor(ends, out=ends)
    ends += 1.0
    # fmax/fmin also clip a NaN, should a center near the float range
    # overflow the arithmetic
    np.fmax(ends, 0.0, out=ends)
    np.fmin(ends, n, out=ends)
    ends = ends.astype(np.intp)
    # an empty swallow range starts and ends inside the reach range
    np.maximum(ends[1], ends[2], out=ends[1])
    swallowed = ends[1] - ends[2]
    # the boundary bands [reach start, swallow start) of every row, then
    # [swallow end, reach end) of every row
    seg_lo = ends[:2].ravel()
    seg_n = np.maximum(ends[2:].ravel() - seg_lo, 0)
    start = np.cumsum(seg_n)
    total = int(start[-1])
    if total > hierarchy.DISC_CAP:
        raise DiscCapExceeded(f"a ball descent's level holds {total} band "
                              f"rows, over the cap of {hierarchy.DISC_CAP}")
    start -= seg_n
    j = np.arange(total) + np.repeat(seg_lo - start, seg_n)
    row = np.repeat(np.arange(2 * len(c)) % len(c), seg_n)
    return swallowed, j, row


def _descend(m: NaturalMeasure, x: np.ndarray, r: np.ndarray,
             paths: np.ndarray) -> np.ndarray:
    """Masses of the balls B(x[i], r[i]), each descending from its
    ancestor at its :func:`_start_levels` level on ``paths``, the centers'
    index paths (one row per level, as :func:`_draw_paths` draws them);
    the root descent's rows would reach that ancestor alone and add
    nothing.  Paths of no rows start every ball at the root."""
    h = m.hierarchy
    n_probes = len(r)
    # Disc centers lie within r_0 of the origin, so a ball of radius `reach`
    # swallows every disc with room to spare; the range arithmetic caps
    # radii there to stay finite.  tol bounds the absolute float error of
    # every distance and range end below: each rounding is at most eps
    # times r_0 + |x|_1 + r, and the child distances, the frame (t, q) and
    # the range ends take a few dozen of them.
    x_all, y_all = x[:, 0], x[:, 1]
    reach = 2.0 * (h.radius(0) + np.abs(x_all) + np.abs(y_all))
    cap_all = np.minimum(r, reach)
    tol = 64.0 * np.finfo(float).eps * float(np.max(reach + cap_all))
    s = _start_levels(h, min(m.depth, len(paths) + 1), r, tol)
    s_max = int(s.max())
    # every probe's ancestor at the level above the current one, read by
    # the probes that join the frontier there
    ancestors = _path_sums(h, paths[:s_max])
    # frontier rows: the ball's probe and the center of the disc whose
    # children the level tests
    probe = np.empty(0, dtype=np.intp)
    ax = ay = np.empty(0)
    mass = np.zeros(n_probes)
    level_mass = 1.0
    for level in range(1, m.depth + 1):
        r_lvl = h.radius(level)
        level_mass /= h.counts[level - 1]
        if level <= s_max + 1:
            anc_x, anc_y = next(ancestors)
            new = np.flatnonzero(s == level - 1)
            probe = np.concatenate((probe, new))
            ax = np.concatenate((ax, anc_x[new]))
            ay = np.concatenate((ay, anc_y[new]))
        if len(probe) == 0:
            continue
        px, py, rad, rad_cap = x_all[probe], y_all[probe], r[probe], cap_all[probe]
        off = h.offsets(level)
        ex, ey = h.direction(level)
        last = level == m.depth
        vx, vy = px - ax, py - ay
        t = vx * ex + vy * ey
        q = np.abs(vx * ey - vy * ex)
        # at the last level the reach radius is the ball's own
        grow = tol if last else r_lvl + tol
        swallowed, j, row = _child_bands(off, t, q, rad_cap, grow, tol)
        o = off[j]
        cx = ax[row] + o * ex
        cy = ay[row] + o * ey
        r_c = rad[row]
        dist = np.hypot(cx - px[row], cy - py[row])
        hit = dist <= r_c if last else dist + r_lvl <= r_c
        hits = swallowed + np.bincount(row[hit], minlength=len(probe))
        mass += level_mass * np.bincount(probe, weights=hits, minlength=n_probes)
        if last:
            break
        keep = (dist <= r_c + r_lvl) & ~hit
        row = row[keep]
        ax, ay = cx[keep], cy[keep]
        probe = probe[row]
    return mass


def ball_mass(m: NaturalMeasure, x, r: float) -> float:
    """Exact mass of the closed ball B(x, r); see :func:`ball_masses`."""
    return float(ball_masses(m, x, [r])[0])


@dataclass(frozen=True)
class FrostmanScan:
    """Outcome of a mass-bound scan against C*f(r)."""

    c_emp: float
    c_bound: float
    violations: int
    samples: int


def frostman_scan(m: NaturalMeasure, samples: int, seed: int,
                  mass_scale: float = 1.0) -> FrostmanScan:
    """Sample ratios mass(B(x, r)) / f(r), f the gauge the hierarchy was
    built from, against the construction bound C = max(8/(a*kappa), 1/a),
    with kappa the prefactor of f's doubling fit (``f.doubling.kappa``; 1
    for power gauges).  The ratios are compared in log space, log mass -
    ``f.log_value(log r)`` against log C (to 1e-9 relative), so f(r) is
    never formed; ``c_emp`` is e**max.

    x ranges over atoms, log r uniformly over [log r_depth, log r_0]; a
    deterministic probe at each level's first disc center, the center of
    the all-zero index path to level k, with r = r_k is always included,
    which pins the scan's sensitivity near 1/a.  ``mass_scale`` rescales
    the masses, a negative control (scaled masses must violate the bound).

    The atoms are drawn as index paths (:func:`_draw_paths`, the draw
    ``sample_atoms`` makes), so each probe's descent starts at its
    ancestor (:func:`_start_levels`; s <= k - 1 for the first-path probe
    of level k) and the masses equal :func:`ball_masses`' bit for bit.
    """
    h = m.hierarchy
    f = h.gauge
    c_bound = max(8.0 / (h.a * f.doubling.kappa), 1.0 / h.a)
    rng = np.random.default_rng(seed)
    n_random = max(samples - m.depth, 0)
    # index paths: the first-path probes take child 0 at every level, so
    # probe k's center is the level-k sum of that path
    paths = np.zeros((m.depth, m.depth + n_random), dtype=np.intp)
    paths[:, m.depth:] = _draw_paths(m, n_random, rng)
    first = [(x[0], y[0]) for x, y in _path_sums(h, paths[:, :1])][1:]
    xs = np.vstack([first, _path_centers(h, paths[:, m.depth:])])
    log_r = np.concatenate((
        [h.log_radius(k) for k in range(1, m.depth + 1)],
        rng.uniform(h.log_radius(m.depth), h.log_radius(0), size=n_random)))
    # r_k on a level-k center is a tangency tie: those radii keep r_k's bits
    rs = np.concatenate(([h.radius(k) for k in range(1, m.depth + 1)],
                         np.exp(log_r[m.depth:])))
    masses = _chunked_masses(m, xs, rs, paths)
    with np.errstate(divide="ignore"):  # an empty ball's log mass is -inf
        log_ratios = np.log(mass_scale * masses) - f.log_value(log_r)
    c_emp = math.exp(log_ratios.max())
    violations = int(np.count_nonzero(
        log_ratios > math.log(c_bound) + math.log1p(1e-9)))
    return FrostmanScan(c_emp, c_bound, violations, len(rs))


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelEnergy:
    """The pairs that first diverge at ``level``: their probability ``p``
    under two independent atom draws, and the mean of 1/f over the
    stratum's ``pairs`` draws with its standard error."""

    level: int
    p: float
    pairs: int
    mean: float
    stderr: float


@dataclass(frozen=True)
class EnergyEstimate:
    mean: float
    stderr: float
    pairs_used: int
    collisions_rejected: int
    levels: tuple[LevelEnergy, ...] = ()


def _as_coords(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    mean = float(vals.mean())
    if not math.isfinite(mean):  # distinct atoms coincide
        return mean, math.inf
    # the std of vals / 2**e, with e the exponent of their maximum, scaled
    # back: the squares stay finite at any magnitude, and scaling by a
    # power of two is exact in the normal range
    e = math.frexp(float(vals.max()))[1]
    std = float(np.ldexp((vals * math.ldexp(1.0, -e)).std(ddof=1), e))
    return mean, std / math.sqrt(len(vals))


def _stratified(levels) -> tuple[float, float]:
    """The stratified estimate over ``LevelEnergy`` strata: sum_k p_k mean_k
    with standard error sqrt(sum_k (p_k stderr_k)**2)."""
    return (sum(lv.p * lv.mean for lv in levels),
            math.sqrt(sum((lv.p * lv.stderr) ** 2 for lv in levels)))


def discrete_energy(f: GaugeFunction, points, masses=None) -> float:
    """Exact off-diagonal double sum of m_i m_j / f(|x_i - x_j|).

    Returns inf if distinct atoms coincide; raises when all atoms do.
    Points may be 1-d (line coordinates) or (n, 2) arrays.
    """
    pts = _as_coords(points)
    n = len(pts)
    if n < 2:
        raise GaugeError("discrete energy needs at least two atoms")
    w = (np.full(n, 1.0 / n) if masses is None
         else np.asarray(masses, dtype=float))
    total = 0.0
    seen_distinct = False
    coincident = False
    chunk = 1024
    # reused buffers keep the block loop at memory bandwidth
    dist = np.empty((min(chunk, n), n))
    aux = np.empty_like(dist) if pts.shape[1] == 2 else None
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        d = dist[:i1 - i0]
        if pts.shape[1] == 1:
            np.subtract(pts[i0:i1, 0][:, None], pts[None, :, 0], out=d)
            np.abs(d, out=d)
        else:
            a = aux[:i1 - i0]
            np.subtract(pts[i0:i1, 0][:, None], pts[None, :, 0], out=d)
            np.multiply(d, d, out=d)
            np.subtract(pts[i0:i1, 1][:, None], pts[None, :, 1], out=a)
            np.multiply(a, a, out=a)
            np.add(d, a, out=d)
            np.sqrt(d, out=d)
        zero = d == 0.0
        np.fill_diagonal(zero[:, i0:i1], False)
        coincident = coincident or bool(zero.any())
        np.fill_diagonal(zero[:, i0:i1], True)  # back to all zero-distance cells
        d[zero] = 1.0  # dummy; these entries are zeroed below
        vals = np.asarray(f.reciprocal(d))
        vals[zero] = 0.0
        seen_distinct = seen_distinct or bool((vals > 0).any())
        total += float(w[i0:i1] @ (vals @ w))
    if not seen_distinct:
        raise GaugeError("all atoms coincide; discrete energy undefined")
    return math.inf if coincident else total


def divergence_pairs(m: NaturalMeasure, pairs: int, rng: np.random.Generator):
    """Atom pairs of m drawn level by level.  Yields, for k = 1 .. depth,
    (k, p_k, dz): the probability p_k = (1 - 1/N_k) / (N_1 ... N_{k-1})
    that two independent atoms first diverge at level k, and the
    differences of pairs // depth such pairs (the remainder goes to the
    first levels) as complex numbers dx + i dy.  Their modulus is
    ``np.abs(dz)``, within 2 ulp of ``np.hypot(dx, dy)`` and, unlike a
    squared sum, free of underflow down to subnormal differences.

    A pair makes one uniform draw per level from that level's ordered-pair
    step table (:meth:`DiscHierarchy.step_table`, built once per
    hierarchy): at level k among its N_k (N_k - 1) entries with children
    i != j, the law of i and j = (i + U{1..N_k - 1}) mod N_k, below it
    among all N_l**2 entries, so the paths below are independent.  The
    difference sums the drawn steps from level k down, one complex take
    and add per level, never absolute coordinates.  A level with a zero
    entry past its first N_k (children coinciding in float64) raises.

    Every stratum's dz is a view of one buffer that the next stratum's
    draws overwrite, so a caller reads it before it advances; it may
    write into dz meanwhile (``np.abs(dz, out=dz.real)``).  Reusing the
    buffer keeps the strata from faulting fresh pages in.
    """
    h = m.hierarchy
    share, extra = divmod(pairs, m.depth)
    if share < 2:
        raise GaugeError("energy draws need at least two pairs per level")
    tables = [h.step_table(level) for level in range(1, m.depth + 1)]
    for k, table in enumerate(tables, 1):
        if not table[h.counts[k - 1]:].all():  # a step of 0 + 0j
            raise GaugeError(f"level {k}'s children coincide in float64 "
                             f"(r_{k} = {h.radius(k)!r})")
    buf = np.empty((2, share + (extra > 0)), dtype=complex)
    for k in range(1, m.depth + 1):
        n = share + (k <= extra)
        count = h.counts[k - 1]
        dz, step = buf[0, :n], buf[1, :n]
        # past the pairs i == j at level k, over all pairs below it.  The
        # indices are in range, so "clip" changes none; it spares take a
        # buffered copy of ``out``.
        tables[k - 1].take(rng.integers(count, count * count, size=n),
                           out=dz, mode="clip")
        for table in tables[k:]:
            dz += table.take(rng.integers(0, len(table), size=n), out=step,
                             mode="clip")
        yield k, (1.0 - 1.0 / count) / h.disc_count(k - 1), dz


def _require_pairs(pairs: int) -> None:
    if pairs < MIN_PAIRS:
        raise GaugeError(f"use at least {MIN_PAIRS} pairs")


def mc_energy_atoms(f: GaugeFunction, points, masses, pairs: int,
                    seed: int) -> EnergyEstimate:
    """Monte Carlo energy of an explicit weighted atom list: over
    independent mass-proportional index pairs, a same-index pair counting
    0, the mean estimates the off-diagonal sum :func:`discrete_energy`
    computes (inf when distinct atoms coincide).  ``collisions_rejected``
    counts the same-index pairs."""
    _require_pairs(pairs)
    coords = _as_coords(points)
    n = len(coords)
    rng = np.random.default_rng(seed)
    if masses is None:
        i, j = rng.integers(0, n, size=(2, pairs))
    else:
        p = np.asarray(masses, dtype=float)
        i, j = rng.choice(n, size=(2, pairs), p=p / p.sum())
    same = i == j
    d = np.linalg.norm(coords[i] - coords[j], axis=-1)
    d[same] = 1.0  # dummy; these pairs count 0
    with np.errstate(divide="ignore"):  # 1/f(0) of coincident atoms is inf
        vals = np.asarray(f.reciprocal(d), dtype=float)
    vals[same] = 0.0
    return EnergyEstimate(*_mean_stderr(vals), pairs, int(same.sum()))


def mc_energy(f: GaugeFunction, m: NaturalMeasure, pairs: int,
              seed: int) -> EnergyEstimate:
    """Monte Carlo estimate of the natural measure's energy for gauge f,
    the off-diagonal double sum :func:`discrete_energy` computes on the
    atoms: one ``LevelEnergy`` stratum of 1/f per level of
    :func:`divergence_pairs`, reduced by :func:`_stratified`.  A pair costs
    one uniform draw per level from that level's ordered-pair step table.
    No pair coincides, so ``collisions_rejected`` is 0."""
    _require_pairs(pairs)
    rng = np.random.default_rng(seed)
    levels = []
    for k, p, dz in divergence_pairs(m, pairs, rng):
        # the moduli overwrite the stratum's real parts, read once
        vals = f.reciprocal(np.abs(dz, out=dz.real))
        levels.append(LevelEnergy(k, p, len(dz), *_mean_stderr(vals)))
    return EnergyEstimate(*_stratified(levels), pairs, 0, tuple(levels))


def potential(f: GaugeFunction, m: NaturalMeasure, x, pairs: int,
              seed: int) -> float:
    """Monte Carlo estimate of the potential integral of 1/f(|x - y|) d mu(y)
    over the atoms y != x: a draw that lands on x itself counts 0."""
    _require_pairs(pairs)
    rng = np.random.default_rng(seed)
    d = np.linalg.norm(m.sample_atoms(pairs, rng) - np.asarray(x, dtype=float),
                       axis=-1)
    far = d > 0.0
    inv = np.zeros_like(d)
    inv[far] = f.reciprocal(d[far])
    return float(np.mean(inv))
