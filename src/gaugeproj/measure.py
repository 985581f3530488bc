"""The natural measure on a hierarchy, mass-bound scans and energies.

The natural measure splits mass equally among children, so every level-k
disc carries exactly 1/(N_1 ... N_k).  Atoms sit at the centers of the
deepest built level.  Ball masses are computed by descending the implicit
tree (prune discs a ball misses, absorb discs it swallows whole), which
stays exact even when the full atom set is too large to materialise; all
probes of a scan go through one batched descent.  A disc's children sit on
one diameter, so the descent addresses them as index ranges: the children
a ball swallows are counted, and only those on its boundary are measured.

Energies are the discrete analogue of the double integral of
1/f(|x - y|): exact chunked double sums for small atom sets, seeded
mass-proportional pair sampling for large ones.  Coincident pairs are
resampled, never divided by f(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauges import GaugeFunction, GaugeError
from .hierarchy import DiscHierarchy, DiscCapExceeded


class EnergyEstimateError(RuntimeError):
    """The pair sampler could not produce enough distinct pairs."""


@dataclass(frozen=True, eq=False)
class NaturalMeasure:
    """Equal-split probability measure with atoms at depth-level centers."""

    hierarchy: DiscHierarchy
    depth: int

    def __post_init__(self):
        if not 1 <= self.depth <= self.hierarchy.depth:
            raise GaugeError("measure depth must lie within the built hierarchy")

    @property
    def log_atom_mass(self) -> float:
        return -sum(math.log(n) for n in self.hierarchy.counts[:self.depth])

    @property
    def atom_count(self) -> int:
        return self.hierarchy.disc_count(self.depth)

    def atom_coords(self) -> np.ndarray:
        """Materialised atom locations; raises DiscCapExceeded when too many."""
        return self.hierarchy.level_centers(self.depth)

    def atom_masses(self) -> np.ndarray:
        return np.full(self.atom_count, math.exp(self.log_atom_mass))

    def total_log_mass(self) -> float:
        """log of the summed atom masses; zero up to rounding."""
        return math.log(self.atom_count) + self.log_atom_mass

    def sample_atoms(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Centers of n uniformly sampled atoms (equal masses make uniform
        path sampling mass-proportional), without materialising the level."""
        h = self.hierarchy
        x, y = np.zeros(n), np.zeros(n)
        for level in range(1, self.depth + 1):
            idx = rng.integers(0, h.counts[level - 1], size=n)
            step = h.offsets(level)[idx]
            ex, ey = h.direction(level)
            x += step * ex
            y += step * ey
        return np.stack([x, y], axis=1)


# probes descended together; bounds the per-level frontier arrays
PROBE_CHUNK = 4096
# most boundary discs one probe's descent may keep at a level
DESCENT_CAP = 2_000_000


def ball_masses(m: NaturalMeasure, xs, rs) -> np.ndarray:
    """Exact masses of the closed balls B(xs[i], rs[i]) under the natural
    measure.

    Descends the disc tree for all balls at once: subtrees entirely inside
    a ball contribute their full mass, subtrees a ball cannot reach are
    pruned, and only boundary discs are expanded.  The frontier holds one
    row per (ball, boundary disc) pair, processed PROBE_CHUNK balls at a
    time.  A row's children sit on one diameter, so the children its ball
    swallows and those it can reach are index ranges: the interior of the
    swallowed range is counted by index arithmetic, and the distance
    predicates run only on the two boundary bands between the ranges.
    Centers and radii must be finite.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    rs = np.asarray(rs, dtype=float).reshape(-1)
    if len(xs) != len(rs):
        raise GaugeError("ball_masses needs one radius per center")
    if not (np.isfinite(xs).all() and np.isfinite(rs).all()):
        raise GaugeError("ball centers and radii must be finite")
    out = np.empty(len(rs))
    for lo in range(0, len(rs), PROBE_CHUNK):
        hi = lo + PROBE_CHUNK
        out[lo:hi] = _descend(m, xs[lo:hi], rs[lo:hi])
    return out


def _descend(m: NaturalMeasure, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    h = m.hierarchy
    n_probes = len(r)
    # frontier rows: the ball's probe, center and radius, the disc's center
    probe = np.arange(n_probes)
    px, py, rad = x[:, 0], x[:, 1], r
    ax = ay = np.zeros(n_probes)
    mass = np.zeros(n_probes)
    level_mass = 1.0
    # Disc centers lie within r_0 of the origin, so a ball of radius `reach`
    # swallows every disc with room to spare; the range arithmetic caps
    # radii there to stay finite.  tol bounds the absolute float error of
    # every distance and range end below: each rounding is at most eps
    # times r_0 + |x|_1 + r, and the child distances, the frame (t, q) and
    # the range ends take a few dozen of them.
    reach = 2.0 * (h.radius(0) + np.abs(px) + np.abs(py))
    rad_cap = np.minimum(r, reach)
    tol = 64.0 * np.finfo(float).eps * float(np.max(reach + rad_cap))
    for level in range(1, m.depth + 1):
        r_lvl = h.radius(level)
        level_mass /= h.counts[level - 1]
        off = h.offsets(level)
        n = len(off)
        ex, ey = h.direction(level)
        last = level == m.depth
        # Children sit at off[j] = -span + j * step along e, and the ball's
        # center sits t along e and q off that diameter, so the children
        # within rho of it are |off[j] - t| <= sqrt(rho**2 - q**2): an index
        # range.  The reach radius (at the last level the ball's own) is
        # widened by tol, so nothing outside its range passes; the swallow
        # radius is narrowed by tol, so everything inside its range passes.
        vx, vy = px - ax, py - ay
        t = vx * ex + vy * ey
        q = np.abs(vx * ey - vy * ex)
        grow = tol if last else r_lvl + tol
        rho = np.maximum(rad_cap[:, None] + np.array([grow, -grow]), 0.0)
        qq = np.maximum(q[:, None] + np.array([-tol, tol]), 0.0)
        w = np.sqrt(np.maximum(rho - qq, 0.0)) * np.sqrt(rho + qq)
        w += np.array([tol, -tol])
        inv_step = (n - 1) / (2.0 * off[-1])
        c = (t + off[-1]) * inv_step
        # first index past each range end: reach start, swallow end,
        # swallow start, reach end
        half = w[:, [0, 1, 1, 0]] * np.array([-inv_step, inv_step, -inv_step, inv_step])
        ends = np.floor(c[:, None] + half)
        ends += 1.0
        # fmax/fmin also clip a NaN, should a center near the float range
        # overflow the arithmetic
        np.fmax(ends, 0.0, out=ends)
        np.fmin(ends, n, out=ends)
        ends = ends.astype(np.intp)
        # an empty swallow range starts and ends inside the reach range
        np.maximum(ends[:, 1], ends[:, 2], out=ends[:, 1])
        swallowed = ends[:, 1] - ends[:, 2]
        # the boundary bands [reach start, swallow start) and
        # [swallow end, reach end), row by row
        seg_lo = ends[:, :2].ravel()
        seg_n = np.maximum(ends[:, 2:].ravel() - seg_lo, 0)
        start = np.cumsum(seg_n) - seg_n
        j = np.arange(start[-1] + seg_n[-1]) + np.repeat(seg_lo - start, seg_n)
        row = np.repeat(np.arange(len(seg_n)) >> 1, seg_n)
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
        probe, px, py = probe[row], px[row], py[row]
        rad, rad_cap = rad[row], rad_cap[row]
        if len(probe) == 0:
            break
        if len(probe) > DESCENT_CAP and np.bincount(probe).max() > DESCENT_CAP:
            raise DiscCapExceeded("ball descent touched too many discs")
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
    worst: tuple[float, float, float]  # (x0, x1, r) achieving c_emp

    def to_dict(self) -> dict:
        return {"c_emp": self.c_emp, "c_bound": self.c_bound,
                "violations": self.violations, "samples": self.samples,
                "worst": list(self.worst)}


def frostman_scan(m: NaturalMeasure, f: GaugeFunction, samples: int, seed: int,
                  kappa: float = 1.0, mass_scale: float = 1.0) -> FrostmanScan:
    """Sample ratios mass(B(x, r)) / f(r) against the construction bound
    C = max(8/(a*kappa), 1/a).

    x ranges over atoms, log r uniformly over [log r_depth, log r_0]; a
    deterministic probe at each level's first disc center with r = r_k is
    always included, which pins the scan's sensitivity near 1/a.
    ``mass_scale`` rescales the measured masses and exists as a negative
    control (scaled masses must violate the bound).
    """
    h = m.hierarchy
    c_bound = max(8.0 / (h.a * kappa), 1.0 / h.a)
    rng = np.random.default_rng(seed)
    levels = range(1, m.depth + 1)
    n_random = max(samples - m.depth, 0)
    xs = np.vstack([[h.first_path_center(k) for k in levels],
                    m.sample_atoms(n_random, rng)])
    log_r = rng.uniform(h.log_radius(m.depth), h.log_radius(0), size=n_random)
    rs = np.array([h.radius(k) for k in levels] + [math.exp(v) for v in log_r])
    ratios = mass_scale * ball_masses(m, xs, rs) / f.value(rs)
    i = int(np.argmax(ratios))  # first probe attaining the maximum
    if ratios[i] > 0.0:
        c_emp = float(ratios[i])
        worst = (float(xs[i, 0]), float(xs[i, 1]), float(rs[i]))
    else:
        c_emp, worst = 0.0, (0.0, 0.0, 0.0)
    violations = int(np.count_nonzero(ratios > c_bound * (1.0 + 1e-9)))
    return FrostmanScan(c_emp, c_bound, violations, len(rs), worst)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyEstimate:
    mean: float
    stderr: float
    pairs_used: int
    collisions_rejected: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr,
                "pairs_used": self.pairs_used,
                "collisions_rejected": self.collisions_rejected}


def _as_coords(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def discrete_energy(f: GaugeFunction, points, masses=None,
                    chunk: int = 1024) -> float:
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
        if f.family == "power":
            np.power(d, -f.s, out=d)
            vals = d
        else:
            vals = np.asarray(f.reciprocal(d))
        vals[zero] = 0.0
        seen_distinct = seen_distinct or bool((vals > 0).any())
        total += float(w[i0:i1] @ (vals @ w))
    if not seen_distinct:
        raise GaugeError("all atoms coincide; discrete energy undefined")
    return math.inf if coincident else total


def sample_distinct_pairs(draw, pairs: int):
    """``pairs`` nonzero difference vectors from ``draw(k)``, which returns
    k difference vectors as a (k, dim) array.

    Zero-length rows are redrawn, for at most 128 rounds.  Returns
    (diffs, distances, rejected); raises EnergyEstimateError when the
    rejections exceed 4 * pairs or the rounds run out.
    """
    diff = draw(pairs)
    d = np.linalg.norm(diff, axis=-1)
    rejected = 0
    for _ in range(128):
        bad = d == 0.0
        n_bad = int(bad.sum())
        if n_bad == 0:
            return diff, d, rejected
        rejected += n_bad
        if rejected > 4 * pairs:
            raise EnergyEstimateError(
                "runaway pair rejection: atoms coincide almost surely")
        diff[bad] = draw(n_bad)
        d[bad] = np.linalg.norm(diff[bad], axis=-1)
    raise EnergyEstimateError("could not draw distinct atom pairs")


def _check_self_mass(self_mass: float) -> None:
    if self_mass > 0.5:
        raise EnergyEstimateError(
            "pair rejection rate above 50%: measure too atomic at this depth")


def _estimate(vals: np.ndarray, pairs: int, rejected: int,
              self_mass: float) -> EnergyEstimate:
    # resampling estimates the mean conditional on distinct locations;
    # rescaling by the exact self-pair probability sum(m_i^2) recovers the
    # off-diagonal double sum that discrete_energy computes
    scale = 1.0 - self_mass
    mean = float(vals.mean()) * scale
    stderr = float(vals.std(ddof=1) / math.sqrt(len(vals))) * scale
    return EnergyEstimate(mean, stderr, pairs, rejected)


def mc_energy_atoms(f: GaugeFunction, points, masses, pairs: int,
                    seed: int) -> EnergyEstimate:
    """Monte Carlo energy of an explicit weighted atom list."""
    if pairs < 10 ** 3:
        raise GaugeError("use at least 1000 pairs")
    coords = _as_coords(points)
    n = len(coords)
    rng = np.random.default_rng(seed)
    if masses is None:
        self_mass = 1.0 / n
        pick = lambda k: rng.integers(0, n, size=(2, k))
    else:
        p = np.asarray(masses, dtype=float)
        p = p / p.sum()
        self_mass = float(np.sum(p * p))
        pick = lambda k: rng.choice(n, size=(2, k), p=p)
    _check_self_mass(self_mass)

    def draw(k):
        i, j = pick(k)
        return coords[i] - coords[j]

    _, d, rejected = sample_distinct_pairs(draw, pairs)
    vals = np.asarray(f.reciprocal(d), dtype=float)
    return _estimate(vals, pairs, rejected, self_mass)


def mc_energy(f: GaugeFunction, m: NaturalMeasure, pairs: int,
              seed: int) -> EnergyEstimate:
    """Monte Carlo estimate of the natural measure's energy for gauge f.

    Atom pairs are sampled mass-proportionally (uniform paths, since the
    split is equal) without materialising the atom set.
    """
    if pairs < 10 ** 3:
        raise GaugeError("use at least 1000 pairs")
    _check_self_mass(math.exp(m.log_atom_mass))
    rng = np.random.default_rng(seed)
    _, d, rejected = sample_distinct_pairs(
        lambda k: m.sample_atoms(k, rng) - m.sample_atoms(k, rng), pairs)
    vals = np.asarray(f.reciprocal(d), dtype=float)
    return _estimate(vals, pairs, rejected, math.exp(m.log_atom_mass))


def potential(f: GaugeFunction, m: NaturalMeasure, x, pairs: int,
              seed: int) -> float:
    """Monte Carlo estimate of the potential integral of 1/f(|x - y|) d mu(y)."""
    if pairs < 10 ** 3:
        raise GaugeError("use at least 1000 pairs")
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    _, d, _ = sample_distinct_pairs(lambda k: m.sample_atoms(k, rng) - x, pairs)
    return float(np.mean(f.reciprocal(d)))


def capacity_lower_bound(f: GaugeFunction, m: NaturalMeasure, pairs: int,
                         seed: int) -> float:
    """1 / (estimated energy): one admissible measure's witness that the
    capacity is at least this large."""
    return 1.0 / mc_energy(f, m, pairs, seed).mean
