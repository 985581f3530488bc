"""The nested-disc construction and its inequality checks.

A hierarchy starts from a closed disc of radius r_0 at the origin.  Each
level-k disc receives N_{k+1} equally spaced subdiscs of radius r_{k+1}
along the diameter at cumulative direction d_{k+1}, first and last child
internally tangent to the parent.  The radii follow the super-fast
schedule r'_k = (k log k log log k)**-k, shifted to the first index k1
where

    f(r_{k+1}) < (1/4) f(r_k)          and
    f(r_{k+1})/r_{k+1} > 3 f(r_k)/r_k

both hold, and the branching counts N_k keep the mass products pinched:

    a <= N_1 ... N_k f(r_k) <= 2a,     a = f(r_0).

Only the per-level local geometry (offsets, direction, log radius) is
stored, and the level table (r_k, N_k, theta_k) describes the whole
hierarchy.  Validation reads that geometry alone, level by level, so it
works even when the full product of branching counts is astronomically
large.  No absolute center is stored or serialised: the natural measure
sums the centers of the index paths it draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gauges import GaugeFunction, GaugeError

LOG_QUARTER = math.log(0.25)
LOG3 = math.log(3.0)

MIN_DEPTH = 2         # fewest levels a schedule may have
DISC_CAP = 10 ** 7    # most step-table entries or intervals in one array
FIRST_WINDOW = 64     # starts in the first window of the k1 search
MAX_WINDOW = 1 << 15  # most starts in one window (256 KiB per float64 array)


class ScheduleError(GaugeError):
    """No admissible radius schedule exists for this gauge."""


class BranchingError(GaugeError):
    """The branching interval contains no admissible integer."""


class DiscCapExceeded(RuntimeError):
    """A step table or interval merge would exceed ``DISC_CAP`` entries."""


# ---------------------------------------------------------------------------
# Radius schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusSchedule:
    """Strictly decreasing log radii log r_0 .. log r_K.

    ``k1`` is the shift into the raw sequence when the schedule was derived;
    hand-built schedules carry ``k1 = None`` and are validated only by the
    hierarchy report.
    """

    log_r: tuple[float, ...]
    k1: int | None = None

    def __post_init__(self):
        lr = self.log_r
        if len(lr) < 1:
            raise ScheduleError("schedule needs at least one radius")
        if any(b >= a for a, b in zip(lr, lr[1:])):
            raise ScheduleError("log radii must be strictly decreasing")
        if lr[0] > 0.0:
            raise ScheduleError("radii must not exceed 1")

    @property
    def depth(self) -> int:
        return len(self.log_r) - 1

    def radius(self, k: int) -> float:
        return math.exp(self.log_r[k])


def raw_log_radii(ks) -> np.ndarray:
    """log r'_k for the schedule r'_k = (k log k log log k)**-k, k >= 3."""
    k = np.asarray(ks, dtype=float)
    if np.any(k < 3):
        raise ScheduleError("raw radii need k >= 3")
    product = k * np.log(k) * np.log(np.log(k))
    return -k * np.log(product)


def derive_radius_schedule(f: GaugeFunction, K: int) -> RadiusSchedule:
    """Least shift k1 making the raw radius sequence admissible for f over
    K consecutive levels, returned as the shifted schedule r_k = r'_{k+k1}.

    Requires f doubling with fitted exponent <= 1; fails with a diagnostic
    when no shift up to 10**6 works.

    The starts are scanned in growing windows: the first holds
    ``FIRST_WINDOW`` starts and each later one twice as many, up to
    ``MAX_WINDOW``.  Each window tests the mass-drop and rate inequalities
    on its starts and the K levels past its last start, so consecutive
    windows share K + 1 indices and a run of admissible levels straddling
    an edge is still found.  The first hit is the least admissible shift,
    the same result as one scan over every start, and the cost grows with
    k1 instead of with the 10**6 bound.
    """
    if K < MIN_DEPTH:
        raise ScheduleError(f"need depth K >= {MIN_DEPTH}")
    fit = f.doubling
    if fit.s > 1.0 + 1e-9:
        raise ScheduleError(
            f"doubling exponent {fit.s:.4f} exceeds 1; construction needs <= 1")

    k_lo = 3
    while k_lo * math.log(k_lo) * math.log(math.log(k_lo)) <= 1.0:
        k_lo += 1

    chunk = FIRST_WINDOW
    k_max = 10 ** 6
    while k_lo <= k_max:
        k_hi = min(k_lo + chunk, k_max + K + 1)
        ks = np.arange(k_lo, k_hi + K + 1, dtype=float)
        lv = raw_log_radii(ks)
        lf = np.asarray(f.log_value(lv), dtype=float)
        ok_mass = lf[1:] < lf[:-1] + LOG_QUARTER
        ok_rate = (lf[1:] - lv[1:]) > LOG3 + (lf[:-1] - lv[:-1])
        ok = ok_mass & ok_rate
        window = np.convolve(ok.astype(int), np.ones(K, dtype=int), "valid") == K
        hits = np.nonzero(window)[0]
        hits = hits[hits + k_lo <= k_max]
        if len(hits):
            i = int(hits[0])
            return RadiusSchedule(tuple(lv[i:i + K + 1].tolist()), k1=k_lo + i)
        k_lo = k_hi
        chunk = min(2 * chunk, MAX_WINDOW)
    raise ScheduleError(
        f"no admissible start k1 <= {k_max}: the gauge does not satisfy the "
        "mass-drop and rate inequalities on the raw radius sequence")


# ---------------------------------------------------------------------------
# Branching counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchingPlan:
    """Normalisation a = f(r_0) and the branching counts N_1 .. N_K."""

    a: float
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.a > 0:
            raise BranchingError("normalisation a must be positive")
        if any(n < 2 for n in self.counts):
            raise BranchingError("branching counts must be >= 2")


def choose_branching(f: GaugeFunction, schedule: RadiusSchedule) -> BranchingPlan:
    """Smallest admissible branching counts for the pinched mass products.

    N_{k+1} is the least integer in [L, 2L] with L = a / (N_1 ... N_k
    f(r_{k+1})).  The interval has width L > 2 whenever the schedule
    inequalities hold, and then ceil(L) <= L + 1 < 2L, so the least
    integer >= 2 in it is max(ceil(L), 2).
    """
    log_a = float(f.log_value(schedule.log_r[0]))
    log_prod = 0.0
    counts: list[int] = []
    for k in range(schedule.depth):
        lower = math.exp(log_a - log_prod
                         - float(f.log_value(schedule.log_r[k + 1])))
        if lower <= 2.0 * (1.0 - 1e-9):
            raise BranchingError(
                f"branching interval [{lower:.3f}, {2.0 * lower:.3f}] at level "
                f"{k + 1} is too narrow; schedule inequalities are violated "
                "upstream")
        n = max(int(math.ceil(lower)), 2)
        counts.append(n)
        log_prod += math.log(n)
    return BranchingPlan(math.exp(log_a), tuple(counts))


# ---------------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscHierarchy:
    """Per-level geometry of the construction; immutable once built.

    ``offsets(k)`` holds the signed center offsets of the level-k
    children along their parent's placement diameter (physical units),
    :meth:`parent_frame` the same offsets in units of r_{k-1},
    :meth:`step_table` the ordered-pair differences the energy sampler
    draws from, and ``d[k]`` the cumulative placement direction d_{k+1}.
    Absolute centers are not stored; :meth:`to_dict` is the level table.
    """

    gauge: GaugeFunction
    schedule: RadiusSchedule
    a: float
    counts: tuple[int, ...]
    theta: tuple[float, ...]
    d: tuple[float, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def depth(self) -> int:
        return len(self.counts)

    def radius(self, k: int) -> float:
        return self.schedule.radius(k)

    def log_radius(self, k: int) -> float:
        return self.schedule.log_r[k]

    def disc_count(self, level: int) -> int:
        out = 1
        for n in self.counts[:level]:
            out *= n
        return out

    def offsets(self, level: int) -> np.ndarray:
        """Signed center offsets of level-`level` children within a parent."""
        key = ("off", level)
        if key not in self._cache:
            n = self.counts[level - 1]
            span = self.radius(level - 1) - self.radius(level)
            self._cache[key] = np.linspace(-span, span, n)
        return self._cache[key]

    def step_table(self, level: int) -> np.ndarray:
        """The level's ordered-pair step table, read-only, built once and
        capped at ``DISC_CAP`` entries: (off[i] - off[j]) * (e_x + i e_y)
        as complex numbers, real part x and imaginary part y, for all
        N**2 ordered pairs of children (i, j), at q = u * N + i with
        j = (i + u) mod N.  The N pairs i == j come first (u = 0), so the
        table past them, q >= N, holds each of the N (N - 1) pairs i != j
        once."""
        n = self.counts[level - 1]
        if n * n > DISC_CAP:
            raise DiscCapExceeded(f"level {level}'s step table holds {n * n} "
                                  f"entries, over the cap of {DISC_CAP}")
        key = ("step", level)
        if key not in self._cache:
            off = self.offsets(level)
            # row u of the window holds off[(i + u) mod N] for i = 0 .. N - 1
            shifted = np.lib.stride_tricks.sliding_window_view(
                np.concatenate((off, off[:-1])), n)
            step = np.subtract(off, shifted).ravel()
            ex, ey = self.direction(level)
            table = np.empty(n * n, dtype=complex)
            np.multiply(step, ex, out=table.real)
            np.multiply(step, ey, out=table.imag)
            table.flags.writeable = False
            self._cache[key] = table
        return self._cache[key]

    def parent_frame(self, level: int) -> tuple[float, np.ndarray]:
        """rho = r_k / r_{k-1} and the N_k child offsets of level k =
        `level` in units of r_{k-1}, both from the log radii alone, so
        they are exact at any depth."""
        key = ("frame", level)
        if key not in self._cache:
            rho = math.exp(self.log_radius(level) - self.log_radius(level - 1))
            self._cache[key] = rho, np.linspace(-(1.0 - rho), 1.0 - rho,
                                                self.counts[level - 1])
        return self._cache[key]

    def direction(self, level: int) -> np.ndarray:
        ang = self.d[level - 1]
        return np.array([math.cos(ang), math.sin(ang)])

    def to_dict(self) -> dict:
        """The level table: schedule (log radii and k1), normalisation a,
        branching counts N, placement increments theta and directions d."""
        return {
            "schedule": {"log_r": list(self.schedule.log_r), "k1": self.schedule.k1},
            "a": self.a,
            "N": list(self.counts),
            "theta": list(self.theta),
            "d": list(self.d),
        }


def build_hierarchy(f: GaugeFunction, schedule: RadiusSchedule,
                    branching: BranchingPlan, theta=None) -> DiscHierarchy:
    """Assemble the hierarchy from a schedule and branching plan.

    ``theta`` is either None, for the increments r_{k+1}/r_k, or a
    sequence (list, tuple or 1-d array) of K placement-angle increments.
    Construction itself is O(sum N_k); no center is materialised.
    """
    K = schedule.depth
    if len(branching.counts) != K:
        raise BranchingError("branching counts must match the schedule depth")
    if theta is None:
        lr = schedule.log_r
        th = tuple(math.exp(lr[k + 1] - lr[k]) for k in range(K))
    else:
        th = tuple(float(t) for t in theta)
        if len(th) != K:
            raise GaugeError("theta sequence must have one increment per level")
    d = []
    acc = 0.0
    for t in th:
        acc = math.fmod(acc + t, math.pi)
        d.append(acc)
    return DiscHierarchy(f, schedule, branching.a, branching.counts, th,
                         tuple(d))


def build_from_gauge(f: GaugeFunction, depth: int) -> DiscHierarchy:
    """Schedule, branching and hierarchy in one step, with the default
    placement increments."""
    schedule = derive_radius_schedule(f, depth)
    return build_hierarchy(f, schedule, choose_branching(f, schedule))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    check: str
    level: int
    passed: bool
    margin: float
    note: str = ""


@dataclass(frozen=True)
class HierarchyReport:
    rows: tuple[CheckRow, ...]
    assumptions: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def by_check(self, check: str) -> list[CheckRow]:
        return [r for r in self.rows if r.check == check]


def validate_hierarchy(h: DiscHierarchy) -> HierarchyReport:
    """Exact per-level verification of every construction inequality.

    Every margin is a slack that shrinks toward failure: log-space slacks
    where the inequality is multiplicative, 1e-9 minus the residual for
    the spacing identity ``Eq32``, and the smallest step of the angle
    partial sums (None at depth 1, which has no step).

    Each inequality relates consecutive levels only, so the geometry rows
    read :meth:`DiscHierarchy.parent_frame`: rho = r_k / r_{k-1} and the
    children's offsets in units of r_{k-1}.  No absolute radius or
    coordinate is read, so the rows are the same at any depth the
    construction reaches.

    The discs of each level are pairwise disjoint by induction on k, from
    two premises checked here at every level.  Siblings are disjoint:
    ``Eq33`` checks gap > r_k > 0, where the gap is read off the
    children's offsets, so adjacent sibling centers are more than 2 r_k
    apart.  Every child lies inside its parent (``child-containment``, up
    to a relative 1e-12 of rounding, far below the gap > r_{k-1} between
    the parents).  Two level-k discs with distinct parents then lie in
    distinct level-(k-1) discs, disjoint by the induction hypothesis; two
    with the same parent are siblings.
    """
    f = h.gauge
    lr = h.schedule.log_r
    lf = [float(f.log_value(v)) for v in lr]
    log_a = math.log(h.a)
    rows: list[CheckRow] = []
    slack = 1e-9
    log_prod = 0.0
    for k in range(1, h.depth + 1):
        log_prod += math.log(h.counts[k - 1])
        n_k = h.counts[k - 1]

        lo = log_prod + lf[k] - log_a
        hi = math.log(2.0) + log_a - (log_prod + lf[k])
        rows.append(CheckRow("Eq20", k, min(lo, hi) >= -slack, min(lo, hi)))

        m21 = (lf[k - 1] + LOG_QUARTER) - lf[k]
        rows.append(CheckRow("Eq21", k, m21 > 0.0, m21))

        m22 = (lf[k] - lr[k]) - (LOG3 + lf[k - 1] - lr[k - 1])
        rows.append(CheckRow("Eq22", k, m22 > 0.0, m22))

        m23 = lr[k - 1] - (math.log(n_k) + lr[k])
        rows.append(CheckRow("Eq23", k, m23 > 0.0, m23))

        m25a = (math.log(2.0) + lf[k - 1] - lf[k]) - math.log(n_k)
        m25b = (math.log(2.0 / 3.0) + lr[k - 1] - lr[k]) - math.log(n_k)
        rows.append(CheckRow("Eq25", k, m25a >= -slack and m25b > 0.0,
                             min(m25a, m25b)))

        rho, off = h.parent_frame(k)  # units of r_{k-1}
        step = float(off[1] - off[0])
        resid = abs(2 * n_k * rho + (n_k - 1) * (step - 2.0 * rho) - 2.0)
        m32 = slack - resid
        rows.append(CheckRow("Eq32", k, m32 >= 0.0, m32,
                             note="1e-9 minus spacing identity residual"))

        m33 = (step - 3.0 * rho) / rho
        rows.append(CheckRow("Eq33", k, m33 > 0.0, m33))

        m_in = (1.0 + 1e-12) - (float(np.abs(off).max()) + rho)
        rows.append(CheckRow("child-containment", k, m_in >= 0.0, m_in))

    if h.theta:
        steps = np.diff(np.cumsum(h.theta))
        rows.append(CheckRow("angle-partial-sums", h.depth, bool(np.all(steps > 0)),
                             float(steps.min()) if len(steps) else None,
                             note="partial sums of placement increments"))

    assumptions = (
        f"schedule inequalities verified to depth {h.depth} only; the "
        "construction assumes they continue for all deeper levels",
    )
    return HierarchyReport(tuple(rows), assumptions)
