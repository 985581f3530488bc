import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from gaugeproj import (BranchingPlan, DiscCapExceeded, GaugeError, IntervalCover,
                       NaturalMeasure, angle_kernel_integral,
                       averaged_projected_energy,
                       build_from_gauge, build_hierarchy, choose_branching,
                       cover_cost, derive_radius_schedule, discrete_energy,
                       estimate_log_dimension, eq35_bound, hierarchy, log_power,
                       mc_energy, merge_intervals, power, power_log,
                       project_disc_cover, project_hierarchy, qualifying_levels,
                       sweep_directions, sweep_partner, tabulated)

from gaugeproj import projection
from gaugeproj.projection import TABLE_STEP, angle_kernel_table, kernel_lookup

from conftest import level_centers, schedule_from_radii


# ---------------------------------------------------------------------------
# Disc projection and interval merging
# ---------------------------------------------------------------------------

def test_project_disc_examples():
    def project_disc(center, r, theta):
        return project_disc_cover([center], [r], theta).intervals[0]

    assert project_disc((3, 4), 1.0, 0.0) == pytest.approx((2.0, 4.0))
    assert project_disc((3, 4), 1.0, math.pi / 2) == pytest.approx((3.0, 5.0))
    lo, hi = project_disc((1, 1), 0.5, math.pi / 4)
    assert (lo, hi) == pytest.approx((math.sqrt(2) - 0.5, math.sqrt(2) + 0.5))


def test_merge_overlapping():
    c = merge_intervals([(0.0, 1.0), (0.5, 2.0)])
    assert c.intervals == ((0.0, 2.0),)
    assert np.sum(c.hi - c.lo) == 2.0


def test_merge_disjoint_unchanged():
    c = merge_intervals([(3.0, 4.0), (0.0, 1.0)])
    assert c.intervals == ((0.0, 1.0), (3.0, 4.0))
    assert np.sum(c.hi - c.lo) == 2.0


def test_merge_idempotent_and_order_independent():
    rng = np.random.default_rng(5)
    lo = rng.uniform(0, 10, 500)
    raw = np.stack([lo, lo + rng.uniform(0, 0.5, 500)], axis=1)
    a = merge_intervals(raw)
    b = merge_intervals(rng.permutation(raw))
    assert a.intervals == b.intervals
    assert merge_intervals(a.intervals).intervals == a.intervals


def test_merge_against_grid_oracle():
    rng = np.random.default_rng(12)
    lo = rng.uniform(0, 1, 10_000)
    hi = lo + rng.uniform(0, 3e-4, 10_000)
    cover = merge_intervals(np.stack([lo, hi], axis=1))
    res = 1e-5
    grid = np.zeros(int(1.2 / res) + 2, dtype=bool)
    for a, b in zip(lo, hi):
        grid[int(a / res): int(b / res) + 1] = True
    # the grid overcounts by at most one cell per merged-interval endpoint
    assert abs(np.sum(cover.hi - cover.lo) - grid.sum() * res) < 2 * res * len(cover.intervals)


def _reference_merge(pairs):
    # sort by lo, keep the running max of hi, merge while lo <= running hi
    out = []
    for lo, hi in sorted(pairs, key=lambda p: p[0]):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


@pytest.mark.parametrize("seed", range(6))
def test_merge_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    # quarter-unit grid: exact doubles, so tied lo values, zero lengths and
    # touching endpoints all occur
    lo = rng.integers(0, 300, n) * 0.25
    hi = lo + rng.integers(0, 4, n) * 0.25
    pairs = list(zip(lo.tolist(), hi.tolist()))
    # and an off-grid batch with ties copied in
    flo = rng.uniform(0, 50, n)
    flo[::3] = flo[0]
    fhi = flo + rng.uniform(0, 0.3, n)
    fhi[1::4] = flo[0]
    fpairs = list(zip(flo.tolist(), np.maximum(fhi, flo).tolist()))
    for raw in (pairs, fpairs):
        expected = _reference_merge(raw)
        for given in (raw, np.array(raw), iter(raw)):
            assert merge_intervals(given).intervals == expected


def test_merge_accepts_empty_input():
    for empty in ([], (), iter(()), np.empty((0, 2))):
        cover = merge_intervals(empty)
        assert cover.intervals == ()
        assert cover.lo.shape == cover.hi.shape == (0,)


def test_interval_cover_holds_read_only_arrays():
    cover = merge_intervals([(2.0, 3.0), (0.0, 1.0)])
    assert cover.lo.dtype == cover.hi.dtype == np.float64
    np.testing.assert_array_equal(cover.lo, [0.0, 2.0])
    np.testing.assert_array_equal(cover.hi, [1.0, 3.0])
    assert cover.intervals == ((0.0, 1.0), (2.0, 3.0))
    with pytest.raises(ValueError):
        cover.lo[0] = -1.0


@pytest.mark.parametrize("lo, hi, message", [
    ([0.0, 2.0], [1.0, 1.5], "lo <= hi"),             # lo > hi
    ([0.0, 0.5], [1.0, 2.0], "positive gaps"),        # overlapping
    ([0.0, 1.0], [1.0, 2.0], "positive gaps"),        # touching
    ([2.0, 0.0], [3.0, 1.0], "positive gaps"),        # unsorted
    ([0.0, 2.0], [1.0], "equal length"),
    ([0.0, math.nan], [1.0, 2.0], "lo <= hi"),    # NaN endpoints compare
    ([0.0, 2.0], [1.0, math.nan], "lo <= hi"),    # false both ways
    ([math.nan], [math.nan], "lo <= hi"),
])
def test_interval_cover_rejects_invalid(lo, hi, message):
    with pytest.raises(GaugeError, match=message):
        IntervalCover(np.array(lo), np.array(hi))


def test_project_disc_cover_rejects_nan_centers():
    # a NaN center projects to NaN endpoints, which the cover refuses
    # instead of merging into ((-0.1, 0.1), (0.4, nan))
    with pytest.raises(GaugeError, match="lo <= hi"):
        project_disc_cover([[0, 0], [math.nan, 0], [0.5, 0]], [0.1] * 3, 0.0)


def test_cover_cost_examples():
    c = merge_intervals([(0.0, 0.5), (1.0, 1.5)])
    assert cover_cost(power(1.0), c) == pytest.approx(1.0)
    c = merge_intervals([(0.0, 0.25)])
    assert cover_cost(power(0.5), c) == pytest.approx(0.5)
    assert cover_cost(power(1.0), merge_intervals([])) == 0.0


# ---------------------------------------------------------------------------
# Hierarchy projections
# ---------------------------------------------------------------------------

def _per_parent_span(h, theta, level):
    """Length of the projected hull of one parent's level-`level` children."""
    off = h.offsets(level)
    return ((off.max() - off.min()) * abs(math.cos(h.d[level - 1] - theta))
            + 2 * h.radius(level))


def test_span_stacked_and_spread(h05_depth5):
    h = h05_depth5
    stacked, spread = h.d[0] + math.pi / 2, h.d[0]
    assert _per_parent_span(h, stacked, 1) == pytest.approx(2 * h.radius(1), rel=1e-9)
    assert _per_parent_span(h, spread, 1) == pytest.approx(2 * h.radius(0), rel=1e-12)
    # the merged level-1 pattern spans the same hull
    for theta in (stacked, spread):
        pattern = project_hierarchy(h, theta, 1).pattern
        assert pattern.hi[-1] - pattern.lo[0] == pytest.approx(
            _per_parent_span(h, theta, 1), rel=1e-12)


def test_span_bound_on_qualifying_direction(h05_depth5):
    h = h05_depth5
    for theta in (i * math.pi / 256 for i in range(256)):
        for k in qualifying_levels(h, theta):
            assert _per_parent_span(h, theta, k + 1) <= 4 * h.radius(k + 1) * (1 + 1e-12)


def test_sweep_eq35_and_trend(h05_depth5):
    h = h05_depth5
    g = power_log(0.5, 0.15, 1.0)
    table = sweep_directions(h, g, 256)
    assert len(table.rows) >= 2
    assert table.violations() == []
    bounds = [eq35_bound(h, g, k) for k in range(1, h.depth)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    # the table keeps each level's budget once, and every row reads it
    assert table.bounds == tuple(bounds)
    assert all(r.bound == bounds[r.k - 1] for r in table.rows)


def test_qualifying_levels_are_periodic_in_pi(h05_depth5):
    # the direction reduces into [0, pi) for negative angles too; before,
    # theta = -4.6684 qualified [3, 4] and theta + 2 pi only [3]
    h = h05_depth5
    assert qualifying_levels(h, -4.6684) == qualifying_levels(h, -4.6684 + 2 * math.pi)
    thetas = np.linspace(-2 * math.pi, 2 * math.pi, 2000, endpoint=False)
    arcs = [h.d[k - 1] + u * h.theta[k] - math.pi / 2
            for k in range(1, h.depth) for u in (0.1, 0.5, 0.9)]
    for theta in list(thetas) + arcs:
        levels = qualifying_levels(h, theta)
        for shift in (-2 * math.pi, -math.pi, math.pi, 2 * math.pi):
            assert qualifying_levels(h, theta + shift) == levels


def test_qualifying_levels_keep_nonnegative_reduction(h05_depth5):
    h = h05_depth5
    for theta in np.linspace(0.0, 4 * math.pi, 997):
        d_theta = math.fmod(theta + math.pi / 2, math.pi)
        expected = [k for k in range(1, h.depth)
                    if math.fmod(d_theta - h.d[k - 1] + math.pi, math.pi) <= h.theta[k]]
        assert qualifying_levels(h, theta) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_non_finite_angles(h05_depth5, bad):
    grid = [i * math.pi / 32 for i in range(32)]
    with pytest.raises(GaugeError, match="finite"):
        sweep_directions(h05_depth5, power(0.5), grid[:-1] + [bad])
    with pytest.raises(GaugeError, match="finite"):
        project_hierarchy(h05_depth5, bad, 2)
    with pytest.raises(GaugeError, match="finite"):
        qualifying_levels(h05_depth5, bad)
    with pytest.raises(GaugeError, match="projection angle must be finite"):
        project_disc_cover([[0.0, 0.0]], [0.1], bad)


def test_sweep_accepts_integral_grid_counts(h05_depth5):
    g = power_log(0.5, 0.15, 1.0)
    table = sweep_directions(h05_depth5, g, 256)
    for n in (np.int64(256), np.int32(256), np.uint16(256)):
        other = sweep_directions(h05_depth5, g, n)
        assert other.to_dicts() == table.to_dicts()
        assert all(type(row.theta) is float for row in other.rows)
    for bad in (True, np.int64(31)):
        with pytest.raises(GaugeError):
            sweep_directions(h05_depth5, g, bad)


def test_sweep_angle_without_qualifying_level(h05_depth5):
    # a direction far from every placement arc yields no rows
    table = sweep_directions(h05_depth5, power(0.5),
                             [1.0 + i * 1e-3 for i in range(32)])
    assert table.rows == ()


def _exact_level_lengths(h, theta, level):
    """Merged lengths of the projected level `level`, computed exactly.

    The float offsets, cosines and radius are dyadic rationals, so the
    projected offsets o * cos and the radius are integer multiples of one
    power of two; coordinates are those integers, every sum and comparison
    is exact and only the final lengths are rounded.  The child pattern is
    merged once, then translated to every parent's exact projected center
    and the whole level merged: the union of the merged patterns is the
    union of all child intervals.
    """
    terms = [[Fraction(o) * Fraction(math.cos(h.d[j - 1] - theta))
              for o in h.offsets(j).tolist()] for j in range(1, level + 1)]
    radius = Fraction(h.radius(level))
    den = max([radius.denominator] + [t.denominator for ts in terms for t in ts])
    steps = [np.array([t.numerator * (den // t.denominator) for t in ts], dtype=object)
             for ts in terms]
    r = radius.numerator * (den // radius.denominator)

    def merge(lo, hi):
        order = sorted(range(len(lo)), key=lo.__getitem__)
        lo, hi = lo[order], hi[order]
        running = np.maximum.accumulate(hi)
        new_run = np.ones(len(lo), dtype=bool)
        new_run[1:] = (lo[1:] > running[:-1]).astype(bool)  # touching merges
        starts = np.nonzero(new_run)[0]
        ends = np.append(starts[1:], len(lo)) - 1
        return lo[starts], running[ends]

    piece_lo, piece_hi = merge(steps[-1] - r, steps[-1] + r)
    parents = np.zeros(1, dtype=object)
    for step in steps[:-1]:
        parents = (parents[:, None] + step[None, :]).reshape(-1)
    lo, hi = merge((parents[:, None] + piece_lo[None, :]).reshape(-1),
                   (parents[:, None] + piece_hi[None, :]).reshape(-1))
    return (hi - lo).astype(float) / float(den)


def _reference_cost(g, lengths):
    return math.fsum(np.exp(np.asarray(g.log_value(np.log(lengths)))).tolist())


def _measured_cost(h, g, theta, level):
    pr = project_hierarchy(h, theta, level)
    return pr.copies * cover_cost(g, pr.pattern), pr


def test_sweep_rows_project_full_level(h05_depth5):
    h = h05_depth5
    g = power_log(0.5, 0.15, 1.0)
    table = sweep_directions(h, g, 256)
    assert table.rows
    for row in table.rows:
        exact = _reference_cost(g, _exact_level_lengths(h, row.theta, row.k + 1))
        assert row.cost == pytest.approx(exact, rel=1e-13, abs=0)
        assert _measured_cost(h, g, row.theta, row.k + 1)[0] == row.cost


def test_heavy_arc_sweep_matches_exact_reference(h08_depth5):
    # inside the level-3 placement arc of power(0.8) depth 5 the projected
    # level 4 merges to ~8e3 intervals below u ~ 0.48 of the arc and to
    # ~7.7e5 past it; every row's cost must match the exact merge of all
    # of them
    h = h08_depth5
    g = power_log(0.8, 0.15, 1.0)
    thetas = [math.fmod(h.d[2] + u * h.theta[3] + math.pi / 2, math.pi)
              for u in (0.2, 0.47, 0.55)]
    pad = [1.0 + i * 1e-3 for i in range(29)]  # no qualifying level
    table = sweep_directions(h, g, thetas + pad)
    assert [(row.theta, row.k) for row in table.rows] == [(t, 3) for t in thetas]
    counts = []
    for row in table.rows:
        lengths = _exact_level_lengths(h, row.theta, 4)
        assert row.cost == pytest.approx(_reference_cost(g, lengths), rel=1e-13, abs=0)
        _, pr = _measured_cost(h, g, row.theta, 4)
        assert pr.copies * len(pr.pattern.lo) == len(lengths)
        counts.append(len(lengths))
    assert counts[0] < 1e4 and counts[-1] > 7e5


def _placed(f, depth, theta):
    """build_from_gauge's schedule and branching with the placement
    increments theta."""
    schedule = derive_radius_schedule(f, depth)
    return build_hierarchy(f, schedule, choose_branching(f, schedule), theta)


def _brute_force_cost(h, g, theta, level):
    # every level-`level` disc's interval as Fractions, merged by the
    # reference merge: no pattern, no translate, no float sum
    coords = [Fraction(0)]
    for j in range(1, level + 1):
        c = Fraction(math.cos(h.d[j - 1] - theta))
        coords = [p + Fraction(o) * c for p in coords for o in h.offsets(j).tolist()]
    r = Fraction(h.radius(level))
    merged = _reference_merge([(x - r, x + r) for x in coords])
    return _reference_cost(g, np.array([float(b - a) for a, b in merged])), len(merged)


def _small_hierarchy(rng):
    depth = int(rng.integers(1, 5))
    ratios = rng.uniform(0.05, 0.2, depth)
    radii = np.cumprod(np.concatenate([[rng.uniform(0.1, 1.0)], ratios]))
    counts = tuple(int(n) for n in rng.integers(2, 6, depth))
    theta = [float(t) for t in rng.choice([0.0, math.pi / 2, rng.uniform(0, math.pi)],
                                          depth)]
    return build_hierarchy(power(0.5), schedule_from_radii(radii),
                           BranchingPlan(1.0, counts), theta=theta)


def test_projection_matches_brute_force_on_small_hierarchies():
    rng = np.random.default_rng(2024)
    gs = (power(0.5), power_log(0.8, 0.15, 1.0), log_power(1.0))
    worst = 0.0
    paths = {"counted": 0, "merged": 0}  # level > 1 with copies > 1 / == 1
    for case in range(200):
        h = _small_hierarchy(rng)
        level = int(rng.integers(1, h.depth + 1))
        # uniform angles, angles inside a placement arc (collapsed pattern)
        # and angles near a placement direction's normal (stacked translates)
        j = int(rng.integers(0, h.depth))
        theta = float(rng.choice([rng.uniform(-math.pi, 2 * math.pi),
                                  h.d[j] + math.pi / 2 + rng.uniform(-1e-3, 1e-3),
                                  h.d[j] + math.pi / 2]))
        g = gs[case % len(gs)]
        expected, count = _brute_force_cost(h, g, theta, level)
        cost, pr = _measured_cost(h, g, theta, level)
        assert pr.copies * len(pr.pattern.lo) == count
        worst = max(worst, abs(cost - expected) / expected)
        if level > 1:
            paths["counted" if pr.copies > 1 else "merged"] += 1
    assert worst <= 1e-12
    assert min(paths.values()) >= 20


def test_projection_merges_touching_translates():
    # exact dyadic geometry on one line: the level-2 pieces [-0.125, 0] and
    # [0, 0.125] of the two level-1 parents touch, and touching intervals merge
    h = build_hierarchy(power(0.5), schedule_from_radii([1.0, 0.5, 0.0625]),
                        BranchingPlan(1.0, (2, 2)), theta=[0.0, 0.0])
    assert [h.radius(k) for k in range(3)] == [1.0, 0.5, 0.0625]
    pr = project_hierarchy(h, 0.0, 2)
    assert pr.copies == 1
    assert pr.pattern.intervals == ((-1.0, -0.875), (-0.125, 0.125), (0.875, 1.0))
    assert _brute_force_cost(h, power(1.0), 0.0, 2) == (0.5, 3)


def test_projection_materialises_overlapping_translates():
    # level 1 is placed along angle 0 and levels 2 and 3 along pi/2, so near
    # theta = pi/2 the level-1 translates stack on each other and must be
    # materialised together with the counted level-2 copies below them; at
    # `shifted` they move by about one level-2 spacing, which clears a
    # level-3 pattern but not a level-2 span, so pieces partly overlap
    h = _placed(power(0.5), 3, (0.0, math.pi / 2, 0.0))
    g = power(0.5)
    ratio = np.diff(h.offsets(2))[0] / np.diff(h.offsets(1))[0]
    shifted = math.pi / 2 - math.asin(1.02 * ratio)
    for theta in (math.pi / 2, math.pi / 2 + 1e-7, math.pi / 2 - 1e-4, shifted):
        for level in (2, 3):
            expected, count = _brute_force_cost(h, g, theta, level)
            cost, pr = _measured_cost(h, g, theta, level)
            assert pr.copies * len(pr.pattern.lo) == count
            assert cost == pytest.approx(expected, rel=1e-12, abs=0)


def test_overlap_guard_refuses_before_building():
    # levels 2-5 share one placement direction, so at theta = pi/2 levels
    # 4, 3 and 2 are counted and level 1's translates stack: merging them
    # would build 86 * 92 * 97 * 103 * 108 ~ 8.5e9 intervals
    h = _placed(power(0.8), 5, (0.0, math.pi / 2, 0.0, 0.0, 0.0))
    tracemalloc.start()
    try:
        with pytest.raises(DiscCapExceeded, match="8537269536 intervals"):
            project_hierarchy(h, math.pi / 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # its sweep rows stay far under the cap: the largest merge they build
    # is level 2's 7 912 intervals (custom placements void the Eq35 budget)
    table = sweep_directions(h, power_log(0.8, 0.15, 1.0), 256)
    assert table.rows and all(math.isfinite(r.cost) for r in table.rows)


def test_overlap_guard_boundary(monkeypatch):
    # at theta = pi/2 the level-1 translates stack, so projecting level 3
    # merges all N_1 N_2 N_3 intervals at once
    h = _placed(power(0.5), 3, (0.0, math.pi / 2, 0.0))
    size = h.disc_count(3)
    expected = project_hierarchy(h, math.pi / 2, 3)
    monkeypatch.setattr(hierarchy, "DISC_CAP", size)
    got = project_hierarchy(h, math.pi / 2, 3)
    assert got.pattern.intervals == expected.pattern.intervals
    assert got.copies == expected.copies
    monkeypatch.setattr(hierarchy, "DISC_CAP", size - 1)
    with pytest.raises(DiscCapExceeded):
        project_hierarchy(h, math.pi / 2, 3)
    # disjoint translates are counted, never built: at angle 0 the level-1
    # translates are separated, so projecting level 2 passes any cap
    monkeypatch.setattr(hierarchy, "DISC_CAP", 1)
    assert project_hierarchy(h, 0.0, 2).copies == h.counts[0]


def _translated_pattern(h, theta, level, top):
    """The merged projection of one level-(top - 1) disc's level-`level`
    descendants, in that disc's frame: the child intervals translated by
    each level's sorted projected offsets and merged at every level from
    `level` up to `top`, with no copy counted and no hull taken."""
    lo = hi = None
    for j in range(level, top - 1, -1):
        step = np.sort(math.cos(h.d[j - 1] - theta) * h.offsets(j))
        if lo is None:
            lo, hi = step - h.radius(level), step + h.radius(level)
        else:
            lo, hi = np.add.outer(step, lo).ravel(), np.add.outer(step, hi).ravel()
        order = np.argsort(lo, kind="stable")
        lo, running = lo[order], np.maximum.accumulate(hi[order])
        starts = np.flatnonzero(np.append(True, lo[1:] > running[:-1]))
        lo, hi = lo[starts], running[np.append(starts[1:], len(lo)) - 1]
    return tuple(zip(lo.tolist(), hi.tolist()))


def test_partly_overlapping_translates_are_built(h08_depth5, monkeypatch):
    # where a level's translates turn from disjoint to overlapping, rounding
    # leaves some adjacent pairs overlapping and others apart; bisecting
    # the (copies, one interval) state over each placement arc down to
    # adjacent floats finds such angles, e.g. theta = 1.5712106249285243
    # (level 2: 83 intervals), 1.5786143321447266 (level 4: 86 copies of 2)
    # and 1.5818913439839717 (level 5: 7 912 copies of 5).  Their pattern
    # is not one interval, so it must be built, not taken for its hull.
    h = h08_depth5
    monkeypatch.setattr(hierarchy, "DISC_CAP", 100_000)  # skip heavy merges

    def state(theta, level):
        try:
            pr = project_hierarchy(h, theta, level)
        except DiscCapExceeded:
            return None
        return pr.copies, len(pr.pattern.lo) == 1

    starts = (0.0,) + h.d[:-1]  # arc k spans [d_k, d_k + theta_{k+1}]
    partial = set()
    for k in range(h.depth):
        grid = [starts[k] + u * h.theta[k] + math.pi / 2 for u in np.linspace(0, 1, 9)]
        for level in range(2, h.depth + 1):
            states = [state(t, level) for t in grid]
            for a, b, sa, sb in zip(grid, grid[1:], states, states[1:]):
                if sa == sb or None in (sa, sb):
                    continue
                while (a + b) / 2 not in (a, b):
                    if state((a + b) / 2, level) == sa:
                        a = (a + b) / 2
                    else:
                        b = (a + b) / 2
                for theta in (a, b):
                    pr = project_hierarchy(h, theta, level)
                    # the pattern lives in the frame of a level top - 1 disc
                    top = [h.disc_count(m) for m in range(level)].index(pr.copies) + 1
                    assert (pr.pattern.intervals
                            == _translated_pattern(h, theta, level, top)), (theta, level)
                    if len(pr.pattern.lo) > 1:
                        partial.add((theta, level, pr.copies))
    assert len(partial) >= 6
    assert {lv for _, lv, _ in partial} == {2, 3, 4, 5}
    assert any(c == 1 for *_, c in partial) and any(c > 1 for *_, c in partial)


@pytest.mark.parametrize("theta,level,copies,pieces", [
    (1.5712106249285243, 2, 1, 83),
    (1.5786143321447266, 4, 86, 2),
    (1.5818913439839717, 5, 86 * 92, 5),
])
def test_partial_overlap_angles_keep_their_pieces(h08_depth5, theta, level,
                                                  copies, pieces):
    # angles the bisection above finds: some adjacent translates overlap
    # and others do not, so the pattern has several pieces, not one hull
    pr = project_hierarchy(h08_depth5, theta, level)
    assert (pr.copies, len(pr.pattern.lo)) == (copies, pieces)
    top = [h08_depth5.disc_count(m) for m in range(level)].index(copies) + 1
    assert pr.pattern.intervals == _translated_pattern(h08_depth5, theta, level, top)


@pytest.mark.parametrize("s,depth", [(0.5, 6), (0.8, 5)])
def test_arc_sweep_rows_build_no_pattern(s, depth, monkeypatch):
    # the grid and arc angles the arc-sweep benchmark sweeps: every row's
    # pattern is provably one interval, so no row is built or merged
    h = build_from_gauge(power(s), depth)
    thetas = [i * math.pi / 256 for i in range(256)] + [t for t, _ in _arc_angles(h)]
    merges = []
    merge = projection._merge_array
    monkeypatch.setattr(projection, "_merge_array",
                        lambda lo, hi: merges.append(len(lo)) or merge(lo, hi))
    table = sweep_directions(h, sweep_partner(h.gauge), thetas)
    assert {r.k for r in table.rows} == set(range(1, depth))
    assert merges == []
    # the same rows one angle at a time merge nothing either
    for r in table.rows:
        assert len(project_hierarchy(h, r.theta, r.k + 1).pattern.lo) == 1
    assert merges == []


def _one_angle_rows(h, g, thetas):
    """Sweep rows from the one-angle calls, angle by angle."""
    rows = []
    for theta in thetas:
        for k in qualifying_levels(h, theta):
            pr = project_hierarchy(h, theta, k + 1)
            cost = pr.copies * cover_cost(g, pr.pattern)
            bound = eq35_bound(h, g, k)
            rows.append((theta, k, cost, bound, bound - cost))
    return rows


def _row_tuples(table):
    return [(r.theta, r.k, r.cost, r.bound, r.margin) for r in table.rows]


def test_sweep_equals_one_angle_calls(h08_depth5):
    # one batched call against the concatenated one-angle calls, compared
    # with ==: arc and grid angles, heavy merges, and small hierarchies
    # whose rows merge translates and keep several-interval patterns
    h06 = build_from_gauge(power(0.5), 6)
    heavy = [math.fmod(h08_depth5.d[2] + u * h08_depth5.theta[3] + math.pi / 2,
                       math.pi) for u in (0.2, 0.47, 0.55)]
    cases = [(h06, [t for t, _ in _arc_angles(h06)] + [i * math.pi / 256
                                                       for i in range(256)]),
             (h08_depth5, heavy + [i * math.pi / 64 for i in range(64)])]
    rng = np.random.default_rng(7)
    while len(cases) < 40:
        h = _small_hierarchy(rng)
        if h.depth > 2:
            thetas = [h.d[j] + math.pi / 2 + float(rng.uniform(-1e-3, 1e-3))
                      for j in range(h.depth) for _ in range(4)]
            cases.append((h, thetas + rng.uniform(-math.pi, 2 * math.pi, 32).tolist()))
    merged = several = 0
    for h, thetas in cases:
        g = sweep_partner(h.gauge)
        table = sweep_directions(h, g, thetas)
        assert _row_tuples(table) == _one_angle_rows(h, g, thetas)
        assert all(type(r.cost) is float and type(r.margin) is float
                   for r in table.rows)
        for r in table.rows:
            pr = project_hierarchy(h, r.theta, r.k + 1)
            merged += pr.copies < h.disc_count(r.k)
            several += len(pr.pattern.lo) > 1
    assert merged >= 20 and several >= 20


def test_sweep_batch_refuses_before_building():
    # level 5 is placed along 0 and levels 2-4 along pi/2, with level 4's
    # placement arc a quarter turn wide.  At theta = pi/2 levels 4, 3 and 2
    # are counted and level 1's translates stack: 86 * 92 * 97 * 103
    # intervals.  The other angles' rows build at most level 2's merge.
    h = _placed(power(0.8), 5, (0.0, math.pi / 2, 0.0, 0.0, math.pi / 2))
    g = power_log(0.8, 0.15, 1.0)
    thetas = ([i * math.pi / 256 for i in range(30, 46)]
              + [i * math.pi / 256 for i in range(130, 146)] + [math.pi / 2])
    assert 4 in qualifying_levels(h, math.pi / 2)
    tracemalloc.start()
    try:
        with pytest.raises(DiscCapExceeded, match="79048792 intervals"):
            sweep_directions(h, g, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # without that angle every row is measured
    table = sweep_directions(h, g, thetas[:-1])
    assert {r.k for r in table.rows} == {1, 4}
    assert _row_tuples(table) == _one_angle_rows(h, g, thetas[:-1])


def test_sweep_refuses_rows_at_zero_radius():
    # power(0.3)'s r_k is 0.0 in float64 from level 104 on.  At depth 110
    # the 4096-angle grid has rows at levels 104, 107 and 109, whose
    # projected levels would cost log 0; the 256-angle grid has 11 rows,
    # all shallower.  pytest turns a RuntimeWarning into an error.
    h = build_from_gauge(power(0.3), 110)
    g = sweep_partner(h.gauge)
    assert h.radius(103) > 0.0 == h.radius(104)
    with pytest.raises(GaugeError, match=r"^level 104's rows project level "
                       r"105, whose radius r_105 is 0\.0 in float64$"):
        sweep_directions(h, g, 4096)
    table = sweep_directions(h, g, 256)
    assert len(table.rows) == 11 and max(r.k for r in table.rows) < 103
    assert all(0.0 < r.cost < r.bound for r in table.rows)
    assert table.violations() == []


def test_arc_table_matches_scalar_definition(h05_depth5):
    # custom placements with zero and quarter-turn increments put grid
    # angles exactly on arc ends, where the comparison is decided by equality
    placed = _placed(power(0.8), 5, (0.0, math.pi / 2, 0.0, 0.0, math.pi / 2))
    on_end = 0
    for h in (h05_depth5, placed):
        thetas = np.linspace(-4 * math.pi, 4 * math.pi, 2000).tolist()
        thetas += [h.d[k - 1] + u * h.theta[k] - math.pi / 2 + shift
                   for k in range(1, h.depth) for u in (0.0, 1.0)
                   for shift in (-math.pi, 0.0, math.pi)]
        thetas += [i * math.pi / 4 for i in range(-16, 17)]
        arcs = [[math.fmod((t + math.pi / 2) % math.pi - h.d[k - 1] + math.pi,
                           math.pi) for k in range(1, h.depth)] for t in thetas]
        ends = np.array(h.theta[1:])
        expected = [[a <= end for a, end in zip(row, ends.tolist())] for row in arcs]
        on_end += int(np.sum(np.array(arcs) == ends))
        table = projection._arc_table(h, np.array(thetas))
        assert table.shape == (len(thetas), h.depth - 1)
        assert table.tolist() == expected
        assert 0 < table.sum() < table.size
    assert on_end > 0


def _arc_angles(h, per_arc=8):
    """(theta, k): per_arc angles inside each level k's placement arc,
    spread over its interior as the arc-sweep benchmark spreads them."""
    return [(math.fmod(h.d[k - 1] + (0.05 + 0.9 * (j + 0.5) / per_arc) * h.theta[k]
                       + math.pi / 2, math.pi), k)
            for k in range(1, h.depth) for j in range(per_arc)]


@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5", "h08_depth5"])
def test_sweep_measures_every_arc_level(fixture, request):
    h = request.getfixturevalue(fixture)
    g = sweep_partner(h.gauge)
    arcs = _arc_angles(h)
    table = sweep_directions(h, g, [t for t, _ in arcs])
    assert {(r.theta, r.k) for r in table.rows} >= set(arcs)
    assert {r.k for r in table.rows} == set(range(1, h.depth))
    for row in table.rows:
        assert 0.0 < row.cost <= row.bound * (1 + 1e-9), row
        assert row.margin == row.bound - row.cost
    assert table.violations() == []


def test_sweep_on_capped_hierarchy(h08_depth5):
    g = power_log(0.8, 0.15, 1.0)
    table = sweep_directions(h08_depth5, g, 256)
    assert len(table.rows) >= 1
    assert table.violations() == []
    for row in table.rows:
        assert 0.0 < row.cost <= row.bound * (1 + 1e-9)
        assert row.margin == row.bound - row.cost


# ---------------------------------------------------------------------------
# Lipschitz transfer at cover level
# ---------------------------------------------------------------------------

def test_projected_cover_cost_never_exceeds_planar():
    rng = np.random.default_rng(99)
    gs = [power(0.3), power(0.7), power(1.0), log_power(0.5), log_power(1.5),
          power_log(0.5, 0.5, 1.0), power_log(0.25, 1.0, 1.0 / 6.0),
          tabulated([(-12.0, -4.8), (-6.0, -2.4), (-1.0, -0.4)])]
    thetas = [i * math.pi / 32 for i in range(32)]
    for _ in range(100):
        n = rng.integers(8, 48)
        centers = rng.uniform(0, 1, (n, 2))
        radii = np.exp(rng.uniform(math.log(1e-4), math.log(1e-3), n))
        for g in gs:
            planar = float(np.sum(g.value(2 * radii)))
            for theta in thetas:
                cover = project_disc_cover(centers, radii, theta)
                cost = cover_cost(g, cover)
                assert cost <= planar * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Projected energies
# ---------------------------------------------------------------------------

def test_interval_cover_invariants():
    cover = merge_intervals([(0.0, 0.5), (2.0, 2.25), (0.4, 1.0)])
    lengths = [b - a for a, b in cover.intervals]
    assert lengths == [1.0, 0.25]
    gaps = [cover.intervals[i + 1][0] - cover.intervals[i][1]
            for i in range(len(cover.intervals) - 1)]
    assert all(g > 0 for g in gaps)


def test_projected_energy_dominates_planar(h05_depth5):
    # 1/g(projected distance) >= 1/g(planar distance), pairwise
    # the natural measure at level 2: equal masses on the level centers
    atoms = level_centers(h05_depth5, 2)
    g = power(0.25)
    for theta in (0.1, 0.9, 2.3):
        coords = atoms @ np.array([math.cos(theta), math.sin(theta)])
        proj = discrete_energy(g, coords)
        planar = discrete_energy(g, atoms)
        assert proj >= planar * (1 - 1e-12)


def test_angle_kernel_quadrature():
    # closed form sqrt(pi) Gamma((1-s)/2) / Gamma(1 - s/2)
    from scipy.special import gamma
    for s in (0.25, 0.5, 0.75):
        expected = math.sqrt(math.pi) * gamma((1 - s) / 2) / gamma(1 - s / 2)
        assert angle_kernel_integral(s) == pytest.approx(expected, rel=1e-8)
    assert angle_kernel_integral(0.0) == math.pi
    with pytest.raises(GaugeError):
        angle_kernel_integral(1.0)


@pytest.mark.parametrize("s", [-0.5, 0.25, 0.5, 0.75, 0.95])
def test_angle_kernel_matches_adaptive_quadrature(s):
    expected, _ = quad(lambda u: abs(math.cos(u)) ** (-s), 0.0, math.pi,
                       points=[math.pi / 2.0], limit=200)
    assert angle_kernel_integral(s) == pytest.approx(expected, rel=1e-10)


def test_averaged_projected_energy_bound(h05_depth5):
    m = NaturalMeasure(h05_depth5, 4)
    g = power(0.25)
    ape = averaged_projected_energy(m, g, pairs=100_000, seed=17)
    # the bound reads g's doubling fit: exponent 0.25 and prefactor 1
    assert g.doubling.s == pytest.approx(0.25, abs=1e-9)
    assert g.doubling.kappa == 1.0
    assert ape.kernel == angle_kernel_integral(g.doubling.s)
    assert ape.average <= ape.bound * 1.05


def test_averaged_projected_energy_two_atom_oracle():
    sched = schedule_from_radii([0.5, 0.25])
    h = build_hierarchy(power(0.5), sched, BranchingPlan(math.sqrt(0.5), (2,)),
                        theta=[0.0])
    m = NaturalMeasure(h, 1)  # atoms at (+-0.25, 0), distance 0.5
    ape = averaged_projected_energy(m, power(0.5), pairs=2000, seed=1)
    d = 0.5
    oracle = quad(lambda t: (d * abs(math.cos(t))) ** -0.5, 0, math.pi,
                  points=[math.pi / 2])[0]
    # bound = kernel x planar energy (kappa is 1 for power g); the planar
    # energy is the off-diagonal pair mass 2 * (1/2)**2, as in mc_energy
    assert power(0.5).doubling.kappa == 1.0
    assert ape.bound / ape.kernel == pytest.approx(
        mc_energy(power(0.5), m, 2000, seed=1).mean, rel=1e-12)
    # every pair sits at distance d, so the kernel average is exact
    assert ape.average == pytest.approx(0.5 * oracle, rel=1e-12)


def test_averaged_projected_energy_flat_limit(h05_depth5):
    m = NaturalMeasure(h05_depth5, 3)
    ape = averaged_projected_energy(m, power(1e-3), pairs=20_000, seed=3)
    planar = ape.bound / ape.kernel  # kappa is 1 for power g
    assert ape.average / (math.pi * planar) == pytest.approx(1.0, abs=0.02)


def test_averaged_projected_energy_rejects_steep():
    m = NaturalMeasure(build_hierarchy(power(0.5),
                                       schedule_from_radii([0.5, 0.1]),
                                       BranchingPlan(math.sqrt(0.5), (2,)),
                                       theta=[0.0]), 1)
    with pytest.raises(GaugeError):
        averaged_projected_energy(m, power_log(1.2, -0.5, 1.0), pairs=2000,
                                  seed=0)


# the gauges whose angle kernel has no closed form: the run-matrix partner
# of power(0.8), a shallow one and a log-type one
KERNEL_GAUGES = [power_log(0.8, 0.15, 1.0), power_log(0.3, 0.15, 1.0),
                 log_power(1.0)]


def kernel_by_quad(g, log_r: float) -> float:
    """K_g(r) = (2/pi) int_0^(pi/2) du / g(r sin u) by adaptive quadrature
    in log u, split into pieces; u < e**-250 adds under e**-50 of the total
    for the gauges here, whose exponents stay at or below 0.8."""
    def integrand(t):
        return math.exp(t - float(g.log_value(log_r + math.log(math.sin(math.exp(t))))))
    cuts = [-250.0, -100.0, -50.0, -25.0, -10.0, -3.0, 0.0, math.log(math.pi / 2.0)]
    return 2.0 / math.pi * sum(
        quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 0.95])
def test_angle_kernel_table_matches_power_closed_form(s):
    # K_g(r) = B(s) r**-s / pi; s = 0.95 leans on the tail's slow decay
    grid, log_transfer = angle_kernel_table(power(s), -60.0, -1.0)
    assert grid[0] == -60.0 and grid[-1] >= -1.0
    kernel = np.exp(log_transfer - s * grid)
    expected = angle_kernel_integral(s) * np.exp(-s * grid) / math.pi
    np.testing.assert_allclose(kernel, expected, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("g", KERNEL_GAUGES, ids=lambda g: str(g.to_dict()))
@pytest.mark.parametrize("log_r", [-55.0, -30.0, -4.0])
def test_angle_kernel_table_matches_quad(g, log_r):
    grid, log_transfer = angle_kernel_table(g, log_r, log_r + 1.0)
    node = math.exp(log_transfer[0] - float(g.log_value(log_r)))
    assert node == pytest.approx(kernel_by_quad(g, log_r), rel=1e-11)


@pytest.mark.parametrize("g", KERNEL_GAUGES, ids=lambda g: str(g.to_dict()))
def test_kernel_lookup_between_nodes(g):
    # midway between nodes, up to the top of the run's range (2 r_0 < 0.2)
    grid, log_transfer = angle_kernel_table(g, -60.0, -1.6)
    for x in (-55.0 + 0.5 * TABLE_STEP, -30.0 + 0.3 * TABLE_STEP,
              -4.0 + 0.5 * TABLE_STEP, grid[-2] + 0.5 * TABLE_STEP):
        got = math.exp(float(kernel_lookup(grid, log_transfer, x))
                       - float(g.log_value(x)))
        assert got == pytest.approx(kernel_by_quad(g, x), rel=1e-6)


def _kernel_lookup_one_expression(grid, table, x):
    # the cubic Lagrange formula on the same cells, as one expression
    pos = (np.asarray(x, dtype=float) - grid[0]) / TABLE_STEP
    i = np.clip(pos.astype(np.intp) - 1, 0, len(table) - 4)
    f = pos - i
    a, b, c = f - 1.0, f - 2.0, f - 3.0
    return (f * (3.0 * b * c * table[i + 1] - 3.0 * a * c * table[i + 2]
                 + a * b * table[i + 3]) - a * b * c * table[i]) / 6.0


@pytest.mark.parametrize("g", KERNEL_GAUGES, ids=lambda g: str(g.to_dict()))
def test_kernel_lookup_matches_lagrange_form(g):
    grid, log_transfer = angle_kernel_table(g, -60.0, -1.6)
    # 20 000 reads over the table, both clipped ends included, then every node
    x = np.random.default_rng(7).uniform(grid[0], grid[-1], 20_000)
    x[:2] = grid[0], grid[-1]
    for reads in (x, grid):
        got = kernel_lookup(grid, log_transfer, reads)
        want = _kernel_lookup_one_expression(grid, log_transfer, reads)
        assert got.shape == reads.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # each node reads back its own table value
    np.testing.assert_allclose(got, log_transfer, rtol=1e-14, atol=0.0)
    for scalar in (-30.0 + 0.3 * TABLE_STEP, float(grid[0]), float(grid[-1])):
        got = kernel_lookup(grid, log_transfer, scalar)
        want = _kernel_lookup_one_expression(grid, log_transfer, scalar)
        assert type(got) is np.float64 and got.shape == ()
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_kernel_lookup_peak_memory():
    # one read of 20 000 log radii holds a few arrays of their size
    grid, log_transfer = angle_kernel_table(KERNEL_GAUGES[0], -60.0, -1.6)
    x = np.random.default_rng(7).uniform(grid[0], grid[-1], 20_000)
    tracemalloc.start()
    try:
        kernel_lookup(grid, log_transfer, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 800_000


def test_angle_kernel_table_rejects_steep_depths():
    # log g of slope 10/9 below its knots: int du / g(r sin u) diverges
    with pytest.raises(GaugeError, match="diverges"):
        angle_kernel_table(tabulated([(-10.0, -12.0), (-1.0, -2.0)]), -8.0, -2.0)
def test_averaged_projected_energy_matches_exact_pair_sum():
    # 20 atoms: the exact Fubini form pi sum_{i != j} m_i m_j K_g(|x_i - x_j|)
    # with K_g by quadrature at every distinct distance, no table involved
    f = power(0.3)
    g = sweep_partner(f)
    h = build_from_gauge(f, 2)
    m = NaturalMeasure(h, 2)
    atoms = level_centers(h, 2)
    n = len(atoms)
    diff = atoms[:, None, :] - atoms[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])[~np.eye(n, dtype=bool)]
    values, counts = np.unique(dist, return_counts=True)
    exact = math.pi * sum(c * kernel_by_quad(g, math.log(d))
                          for d, c in zip(values, counts)) / n ** 2
    ape = averaged_projected_energy(m, g, pairs=20_000, seed=5)
    assert ape.stderr > 0.0
    assert abs(ape.average - exact) <= 3.0 * ape.stderr


def test_averaged_projected_energy_unbiased_at_power_08(h08_depth5):
    # the 64-angle midpoint rule reported average / bound 0.58-0.65 here
    m = NaturalMeasure(h08_depth5, 5)
    g = sweep_partner(power(0.8))
    for seed in range(2, 7):
        ape = averaged_projected_energy(m, g, pairs=100_000, seed=seed)
        assert 0.88 <= ape.ratio <= 0.92


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_averaged_projected_energy_transfer_constant(h05_depth5, s):
    # power g meets the budget B(s) / (pi kappa) exactly; the partner under it
    m = NaturalMeasure(h05_depth5, 3)
    exact = averaged_projected_energy(m, power(s), pairs=2000, seed=0)
    assert exact.transfer_max == pytest.approx(exact.transfer_bound, rel=1e-13)
    partner = averaged_projected_energy(m, sweep_partner(power(s)), pairs=2000,
                                        seed=0)
    assert partner.transfer_max < partner.transfer_bound

# ---------------------------------------------------------------------------
# Logarithmic dimension
# ---------------------------------------------------------------------------

def test_log_dimension_synthetic_recovers_boundary():
    s0 = 1.0
    grid = (0.25, 0.5, 0.75, 1.25, 1.5, 2.0)
    sched = [(s, [3.0 * (n + 1.0) ** (s0 - s) for n in range(24)]) for s in grid]
    est = estimate_log_dimension(sched)
    assert est.status == "ok"
    assert est.value == pytest.approx(s0, abs=0.3)  # within the grid step


def test_log_dimension_single_point_is_zero():
    rhos = [2.0 ** -(n + 3) for n in range(15)]
    sched = [(s, [float(log_power(s).value(r)) for r in rhos])
             for s in (0.5, 1.0, 2.0)]
    est = estimate_log_dimension(sched)
    assert est.value == 0.0


def test_log_dimension_segment_is_infinite():
    # covering a unit segment at mesh rho needs 1/rho pieces of diameter rho
    rhos = [2.0 ** -(n + 3) for n in range(15)]
    sched = [(s, [float(log_power(s).value(r)) / r for r in rhos])
             for s in (0.5, 1.0, 2.0)]
    est = estimate_log_dimension(sched)
    assert est.value == math.inf


def test_log_dimension_inconclusive_on_mixed_trends():
    sched = [(0.5, [1.0 + 0.001 * n for n in range(10)]),
             (1.0, [1.0] * 10),
             (2.0, [1.0 - 0.001 * n for n in range(10)])]
    est = estimate_log_dimension(sched)
    assert est.status == "inconclusive" and est.value is None
