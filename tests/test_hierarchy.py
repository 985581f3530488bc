import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gaugeproj import (BranchingError, BranchingPlan, RadiusSchedule,
                       ScheduleError, build_from_gauge, build_hierarchy,
                       choose_branching, derive_radius_schedule, log_power,
                       power, power_log, raw_log_radii, tabulated,
                       validate_hierarchy)
from gaugeproj import hierarchy

from conftest import level_centers, schedule_from_radii


def test_schedule_scan_power_half():
    s = derive_radius_schedule(power(0.5), 4)
    assert s.k1 == 4
    assert s.radius(0) == pytest.approx(0.0930, abs=5e-4)


def test_raw_radius_identity():
    r10 = math.exp(raw_log_radii([10.0])[0])
    expected = (10 * math.log(10) * math.log(math.log(10))) ** -10
    assert r10 == pytest.approx(expected, rel=1e-12)
    assert r10 == pytest.approx(1.46e-13, rel=5e-3)


def test_schedule_rejects_steep_gauge():
    with pytest.raises(ScheduleError, match="exceeds 1"):
        derive_radius_schedule(power(1.5), 4)


def test_schedule_inequalities_hold_on_window():
    f = power(0.5)
    s = derive_radius_schedule(f, 4)
    for k in range(s.depth):
        f_hi = f.value(s.radius(k))
        f_lo = f.value(s.radius(k + 1))
        assert f_lo < 0.25 * f_hi
        assert f_lo / s.radius(k + 1) > 3 * f_hi / s.radius(k)


@functools.cache
def _fixed_window_schedule(f, K):
    """The k1 search as one scan of 65 536-start windows: the reference the
    growing-window search must match.  Returns (log_r, k1) or the
    ScheduleError message."""
    k_lo = 3
    while k_lo * math.log(k_lo) * math.log(math.log(k_lo)) <= 1.0:
        k_lo += 1
    chunk, k_max = 1 << 16, 10 ** 6
    while k_lo <= k_max:
        k_hi = min(k_lo + chunk, k_max + K + 1)
        lv = raw_log_radii(np.arange(k_lo, k_hi + K + 1, dtype=float))
        lf = np.asarray(f.log_value(lv), dtype=float)
        ok = ((lf[1:] < lf[:-1] + hierarchy.LOG_QUARTER)
              & ((lf[1:] - lv[1:]) > hierarchy.LOG3 + (lf[:-1] - lv[:-1])))
        window = np.convolve(ok.astype(int), np.ones(K, dtype=int), "valid") == K
        hits = np.nonzero(window)[0]
        hits = hits[hits + k_lo <= k_max]
        if len(hits):
            i = int(hits[0])
            return tuple(lv[i:i + K + 1].tolist()), k_lo + i
        k_lo = k_hi
    return (f"no admissible start k1 <= {k_max}: the gauge does not satisfy "
            "the mass-drop and rate inequalities on the raw radius sequence")


# k1 from 4 to 15 226 (power(0.1)), across all four admissible families
_SCHEDULE_GAUGES = (
    [power(s) for s in (0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 0.8, 0.85, 0.9)]
    + [power_log(0.3, 1.0), power_log(0.8, -1.0), power_log(0.8, 0.5),
       power_log(0.5, 1.0)]
    + [tabulated([(-200.0, -100.0), (-50.0, -20.0), (-1.0, -0.6)]),
       tabulated([(-1000.0, -300.0), (-10.0, -6.0), (-0.5, -0.4)])])


def _schedule(f, K):
    s = derive_radius_schedule(f, K)
    return s.log_r, s.k1


@pytest.mark.parametrize("K", range(2, 11))
def test_growing_window_search_matches_the_fixed_window_scan(K):
    for f in _SCHEDULE_GAUGES:
        assert _schedule(f, K) == _fixed_window_schedule(f, K), (f, K)
    # a k1 past the first windows is found too
    assert _schedule(power(0.9), K)[1] == 1254
    assert _schedule(power(0.1), K)[1] == 15226


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_growing_window_search_fails_like_the_fixed_window_scan(s):
    # dimension-zero gauges admit no shift: every start up to 10**6 is read
    with pytest.raises(ScheduleError) as err:
        derive_radius_schedule(log_power(s), 3)
    assert str(err.value) == _fixed_window_schedule(log_power(s), 3)


@pytest.mark.parametrize("first", [1, 2, 3])
def test_tiny_first_windows_find_hits_across_window_edges(first, monkeypatch):
    monkeypatch.setattr(hierarchy, "FIRST_WINDOW", first)
    straddles = 0
    for f in _SCHEDULE_GAUGES:
        for K in (2, 5, 10):
            log_r, k1 = _schedule(f, K)
            assert (log_r, k1) == _fixed_window_schedule(f, K), (f, K, first)
            # the window edges (each window's last start, where the next
            # begins) for this first window size
            edges, k, chunk = [], 4, first
            while k <= k1 + K:
                k += chunk
                edges.append(k)
                chunk = min(2 * chunk, hierarchy.MAX_WINDOW)
            straddles += any(k1 < e < k1 + K for e in edges)
    assert straddles > 0


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_schedule_search_allocates_little(s):
    f = power(s)
    f.doubling  # the fitted exponent is cached on the gauge; fit it first
    tracemalloc.start()
    try:
        derive_radius_schedule(f, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024


def least_count(f, s, counts) -> float:
    """a / (N_1 ... N_k f(r_{k+1})), the lower end of the admissible
    interval [L, 2L] for N_{k+1}."""
    k = len(counts)
    return math.exp(f.log_value(s.log_r[0]) - sum(math.log(n) for n in counts)
                    - f.log_value(s.log_r[k + 1]))


def test_choose_branching_example():
    f = power(0.5)
    s = derive_radius_schedule(f, 4)
    plan = choose_branching(f, s)
    assert plan.a == pytest.approx(0.3050, abs=5e-4)
    assert plan.counts[0] == 9
    lo = least_count(f, s, [])
    hi = 2.0 * lo
    assert lo == pytest.approx(8.75, abs=0.01)
    assert hi == pytest.approx(17.51, abs=0.02)
    assert hi - lo > 2  # the proof's width guarantee


def test_choose_branching_width_guarantee_every_level():
    f = power(0.3)
    s = derive_radius_schedule(f, 5)
    plan = choose_branching(f, s)
    for k in range(s.depth):
        lo = least_count(f, s, plan.counts[:k])
        hi = 2.0 * lo
        assert hi - lo > 2
        assert lo <= plan.counts[k] <= hi
        assert plan.counts[k] == math.ceil(lo) or plan.counts[k] == 2


def test_degenerate_schedule_has_no_branching():
    f = power(0.5)
    s = schedule_from_radii([0.25])
    plan = choose_branching(f, s)
    assert plan.counts == ()
    assert plan.a == pytest.approx(0.5)


def test_build_two_children_tangent():
    sched = schedule_from_radii([1.0, 0.25])
    h = build_hierarchy(power(0.5), sched, BranchingPlan(1.0, (2,)), theta=[0.0])
    np.testing.assert_allclose(level_centers(h, 1),
                               [[-0.75, 0.0], [0.75, 0.0]], atol=1e-15)


def test_build_three_children_vertical():
    sched = schedule_from_radii([1.0, 0.2])
    h = build_hierarchy(power(0.5), sched, BranchingPlan(1.0, (3,)),
                        theta=[math.pi / 2])
    np.testing.assert_allclose(level_centers(h, 1),
                               [[0.0, -0.8], [0.0, 0.0], [0.0, 0.8]], atol=1e-15)
    # gap width from the spacing identity: 2*3*0.2 + 2*s = 2  =>  s = 0.4
    rho, off = h.parent_frame(1)
    assert rho == pytest.approx(0.2)
    assert float(off[1] - off[0]) - 2 * rho == pytest.approx(0.4)


def test_validate_constructive_hierarchies_pass(h05_depth5, h03_depth5, h08_depth5):
    for h in (h05_depth5, h03_depth5, h08_depth5):
        report = validate_hierarchy(h)
        assert report.passed, [r for r in report.rows if not r.passed]
        assert report.assumptions


def test_validate_negative_control_reports_eq23():
    sched = schedule_from_radii([1.0, 0.3])
    h = build_hierarchy(power(0.5), sched, BranchingPlan(1.0, (4,)), theta=[0.0])
    report = validate_hierarchy(h)
    rows = report.by_check("Eq23")
    assert len(rows) == 1 and not rows[0].passed
    assert not report.passed
    assert {r.check for r in report.rows if not r.passed} >= {"Eq23", "Eq33"}
    # four radius-0.3 discs 0.467 apart: the three neighbouring pairs
    # overlap, and the induction's sibling premise Eq33 fails with them,
    # its margin (gap - r_1)/r_1 below -1 for a negative gap
    oracle = _oracle_pairs(level_centers(h, 1), 2 * h.radius(1) * (1 - 1e-12))
    (row,) = report.by_check("Eq33")
    assert oracle == 3 and not row.passed and row.margin < -1.0


def _zero_increment_hierarchy():
    # the second placement increment is 0, so the partial sums stall
    sched = schedule_from_radii([1.0, 0.2, 0.02])
    return build_hierarchy(power(0.5), sched, BranchingPlan(1.0, (3, 3)),
                           theta=[0.3, 0.0])


def test_margins_are_slacks_that_shrink_toward_failure():
    # a failed row has no slack left and a passed row at most the 1e-9
    # tolerance of Eq20 and Eq25 below zero; only the angle row of a
    # depth-1 hierarchy, which has no partial-sum step, carries no margin
    eq23 = build_hierarchy(power(0.5), schedule_from_radii([1.0, 0.3]),
                           BranchingPlan(1.0, (4,)), theta=[0.0])
    for h in (eq23, _zero_increment_hierarchy()):
        report = validate_hierarchy(h)
        assert not report.passed
        for row in report.rows:
            if row.margin is None:
                assert (row.check, row.level, h.depth) == ("angle-partial-sums", 1, 1)
                assert row.passed
            elif row.passed:
                assert row.margin >= -1e-6, row
            else:
                assert row.margin <= 0.0, row
    (row,) = validate_hierarchy(_zero_increment_hierarchy()).by_check(
        "angle-partial-sums")
    assert not row.passed and row.margin == 0.0


def test_validation_reads_only_level_ratios():
    # log radii 790 below the figure pair's, where r_1 and r_2 underflow to
    # 0: the parent-frame rows (Eq32, Eq33, containment, angles) are the
    # same floats, and the log-space rows differ only by the rounding of
    # the larger log radii
    f, counts = power(0.5), (3, 4)
    near = build_hierarchy(f, RadiusSchedule((0.0, -5.0, -10.5)),
                           BranchingPlan(1.0, counts))
    log_a = float(f.log_value(-790.0))
    deep = build_hierarchy(f, RadiusSchedule((-790.0, -795.0, -800.5)),
                           BranchingPlan(math.exp(log_a), counts), theta=near.theta)
    assert deep.radius(1) == 0.0
    rows_near = validate_hierarchy(near).rows
    rows_deep = validate_hierarchy(deep).rows
    assert ([(r.check, r.level, r.passed, r.note) for r in rows_deep]
            == [(r.check, r.level, r.passed, r.note) for r in rows_near])
    for a, b in zip(rows_near, rows_deep):
        if a.check in ("Eq32", "Eq33", "child-containment", "angle-partial-sums"):
            assert b.margin == a.margin, a.check
        else:
            assert b.margin == pytest.approx(a.margin, rel=1e-12, abs=1e-12), a.check


def test_margin_table_depth4(h05_depth5):
    report = validate_hierarchy(h05_depth5)
    for row in report.by_check("Eq33"):
        assert row.passed and row.margin > 0  # gap exceeds child radius


def test_eq25_chain(h05_depth5, h03_depth5, h08_depth5):
    for h in (h05_depth5, h03_depth5, h08_depth5):
        f = h.gauge
        for k in range(1, h.depth + 1):
            n = h.counts[k - 1]
            f_ratio = math.exp(f.log_value(h.log_radius(k - 1))
                               - f.log_value(h.log_radius(k)))
            r_ratio = math.exp(h.log_radius(k - 1) - h.log_radius(k))
            assert n <= 2 * f_ratio * (1 + 1e-12)
            assert n < (2.0 / 3.0) * r_ratio


def test_rebuild_bit_identical():
    a = build_from_gauge(power(0.5), 4)
    b = build_from_gauge(power(0.5), 4)
    assert a.schedule.log_r == b.schedule.log_r
    assert a.counts == b.counts and a.theta == b.theta and a.d == b.d
    np.testing.assert_array_equal(level_centers(a, 3), level_centers(b, 3))


def test_default_theta_matches_radius_ratios(h05_depth5):
    h = h05_depth5
    for k in range(h.depth):
        expected = math.exp(h.log_radius(k + 1) - h.log_radius(k))
        assert h.theta[k] == pytest.approx(expected, rel=1e-15)
    partial = np.cumsum(h.theta)
    assert np.all(np.diff(partial) > 0)


def test_branching_rejects_broken_schedule():
    # radii that violate the mass-drop inequality leave no admissible integer
    f = power(0.5)
    s = schedule_from_radii([0.25, 0.2])
    with pytest.raises(BranchingError):
        choose_branching(f, s)


def test_hierarchy_serialisation_shape(h05_depth5, h08_depth5):
    # the level table alone: no disc centers, so the document stays small
    # however many discs the deepest level holds
    for h in (h05_depth5, h08_depth5):
        doc = h.to_dict()
        assert set(doc) == {"schedule", "a", "N", "theta", "d"}
        assert doc["schedule"] == {"log_r": list(h.schedule.log_r),
                                   "k1": h.schedule.k1}
        assert doc["N"] == list(h.counts)
        assert (doc["theta"], doc["d"]) == (list(h.theta), list(h.d))
        assert len(json.dumps(doc)) < 8 * 1024


# ---------------------------------------------------------------------------
# Level disjointness, which the validator derives by induction
# ---------------------------------------------------------------------------

ORACLE_CAP = 200_000  # levels up to this many discs get the all-pairs oracle
PER_LEVEL_CHECKS = ("Eq20", "Eq21", "Eq22", "Eq23", "Eq25", "Eq32", "Eq33",
                    "child-containment")


def _oracle_pairs(centers, r):
    return len(cKDTree(centers).query_pairs(r)) if len(centers) > 1 else 0


@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5", "h08_depth5"])
def test_levels_disjoint_by_induction(fixture, request):
    h = request.getfixturevalue(fixture)
    report = validate_hierarchy(h)
    levels = [k for k in range(1, h.depth + 1)
              if h.disc_count(k) <= ORACLE_CAP]
    assert levels
    for k in levels:
        # the premises hold at every level up to k ...
        premises = [r for r in report.rows if r.level <= k and r.check in
                    ("Eq33", "child-containment")]
        assert len(premises) == 2 * k and all(r.passed for r in premises)
        # ... and so does the conclusion, on every pair of level-k discs
        centers = level_centers(h, k)
        assert _oracle_pairs(centers, 2 * h.radius(k) * (1 - 1e-12)) == 0
        # at a threshold taking in neighbouring siblings the oracle sees pairs
        spacing = float(h.offsets(k)[1] - h.offsets(k)[0])
        assert _oracle_pairs(centers, 1.5 * spacing) > 0


def test_validator_row_set(h03_depth5, h05_depth5, h08_depth5):
    # the same rows at every level whatever its disc count, the level-5
    # discs of power(0.8) being far over DISC_CAP
    for h in (h03_depth5, h05_depth5, h08_depth5):
        rows = validate_hierarchy(h).rows
        for k in range(1, h.depth + 1):
            got = sorted(r.check for r in rows
                         if r.level == k and r.check in PER_LEVEL_CHECKS)
            assert got == sorted(PER_LEVEL_CHECKS)
        rest = [(r.check, r.level) for r in rows
                if r.check not in PER_LEVEL_CHECKS]
        assert rest == [("angle-partial-sums", h.depth)]
        assert len(rows) == len(PER_LEVEL_CHECKS) * h.depth + 1
