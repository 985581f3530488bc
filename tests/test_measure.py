import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gaugeproj import (GaugeError, NaturalMeasure, BranchingPlan,
                       DiscCapExceeded, FrostmanScan, ball_mass, ball_masses,
                       build_from_gauge, build_hierarchy, discrete_energy,
                       frostman_scan, hierarchy, mc_energy, mc_energy_atoms,
                       measure, potential, power, power_log, sweep_partner)

from conftest import level_centers, schedule_from_radii


@pytest.fixture(scope="module")
def m4(h05_depth5):
    return NaturalMeasure(h05_depth5, 4)


def two_atom_measure():
    sched = schedule_from_radii([0.5, 0.25])
    h = build_hierarchy(power(0.5), sched, BranchingPlan(math.sqrt(0.5), (2,)),
                        theta=[0.0])
    return NaturalMeasure(h, 1)  # atoms at (+-0.25, 0), mass 1/2 each


# ---------------------------------------------------------------------------
# Atom sampling
# ---------------------------------------------------------------------------

def reference_sample_atoms(m, n, rng):
    """sample_atoms as a 2-d accumulation of offset x direction outer products."""
    h = m.hierarchy
    pts = np.zeros((n, 2))
    for level in range(1, m.depth + 1):
        idx = rng.integers(0, h.counts[level - 1], size=n)
        pts += h.offsets(level)[idx, None] * h.direction(level)[None, :]
    return pts


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5", "h08_depth5"])
def test_sample_atoms_equals_the_2d_accumulation(fixture, depth, request):
    m = NaturalMeasure(request.getfixturevalue(fixture), depth)
    rng, ref_rng = np.random.default_rng(depth), np.random.default_rng(depth)
    for n in (1, 2000):
        got, want = m.sample_atoms(n, rng), reference_sample_atoms(m, n, ref_rng)
        assert got.shape == want.shape == (n, 2)
        assert got.tobytes() == want.tobytes()
    # the same draws were consumed
    assert rng.integers(0, 2 ** 62) == ref_rng.integers(0, 2 ** 62)


@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5", "h08_depth5"])
def test_path_centers_are_the_level_centers(fixture, request):
    # the lexicographic index paths of a level sum to the repeat/tile
    # enumeration's centers bit for bit
    h = request.getfixturevalue(fixture)
    levels = [k for k in range(1, h.depth + 1) if h.disc_count(k) <= 10 ** 5]
    assert levels[-1] >= 2
    for k in levels:
        paths = np.array(np.unravel_index(np.arange(h.disc_count(k)),
                                          h.counts[:k]))
        got, want = measure._path_centers(h, paths), level_centers(h, k)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Ball mass
# ---------------------------------------------------------------------------

def test_ball_mass_whole_and_empty(m4):
    h = m4.hierarchy
    assert ball_mass(m4, (0.0, 0.0), 2 * h.radius(0)) == 1.0
    assert ball_mass(m4, (5.0, 5.0), 1.0) == 0.0


def test_ball_mass_single_child(h05_depth5):
    m1 = NaturalMeasure(h05_depth5, 1)
    x = level_centers(h05_depth5, 1)[0]
    got = ball_mass(m1, x, h05_depth5.radius(1) / 2)
    assert got == pytest.approx(1.0 / 9.0, abs=0)


def test_ball_mass_matches_brute_force(h05_depth5):
    m3 = NaturalMeasure(h05_depth5, 3)
    atoms = level_centers(h05_depth5, 3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = atoms[rng.integers(len(atoms))] + rng.normal(0, h05_depth5.radius(1), 2)
        r = math.exp(rng.uniform(h05_depth5.log_radius(3),
                                 h05_depth5.log_radius(0)))
        brute = np.count_nonzero(np.linalg.norm(atoms - x, axis=1) <= r) / len(atoms)
        assert ball_mass(m3, x, r) == pytest.approx(brute, abs=1e-15)


def test_disc_mass_equals_split(h05_depth5):
    # mass of any level-j disc equals the product split, via a ball that
    # captures exactly that disc's subtree
    m = NaturalMeasure(h05_depth5, 3)
    for j in (1, 2):
        c = level_centers(h05_depth5, j)[0]
        expected = 1.0 / np.prod(h05_depth5.counts[:j])
        assert ball_mass(m, c, h05_depth5.radius(j)) == pytest.approx(expected,
                                                                      abs=0)


def reference_ball_mass(m, x, r):
    """One ball at a time: the per-probe descent the batched one replaced."""
    h = m.hierarchy
    x = np.asarray(x, dtype=float)
    active = np.zeros((1, 2))
    mass = 0.0
    level_mass = 1.0
    for level in range(1, m.depth + 1):
        r_lvl = h.radius(level)
        level_mass /= h.counts[level - 1]
        step = h.offsets(level)[:, None] * h.direction(level)[None, :]
        children = (active[:, None, :] + step[None, :, :]).reshape(-1, 2)
        dist = np.hypot(children[:, 0] - x[0], children[:, 1] - x[1])
        if level == m.depth:
            return mass + level_mass * int(np.count_nonzero(dist <= r))
        inside = dist + r_lvl <= r
        mass += level_mass * int(np.count_nonzero(inside))
        active = children[(dist <= r + r_lvl) & ~inside]
        if len(active) == 0:
            return mass
    return mass


def reference_ball_masses(m, xs, rs):
    """All balls at once, measuring every child of every boundary disc: the
    per-child descent the index-range one replaced."""
    h = m.hierarchy
    x = np.asarray(xs, dtype=float).reshape(-1, 2)
    r = np.asarray(rs, dtype=float).reshape(-1)
    probe = np.arange(len(r))
    active = np.zeros((len(r), 2))
    mass = np.zeros(len(r))
    level_mass = 1.0
    for level in range(1, m.depth + 1):
        r_lvl = h.radius(level)
        level_mass /= h.counts[level - 1]
        step = h.offsets(level)[:, None] * h.direction(level)[None, :]
        children = (active[:, None, :] + step[None, :, :]).reshape(-1, 2)
        probe = np.repeat(probe, len(step))
        r_c = r[probe]
        dist = np.hypot(children[:, 0] - x[probe, 0], children[:, 1] - x[probe, 1])
        if level == m.depth:
            mass += level_mass * np.bincount(probe[dist <= r_c], minlength=len(r))
            break
        inside = dist + r_lvl <= r_c
        mass += level_mass * np.bincount(probe[inside], minlength=len(r))
        keep = (dist <= r_c + r_lvl) & ~inside
        active = children[keep]
        probe = probe[keep]
    return mass


def path_center(h, path):
    """Center of the disc at the end of ``path``, summed as the descent does."""
    c = np.zeros(2)
    for level, i in enumerate(path, start=1):
        c = c + h.offsets(level)[i] * h.direction(level)
    return c


def random_path(h, k, rng):
    return [int(rng.integers(n)) for n in h.counts[:k]]


def log_uniform_radius(h, depth, rng):
    return math.exp(rng.uniform(h.log_radius(depth), h.log_radius(0)))


def grazing_probes(h, depth, rng, n):
    """Balls whose sphere of radius R + r_k, R - r_k (or R at the last
    level) lies within 1e-12 relative of tangent to a children's diameter,
    the offsets spread over five decades down towards rounding."""
    xs, rs = [], []
    while len(rs) < n:
        k = int(rng.integers(1, depth + 1))
        a = path_center(h, random_path(h, k - 1, rng))
        e = h.direction(k)
        r_k, R = h.radius(k), log_uniform_radius(h, depth, rng)
        rho = R if k == depth else [R + r_k, R - r_k][len(rs) % 2]
        if rho <= 0.0:
            continue
        t = rng.uniform(-1.0, 1.0) * h.offsets(k)[-1]
        graze = rng.uniform(-1e-12, 1e-12) * 10.0 ** rng.uniform(-5.0, 0.0)
        q = rho * (1.0 + graze) * rng.choice([-1.0, 1.0])
        xs.append(a + t * e + q * np.array([-e[1], e[0]]))
        rs.append(R)
    return xs, rs


def diameter_probes(h, depth, rng, n):
    """Balls centred on a placement diameter (q = 0), inside and past its ends."""
    xs, rs = [], []
    for _ in range(n):
        k = int(rng.integers(1, depth + 1))
        a = path_center(h, random_path(h, k - 1, rng))
        t = rng.uniform(-1.5, 1.5) * h.radius(k - 1)
        xs.append(a + t * h.direction(k))
        rs.append(log_uniform_radius(h, depth, rng))
    return xs, rs


def disc_radius_probes(h, depth, rng, n):
    """Balls of radius exactly r_k and r_k +- 1 ulp around level-k centers,
    and spheres through a child center in float arithmetic."""
    xs, rs = [], []
    for i in range(n):
        k = int(rng.integers(1, depth + 1))
        c = path_center(h, random_path(h, k, rng))
        if i % 2:
            r_k = h.radius(k)
            xs.append(c)
            rs.append([r_k, np.nextafter(r_k, 0.0), np.nextafter(r_k, 1.0)][i % 3])
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            x = c + log_uniform_radius(h, depth, rng) * np.array([math.cos(phi),
                                                                   math.sin(phi)])
            xs.append(x)
            rs.append(float(np.hypot(c[0] - x[0], c[1] - x[1])))
    return xs, rs


def outside_probes(h, depth, rng, n):
    """Centers outside the root disc, with radii that do and do not reach it."""
    xs, rs = [], []
    for _ in range(n):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        gap = h.radius(0) * math.exp(rng.uniform(-30.0, 1.0))
        xs.append((h.radius(0) + gap) * np.array([math.cos(phi), math.sin(phi)]))
        rs.append(gap * rng.choice([0.5, 1.0]) + log_uniform_radius(h, depth, rng))
    return xs, rs


def end_probes(h, depth, rng, n):
    """Balls over either end of a children's diameter, so the index ranges
    clip at child 0 or child N - 1."""
    xs, rs = [], []
    for i in range(n):
        k = int(rng.integers(1, depth + 1))
        a = path_center(h, random_path(h, k - 1, rng))
        off = h.offsets(k)
        step = off[1] - off[0]
        side = 1.0 if i % 2 else -1.0
        t = side * (off[-1] + rng.uniform(-2.0, 4.0) * step)
        xs.append(a + t * h.direction(k))
        rs.append(rng.uniform(0.5, 6.0) * step)
    return xs, rs


BOUNDARY_PROBES = {"grazing": grazing_probes, "diameter": diameter_probes,
                   "disc radius": disc_radius_probes, "outside": outside_probes,
                   "ends": end_probes}


@pytest.mark.parametrize("kind", sorted(BOUNDARY_PROBES))
@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5", "h08_depth5"])
def test_range_descent_equals_per_child_descent(fixture, kind, request):
    h = request.getfixturevalue(fixture)
    m = NaturalMeasure(h, 5)
    rng = np.random.default_rng(sorted(BOUNDARY_PROBES).index(kind))
    xs, rs = BOUNDARY_PROBES[kind](h, 5, rng, 600)
    got = ball_masses(m, xs, rs)
    want = reference_ball_masses(m, xs, rs)
    assert 0 < np.count_nonzero(want) < len(want)  # the probes hit and miss
    bad = np.nonzero(got != want)[0]
    assert len(bad) == 0, [(xs[i].tolist(), rs[i], got[i], want[i]) for i in bad[:3]]


def test_ball_masses_match_brute_force_and_single_probes(h05_depth5):
    m3 = NaturalMeasure(h05_depth5, 3)
    atoms = level_centers(h05_depth5, 3)
    rng = np.random.default_rng(17)
    xs = m3.sample_atoms(200, rng) + rng.normal(0, h05_depth5.radius(3), (200, 2))
    rs = np.exp(rng.uniform(h05_depth5.log_radius(3), h05_depth5.log_radius(0), 200))
    got = ball_masses(m3, xs, rs)
    assert got.shape == (200,)
    for x, r, mass in zip(xs, rs, got):
        hits = np.count_nonzero(np.hypot(atoms[:, 0] - x[0], atoms[:, 1] - x[1]) <= r)
        assert round(mass * len(atoms)) == hits  # atom masses are equal
        assert mass == pytest.approx(ball_mass(m3, x, r), abs=0)
        assert mass == pytest.approx(reference_ball_mass(m3, x, r), abs=0)


def test_range_descent_on_balls_far_larger_than_the_hierarchy(h03_depth5,
                                                             h08_depth5):
    # radii and centers many orders beyond r_0 keep the range arithmetic
    # finite (RuntimeWarnings are errors under pytest) and exact
    for h in (h03_depth5, h08_depth5):
        m = NaturalMeasure(h, 5)
        r0 = h.radius(0)
        xs = [(0.0, 0.0), (1e200, 0.0), (0.0, 1e-300), (1e100, 1e100),
              (3 * r0, 0.0), (0.0, 0.0), (-2 * r0, r0)]
        rs = [1e250, 1.0, 1e300, 1e120, 1e-300, 2 * r0, 4 * r0]
        got = ball_masses(m, xs, rs)
        assert list(got) == list(reference_ball_masses(m, xs, rs))
        assert list(got) == [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]


@pytest.mark.parametrize("x, r", [((math.nan, 0.0), 1.0), ((0.0, math.inf), 1.0),
                                  ((0.0, 0.0), math.inf), ((0.0, 0.0), math.nan)])
def test_ball_masses_rejects_non_finite_balls(m4, x, r):
    with pytest.raises(GaugeError, match="finite"):
        ball_masses(m4, [(0.0, 0.0), x], [1.0, r])


def test_ball_masses_rejects_mismatched_lengths(m4):
    with pytest.raises(GaugeError):
        ball_masses(m4, np.zeros((3, 2)), [0.1, 0.2])


def smallest_passing_disc_cap(m, x, r, monkeypatch):
    """The smallest ``hierarchy.DISC_CAP`` under which ball_mass(m, x, r)
    is not refused, by bisection."""
    lo, hi = 1, 10 ** 6
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(hierarchy, "DISC_CAP", mid)
        try:
            ball_mass(m, x, r)
            hi = mid
        except DiscCapExceeded:
            lo = mid + 1
    return lo


def cap_probe(h):
    return NaturalMeasure(h, 3), (0.0, 0.0), 0.5 * h.radius(0)


def test_descent_band_cap_is_inclusive(h05_depth5, monkeypatch):
    m, x, r = cap_probe(h05_depth5)
    cap = smallest_passing_disc_cap(m, x, r, monkeypatch)
    assert cap > 1
    monkeypatch.setattr(hierarchy, "DISC_CAP", cap)
    assert ball_mass(m, x, r) == reference_ball_mass(m, x, r)
    # one row below, the refusal names the very row count the cap admitted
    monkeypatch.setattr(hierarchy, "DISC_CAP", cap - 1)
    with pytest.raises(DiscCapExceeded,
                       match=f" {cap} band rows, over the cap of {cap - 1}$"):
        ball_mass(m, x, r)


def test_descent_band_cap_bounds_the_whole_chunk(h05_depth5, monkeypatch):
    m, x, r = cap_probe(h05_depth5)
    cap = smallest_passing_disc_cap(m, x, r, monkeypatch)
    # three copies share one chunk, whose bands are thrice one ball's
    monkeypatch.setattr(hierarchy, "DISC_CAP", cap)
    with pytest.raises(DiscCapExceeded):
        ball_masses(m, [x] * 3, [r] * 3)
    monkeypatch.setattr(hierarchy, "DISC_CAP", 3 * cap)
    assert list(ball_masses(m, [x] * 3, [r] * 3)) == [reference_ball_mass(m, x, r)] * 3


def test_refused_chunk_never_builds_its_bands(monkeypatch):
    # 100 000 level-1 children of radius 1e-6 on a diameter of the unit
    # disc; a huge ball tangent to that diameter has every child on its
    # boundary band
    n = 100_000
    h = build_hierarchy(power(0.5), schedule_from_radii([1.0, 1e-6, 1e-7]),
                        BranchingPlan(1.0, (n, 2)), theta=[0.0, 0.0])
    m = NaturalMeasure(h, 2)
    h.offsets(1)  # the cached offset table is no part of the descent's peak
    xs, rs = [(0.0, 1e6)] * 4, [1e6] * 4
    monkeypatch.setattr(hierarchy, "DISC_CAP", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(DiscCapExceeded, match=f" {4 * n} band rows"):
            ball_masses(m, xs, rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a tenth of one index array over the refused rows
    assert peak < 8 * 4 * n // 10
    monkeypatch.setattr(hierarchy, "DISC_CAP", 4 * n)
    assert list(ball_masses(m, xs, rs)) == list(reference_ball_masses(m, xs, rs))


def test_every_ball_mass_descends_once_per_chunk(m4, monkeypatch):
    calls = []
    descend = measure._descend

    def counting_descend(m, x, r, paths):
        calls.append((len(r), paths.shape))
        return descend(m, x, r, paths)

    rng = np.random.default_rng(9)
    xs, rs = m4.sample_atoms(20, rng), m4.hierarchy.radius(2) * rng.random(20)
    want_masses, want_scan = ball_masses(m4, xs, rs), frostman_scan(m4, 20, 9)
    monkeypatch.setattr(measure, "PROBE_CHUNK", 7)
    monkeypatch.setattr(measure, "_descend", counting_descend)
    assert ball_masses(m4, xs, rs).tobytes() == want_masses.tobytes()
    assert calls == [(7, (0, 7)), (7, (0, 7)), (6, (0, 6))]
    calls.clear()
    assert frostman_scan(m4, 20, 9) == want_scan
    assert calls == [(7, (4, 7)), (7, (4, 7)), (6, (4, 6))]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("s,depth", [(0.3, 8), (0.5, 9)])
def test_ball_around_a_deep_atom_holds_its_mass(s, depth):
    # the ball of radius r_K addressed by the all-zero index path, as the
    # Frostman scan's first-path probe reaches it, holds exactly that
    # path's atom: mass 1/(N_1...N_K).  The descent's root-scale
    # tolerance gives 0.0 at power(0.3) depth 8 and 1.71e-9 (3 atoms) at
    # power(0.5) depth 9
    h = build_from_gauge(power(s), depth)
    m = NaturalMeasure(h, depth)
    paths = np.zeros((depth, 1), dtype=np.intp)
    x = measure._path_centers(h, paths)
    mass = measure._chunked_masses(m, x, np.array([h.radius(depth)]), paths)[0]
    assert mass == pytest.approx(1.0 / h.disc_count(depth), rel=1e-12)


# ---------------------------------------------------------------------------
# Frostman scan
# ---------------------------------------------------------------------------

def test_frostman_scan_zero_violations(m4):
    scan = frostman_scan(m4, 2000, seed=3)
    assert scan.violations == 0
    assert scan.c_emp <= scan.c_bound
    assert scan.c_emp >= 1.0 / (2.0 * m4.hierarchy.a)  # scan sensitivity


def test_frostman_negative_control(m4):
    scan = frostman_scan(m4, 2000, seed=3, mass_scale=10.0)
    assert scan.violations >= 1


def reference_first_path_center(h, level):
    """Center of the lexicographically first level-`level` disc, one level
    offset at a time."""
    c = np.zeros(2)
    for j in range(1, level + 1):
        c = c + h.offsets(j)[0] * h.direction(j)
    return c


def reference_scan(m, f, samples, seed, mass_scale=1.0, batched=False):
    """The probe-by-probe scan the batched one replaced, comparing log
    mass against log f(r) one probe at a time; ``batched`` takes the
    masses from the per-child batched descent instead."""
    h = m.hierarchy
    c_bound = max(8.0 / h.a, 1.0 / h.a)
    rng = np.random.default_rng(seed)
    probes = [(reference_first_path_center(h, k), h.radius(k), h.log_radius(k))
              for k in range(1, m.depth + 1)]
    n_random = max(samples - len(probes), 0)
    xs = m.sample_atoms(n_random, rng)
    log_r = rng.uniform(h.log_radius(m.depth), h.log_radius(0), size=n_random)
    probes.extend((xs[i], math.exp(log_r[i]), log_r[i]) for i in range(n_random))
    if batched:
        masses = reference_ball_masses(m, [x for x, _, _ in probes],
                                       [r for _, r, _ in probes])
    else:
        masses = [reference_ball_mass(m, x, r) for x, r, _ in probes]
    log_c_emp, violations = -math.inf, 0
    for (_, _, lr), mass in zip(probes, masses):
        scaled = mass_scale * float(mass)
        log_ratio = (math.log(scaled) if scaled > 0.0 else -math.inf) \
            - float(f.log_value(lr))
        log_c_emp = max(log_c_emp, log_ratio)
        if log_ratio > math.log(c_bound) + math.log1p(1e-9):
            violations += 1
    return FrostmanScan(math.exp(log_c_emp), c_bound, violations, len(probes))


@pytest.mark.parametrize("s,mass_scale", [(0.3, 1.0), (0.5, 1.0), (0.8, 1.0),
                                          (0.5, 10.0), (0.5, 0.0)])
def test_frostman_scan_equals_sequential_reference(s, mass_scale, h03_depth5,
                                                   h05_depth5, h08_depth5):
    h = {0.3: h03_depth5, 0.5: h05_depth5, 0.8: h08_depth5}[s]
    m = NaturalMeasure(h, 4)
    # more probes than one batch, so chunk boundaries are crossed
    scan = frostman_scan(m, 2500, seed=13, mass_scale=mass_scale)
    assert scan == reference_scan(m, h.gauge, 2500, seed=13, mass_scale=mass_scale)
    assert scan.samples == 2500
    assert (scan.violations > 0) == (mass_scale > 1.0)
    assert (scan.c_emp == 0.0) == (mass_scale == 0.0)


@pytest.mark.parametrize("depth", [4, 5])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_frostman_scan_equals_per_child_reference_on_run_matrix(
        s, depth, h03_depth5, h05_depth5, h08_depth5):
    # the configs `gaugeproj run` is benchmarked on, at their probe count
    h = ({0.3: h03_depth5, 0.5: h05_depth5, 0.8: h08_depth5}[s] if depth == 5
         else build_from_gauge(power(s), depth))
    m = NaturalMeasure(h, depth)
    scan = frostman_scan(m, 10_000, seed=1)
    ref = reference_scan(m, h.gauge, 10_000, seed=1, batched=True)
    assert (scan.c_emp, scan.violations) == (ref.c_emp, ref.violations)
    assert scan.samples == 10_000 and scan.violations == 0


def test_frostman_scan_below_depth_keeps_first_path_probes(m4):
    f = m4.hierarchy.gauge
    scan = frostman_scan(m4, 2, seed=1)
    assert scan.samples == m4.depth
    assert scan == reference_scan(m4, f, 2, seed=1)
    assert scan == frostman_scan(m4, 0, seed=2)  # no random probes


@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5", "h08_depth5"])
def test_frostman_fixed_probes_are_the_first_paths(fixture, request,
                                                   monkeypatch):
    h = request.getfixturevalue(fixture)
    m = NaturalMeasure(h, h.depth)
    seen = []
    descend = measure._descend

    def recording_descend(m, x, r, paths=None):
        seen.append(np.array(x))
        return descend(m, x, r, paths)

    monkeypatch.setattr(measure, "_descend", recording_descend)
    frostman_scan(m, 50, seed=4)
    (xs,) = seen
    for k in range(1, h.depth + 1):
        want = reference_first_path_center(h, k)
        assert xs[k - 1].tobytes() == want.tobytes()


def recorded_scan(m, samples, seed, monkeypatch):
    """Run frostman_scan, recording each chunk's centers, radii, masses and
    start levels."""
    calls, starts = [], []
    descend, start_levels = measure._descend, measure._start_levels

    def recording_descend(m, x, r, paths=None):
        out = descend(m, x, r, paths)
        calls.append((np.array(x), np.array(r), out))
        return out

    def recording_start_levels(*args):
        starts.append(start_levels(*args))
        return starts[-1]

    with monkeypatch.context() as mp:
        mp.setattr(measure, "_descend", recording_descend)
        mp.setattr(measure, "_start_levels", recording_start_levels)
        frostman_scan(m, samples, seed)
    xs, rs, masses = (np.concatenate(parts) for parts in zip(*calls))
    return xs, rs, masses, np.concatenate(starts)


def close_siblings_hierarchy():
    # level 2: four radius-0.04 children of a radius-0.2 disc, 0.0267
    # apart edge to edge, closer than r_2 itself
    sched = schedule_from_radii([1.0, 0.2, 0.04, 0.004, 0.0004])
    return build_hierarchy(power(0.5), sched,
                           BranchingPlan(1.0, (3, 4, 3, 3)))


@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5", "h08_depth5",
                                     "close_siblings"])
def test_frostman_probes_equal_the_root_descent(fixture, request,
                                                monkeypatch):
    h = (close_siblings_hierarchy() if fixture == "close_siblings"
         else request.getfixturevalue(fixture))
    m = NaturalMeasure(h, h.depth)
    # more probes than one batch, so every chunk's tolerance is its own
    xs, rs, masses, starts = recorded_scan(m, 10_000, 5, monkeypatch)
    assert len(masses) == 10_000
    assert masses.tobytes() == ball_masses(m, xs, rs).tobytes()
    # each first-path probe k, of radius r_k, starts above level k
    assert (starts[:h.depth] < np.arange(1, h.depth + 1)).all()
    assert starts.max() == h.depth - 1
    # the deepest level s < depth with r < r_s, before the gap rule
    below = (rs[:, None] < [h.radius(j) for j in range(1, h.depth)]).sum(1)
    assert (starts <= below).all()
    if fixture == "close_siblings":
        lowered = starts < below
        assert lowered.any()
        # only level 2's siblings are that close, so the lowered probes
        # start at level 1 and reach across level 2's gap, up to tol
        off = h.offsets(2)
        gap = off[1] - off[0] - 2.0 * h.radius(2)
        assert gap < h.radius(2)
        assert (starts[lowered] == 1).all()
        assert (rs[lowered] > gap - 1e-12).all()
    else:
        assert (starts == below).all()


def test_frostman_bound_reads_kappa_from_the_gauge():
    # powerlog's doubling prefactor is below 1, so C = max(8/(a kappa), 1/a)
    # exceeds the power-gauge value 8/a
    f = power_log(0.5, 0.5)
    h = build_from_gauge(f, 4)
    scan = frostman_scan(NaturalMeasure(h, 4), 2000, seed=1)
    kappa = f.doubling.kappa
    assert 0.0 < kappa < 1.0
    assert scan.c_bound == max(8.0 / (h.a * kappa), 1.0 / h.a)
    assert scan.c_bound > 8.0 / h.a
    assert scan.c_bound == pytest.approx(24.01, abs=0.01)
    assert scan.violations == 0


def test_frostman_scan_on_huge_hierarchy(h08_depth5):
    # depth-5 branching product is ~8.5e9 discs; the scan never materialises
    m = NaturalMeasure(h08_depth5, 5)
    scan = frostman_scan(m, 500, seed=11)
    assert scan.violations == 0


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def test_discrete_energy_two_atoms():
    e = discrete_energy(power(1.0), [(0.0, 0.0), (0.5, 0.0)], [0.5, 0.5])
    assert e == pytest.approx(1.0, abs=0)


def test_discrete_energy_triangle():
    tri = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    assert discrete_energy(power(1.0), tri) == pytest.approx(2.0 / 3.0)


def test_discrete_energy_uniform_segment():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 1.0, 10_000)
    assert discrete_energy(power(0.5), pts) == pytest.approx(8.0 / 3.0, rel=0.02)


def test_discrete_energy_errors():
    with pytest.raises(GaugeError):
        discrete_energy(power(1.0), [(0.0, 0.0)])
    with pytest.raises(GaugeError):
        discrete_energy(power(1.0), [(0.0, 0.0), (0.0, 0.0)])
    assert discrete_energy(power(1.0), [(0, 0), (0, 0), (1, 0)]) == math.inf


def test_mc_energy_two_atoms_exact():
    m = two_atom_measure()
    est = mc_energy(power(1.0), m, 2000, seed=2)
    assert est.mean == pytest.approx(1.0, abs=0)  # only one distinct pair
    assert est.stderr == 0.0 and est.collisions_rejected == 0
    assert [(lv.level, lv.p, lv.pairs) for lv in est.levels] == [(1, 0.5, 2000)]


def test_mc_matches_exact_on_small_sets(h05_depth5):
    sub = level_centers(h05_depth5, 4)[:81]
    exact = discrete_energy(power(0.25), sub)
    est = mc_energy_atoms(power(0.25), sub, None, 10 ** 6, seed=9)
    assert abs(exact - est.mean) <= 3 * est.stderr


def test_mc_energy_depth4_stable(m4):
    est = mc_energy(power(0.25), m4, 10 ** 6, seed=5)
    assert est.stderr / est.mean < 0.01
    est3 = mc_energy(power(0.25), NaturalMeasure(m4.hierarchy, 3), 10 ** 6, seed=5)
    assert est.mean == pytest.approx(est3.mean, rel=0.10)  # stable across depths


def test_energy_nondecreasing_in_depth(h05_depth5):
    f = power(0.5)
    means = [mc_energy(f, NaturalMeasure(h05_depth5, d), 4 * 10 ** 5,
                       seed=42).mean for d in (3, 4, 5)]
    assert means[0] < means[1] < means[2]


def test_mc_energy_rejects_tiny_budget(m4):
    with pytest.raises(GaugeError):
        mc_energy(power(0.5), m4, 10, seed=0)


def reference_divergence_energy(f, m, pairs, seed):
    """mc_energy written out: per level k, pairs // depth pairs (one more
    on the first pairs % depth levels) draw q = u * N + i, u >= 1, once at
    level k for children i and j = (i + u) mod N_k, then q = u * N + a once
    at each level below for children a and b = (a + u) mod N, u >= 0; the
    differences accumulate as complex steps (off[a] - off[b]) (e_x + i e_y)
    and their modulus is ``np.abs``."""
    h = m.hierarchy

    def complex_step(level, a, b):
        step = h.offsets(level)[a] - h.offsets(level)[b]
        ex, ey = h.direction(level)
        z = np.empty(len(step), dtype=complex)
        z.real, z.imag = step * ex, step * ey
        return z

    rng = np.random.default_rng(seed)
    levels = []
    for k in range(1, m.depth + 1):
        n = pairs // m.depth + (k <= pairs % m.depth)
        count = h.counts[k - 1]
        u, i = np.divmod(rng.integers(count, count * count, size=n), count)
        dz = complex_step(k, i, (i + u) % count)
        for level in range(k + 1, m.depth + 1):
            count = h.counts[level - 1]
            u, a = np.divmod(rng.integers(0, count * count, size=n), count)
            dz += complex_step(level, a, (a + u) % count)
        vals = f.reciprocal(np.abs(dz))
        p = (1.0 - 1.0 / h.counts[k - 1]) / math.prod(h.counts[:k - 1])
        levels.append((k, p, n, float(vals.mean()),
                       float(vals.std(ddof=1) / math.sqrt(n))))
    return levels


def test_mc_energy_keeps_its_draw_order(h05_depth5, h08_depth5):
    for h, depth, pairs in ((h05_depth5, 1, 20_000), (h05_depth5, 4, 20_003),
                            (h08_depth5, 5, 20_004)):
        m, g = NaturalMeasure(h, depth), sweep_partner(h.gauge)
        est = mc_energy(g, m, pairs, seed=3)
        levels = reference_divergence_energy(g, m, pairs, seed=3)
        assert [tuple(vars(lv).values()) for lv in est.levels] == levels
        assert est.mean == sum(p * mean for _, p, _, mean, _ in levels)
        assert est.stderr == math.sqrt(
            sum((p * se) ** 2 for _, p, _, _, se in levels))
        assert est.pairs_used == pairs and est.collisions_rejected == 0


@pytest.mark.parametrize("fixture", ["h05_depth5", "h08_depth5"])
def test_step_table_lists_each_ordered_pair_once(fixture, request):
    h = request.getfixturevalue(fixture)
    for level in range(1, h.depth + 1):
        count, off = h.counts[level - 1], h.offsets(level)
        table = h.step_table(level)
        assert table.dtype == complex and len(table) == count * count
        # built once per hierarchy, shared read-only by every energy
        assert h.step_table(level) is table and not table.flags.writeable
        # decode every q: u, i = divmod(q, N), j = (i + u) mod N
        u, i = np.divmod(np.arange(count * count), count)
        j = (i + u) % count
        assert np.unique(i * count + j).size == count * count
        # past the first N entries, the N (N - 1) pairs i != j, once each
        assert (i[:count] == j[:count]).all()
        assert (i[count:] != j[count:]).all()
        ex, ey = h.direction(level)
        assert table.real.tobytes() == ((off[i] - off[j]) * ex).tobytes()
        assert table.imag.tobytes() == ((off[i] - off[j]) * ey).tobytes()


class CountingRng:
    """A Generator that records the (low, high, size) of each integers call."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def integers(self, low, high, size):
        self.calls.append((low, high, size))
        return self.rng.integers(low, high, size=size)


def test_divergence_pairs_draws_once_per_level(h08_depth5):
    m, counts = NaturalMeasure(h08_depth5, 5), h08_depth5.counts
    rng = CountingRng(4)
    strata = measure.divergence_pairs(m, 20_003, rng)
    sizes = [len(dz) for _, _, dz in strata]
    assert sizes == [4001, 4001, 4001, 4000, 4000]
    assert rng.calls == [
        (counts[k - 1] if level == k else 0, counts[level - 1] ** 2, n)
        for k, n in enumerate(sizes, 1) for level in range(k, 6)]


def test_step_tables_respect_the_disc_cap(h05_depth5, monkeypatch):
    m, g = NaturalMeasure(h05_depth5, 5), sweep_partner(h05_depth5.gauge)
    widest = max(h05_depth5.counts) ** 2
    monkeypatch.setattr(hierarchy, "DISC_CAP", widest)
    assert mc_energy(g, m, 2000, seed=1).pairs_used == 2000
    monkeypatch.setattr(hierarchy, "DISC_CAP", widest - 1)
    with pytest.raises(DiscCapExceeded, match="step table"):
        mc_energy(g, m, 2000, seed=1)


@pytest.mark.parametrize("fixture", ["h03_depth5", "h05_depth5"])
def test_mc_energy_strata_match_their_exact_means(fixture, request):
    # depth 2: every ordered atom pair enumerated, at most 81 * 72 per stratum
    h = request.getfixturevalue(fixture)
    g = sweep_partner(h.gauge)
    # lexicographic in path: atom u has level-1 child u // N_2
    atoms = level_centers(h, 2)
    n = len(atoms)
    u, v = np.divmod(np.arange(n * n), n)
    distinct = u != v
    u, v = u[distinct], v[distinct]
    level = np.where(u // h.counts[1] != v // h.counts[1], 1, 2)
    vals = g.reciprocal(np.linalg.norm(atoms[u] - atoms[v], axis=1))
    est = mc_energy(g, NaturalMeasure(h, 2), 200_000, seed=1)
    assert [lv.level for lv in est.levels] == [1, 2]
    for lv in est.levels:
        stratum = level == lv.level
        assert lv.p == pytest.approx(stratum.sum() / n ** 2, rel=1e-12)
        assert lv.stderr > 0.0
        assert abs(lv.mean - vals[stratum].mean()) <= 4 * lv.stderr


@pytest.mark.parametrize("fixture,depth", [("h05_depth5", 3), ("h08_depth5", 2)])
def test_mc_energy_matches_the_exact_energy(fixture, depth, request):
    h = request.getfixturevalue(fixture)
    g = sweep_partner(h.gauge)
    exact = discrete_energy(g, level_centers(h, depth))
    est = mc_energy(g, NaturalMeasure(h, depth), 200_000, seed=1)
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_mc_energy_levels_split_the_pairs(h08_depth5):
    m = NaturalMeasure(h08_depth5, 5)
    est = mc_energy(sweep_partner(h08_depth5.gauge), m, 200_000, seed=1)
    assert [lv.level for lv in est.levels] == [1, 2, 3, 4, 5]
    assert all(lv.pairs >= 40_000 for lv in est.levels)
    assert sum(lv.pairs for lv in est.levels) == 200_000
    # the strata cover every distinct pair: sum p_k = 1 - sum m_i**2
    assert sum(lv.p for lv in est.levels) == pytest.approx(
        1.0 - 1.0 / h08_depth5.disc_count(5), rel=1e-12)
    # no pair coincides, down to the deepest level's gaps
    rng = np.random.default_rng(1)
    for _, _, dz in measure.divergence_pairs(m, 200_000, rng):
        assert np.abs(dz).min() > 0.0
    assert [lv.pairs for lv in mc_energy(power(0.5), m, 1003, 1).levels] == [
        201, 201, 201, 200, 200]


def test_pair_modulus_holds_below_the_squared_sum_range():
    # differences near 1e-172: their squares underflow, their modulus not
    sched = schedule_from_radii([1e-170, 1e-172, 1e-174])
    h = build_hierarchy(power(0.5), sched, BranchingPlan(1.0, (5, 7)))
    m = NaturalMeasure(h, 2)
    underflows = 0
    for _, _, dz in measure.divergence_pairs(m, 20_000, np.random.default_rng(2)):
        d, want = np.abs(dz), np.hypot(dz.real, dz.imag)
        assert (d > 0.0).all()
        assert (np.abs(d - want) <= 2 * np.spacing(want)).all()
        underflows += np.count_nonzero(dz.real ** 2 + dz.imag ** 2 == 0.0)
    assert underflows == 20_000


def test_mc_energy_is_stable_across_seeds_at_depth(h08_depth5):
    m = NaturalMeasure(h08_depth5, 5)
    g = sweep_partner(h08_depth5.gauge)
    ests = [mc_energy(g, m, 200_000, seed=seed) for seed in (1, 2, 3)]
    assert all(e.stderr / e.mean < 0.01 for e in ests)
    for a in ests:
        for b in ests:
            assert abs(a.mean - b.mean) <= 3 * math.hypot(a.stderr, b.stderr)


def test_mc_energy_needs_two_pairs_per_level(m4):
    with pytest.raises(GaugeError, match="two pairs per level"):
        list(measure.divergence_pairs(m4, 7, np.random.default_rng(0)))


@pytest.mark.parametrize("s,depth,level", [(0.3, 110, 104), (0.3, 105, 104),
                                            (0.8, 100, 96)])
def test_mc_energy_refuses_coinciding_children(s, depth, level):
    # the level's offsets underflow, so step-table entries with i != j are 0
    h = build_from_gauge(power(s), depth)
    with pytest.raises(GaugeError, match=f"^level {level}'s children coincide "
                                         f"in float64 \\(r_{level} = 0.0\\)$"):
        mc_energy(h.gauge, NaturalMeasure(h, depth), 5000, seed=1)


def test_mc_energy_at_depth_100_has_no_coinciding_children():
    h = build_from_gauge(power(0.3), 100)
    est = mc_energy(h.gauge, NaturalMeasure(h, 100), 5000, seed=1)
    assert math.isfinite(est.mean) and est.mean > 0


def test_mc_energy_stderr_stays_finite_at_depth():
    # at power(0.8) depth 95 the deep strata's 1/f values pass 1e154, where
    # their squares overflow: each stratum's std is taken on values scaled
    # by a power of two, with no overflow warning
    h = build_from_gauge(power(0.8), 95)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_energy(power(0.8), NaturalMeasure(h, 95), 5000, seed=1)
    assert math.isfinite(est.stderr) and est.stderr > 0
    assert max(lv.mean for lv in est.levels) > 1e154
    assert all(math.isfinite(lv.stderr) for lv in est.levels)


def test_mean_stderr_scaling_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(200):
        vals = rng.lognormal(rng.uniform(-300, 300), rng.uniform(0, 5),
                             rng.integers(2, 500))
        mean, stderr = measure._mean_stderr(vals)
        assert stderr == float(vals.std(ddof=1) / math.sqrt(len(vals)))


def test_mc_energy_atoms_keeps_its_draw_order():
    # one draw of index pairs; a same-index pair counts 0 and is not redrawn
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    w = np.array([0.4, 0.3, 0.2, 0.1])
    for masses, pick in ((None, lambda rng: rng.integers(0, 4, size=(2, 5000))),
                         (w, lambda rng: rng.choice(4, size=(2, 5000), p=w))):
        est = mc_energy_atoms(power(1.0), pts, masses, 5000, seed=11)
        i, j = pick(np.random.default_rng(11))
        d = np.linalg.norm(pts[i] - pts[j], axis=-1)
        vals = np.where(i == j, 0.0, 1.0 / np.where(i == j, 1.0, d))
        assert est.collisions_rejected == int((i == j).sum()) > 0
        assert est.mean == float(vals.mean())
        assert est.stderr == float(vals.std(ddof=1) / math.sqrt(5000))


def test_mc_energy_atoms_weighted_off_diagonal():
    # the heavy atom pairs with itself 81% of the time; those pairs count 0
    pts, masses = [(0.0, 0.0), (1.0, 0.0)], [0.9, 0.1]
    exact = discrete_energy(power(1.0), pts, masses)
    assert exact == pytest.approx(0.18)
    est = mc_energy_atoms(power(1.0), pts, masses, 2000, seed=1)
    assert abs(est.mean - exact) <= 3 * est.stderr


def test_mc_energy_atoms_coincident_atoms():
    pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
    assert discrete_energy(power(1.0), pts) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_energy_atoms(power(1.0), pts, None, 2000, seed=1)
    assert est.mean == math.inf and est.stderr == math.inf


# ---------------------------------------------------------------------------
# Potential and capacity
# ---------------------------------------------------------------------------

def test_potential_barycenter_exact():
    m = two_atom_measure()
    val = potential(power(1.0), m, (0.0, 0.0), 2000, seed=4)
    assert val == pytest.approx(4.0, abs=0)  # both atoms at distance 0.25


def test_potential_at_an_atom():
    # half of the measure sits at x itself and counts 0; the other atom is
    # 0.5 away and counts 1/0.5, so the estimate is 2 (draws on it) / pairs,
    # about the potential 1.0
    m = two_atom_measure()
    for seed in range(40):
        other = m.sample_atoms(2000, np.random.default_rng(seed))[:, 0] < 0.0
        want = 2.0 * int(np.count_nonzero(other)) / 2000
        assert potential(power(1.0), m, (0.25, 0.0), 2000, seed=seed) == want
        assert 0.9 < want < 1.1


def test_potential_far_point():
    m = two_atom_measure()
    expected = 0.5 / 4.75 + 0.5 / 5.25
    val = potential(power(1.0), m, (5.0, 0.0), 50_000, seed=4)
    assert val == pytest.approx(expected, rel=0.01)


def test_potential_energy_identity(m4):
    g = power(0.25)
    est = mc_energy(g, m4, 2 * 10 ** 5, seed=21)
    rng = np.random.default_rng(22)
    xs = m4.sample_atoms(128, rng)
    vals = [potential(g, m4, x, 4000, seed=100 + i) for i, x in enumerate(xs)]
    avg = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(avg - est.mean) <= 3 * math.hypot(se, est.stderr)


def test_capacity_lower_bound(m4):
    # the run's energy block reports 1 / mean as its capacity_lower_bound
    def capacity_lower_bound(g, m, pairs, seed):
        return 1.0 / mc_energy(g, m, pairs, seed).mean

    m = two_atom_measure()
    assert capacity_lower_bound(power(1.0), m, 2000, seed=6) == pytest.approx(1.0)
    # segment with f = r**0.5: reciprocal of the 8/3 energy
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.0, 1.0, 10_000)
    est = mc_energy_atoms(power(0.5), pts, None, 10 ** 6, seed=32)
    assert 1.0 / est.mean == pytest.approx(3.0 / 8.0, rel=0.02)
    # finite-energy witness on the hierarchy: positive capacity
    assert capacity_lower_bound(power(0.25), m4, 10 ** 5, seed=33) > 0
