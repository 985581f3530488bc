import math

import numpy as np
import pytest

from gaugeproj import (EnergyEstimateError, GaugeError, NaturalMeasure,
                       BranchingPlan, DiscCapExceeded, FrostmanScan, ball_mass,
                       ball_masses, build_from_gauge, build_hierarchy,
                       capacity_lower_bound, discrete_energy, frostman_scan,
                       mc_energy, mc_energy_atoms, measure, potential, power,
                       schedule_from_radii)
from gaugeproj.measure import sample_distinct_pairs


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


# ---------------------------------------------------------------------------
# Ball mass
# ---------------------------------------------------------------------------

def test_ball_mass_whole_and_empty(m4):
    h = m4.hierarchy
    assert ball_mass(m4, (0.0, 0.0), 2 * h.radius(0)) == 1.0
    assert ball_mass(m4, (5.0, 5.0), 1.0) == 0.0


def test_ball_mass_single_child(h05_depth5):
    m1 = NaturalMeasure(h05_depth5, 1)
    x = h05_depth5.level_centers(1)[0]
    got = ball_mass(m1, x, h05_depth5.radius(1) / 2)
    assert got == pytest.approx(1.0 / 9.0, abs=0)


def test_ball_mass_matches_brute_force(h05_depth5):
    m3 = NaturalMeasure(h05_depth5, 3)
    atoms = m3.atom_coords()
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
        c = h05_depth5.level_centers(j)[0]
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
    atoms = m3.atom_coords()
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


def test_descent_cap_is_per_probe(h05_depth5, monkeypatch):
    m = NaturalMeasure(h05_depth5, 3)
    x, r = (0.0, 0.0), 0.5 * h05_depth5.radius(0)
    monkeypatch.setattr(measure, "DESCENT_CAP", 1)
    with pytest.raises(DiscCapExceeded):
        ball_mass(m, x, r)
    # the smallest cap this one ball passes is its largest frontier
    lo, hi = 1, 10 ** 6
    while lo < hi:
        monkeypatch.setattr(measure, "DESCENT_CAP", (lo + hi) // 2)
        try:
            ball_mass(m, x, r)
            hi = (lo + hi) // 2
        except DiscCapExceeded:
            lo = (lo + hi) // 2 + 1
    assert lo > 1
    monkeypatch.setattr(measure, "DESCENT_CAP", lo)
    # three copies share one frontier of thrice that size, yet none trips
    masses = ball_masses(m, [x] * 3, [r] * 3)
    assert list(masses) == [reference_ball_mass(m, x, r)] * 3
    monkeypatch.setattr(measure, "DESCENT_CAP", lo - 1)
    with pytest.raises(DiscCapExceeded):
        ball_masses(m, [(5.0, 5.0), x], [1.0, r])


def test_total_mass_log_sum(h05_depth5):
    for depth in (1, 3, 5):
        m = NaturalMeasure(h05_depth5, depth)
        assert abs(m.total_log_mass()) < 1e-12


# ---------------------------------------------------------------------------
# Frostman scan
# ---------------------------------------------------------------------------

def test_frostman_scan_zero_violations(m4):
    scan = frostman_scan(m4, m4.hierarchy.gauge, 2000, seed=3)
    assert scan.violations == 0
    assert scan.c_emp <= scan.c_bound
    assert scan.c_emp >= 1.0 / (2.0 * m4.hierarchy.a)  # scan sensitivity


def test_frostman_negative_control(m4):
    scan = frostman_scan(m4, m4.hierarchy.gauge, 2000, seed=3, mass_scale=10.0)
    assert scan.violations >= 1


def reference_scan(m, f, samples, seed, mass_scale=1.0, batched=False):
    """The probe-by-probe scan the batched one replaced; ``batched`` takes
    the masses from the per-child batched descent instead."""
    h = m.hierarchy
    c_bound = max(8.0 / h.a, 1.0 / h.a)
    rng = np.random.default_rng(seed)
    probes = [(h.first_path_center(k), h.radius(k)) for k in range(1, m.depth + 1)]
    n_random = max(samples - len(probes), 0)
    xs = m.sample_atoms(n_random, rng)
    log_r = rng.uniform(h.log_radius(m.depth), h.log_radius(0), size=n_random)
    probes.extend((xs[i], math.exp(log_r[i])) for i in range(n_random))
    if batched:
        masses = reference_ball_masses(m, [x for x, _ in probes],
                                       [r for _, r in probes])
    else:
        masses = [reference_ball_mass(m, x, r) for x, r in probes]
    c_emp, worst, violations = 0.0, (0.0, 0.0, 0.0), 0
    for (x, r), mass in zip(probes, masses):
        ratio = mass_scale * float(mass) / float(f.value(r))
        if ratio > c_emp:
            c_emp = ratio
            worst = (float(x[0]), float(x[1]), float(r))
        if ratio > c_bound * (1.0 + 1e-9):
            violations += 1
    return FrostmanScan(c_emp, c_bound, violations, len(probes), worst)


@pytest.mark.parametrize("s,mass_scale", [(0.3, 1.0), (0.5, 1.0), (0.8, 1.0),
                                          (0.5, 10.0), (0.5, 0.0)])
def test_frostman_scan_equals_sequential_reference(s, mass_scale, h03_depth5,
                                                   h05_depth5, h08_depth5):
    h = {0.3: h03_depth5, 0.5: h05_depth5, 0.8: h08_depth5}[s]
    m = NaturalMeasure(h, 4)
    # more probes than one batch, so chunk boundaries are crossed
    scan = frostman_scan(m, h.gauge, 2500, seed=13, mass_scale=mass_scale)
    assert scan == reference_scan(m, h.gauge, 2500, seed=13, mass_scale=mass_scale)
    assert scan.samples == 2500
    assert (scan.violations > 0) == (mass_scale > 1.0)
    assert (scan.worst == (0.0, 0.0, 0.0)) == (mass_scale == 0.0)


@pytest.mark.parametrize("depth", [4, 5])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_frostman_scan_equals_per_child_reference_on_run_matrix(
        s, depth, h03_depth5, h05_depth5, h08_depth5):
    # the configs `gaugeproj run` is benchmarked on, at their probe count
    h = ({0.3: h03_depth5, 0.5: h05_depth5, 0.8: h08_depth5}[s] if depth == 5
         else build_from_gauge(power(s), depth))
    m = NaturalMeasure(h, depth)
    scan = frostman_scan(m, h.gauge, 10_000, seed=1)
    ref = reference_scan(m, h.gauge, 10_000, seed=1, batched=True)
    assert (scan.c_emp, scan.worst, scan.violations) == (ref.c_emp, ref.worst,
                                                         ref.violations)
    assert scan.samples == 10_000 and scan.violations == 0


def test_frostman_scan_below_depth_keeps_first_path_probes(m4):
    f = m4.hierarchy.gauge
    scan = frostman_scan(m4, f, 2, seed=1)
    assert scan.samples == m4.depth
    assert scan == reference_scan(m4, f, 2, seed=1)
    assert scan == frostman_scan(m4, f, 0, seed=2)  # no random probes


def test_frostman_scan_on_huge_hierarchy(h08_depth5):
    # depth-5 branching product is ~8.5e9 discs; the scan never materialises
    m = NaturalMeasure(h08_depth5, 5)
    scan = frostman_scan(m, h08_depth5.gauge, 500, seed=11)
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
    assert est.collisions_rejected > 0


def test_mc_matches_exact_on_small_sets(h05_depth5):
    sub = NaturalMeasure(h05_depth5, 4).atom_coords()[:81]
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


def _reference_loop(draw, pairs):
    # reference: an uncapped redraw loop that draws in the same order
    diff = draw(pairs)
    d = np.linalg.norm(diff, axis=-1)
    rejected = 0
    for _ in range(128):
        bad = d == 0.0
        if not bad.any():
            break
        rejected += int(bad.sum())
        diff[bad] = draw(int(bad.sum()))
        d[bad] = np.linalg.norm(diff[bad], axis=-1)
    return d, rejected


def test_mc_energy_keeps_its_draw_order(h05_depth5):
    # one level of 9 atoms: about one pair in nine collides and is redrawn
    m = NaturalMeasure(h05_depth5, 1)
    est = mc_energy(power(0.5), m, 20_000, seed=3)
    rng = np.random.default_rng(3)
    d, rejected = _reference_loop(
        lambda k: m.sample_atoms(k, rng) - m.sample_atoms(k, rng), 20_000)
    vals = power(0.5).reciprocal(d)
    assert rejected > 1000 and est.collisions_rejected == rejected
    assert est.mean == float(vals.mean()) * (1.0 - math.exp(m.log_atom_mass))


def test_mc_energy_atoms_keeps_its_draw_order():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
    w = np.array([0.4, 0.3, 0.2, 0.1])
    for masses, pick in ((None, lambda rng, k: rng.integers(0, 4, size=(2, k))),
                         (w, lambda rng, k: rng.choice(4, size=(2, k), p=w))):
        est = mc_energy_atoms(power(1.0), pts, masses, 5000, seed=11)
        rng = np.random.default_rng(11)

        def draw(k):
            i, j = pick(rng, k)
            return pts[i] - pts[j]

        d, rejected = _reference_loop(draw, 5000)
        assert est.collisions_rejected == rejected > 0
        self_mass = 0.25 if masses is None else float(np.sum((w / w.sum()) ** 2))
        assert est.mean == float((1.0 / d).mean()) * (1.0 - self_mass)


def test_sample_distinct_pairs_redraws_zero_rows():
    rng = np.random.default_rng(0)
    draw = lambda k: rng.integers(0, 2, size=(k, 2)).astype(float)  # 1/4 zero
    diff, d, rejected = sample_distinct_pairs(draw, 4000)
    assert diff.shape == (4000, 2) and np.all(d > 0)
    assert np.array_equal(d, np.linalg.norm(diff, axis=-1))
    assert 0 < rejected < 4 * 4000


def test_sample_distinct_pairs_gives_up():
    with pytest.raises(EnergyEstimateError, match="runaway"):
        sample_distinct_pairs(lambda k: np.zeros((k, 2)), 1000)

    def one_stuck_row(k):  # rejections stay under 4x pairs; rounds run out
        out = np.ones((k, 2))
        out[0] = 0.0
        return out
    with pytest.raises(EnergyEstimateError, match="could not draw"):
        sample_distinct_pairs(one_stuck_row, 1000)


def test_self_mass_abort():
    with pytest.raises(EnergyEstimateError, match="50%"):
        mc_energy_atoms(power(1.0), [(0.0, 0.0), (1.0, 0.0)], [0.9, 0.1],
                        2000, seed=1)


# ---------------------------------------------------------------------------
# Potential and capacity
# ---------------------------------------------------------------------------

def test_potential_barycenter_exact():
    m = two_atom_measure()
    val = potential(power(1.0), m, (0.0, 0.0), 2000, seed=4)
    assert val == pytest.approx(4.0, abs=0)  # both atoms at distance 0.25


def test_potential_at_an_atom():
    # half of the measure sits at x itself; the other atom is 0.5 away
    m = two_atom_measure()
    for seed in range(40):
        assert potential(power(1.0), m, (0.25, 0.0), 2000, seed=seed) == 2.0


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
    m = two_atom_measure()
    assert capacity_lower_bound(power(1.0), m, 2000, seed=6) == pytest.approx(1.0)
    # segment with f = r**0.5: reciprocal of the 8/3 energy
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.0, 1.0, 10_000)
    est = mc_energy_atoms(power(0.5), pts, None, 10 ** 6, seed=32)
    assert 1.0 / est.mean == pytest.approx(3.0 / 8.0, rel=0.02)
    # finite-energy witness on the hierarchy: positive capacity
    assert capacity_lower_bound(power(0.25), m4, 10 ** 5, seed=33) > 0
