"""The benchmark's workloads: seeded inputs, one unit of work, output checks.

Each workload turns the seed into a fixed cycle of items.  The worker runs
whole cycles, so every item is equally represented in every run.  ``run``
is the timed unit and returns the program's raw outputs; ``check`` runs
outside the timed region, raises ``CheckFailed`` when an output is wrong
and returns the unit's work counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from gaugeproj import (cli, conditions, config, diophantine, gauges,
                       hierarchy, pipeline, projection)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _grid(lo: float, hi: float, step: float) -> list[float]:
    return [round(lo + i * step, 10) for i in range(int(round((hi - lo) / step)) + 1)]


def _away(values, thresholds, gap: float = 0.1) -> list[float]:
    """Grid values at least ``gap`` from every closed-form threshold."""
    return [v for v in values if all(abs(v - t) >= gap - 1e-12 for t in thresholds)]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _records(tracer, qname: str, unit) -> list:
    return [rec for u, rec in tracer.records.get(qname, ()) if u == unit]


# ---------------------------------------------------------------------------
# run-matrix: `gaugeproj run` over the north-star config matrix
# ---------------------------------------------------------------------------

class RunMatrix:
    """One unit is one in-process ``gaugeproj run`` on one config, writing
    csv, json and svg.  The work counts are written into the config, so
    the checks pin them independently of the program's defaults."""

    name = "run-matrix"
    POWERS = (0.3, 0.5, 0.8)
    DEPTHS = (4, 5)
    SCAN_SAMPLES = 10_000
    PAIRS = 200_000
    ANGLES = 256
    STAGES = ("gauges", "conditions", "construct", "validate", "frostman",
              "energy", "sweep")
    DIGESTED = ("report.json", "checks.csv", "sweep.csv")

    # functions whose observed calls the checks read; wrapped in untraced
    # runs too (three wrapper calls per unit)
    capture = ("measure.frostman_scan", "measure.mc_energy",
               "projection.sweep_directions")

    def __init__(self, seed: int, workdir: Path):
        self.items = []
        self.digests: dict[int, dict] = {}
        for s in self.POWERS:
            for depth in self.DEPTHS:
                i = len(self.items)
                cdir = workdir / self.name / f"c{i}"
                cdir.mkdir(parents=True, exist_ok=True)
                doc = {"f": {"family": "power", "s": s}, "depth": depth,
                       "seed": seed, "scan_samples": self.SCAN_SAMPLES,
                       "pairs": self.PAIRS, "angles": self.ANGLES,
                       "emit": {"csv": True, "json": True, "svg": True}}
                config.parse_config(doc)
                path = cdir / "config.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                self.items.append({"id": i, "label": f"power({s}) depth {depth}",
                                   "argv": ["run", "--config", str(path),
                                            "--out", str(cdir / "out")],
                                   "out": cdir / "out"})

    def run(self, item):
        return _cli(item["argv"])

    def check(self, item, outcome, tracer, unit) -> dict:
        rc, stdout = outcome
        _require(rc == 0, f"exit code {rc}")
        summary = json.loads(stdout.strip().splitlines()[-1])
        _require(summary["inequalities"]["fail"] == 0, "an inequality failed")
        out = item["out"]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        stages = {s["stage"]: s["status"] for s in report["stages"]}
        _require(stages == {s: "ok" for s in self.STAGES}, f"stages {stages}")
        _require(report["frostman"]["violations"] == 0, "Frostman violations")
        checks = {r["check_id"]: r for r in report["checks"]}
        _require(checks["Eq35"]["passed"], "Eq35 violated")
        _require(checks["Eq34"]["note"] == f"{self.SCAN_SAMPLES} samples",
                 "Frostman probe count differs from scan_samples")
        scans = _records(tracer, "measure.frostman_scan", unit)
        energies = _records(tracer, "measure.mc_energy", unit)
        sweeps = _records(tracer, "projection.sweep_directions", unit)
        _require([s["samples"] for s in scans] == [self.SCAN_SAMPLES], "probe count")
        _require([e["pairs"] for e in energies] == [self.PAIRS], "pairs_used")
        _require([s["angles"] for s in sweeps] == [self.ANGLES], "angle count")
        digests = {name: _sha256(out / name) for name in self.DIGESTED}
        first = self.digests.setdefault(item["id"], digests)
        _require(digests == first, "bundle differs between repeats")
        return {"bundle_bytes": sum(p.stat().st_size for p in out.iterdir())}

    def describe(self) -> list[str]:
        return [f"{self.name} {it['label']}: "
                + " ".join(f"{n}={d}" for n, d in self.digests[it["id"]].items())
                for it in self.items if it["id"] in self.digests]


# ---------------------------------------------------------------------------
# arc-sweep: construction, validation and a sweep that measures every level
# ---------------------------------------------------------------------------

class ArcSweep:
    """One unit builds a hierarchy, validates it and sweeps the uniform
    256-angle grid plus eight seeded angles inside each level's placement
    arc, so most levels get measured Eq35 rows."""

    name = "arc-sweep"
    CONFIGS = ((0.5, 6), (0.8, 5))
    GRID = 256
    PER_ARC = 8
    capture = ()

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        self.digests: dict[int, str] = {}
        for s, depth in self.CONFIGS:
            f = gauges.parse_gauge({"family": "power", "s": s})
            g = pipeline.sweep_partner(f)
            h = hierarchy.build_from_gauge(f, depth)
            arcs = []
            for k in range(1, depth):
                # one seeded angle in each of PER_ARC equal parts of the arc's
                # interior: where in the arc an angle falls decides how far the
                # projected intervals merge (from ~1e4 to ~1e6 of them at
                # power(0.8) level 3), so independent draws would make the
                # work itself vary from seed to seed
                v = rng.random()
                for j in range(self.PER_ARC):
                    # d_theta = theta + pi/2 lands at fraction u of the arc
                    # [d_k, d_k + theta_{k+1}]
                    u = 0.05 + 0.9 * (j + v) / self.PER_ARC
                    theta = math.fmod(h.d[k - 1] + u * h.theta[k] + math.pi / 2,
                                      math.pi)
                    arcs.append((theta, k))
            angles = ([i * math.pi / self.GRID for i in range(self.GRID)]
                      + [t for t, _ in arcs])
            self.items.append({"id": len(self.items),
                               "label": f"power({s}) depth {depth}",
                               "f": f, "g": g, "depth": depth,
                               "angles": angles, "arcs": arcs})

    def run(self, item):
        h = hierarchy.build_from_gauge(item["f"], item["depth"])
        report = hierarchy.validate_hierarchy(h)
        table = projection.sweep_directions(h, item["g"], item["angles"])
        return report, table

    def check(self, item, outcome, tracer, unit) -> dict:
        report, table = outcome
        _require(report.passed, "hierarchy validation failed")
        _require(not table.violations(), "Eq35 violated")
        got = {(r.theta, r.k) for r in table.rows}
        missing = [a for a in item["arcs"] if a not in got]
        _require(not missing, f"arc angles not qualifying: {missing[:3]}")
        digest = hashlib.sha256(repr(table.to_dicts()).encode()).hexdigest()
        first = self.digests.setdefault(item["id"], digest)
        _require(digest == first, "sweep rows differ between repeats")
        return {}

    def describe(self) -> list[str]:
        return [f"{self.name} {it['label']}: rows={self.digests[it['id']]}"
                for it in self.items if it["id"] in self.digests]


# ---------------------------------------------------------------------------
# analytic-grid: verdict sets, series classification, gap report
# ---------------------------------------------------------------------------

class AnalyticGrid:
    """Units are gauge-check verdict sets over all four gauge families,
    criterion-7 series and the gap report.  Each draw holds one finite and
    one divergent pair per closed form, so the mix of early-exit verdicts
    is the same for every seed."""

    name = "analytic-grid"
    DRAWS = 16
    VERDICTS = ("length_criterion", "integral_condition", "limit_condition",
                "rate_condition", "df_over_g")
    STATUSES = {conditions.FINITE, conditions.DIVERGENT, conditions.INCONCLUSIVE}
    POWER = _grid(0.2, 0.95, 0.05)
    LOGPOWER = _grid(0.5, 3.0, 0.25)
    TABLE_LOG_R = (-400.0, -200.0, -100.0, -50.0, -20.0, -10.0, -5.0, -2.0,
                   -1.0, 0.0)
    capture = ()

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        out = workdir / self.name
        out.mkdir(parents=True, exist_ok=True)
        self.out = out
        self.items = []
        for _ in range(self.DRAWS):
            for finite in (True, False):
                self._pair(rng, "power", self.POWER, 0.1, finite)
                self._pair(rng, "logpower", self.LOGPOWER, 0.25, finite)
                self._pair(rng, "powerlog", self.POWER, 0.1, finite)
                self._pair(rng, "table", self.POWER, 0.1, finite)
            self._series(rng)
            self._gap(rng)

    @classmethod
    def _spec(cls, family: str, s: float, rng) -> dict:
        if family == "powerlog":
            return {"family": "powerlog", "delta": s,
                    "s": rng.choice((-1.0, 0.5, 2.0)), "beta": 1.0}
        if family == "table":
            return {"family": "table",
                    "table": [[v, s * v] for v in cls.TABLE_LOG_R]}
        return {"family": family, "s": s}

    def _pair(self, rng, family: str, grid, gap: float, finite: bool) -> None:
        """f of the family against g of the matching power (or logpower)
        gauge; the integral is finite exactly when f's leading exponent
        exceeds g's.  For logpower pairs the classifier's tail exponent is
        the exponent difference itself, and exponents in (-0.1, -0.02) are
        inconclusive by design, hence their wider gap."""
        while True:
            a, b = rng.choice(grid), rng.choice(grid)
            if abs(a - b) >= gap - 1e-12 and (a > b) == finite:
                break
        g_family = "logpower" if family == "logpower" else "power"
        f_spec = self._spec(family, a, rng)
        g_spec = {"family": g_family, "s": b}
        gauges.parse_gauge(f_spec)
        gauges.parse_gauge(g_spec)
        self.items.append({"kind": "gauge-check", "label": f"{family} {a} vs {b}",
                           "argv": ["gauge-check", "--f", json.dumps(f_spec),
                                    "--g", json.dumps(g_spec),
                                    "--out", str(self.out)],
                           "expect": conditions.FINITE if finite
                           else conditions.DIVERGENT})

    def _series(self, rng) -> None:
        """Two steep and two critical series per draw: with the four fast
        (divergent) and four slower (finite) verdict sets and the gap
        report, the median unit falls inside the finite verdict sets
        rather than on the edge between two groups of unit times."""
        for _ in range(2):
            self._steep(rng)
            self._critical(rng)

    def _steep(self, rng) -> None:
        # sum q**k f(psi(q)) with f = logpower(s), psi = exp(-q**tau):
        # converges exactly when s > (k+1)/tau
        k, tau = rng.choice((1, 2)), rng.choice((1.0, 2.0, 3.0))
        s = rng.choice(_away(_grid(0.3, 2.5, 0.05), [(k + 1) / tau]))
        self.items.append({"kind": "series", "label": f"steep k={k} tau={tau} s={s}",
                           "f": gauges.log_power(s),
                           "psi": diophantine.exp_power(tau), "k": k,
                           "diverges": not s > (k + 1) / tau})

    def _critical(self, rng) -> None:
        # f = r**delta (-log* r / tau)**s with delta = (k+1)/tau and the
        # critical rate q**-tau (log q)**-tau: diverges exactly when s >= k
        k, tau = rng.choice((1, 2)), rng.choice((2.0, 3.0))
        s = rng.choice(_away(_grid(0.3, 3.0, 0.05), [k]))
        self.items.append({"kind": "series", "label": f"critical k={k} tau={tau} s={s}",
                           "f": gauges.power_log((k + 1) / tau, s, 1.0 / tau),
                           "psi": diophantine.power_log_power(tau), "k": k,
                           "diverges": s >= k})

    def _gap(self, rng) -> None:
        # k = 2: zero band (0, 2], gap band (2, 3], infinite band (3, inf).
        # The integral cross-check's tail has block exponent 3 - s, and the
        # classifier leaves exponents in (-0.1, -0.02) inconclusive by
        # design, so the infinite band starts 0.15 above its threshold
        s_values = (rng.choice(_grid(0.5, 1.9, 0.05)),
                    rng.choice(_grid(2.1, 2.9, 0.05)),
                    rng.choice(_grid(3.15, 4.0, 0.05)))
        self.items.append({"kind": "gap", "label": f"gap_report(0.5) s={s_values}",
                           "s_values": s_values,
                           "bands": (diophantine.ZERO_BAND, diophantine.GAP_BAND,
                                     diophantine.INFINITE_BAND)})

    def run(self, item):
        kind = item["kind"]
        if kind == "gauge-check":
            return _cli(item["argv"])
        if kind == "series":
            try:
                return diophantine.classify_series(item["f"], item["psi"], item["k"])
            except gauges.GaugeError as e:
                return e
        return diophantine.gap_report(0.5, 2, item["s_values"])

    def check(self, item, outcome, tracer, unit) -> dict:
        kind = item["kind"]
        if kind == "gauge-check":
            rc, _ = outcome
            _require(rc == 0, f"exit code {rc}")
            payload = json.loads((self.out / "gauge_check.json").read_text(
                encoding="utf-8"))
            for name in self.VERDICTS:
                v = payload[name]
                # a documented precondition error is an answer
                _require(v.get("status") in self.STATUSES | {"error"},
                         f"{name}: {v}")
            _require(payload["integral_condition"]["status"] == item["expect"],
                     f"integral verdict for {item['label']}")
            _require("s" in payload["doubling"], "doubling fit missing")
        elif kind == "series" and isinstance(outcome, gauges.GaugeError):
            # the documented precondition error is an answer
            _require(str(outcome).startswith("premise violated"), str(outcome))
        elif kind == "series":
            _require(outcome.diverges == item["diverges"]
                     and outcome.converges == (not item["diverges"]),
                     f"series verdict for {item['label']}")
        else:
            _require(tuple(outcome.classify(s) for s in item["s_values"])
                     == item["bands"], "gap bands")
            _require(tuple(r.band for r in outcome.rows) == item["bands"],
                     "gap report rows")
            _require(all(r.consistent for r in outcome.rows),
                     "gap report integral cross-check")
        return {}

    def describe(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (RunMatrix, ArcSweep, AnalyticGrid)}
