"""Per-layer metrics from the traced run.

``observers`` turn a traced call into the small record its counters need;
``layer_metrics`` reduces the spans and records of one traced cycle of
every workload to the metrics listed in ``layers.json``.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from gaugeproj import gauges, hierarchy, measure, projection

SPEC = json.loads((Path(__file__).with_name("layers.json")).read_text(
    encoding="utf-8"))["metrics"]

CHECKS = tuple(f"conditions.{n}" for n in (
    "check_integral_condition", "check_limit_condition", "check_rate_condition",
    "check_length_criterion", "check_divergence_of_df_over_g"))
FITS = ("gauges.doubling_exponent", "gauges.codoubling_exponent",
        "gauges.doubling_constant")
RENDERS = ("svgreport.render_hierarchy_svg", "svgreport.render_sweep_svg",
           "svgreport.render_shells_svg")
BALL_MASS_PROBES = 2000


def _bound(fn, observe):
    """Observer receiving the call's arguments bound by name."""
    sig = inspect.signature(fn)
    return lambda a, k, r: observe(sig.bind(*a, **k).arguments, r)


def _sweep_record(args, table):
    grid = args["theta_grid"]
    measured = [r.k for r in table.rows if r.cost is not None]
    return {"angles": grid if isinstance(grid, int) else len(grid),
            "measured": len(measured), "bound_only": len(table.rows) - len(measured),
            "levels": len(set(measured))}


def _projection_record(args, result):
    h, theta, level = args["h"], args["theta"], args["level"]
    # the merge itself is redone after the run, outside every timed span
    return {"parents": h.disc_count(level - 1), "offsets": h.offsets(level),
            "cos": math.cos(h.d[level - 1] - theta), "r": h.radius(level)}


def _build_record(args, h):
    ulp0 = math.ulp(h.radius(0))
    return {"discs": h.disc_count(h.depth),
            "headroom": min(h.radius(k) / ulp0 for k in range(1, h.depth + 1))}


def observers() -> dict:
    """Qualified function name -> fn(args, kwargs, result) -> record."""
    out = {
        "measure.frostman_scan": lambda a, k, r: {"samples": r.samples},
        "measure.mc_energy": lambda a, k, r: {
            "pairs": r.pairs_used, "rejected": r.collisions_rejected},
        "projection.sweep_directions": _bound(projection.sweep_directions,
                                              _sweep_record),
        "projection.project_hierarchy": _bound(projection.project_hierarchy,
                                               _projection_record),
        "hierarchy.build_from_gauge": lambda a, k, r: _build_record(a, r),
        "hierarchy.validate_hierarchy": lambda a, k, r: {"rows": len(r.rows)},
        "conditions.dyadic_shell_sums": lambda a, k, r: {"shells": len(r)},
        "diophantine.classify_series": lambda a, k, r: {
            "blocks": len(r.verdict.shell_sums)},
    }
    for name in CHECKS:
        out[name] = lambda a, k, r: {"status": r.status}
    for name in RENDERS:
        out[name] = lambda a, k, r: {"chars": len(r)}
    return out


def ball_mass_us(seed: int) -> float:
    """Median microseconds of one ball_mass call on power(0.5) depth 5."""
    h = hierarchy.build_from_gauge(gauges.power(0.5), 5)
    m = measure.NaturalMeasure(h, h.depth)
    rng = np.random.default_rng(seed)
    xs = m.sample_atoms(BALL_MASS_PROBES, rng)
    rs = np.exp(rng.uniform(h.log_radius(h.depth), h.log_radius(0),
                            size=BALL_MASS_PROBES))
    times = []
    for x, r in zip(xs, rs):
        t0 = time.perf_counter()
        measure.ball_mass(m, x, float(r))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def layer_metrics(tracer, unit_workload: dict, unit_info: dict) -> dict:
    """Metrics of ``layers.json`` except trace.overhead_s and ball_mass_us.

    ``unit_workload`` maps each traced unit id to its workload name and
    ``unit_info`` to the counters its output checks returned.
    """
    incl = defaultdict(float)     # (unit, name) -> inclusive seconds
    calls = defaultdict(int)      # (unit, name) -> calls
    own = defaultdict(float)      # (unit, layer) -> self seconds
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name, layer, t0, t1, _, unit = span
        if unit not in unit_workload:
            continue
        incl[unit, name] += t1 - t0
        calls[unit, name] += 1
        own[unit, layer] += self_s
    units = defaultdict(list)
    for unit, wl in unit_workload.items():
        units[wl].append(unit)

    def per_calling_unit(wl, names, table):
        vals = [sum(table[u, n] for n in names) for u in units[wl]
                if any(calls[u, n] for n in names)]
        return sum(vals) / len(vals) if vals else 0.0

    def records(name, wl):
        return [rec for u, rec in tracer.records.get(name, ())
                if unit_workload.get(u) == wl]

    def per_unit_count(name, wl, key):
        recs = [(u, rec) for u, rec in tracer.records.get(name, ())
                if unit_workload.get(u) == wl]
        return sum(rec[key] for _, rec in recs) / len({u for u, _ in recs})

    def self_s(layer, wl):
        return sum(own[u, layer] for u in units[wl]) / len(units[wl])

    R, A, G = "run-matrix", "arc-sweep", "analytic-grid"
    energy = records("measure.mc_energy", R)
    proj = records("projection.project_hierarchy", A)
    bytes_computed = 0
    for rec in proj:
        c = rec["offsets"] * rec["cos"]
        pattern = projection.merge_intervals(np.stack([c - rec["r"], c + rec["r"]], 1))
        bytes_computed += rec["parents"] * len(pattern.intervals) * 16
    statuses = [r["status"] for n in CHECKS for r in records(n, G)]
    attempted = sum(calls[u, n] for u in units[G] for n in CHECKS)
    decided = sum(s in ("finite", "divergent") for s in statuses)

    return {
        "measure.frostman_s": per_calling_unit(R, ["measure.frostman_scan"], incl),
        "measure.probes": per_unit_count("measure.frostman_scan", R, "samples"),
        "measure.ball_mass_calls": per_calling_unit(R, ["measure.ball_mass"], calls),
        "measure.energy_s": per_calling_unit(R, ["measure.mc_energy"], incl),
        "measure.pairs": per_unit_count("measure.mc_energy", R, "pairs"),
        "measure.pair_accept_ratio": (
            sum(r["pairs"] for r in energy)
            / sum(r["pairs"] + r["rejected"] for r in energy)),
        "measure.self_s": self_s("measure", R),
        "projection.avgproj_s": per_calling_unit(
            R, ["projection.averaged_projected_energy"], incl),
        "projection.sweep_s": per_calling_unit(A, ["projection.sweep_directions"], incl),
        "projection.project_hierarchy_s": per_calling_unit(
            A, ["projection.project_hierarchy"], incl),
        "projection.rows_measured": per_unit_count("projection.sweep_directions",
                                                   A, "measured"),
        "projection.rows_bound_only": per_unit_count("projection.sweep_directions",
                                                     A, "bound_only"),
        "projection.levels_measured": per_unit_count("projection.sweep_directions",
                                                     A, "levels"),
        "projection.bytes_computed": bytes_computed / len(units[A]),
        "projection.self_s": self_s("projection", A),
        "hierarchy.construct_s": per_calling_unit(A, ["hierarchy.build_from_gauge"], incl),
        "hierarchy.validate_s": per_calling_unit(A, ["hierarchy.validate_hierarchy"], incl),
        "hierarchy.discs": per_unit_count("hierarchy.build_from_gauge", A, "discs"),
        "hierarchy.check_rows": per_unit_count("hierarchy.validate_hierarchy", A, "rows"),
        "hierarchy.headroom_min": min(r["headroom"] for r in
                                      records("hierarchy.build_from_gauge", A)),
        "hierarchy.self_s": self_s("hierarchy", A),
        "conditions.verdict_s": per_calling_unit(G, CHECKS, incl),
        "conditions.verdicts": per_calling_unit(G, CHECKS, calls),
        "conditions.shells": per_unit_count("conditions.dyadic_shell_sums", G, "shells"),
        "conditions.decided_ratio": decided / attempted,
        "conditions.self_s": self_s("conditions", G),
        "gauges.fit_s": per_calling_unit(G, FITS, incl),
        "gauges.fit_calls": per_calling_unit(G, FITS, calls),
        "gauges.self_s": self_s("gauges", G),
        "diophantine.classify_s": per_calling_unit(
            G, ["diophantine.classify_series"], incl),
        "diophantine.blocks": per_unit_count("diophantine.classify_series", G, "blocks"),
        "diophantine.gap_report_s": per_calling_unit(G, ["diophantine.gap_report"], incl),
        "diophantine.self_s": self_s("diophantine", G),
        "svgreport.render_s": per_calling_unit(R, RENDERS, incl),
        "svgreport.bytes": sum(r["chars"] for n in RENDERS for r in records(n, R))
        / len(units[R]),
        "svgreport.self_s": self_s("svgreport", R),
        "pipeline.bundle_bytes": statistics.mean(
            unit_info[u]["bundle_bytes"] for u in units[R]),
        "pipeline.self_s": self_s("pipeline", R),
    }
