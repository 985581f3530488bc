"""Pipeline orchestration: schedule, construction, scans, sweeps, verdicts.

Stages run in dependency order; a failed stage is recorded with its error
and every dependent stage is skipped with a reason.  The bundle carries a
machine-readable summary of all inequality checks, each row tagged with
the stable check id it verifies (Eq20 .. Eq36trend), and serialises to
byte-identical CSV/JSON for identical configs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import conditions, gauges, hierarchy, measure, projection
from .config import RunConfig, SCHEMA_VERSION
from .svgreport import render_hierarchy_svg, render_shells_svg, render_sweep_svg

SWEEP_PARTNER_LOG_EXPONENT = 0.15


def sweep_partner(f: gauges.GaugeFunction) -> gauges.GaugeFunction:
    """Default companion gauge for sweeps: a gap pair with visible decay.

    r**s (-log* r)**0.15 sits under the growth envelope f(r log(1/r)) of a
    power gauge while its per-level budgets already decrease at shallow
    construction depths (the envelope itself only starts decaying dozens
    of levels in).
    """
    if f.family != "power":
        raise gauges.GaugeError("automatic sweep partner needs a power gauge")
    return gauges.power_log(f.s, SWEEP_PARTNER_LOG_EXPONENT, 1.0)


@dataclass
class PipelineResult:
    bundle: dict
    files: list[str]

    @property
    def exit_code(self) -> int:
        if self.bundle["summary"]["inequalities"]["fail"] > 0:
            return 1
        if any(s["status"] == "failed" for s in self.bundle["stages"]):
            return 2
        return 0


def _sanitize(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def run_pipeline(config: RunConfig, out_dir=None) -> PipelineResult:
    """Execute the full report pipeline for one config.

    Writes the emitted files under ``out_dir`` (or config.out_dir) and
    returns the in-memory bundle; exit_code is nonzero when any verified
    inequality fails (1) or a stage could not run at all (2).
    """
    stages: list[dict] = []
    check_rows: list[dict] = []
    verdicts: dict = {}
    bundle: dict = {"schema_version": SCHEMA_VERSION, "config": config.to_dict(),
                    "stages": stages, "checks": check_rows, "verdicts": verdicts}

    def ok(stage: str, **extra):
        stages.append({"stage": stage, "status": "ok", **extra})

    def failed(stage: str, err: Exception):
        stages.append({"stage": stage, "status": "failed", "error": str(err)})

    def skipped(stage: str, reason: str):
        stages.append({"stage": stage, "status": "skipped", "reason": reason})

    # -- gauges ------------------------------------------------------------
    f = g = fit_g = None
    try:
        f = config.gauge_f()
        g = config.gauge_g()
        if g is None:
            g = sweep_partner(f)
        fit_f = gauges.doubling_exponent(f, log_grid=gauges.log_radius_grid())
        fit_g = gauges.doubling_exponent(g, log_grid=gauges.log_radius_grid())
        bundle["gauges"] = {"f": f.to_dict(), "g": g.to_dict(),
                            "doubling": {"f": {"s": fit_f.s, "kappa": fit_f.kappa},
                                         "g": {"s": fit_g.s, "kappa": fit_g.kappa}}}
        ok("gauges")
    except Exception as e:
        failed("gauges", e)

    # -- analytic condition verdicts ----------------------------------------
    if f is not None and g is not None:
        try:
            pairs = {
                "integral_condition": conditions.check_integral_condition(f, g, 2048),
                "limit_condition": conditions.check_limit_condition(f, g),
                "rate_condition": conditions.check_rate_condition(f, g),
                "df_over_g": conditions.check_divergence_of_df_over_g(f, g, 2048),
            }
            try:
                pairs["length_criterion"] = conditions.check_length_criterion(f, 2048)
            except gauges.GaugeError as e:
                verdicts["length_criterion"] = {"status": "error", "error": str(e)}
            for name, v in pairs.items():
                verdicts[name] = {"status": v.status, "value": v.value,
                                  "diagnostics": v.diagnostics}
            ok("conditions")
        except Exception as e:
            failed("conditions", e)
    else:
        skipped("conditions", "gauges unavailable")

    # -- construction --------------------------------------------------------
    h = None
    if f is not None:
        try:
            schedule = hierarchy.derive_radius_schedule(f, config.depth)
            plan = hierarchy.choose_branching(f, schedule)
            h = hierarchy.build_hierarchy(f, schedule, plan, config.theta_mode,
                                          disc_cap=config.disc_cap)
            bundle["hierarchy"] = {"k1": schedule.k1, "a": plan.a,
                                   "N": list(plan.counts),
                                   "log_r": list(schedule.log_r)}
            ok("construct", discs=h.disc_count(h.depth))
        except Exception as e:
            failed("construct", e)
    else:
        skipped("construct", "gauge f unavailable")

    # -- validation ----------------------------------------------------------
    if h is not None:
        try:
            report = hierarchy.validate_hierarchy(h)
            for row in report.rows:
                check_rows.append({"check_id": row.check, "where": row.level,
                                   "passed": row.passed, "margin": row.margin,
                                   "note": row.note})
            bundle["validation_assumptions"] = list(report.assumptions)
            ok("validate")
        except Exception as e:
            failed("validate", e)
    else:
        skipped("validate", "no hierarchy")

    # -- mass-bound scan -------------------------------------------------------
    if h is not None:
        try:
            m = measure.NaturalMeasure(h, h.depth)
            scan = measure.frostman_scan(m, f, config.scan_samples,
                                         seed=config.seed)
            check_rows.append({"check_id": "Eq34", "where": h.depth,
                               "passed": scan.violations == 0,
                               "margin": scan.c_bound - scan.c_emp,
                               "note": f"{scan.samples} samples"})
            bundle["frostman"] = {"c_emp": scan.c_emp, "c_bound": scan.c_bound,
                                  "violations": scan.violations}
            ok("frostman")
        except Exception as e:
            failed("frostman", e)
    else:
        skipped("frostman", "no hierarchy")

    # -- energies ---------------------------------------------------------------
    if h is not None:
        try:
            m = measure.NaturalMeasure(h, h.depth)
            est = measure.mc_energy(g, m, config.pairs, seed=config.seed + 1)
            bundle["energy"] = {"gauge": "g", "mean": est.mean,
                                "stderr": est.stderr,
                                "capacity_lower_bound": 1.0 / est.mean,
                                "collisions_rejected": est.collisions_rejected}
            if fit_g is None:
                raise gauges.GaugeError(
                    "doubling fit of g unavailable: gauges stage failed")
            if fit_g.s < 1.0:
                ape = projection.averaged_projected_energy(
                    m, g, theta_grid=64, pairs=min(config.pairs, 100_000),
                    seed=config.seed + 2)
                check_rows.append({"check_id": "AvgProjEnergy", "where": h.depth,
                                   "passed": ape.average <= ape.bound * 1.05,
                                   "margin": ape.bound * 1.05 - ape.average,
                                   "note": f"kernel {ape.kernel:.4f}"})
                bundle["energy"]["averaged_projection"] = {
                    "average": ape.average, "bound": ape.bound,
                    "ratio": ape.ratio}
            ok("energy")
        except Exception as e:
            failed("energy", e)
    else:
        skipped("energy", "no hierarchy")

    # -- sweep ---------------------------------------------------------------
    sweep_rows = []
    if h is not None:
        try:
            table = projection.sweep_directions(h, g, config.angles,
                                                config.sweep_level)
            sweep_rows = table.to_dicts()
            bad = table.violations()
            measured = [r for r in table.rows if r.cost is not None]
            check_rows.append({"check_id": "Eq35", "where": len(measured),
                               "passed": not bad,
                               "margin": min((r.margin for r in measured),
                                             default=math.nan),
                               "note": f"{len(table.rows)} qualifying rows"})
            bounds = [projection.eq35_bound(h, g, k) for k in range(1, h.depth)]
            decreasing = all(a > b for a, b in zip(bounds, bounds[1:]))
            check_rows.append({"check_id": "Eq36trend", "where": h.depth - 1,
                               "passed": decreasing,
                               "margin": min((a - b for a, b in
                                              zip(bounds, bounds[1:])),
                                             default=math.nan),
                               "note": "per-level budget sequence"})
            bundle["sweep"] = {"rows": len(sweep_rows), "bounds": bounds}
            ok("sweep")
        except Exception as e:
            failed("sweep", e)
    else:
        skipped("sweep", "no hierarchy")

    n_pass = sum(1 for r in check_rows if r["passed"])
    bundle["summary"] = {
        "schema_version": SCHEMA_VERSION,
        "inequalities": {"pass": n_pass, "fail": len(check_rows) - n_pass},
        "verdicts": {k: v.get("status") for k, v in verdicts.items()},
        "margins": {r["check_id"]: r["margin"] for r in check_rows},
    }

    files = _emit(bundle, sweep_rows, h, config, out_dir)
    return PipelineResult(bundle, files)


def _emit(bundle: dict, sweep_rows: list[dict], h, config: RunConfig,
          out_dir) -> list[str]:
    target = out_dir if out_dir is not None else config.out_dir
    if target is None:
        return []
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    emit = config.emit
    written: list[str] = []

    def write(name: str, text: str):
        path = out / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(str(path))

    if emit.get("json", True):
        write("report.json", json.dumps(_sanitize(bundle), sort_keys=True,
                                        indent=2) + "\n")
    if emit.get("csv", True):
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["check_id", "where", "passed", "margin", "note"])
        for r in bundle["checks"]:
            wr.writerow([r["check_id"], r["where"], r["passed"],
                         _fmt(r["margin"]), r["note"]])
        write("checks.csv", buf.getvalue())

        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["theta", "k", "cost", "bound", "margin"])
        for r in sweep_rows:
            wr.writerow([_fmt(r["theta"]), r["k"], _fmt(r["cost"]),
                         _fmt(r["bound"]), _fmt(r["margin"])])
        write("sweep.csv", buf.getvalue())
    if emit.get("svg", False):
        if h is not None:
            write("hierarchy.svg", render_hierarchy_svg(h))
        write("sweep.svg", render_sweep_svg(sweep_rows))
        shells = None
        v = bundle.get("verdicts", {}).get("integral_condition")
        if v is not None:
            shells = _integral_shells(config)
        if shells is not None:
            write("shells.svg", render_shells_svg(shells))
    return written


def _integral_shells(config: RunConfig):
    try:
        f = config.gauge_f()
        g = config.gauge_g() or sweep_partner(f)
        return conditions.check_integral_condition(f, g, 1024).shell_sums
    except Exception:
        return None
