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
SHELLS_DRAWN = 1024  # dyadic shells in shells.svg
SWEEP_COLUMNS = ["theta", "k", "cost", "bound", "margin"]


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


def resolve_g(config: RunConfig, f: gauges.GaugeFunction) -> gauges.GaugeFunction:
    """The config's gauge g, or sweep_partner(f) when g is "auto"."""
    return config.gauge_g() or sweep_partner(f)


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


def _json_text(payload: dict) -> str:
    """Canonical JSON document: sorted keys, non-finite floats as null."""
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"


def _csv_text(header: list[str], rows) -> str:
    """CSV document with floats as repr and None as an empty cell."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    for row in rows:
        wr.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _sweep_csv_text(rows: list[dict]) -> str:
    return _csv_text(SWEEP_COLUMNS, ([r[c] for c in SWEEP_COLUMNS] for r in rows))


def _write_file(out: Path, name: str, text: str) -> str:
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text, encoding="utf-8", newline="\n")
    return str(path)


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
        g = resolve_g(config, f)
        fit_f = gauges.doubling_exponent(f, log_grid=gauges.log_radius_grid())
        fit_g = gauges.doubling_exponent(g, log_grid=gauges.log_radius_grid())
        bundle["gauges"] = {"f": f.to_dict(), "g": g.to_dict(),
                            "doubling": {"f": {"s": fit_f.s, "kappa": fit_f.kappa},
                                         "g": {"s": fit_g.s, "kappa": fit_g.kappa}}}
        ok("gauges")
    except Exception as e:
        failed("gauges", e)

    # -- analytic condition verdicts ----------------------------------------
    shells = None
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
            # each dyadic shell's sum is independent of the shell count, so
            # the figure's 1024 shells are the verdict's first 1024
            shells = pairs["integral_condition"].shell_sums[:SHELLS_DRAWN]
            ok("conditions")
        except Exception as e:
            failed("conditions", e)
    else:
        skipped("conditions", "gauges unavailable")

    # -- construction --------------------------------------------------------
    h = None
    if f is not None:
        try:
            h = hierarchy.build_from_gauge(f, config.depth, config.theta_mode,
                                           config.disc_cap)
            bundle["hierarchy"] = {"k1": h.schedule.k1, "a": h.a,
                                   "N": list(h.counts),
                                   "log_r": list(h.schedule.log_r)}
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

    files = _emit(bundle, sweep_rows, h, shells, config, out_dir)
    return PipelineResult(bundle, files)


def _emit(bundle: dict, sweep_rows: list[dict], h, shells, config: RunConfig,
          out_dir) -> list[str]:
    target = out_dir if out_dir is not None else config.out_dir
    if target is None:
        return []
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    emit = config.emit
    written: list[str] = []

    def write(name: str, text: str):
        written.append(_write_file(out, name, text))

    if emit.get("json", True):
        write("report.json", _json_text(bundle))
    if emit.get("csv", True):
        write("checks.csv", _csv_text(
            ["check_id", "where", "passed", "margin", "note"],
            ([r["check_id"], r["where"], r["passed"], r["margin"], r["note"]]
             for r in bundle["checks"])))
        write("sweep.csv", _sweep_csv_text(sweep_rows))
    if emit.get("svg", False):
        if h is not None:
            write("hierarchy.svg", render_hierarchy_svg(h))
        write("sweep.svg", render_sweep_svg(sweep_rows))
        if shells is not None:
            write("shells.svg", render_shells_svg(shells))
    return written
