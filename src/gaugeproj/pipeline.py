"""Pipeline orchestration: schedule, construction, scans, sweeps, verdicts.

``STAGES`` is the run's stage table.  Each row names a stage, the run
values it reads (f, g or h), the values it sets for later stages and its
function.  ``run_pipeline`` runs the stages it is asked for, each with the
earlier stages that set the values it reads: the ``construct``, ``sweep``
and ``energy`` subcommands ask for their own stages and ``run`` asks for
every stage.  One loop records every stage it runs as ok, failed (with
its error) or skipped (with the ``SKIP_REASONS`` entry of the first value
it reads that the run lacks).  ``gauge-check`` shares
``condition_verdicts`` with the conditions stage.
The bundle tags each inequality check with the stable id it verifies
(Eq20 .. Eq36trend) and serialises to byte-identical CSV/JSON for
identical configs.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import conditions, gauges, hierarchy, measure, projection
from .config import RunConfig, SCHEMA_VERSION
from .svgreport import render_hierarchy_svg, render_shells_svg, render_sweep_svg

SWEEP_PARTNER_LOG_EXPONENT = 0.15
SHELLS_DRAWN = 1024  # dyadic shells in shells.svg
AVERAGED_PAIRS = 100_000  # most pairs the averaged projection draws
# the emitted tables' columns: a check row's keys, a sweep row's fields
CHECK_COLUMNS = ("check_id", "where", "passed", "margin", "note")
SWEEP_COLUMNS = tuple(f.name for f in fields(projection.SweepRow))


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


def verdict_payload(v: conditions.ConditionVerdict) -> dict:
    """The JSON payload of one condition verdict."""
    return {"status": v.status, "value": v.value, "diagnostics": v.diagnostics}


def condition_verdicts(f: gauges.GaugeFunction, g: gauges.GaugeFunction | None):
    """Payloads of f's length criterion and, given g, of the four pair
    verdicts; and the integral-condition verdict (None without g).  A
    length criterion f does not admit is an error payload."""
    verdicts = {} if g is None else {
        "integral_condition": conditions.check_integral_condition(f, g),
        "limit_condition": conditions.check_limit_condition(f, g),
        "rate_condition": conditions.check_rate_condition(f, g),
        "df_over_g": conditions.check_divergence_of_df_over_g(f, g)}
    payloads = {name: verdict_payload(v) for name, v in verdicts.items()}
    try:
        payloads["length_criterion"] = verdict_payload(
            conditions.check_length_criterion(f))
    except gauges.GaugeError as e:
        payloads["length_criterion"] = {"status": "error", "error": str(e)}
    return payloads, verdicts.get("integral_condition")


@dataclass
class PipelineResult:
    bundle: dict
    asked: frozenset  # the stages the caller asked for, prerequisites aside

    @property
    def errors(self) -> list[tuple[str, str]]:
        """(stage, error) of each failed stage that was asked for; when an
        asked stage was skipped, of every failed stage, so that the
        failures behind the skip are named too."""
        records = self.bundle["stages"]
        skipped = any(s["status"] == "skipped" and s["stage"] in self.asked
                      for s in records)
        return [(s["stage"], s["error"]) for s in records
                if s["status"] == "failed" and (skipped or s["stage"] in self.asked)]

    @property
    def exit_code(self) -> int:
        """1 when a verified inequality fails, else 2 when a stage asked
        for failed or was skipped; a failed prerequisite alone is 0."""
        if self.bundle["summary"]["inequalities"]["fail"] > 0:
            return 1
        if any(s["status"] != "ok" and s["stage"] in self.asked
               for s in self.bundle["stages"]):
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


def _csv_text(header, rows) -> str:
    """CSV document with floats as repr and None as an empty cell."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    for row in rows:
        wr.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _write_file(out: Path, name: str, text: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8", newline="\n")


@dataclass
class _Run:
    """The values one run's stages hand on to each other."""

    config: RunConfig
    bundle: dict
    f: gauges.GaugeFunction | None = None
    g: gauges.GaugeFunction | None = None
    h: hierarchy.DiscHierarchy | None = None
    report: hierarchy.HierarchyReport | None = None
    shells: tuple | None = None
    sweep_rows: list = field(default_factory=list)

    @functools.cached_property
    def m(self) -> measure.NaturalMeasure:
        """The natural measure at the construction's depth."""
        return measure.NaturalMeasure(self.h, self.h.depth)

    def check(self, *row):
        """Append one check row, its values in ``CHECK_COLUMNS`` order."""
        self.bundle["checks"].append(dict(zip(CHECK_COLUMNS, row, strict=True)))


def _gauges(run: _Run):
    run.f = run.config.gauge_f()
    run.g = run.config.gauge_g() or sweep_partner(run.f)
    fits = {"f": run.f.doubling, "g": run.g.doubling}
    run.bundle["gauges"] = {
        "f": run.f.to_dict(), "g": run.g.to_dict(),
        "doubling": {k: {"s": fit.s, "kappa": fit.kappa} for k, fit in fits.items()}}


def _conditions(run: _Run):
    payloads, integral = condition_verdicts(run.f, run.g)
    run.bundle["verdicts"].update(payloads)
    # each dyadic shell's sum is independent of the shell count, so the
    # figure's 1024 shells are the verdict's first 1024
    run.shells = integral.shell_sums[:SHELLS_DRAWN]


def _construct(run: _Run):
    h = run.h = hierarchy.build_from_gauge(run.f, run.config.depth)
    run.bundle["hierarchy"] = h.to_dict()
    return {"discs": h.disc_count(h.depth)}


def _validate(run: _Run):
    report = run.report = hierarchy.validate_hierarchy(run.h)
    for row in report.rows:
        run.check(row.check, row.level, row.passed, row.margin, row.note)
    run.bundle["validation_assumptions"] = list(report.assumptions)


def _frostman(run: _Run):
    scan = measure.frostman_scan(run.m, run.config.scan_samples,
                                 seed=run.config.seed)
    run.check("Eq34", run.h.depth, scan.violations == 0,
              scan.c_bound - scan.c_emp, f"{scan.samples} samples")
    run.bundle["frostman"] = {"c_emp": scan.c_emp, "c_bound": scan.c_bound,
                              "violations": scan.violations}


def _energy(run: _Run):
    config = run.config
    # drawn at seed + 1: the Frostman scan draws at seed, the averaged
    # projection at seed + 2
    est = measure.mc_energy(run.g, run.m, config.pairs, seed=config.seed + 1)
    energy = run.bundle["energy"] = {
        "gauge": "g", "mean": est.mean, "stderr": est.stderr,
        "capacity_lower_bound": 1.0 / est.mean,
        "collisions_rejected": est.collisions_rejected,
        "levels": [asdict(lv) for lv in est.levels]}
    # g's doubling fit is cached on g; when the gauges stage could not fit
    # it, this read fails the stage with the fit's own error
    fit_s = run.g.doubling.s
    if fit_s >= 1.0:
        return {"averaged_projection": "not computed: g's fitted doubling "
                f"exponent {fit_s!r} is at least 1, where K_g diverges"}
    ape = projection.averaged_projected_energy(
        run.m, run.g, pairs=min(config.pairs, AVERAGED_PAIRS),
        seed=config.seed + 2)
    run.check("AvgProjEnergy", run.h.depth,
              ape.average <= ape.bound * 1.05,
              ape.bound * 1.05 - ape.average, f"kernel {ape.kernel:.4f}")
    run.check("AvgProjTransfer", run.h.depth,
              ape.transfer_max <= ape.transfer_bound * (1.0 + 1e-9),
              ape.transfer_bound - ape.transfer_max,
              "max g K_g on the kernel table")
    energy["averaged_projection"] = {
        "average": ape.average, "bound": ape.bound, "ratio": ape.ratio,
        "stderr": ape.stderr, "transfer_max": ape.transfer_max,
        "transfer_bound": ape.transfer_bound}


def _sweep(run: _Run):
    h, g = run.h, run.g
    table = projection.sweep_directions(h, g, run.config.angles)
    run.sweep_rows = table.to_dicts()
    run.check("Eq35", len(table.rows), not table.violations(),
              min((r.margin for r in table.rows), default=math.nan),
              f"{len(table.rows)} qualifying rows")
    bounds = list(table.bounds)
    steps = [a - b for a, b in zip(bounds, bounds[1:])]
    run.check("Eq36trend", h.depth - 1, all(d > 0 for d in steps),
              min(steps, default=math.nan), "per-level budget sequence")
    # the measured rows of each level 1 .. K - 1, zeros kept
    per_level = Counter(r.k for r in table.rows)
    run.bundle["sweep"] = {"rows": len(run.sweep_rows),
                           "levels": [per_level[k] for k in range(1, h.depth)],
                           "bounds": bounds}


# why a stage is skipped: the first value it reads that the run lacks
SKIP_REASONS = {"f": "gauge f unavailable", "g": "gauges unavailable",
                "h": "no hierarchy"}

# stage, the run values it reads, the run values it sets, function
STAGES = (
    ("gauges", (), ("f", "g"), _gauges),
    ("conditions", ("f", "g"), (), _conditions),
    ("construct", ("f",), ("h",), _construct),
    ("validate", ("h",), (), _validate),
    ("frostman", ("h",), (), _frostman),
    ("energy", ("h", "g"), (), _energy),
    ("sweep", ("h", "g"), (), _sweep),
)


def _with_prerequisites(asked) -> set[str]:
    """The asked stages and, transitively, each earlier stage that sets a
    value one of them reads."""
    setter = {v: stage for stage, _, sets, _ in STAGES for v in sets}
    unknown = set(asked) - {stage for stage, *_ in STAGES}
    if unknown:
        raise ValueError(f"unknown stages: {sorted(unknown)}")
    wanted = set(asked)
    for stage, needs, _, _ in reversed(STAGES):
        if stage in wanted:
            wanted.update(setter[v] for v in needs)
    return wanted


def run_pipeline(config: RunConfig, out_dir=None, stages=None) -> PipelineResult:
    """Execute the report pipeline for one config.

    Runs the named ``stages`` (every stage when None) and their
    prerequisites, in ``STAGES`` order.  Writes the emitted files of the
    stages that ran under ``out_dir`` when it is given: it is the one
    output route (the CLI's --out), since the config names no directory.
    Returns the in-memory bundle; exit_code is nonzero when any verified
    inequality fails (1) or an asked stage could not run (2).
    """
    asked = frozenset(s for s, *_ in STAGES) if stages is None else frozenset(stages)
    scheduled = _with_prerequisites(asked)
    records: list[dict] = []
    bundle: dict = {"schema_version": SCHEMA_VERSION, "config": config.to_dict(),
                    "stages": records, "checks": [], "verdicts": {}}
    run = _Run(config, bundle)
    for stage, needs, _, fn in STAGES:
        if stage not in scheduled:
            continue
        missing = next((v for v in needs if getattr(run, v) is None), None)
        if missing:
            records.append({"stage": stage, "status": "skipped",
                            "reason": SKIP_REASONS[missing]})
            continue
        try:
            extra = fn(run) or {}
        except Exception as e:
            records.append({"stage": stage, "status": "failed", "error": str(e)})
        else:
            records.append({"stage": stage, "status": "ok", **extra})

    check_rows = bundle["checks"]
    n_pass = sum(1 for r in check_rows if r["passed"])
    bundle["summary"] = {
        "schema_version": SCHEMA_VERSION,
        "inequalities": {"pass": n_pass, "fail": len(check_rows) - n_pass},
        "verdicts": {k: v.get("status") for k, v in bundle["verdicts"].items()},
        "margins": _least_margins(check_rows),
    }

    _emit(run, out_dir, scheduled)
    return PipelineResult(bundle, asked)


def _least_margins(check_rows: list[dict]) -> dict:
    """Each check id's smallest finite margin, its least slack over every
    row; None when the id has no finite margin."""
    margins = dict.fromkeys(r["check_id"] for r in check_rows)
    for r in check_rows:
        m, least = r["margin"], margins[r["check_id"]]
        if m is not None and math.isfinite(m) and (least is None or m < least):
            margins[r["check_id"]] = m
    return margins


def _emit(run: _Run, out_dir, scheduled) -> None:
    """Write the bundle and the files of the ``scheduled`` stages: the
    sweep's table and figure whenever the sweep stage was scheduled (with
    no rows when it did not finish), the hierarchy and shell figures when
    their stages produced them."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit = run.config.emit
    sweep = "sweep" in scheduled
    if emit["json"]:
        _write_file(out, "report.json", _json_text(run.bundle))
    if emit["csv"]:
        _write_file(out, "checks.csv", _csv_text(CHECK_COLUMNS, (
            [r[c] for c in CHECK_COLUMNS] for r in run.bundle["checks"])))
        if sweep:
            _write_file(out, "sweep.csv", _csv_text(SWEEP_COLUMNS, (
                [r[c] for c in SWEEP_COLUMNS] for r in run.sweep_rows)))
    if emit["svg"]:
        if run.report is not None:
            _write_file(out, "hierarchy.svg",
                        render_hierarchy_svg(run.h, run.report))
        if sweep:
            _write_file(out, "sweep.svg", render_sweep_svg(run.sweep_rows))
        if run.shells is not None:
            _write_file(out, "shells.svg", render_shells_svg(run.shells))
