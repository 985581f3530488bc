import contextlib
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import gaugeproj
from gaugeproj import (ConfigError, GaugeFitError, conditions, gauges,
                       parse_config, power, run_pipeline, sweep_partner)
from gaugeproj import cli, hierarchy, measure, pipeline, projection
from gaugeproj.cli import main as cli_main
from gaugeproj.hierarchy import (BranchingPlan, RadiusSchedule, build_from_gauge,
                                 build_hierarchy, validate_hierarchy)
from gaugeproj.svgreport import (render_hierarchy_svg, render_shells_svg,
                                 render_sweep_svg)

from conftest import schedule_from_radii

FAST = {"f": {"family": "power", "s": 0.5}, "depth": 3, "angles": 64,
        "pairs": 5000, "scan_samples": 200, "seed": 7}


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config_applies_defaults():
    cfg = parse_config('{"f": {"family": "power", "s": 0.5}, "depth": 4}')
    assert cfg.depth == 4
    assert cfg.angles == 256
    assert cfg.seed == 0
    assert cfg.emit == {"csv": True, "json": True, "svg": False}
    assert cfg.gauge_f() == power(0.5)
    assert cfg.gauge_g() is None  # "auto"


def test_parse_rejects_bad_depth():
    with pytest.raises(ConfigError, match="depth"):
        parse_config('{"f": {"family": "power", "s": 0.5}, "depth": 0}')
    # the radius schedule needs two levels; depth 2 is the shallowest run
    with pytest.raises(ConfigError, match="depth: must be an integer >= 2"):
        parse_config('{"f": {"family": "power", "s": 0.5}, "depth": 1}')
    assert parse_config('{"f": {"family": "power", "s": 0.5}, "depth": 2}').depth == 2


def test_parse_rejects_unknown_keys_and_lists_all_violations():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"f": {"family": "power", "s": 0.5},
                                 "depth": 0, "angles": 1, "wat": 1}))
    msg = str(err.value)
    assert "wat" in msg and "depth" in msg and "angles" in msg
    # the disc cap, sweep level, placement angles and output directory are
    # not config keys: --out is the one output route
    with pytest.raises(ConfigError, match=(r"unknown keys: "
                       r"\['disc_cap', 'out_dir', 'sweep_level', 'theta_mode'\]")):
        parse_config(json.dumps({"f": {"family": "power", "s": 0.5},
                                 "disc_cap": 10 ** 7, "sweep_level": 2,
                                 "theta_mode": "default", "out_dir": "out"}))
    # the sweep needs at least 32 angles, so the config does too
    with pytest.raises(ConfigError, match="angles: must be an integer >= 32"):
        parse_config(json.dumps({"f": {"family": "power", "s": 0.5},
                                 "depth": 3, "angles": 16}))


def _sweep(n):
    f = power(0.5)
    return projection.sweep_directions(build_from_gauge(f, 3), sweep_partner(f), n)


def _measure():
    return measure.NaturalMeasure(build_from_gauge(power(0.5), 3), 3)


@pytest.mark.parametrize("key, floor, library", [
    ("depth", hierarchy.MIN_DEPTH,
     lambda n: hierarchy.derive_radius_schedule(power(0.5), n)),
    ("angles", projection.MIN_ANGLES, _sweep),
    ("angles", projection.MIN_ANGLES,
     lambda n: _sweep([i * math.pi / n for i in range(n)])),
    ("pairs", measure.MIN_PAIRS,
     lambda n: measure.mc_energy(power(0.5), _measure(), n, seed=0)),
    ("pairs", measure.MIN_PAIRS,
     lambda n: measure.mc_energy_atoms(power(0.5), [(0.0, 0.0), (1.0, 0.0)],
                                       None, n, seed=0)),
    ("pairs", measure.MIN_PAIRS,
     lambda n: measure.potential(power(0.5), _measure(), (0.0, 0.0), n, seed=0)),
], ids=["depth", "angles-count", "angles-list", "pairs-mc_energy",
        "pairs-mc_energy_atoms", "pairs-potential"])
def test_config_and_library_share_each_floor(key, floor, library):
    # the config reads each floor from the module that owns it, so both
    # reject floor - 1 and both accept the floor
    with pytest.raises(ConfigError, match=f"{key}: must be an integer >= {floor}"):
        parse_config(json.dumps({**FAST, key: floor - 1}))
    with pytest.raises(gauges.GaugeError, match=str(floor)):
        library(floor - 1)
    assert getattr(parse_config(json.dumps({**FAST, key: floor})), key) == floor
    library(floor)


def test_parse_requires_gauge():
    with pytest.raises(ConfigError, match="required"):
        parse_config("{}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_config_round_trip_canonical():
    # to_dict is the config report.json echoes; parsing it back is lossless
    cfg = parse_config(json.dumps(FAST))
    text = json.dumps(cfg.to_dict(), sort_keys=True)
    again = parse_config(text)
    assert json.dumps(again.to_dict(), sort_keys=True) == text
    assert again == cfg


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_summary_margins_are_each_checks_least():
    # a check id's summary margin is its least slack over all its rows, not
    # its last row's: on power(0.5) at depth 4 the deepest level has more
    # Eq20, Eq21 and Eq33 slack than the tightest one
    cfg = parse_config(json.dumps({"f": {"family": "power", "s": 0.5},
                                   "depth": 4, "seed": 1}))
    bundle = run_pipeline(cfg).bundle
    margins = bundle["summary"]["margins"]
    least: dict = {}
    for r in bundle["checks"]:
        least[r["check_id"]] = min(least.get(r["check_id"], math.inf), r["margin"])
    assert margins == least
    assert margins["Eq20"] == pytest.approx(0.0284, abs=1e-4)
    assert margins["Eq21"] == pytest.approx(0.764, abs=1e-3)
    assert margins["Eq33"] == pytest.approx(15.19, abs=0.01)
    last = {r["check_id"]: r["margin"] for r in bundle["checks"]}
    assert all(last[c] > margins[c] for c in ("Eq20", "Eq21", "Eq33"))


@pytest.mark.parametrize("s,depth", [(s, d) for s in (0.3, 0.5, 0.8) for d in (4, 5)])
def test_summary_eq32_is_its_worst_level(s, depth):
    # Eq32's margin is 1e-9 minus the spacing-identity residual
    # 2 N_k r_k + (N_k - 1) gap - 2 r_{k-1}, in units of r_{k-1}, so the
    # summary's least margin belongs to the level of largest residual
    cfg = parse_config(json.dumps({"f": {"family": "power", "s": s},
                                   "depth": depth, "seed": 1}))
    margins = run_pipeline(cfg).bundle["summary"]["margins"]
    h = build_from_gauge(power(s), depth)
    resid = []
    for k in range(1, h.depth + 1):
        n = h.counts[k - 1]
        rho, off = h.parent_frame(k)
        step = float(off[1] - off[0])
        resid.append(abs(2 * n * rho + (n - 1) * (step - 2.0 * rho) - 2.0))
    assert margins["Eq32"] == 1e-9 - max(resid)


@pytest.mark.parametrize("s,depth", [(s, d) for s in (0.3, 0.5, 0.8) for d in (4, 5)])
def test_sweep_block_counts_the_rows_of_each_level(s, depth):
    # sweep.levels[k - 1] is level k's count of measured rows, zeros kept
    cfg = parse_config(json.dumps({"f": {"family": "power", "s": s},
                                   "depth": depth, "seed": 1}))
    sweep = run_pipeline(cfg, stages=("sweep",)).bundle["sweep"]
    table = projection.sweep_directions(build_from_gauge(power(s), depth),
                                        sweep_partner(power(s)), cfg.angles)
    assert sweep["levels"] == [sum(r.k == k for r in table.rows)
                               for k in range(1, depth)]
    assert sum(sweep["levels"]) == sweep["rows"] == len(table.rows)
    assert list(sweep) == ["rows", "levels", "bounds"]


def test_summary_margin_is_null_only_without_a_finite_margin():
    rows = [{"check_id": "Eq35", "margin": math.nan},
            {"check_id": "Eq20", "margin": math.nan},
            {"check_id": "Eq20", "margin": 0.5},
            {"check_id": "Eq20", "margin": 0.2},
            {"check_id": "Eq20", "margin": math.inf}]
    assert pipeline._least_margins(rows) == {"Eq35": None, "Eq20": 0.2}


def test_pipeline_happy_path(tmp_path):
    cfg = parse_config(json.dumps(FAST))
    result = run_pipeline(cfg, tmp_path / "out")
    assert result.exit_code == 0
    summary = result.bundle["summary"]
    assert summary["inequalities"]["fail"] == 0
    assert summary["inequalities"]["pass"] > 10
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "checks.csv").exists()
    assert (tmp_path / "out" / "sweep.csv").exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema_version"] == 1
    assert {r["check_id"] for r in report["checks"]} >= {
        "Eq20", "Eq21", "Eq22", "Eq23", "Eq25", "Eq32", "Eq33", "Eq34",
        "Eq35", "Eq36trend"}


def test_pipeline_records_schedule_failure(tmp_path):
    doc = dict(FAST)
    doc["f"] = {"family": "power", "s": 1.5}
    result = run_pipeline(parse_config(json.dumps(doc)), tmp_path / "out")
    stages = {s["stage"]: s for s in result.bundle["stages"]}
    assert stages["construct"]["status"] == "failed"
    assert "exceeds 1" in stages["construct"]["error"]
    assert stages["validate"]["status"] == "skipped"
    assert result.exit_code == 2


def test_pipeline_energy_needs_the_gauges_stage_fit(tmp_path, monkeypatch):
    # the energy stage reads g's cached doubling fit; when g cannot be fit,
    # it fails with the fit's own error
    real_fit = gauges.doubling_exponent
    g = sweep_partner(power(0.5))

    def fit_all_but_g(gauge, **kwargs):
        if gauge == g:
            raise GaugeFitError("no fit for g")
        return real_fit(gauge, **kwargs)

    monkeypatch.setattr(gauges, "doubling_exponent", fit_all_but_g)
    result = run_pipeline(parse_config(json.dumps(FAST)), tmp_path / "out")
    stages = {s["stage"]: s for s in result.bundle["stages"]}
    assert stages["gauges"] == {"stage": "gauges", "status": "failed",
                                "error": "no fit for g"}
    assert stages["frostman"]["status"] == "ok"
    assert stages["energy"]["status"] == "failed"
    assert stages["energy"]["error"] == "no fit for g"


def test_pipeline_fits_each_gauge_once(tmp_path, monkeypatch):
    # every module that binds doubling_exponent counts its calls
    calls = []
    real = gauges.doubling_exponent

    def counted(gauge, *args, **kwargs):
        calls.append(gauge)
        return real(gauge, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "gaugeproj"
                and getattr(module, "doubling_exponent", None) is real):
            monkeypatch.setattr(module, "doubling_exponent", counted)
    result = run_pipeline(parse_config(json.dumps(FAST)), tmp_path / "out")
    assert all(s["status"] == "ok" for s in result.bundle["stages"])
    assert "averaged_projection" in result.bundle["energy"]
    assert calls == [power(0.5), sweep_partner(power(0.5))]


def test_pipeline_says_why_the_averaged_projection_is_missing(tmp_path):
    # power(1.2) fits a doubling exponent above 1, where K_g diverges: the
    # energy stage's record names the exponent instead of an AvgProj* row
    doc = dict(FAST, g={"family": "power", "s": 1.2})
    result = run_pipeline(parse_config(json.dumps(doc)), tmp_path / "out")
    stages = {s["stage"]: s for s in result.bundle["stages"]}
    fit_s = power(1.2).doubling.s
    assert fit_s >= 1.0
    assert stages["energy"]["status"] == "ok"
    assert repr(fit_s) in stages["energy"]["averaged_projection"]
    assert "averaged_projection" not in result.bundle["energy"]
    assert not [r for r in result.bundle["checks"]
                if r["check_id"].startswith("AvgProj")]
    assert result.exit_code == 0


def test_pipeline_refuses_energies_where_children_coincide(monkeypatch):
    # at power(0.3) depth 110 the offsets of levels 104-110 underflow, so
    # their children coincide in float64.  The Frostman stage refuses at
    # any cap; a small one keeps its refusal light.
    monkeypatch.setattr(hierarchy, "DISC_CAP", 10 ** 5)
    doc = dict(FAST, f={"family": "power", "s": 0.3}, depth=110)
    result = run_pipeline(parse_config(json.dumps(doc)))
    stages = {s["stage"]: s for s in result.bundle["stages"]}
    assert stages["validate"]["status"] == "ok"
    assert stages["frostman"]["status"] == "failed"
    assert "over the cap of 100000" in stages["frostman"]["error"]
    assert stages["energy"] == {
        "stage": "energy", "status": "failed",
        "error": "level 104's children coincide in float64 (r_104 = 0.0)"}
    assert "energy" not in result.bundle
    rows = result.bundle["checks"]
    assert not [r for r in rows if r["check_id"].startswith("AvgProj")]
    assert [r for r in rows if r["margin"] is None or math.isnan(r["margin"])] == []
    assert len(rows) > 800 and all(r["passed"] for r in rows)
    assert result.exit_code == 2


def test_pipeline_stages_of_a_logpower_gauge_with_auto_g(tmp_path):
    doc = dict(FAST, f={"family": "logpower", "s": 2})
    result = run_pipeline(parse_config(json.dumps(doc)), tmp_path / "out")
    stages = result.bundle["stages"]
    assert [(s["stage"], s["status"], s.get("reason")) for s in stages] == [
        ("gauges", "failed", None),
        ("conditions", "skipped", "gauges unavailable"),
        ("construct", "failed", None),
        ("validate", "skipped", "no hierarchy"),
        ("frostman", "skipped", "no hierarchy"),
        ("energy", "skipped", "no hierarchy"),
        ("sweep", "skipped", "no hierarchy"),
    ]
    assert stages[0]["error"] == "automatic sweep partner needs a power gauge"
    assert stages[2]["error"].startswith("no admissible start k1")
    assert result.exit_code == 2


def test_pipeline_stages_of_a_powerlog_gauge_with_auto_g(tmp_path):
    # f parses and builds a hierarchy, but g = "auto" needs a power f, so
    # every stage that reads g is skipped rather than failing on None
    doc = dict(FAST, f={"family": "powerlog", "delta": 0.5, "s": 0.5})
    result = run_pipeline(parse_config(json.dumps(doc)), tmp_path / "out")
    stages = result.bundle["stages"]
    assert [(s["stage"], s["status"], s.get("reason")) for s in stages] == [
        ("gauges", "failed", None),
        ("conditions", "skipped", "gauges unavailable"),
        ("construct", "ok", None),
        ("validate", "ok", None),
        ("frostman", "ok", None),
        ("energy", "skipped", "gauges unavailable"),
        ("sweep", "skipped", "gauges unavailable"),
    ]
    assert stages[0]["error"] == "automatic sweep partner needs a power gauge"
    assert result.exit_code == 2


def test_pipeline_emits_svg(tmp_path):
    doc = dict(FAST)
    doc["emit"] = {"csv": True, "json": True, "svg": True}
    result = run_pipeline(parse_config(json.dumps(doc)), tmp_path / "out")
    for name in ("hierarchy.svg", "sweep.svg", "shells.svg"):
        path = tmp_path / "out" / name
        assert path.exists()
        ET.parse(path)  # well-formed XML


def test_pipeline_checks_the_integral_condition_once(tmp_path, monkeypatch):
    calls = []
    real = conditions.check_integral_condition

    def counted(f, g):
        calls.append(real(f, g))
        return calls[-1]

    monkeypatch.setattr(conditions, "check_integral_condition", counted)
    doc = dict(FAST, emit={"csv": True, "json": True, "svg": True})
    result = run_pipeline(parse_config(json.dumps(doc)), tmp_path / "out")
    assert len(calls) == 1 and len(calls[0].shell_sums) == conditions.SHELLS == 2048
    diag = result.bundle["verdicts"]["integral_condition"]["diagnostics"]
    assert diag.startswith("2048 dyadic shells")
    assert (tmp_path / "out" / "shells.svg").exists()


def test_pipeline_determinism(tmp_path):
    cfg = parse_config(json.dumps(FAST))
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    for name in ("report.json", "checks.csv", "sweep.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def _small_hierarchy(n=3):
    sched = schedule_from_radii([1.0, 0.2])
    return build_hierarchy(power(0.5), sched, BranchingPlan(1.0, (n,)),
                           theta=[0.0])


def hierarchy_svg(h):
    """The figure with the Eq33 labels of h's own validation report."""
    return render_hierarchy_svg(h, validate_hierarchy(h))


def test_hierarchy_svg_circle_count():
    svg = hierarchy_svg(_small_hierarchy(3))
    assert svg.count("<circle") == 1 + 3
    ET.fromstring(svg)


SVG = "{http://www.w3.org/2000/svg}"


def _panels(svg):
    """level -> (parent radius, [(cx, cy, r) of each child], label text)."""
    out = {}
    for g in ET.fromstring(svg).iter(SVG + "g"):
        if g.get("id", "").startswith("level-"):
            parent, *children = g.iter(SVG + "circle")
            assert parent.get("cx") is None and parent.get("cy") is None
            out[int(g.get("id")[len("level-"):])] = (
                float(parent.get("r")),
                [(float(c.get("cx", 0)), float(c.get("cy", 0)), float(c.get("r")))
                 for c in children],
                " ".join(t.text for t in g.iter(SVG + "text")))
    return out


def _power_hierarchy(s, depth):
    """build_from_gauge; depth 1, which it does not build, is the first
    level of the depth-2 construction."""
    if depth > 1:
        return build_from_gauge(power(s), depth)
    h = build_from_gauge(power(s), 2)
    return build_hierarchy(h.gauge, RadiusSchedule(h.schedule.log_r[:2]),
                           BranchingPlan(h.a, h.counts[:1]), theta=h.theta[:1])


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_hierarchy_svg_panels_at_depth_10(s):
    h = _power_hierarchy(s, 10)
    eq33 = {r.level: r.margin for r in validate_hierarchy(h).by_check("Eq33")}
    panels = _panels(hierarchy_svg(h))
    assert sorted(panels) == list(range(1, 11))
    for k, (big, children, label) in panels.items():
        # one parent and N_k children, in the parent's frame
        assert len(children) == h.counts[k - 1]
        rho = math.exp(h.log_radius(k) - h.log_radius(k - 1))
        for cx, cy, r in children:
            assert cy == 0.0
            assert r == pytest.approx(rho * big, abs=5e-5)
            assert abs(cx) + r <= big + 1e-4  # inside the parent, up to rounding
        want = h.offsets(k) / h.radius(k - 1) * big
        np.testing.assert_allclose([c[0] for c in children], want, rtol=0, atol=5e-5)
        assert f"N={h.counts[k - 1]}," in label
        assert f"Eq33 margin {eq33[k]:.3g}" in label
        assert ("arc" in label) == (k < h.depth)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_hierarchy_svg_is_small_and_stable_at_every_depth(s):
    for depth in range(1, 11):
        h = _power_hierarchy(s, depth)
        svg = hierarchy_svg(h)
        ET.fromstring(svg)
        assert len(svg.encode("utf-8")) < 100_000
        assert sum(len(c) for _, c, _ in _panels(svg).values()) == sum(h.counts)
        assert hierarchy_svg(_power_hierarchy(s, depth)) == svg


def test_hierarchy_svg_needs_only_local_ratios():
    # radii below the float range draw the same figure as radii of order one
    plan = BranchingPlan(1.0, (3, 4))
    near = build_hierarchy(power(0.5), RadiusSchedule((0.0, -5.0, -10.5)), plan)
    deep = build_hierarchy(power(0.5), RadiusSchedule((-790.0, -795.0, -800.5)),
                           plan, theta=near.theta)
    assert deep.radius(1) == 0.0
    assert hierarchy_svg(deep) == hierarchy_svg(near)


def test_sweep_svg_marks_every_measured_row():
    row = {"theta": 1.0, "k": 3, "cost": 0.1, "bound": 0.4, "margin": 0.3}
    svg = render_sweep_svg([row])
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 2  # one cost and one budget marker
    ET.fromstring(svg)
    rows = [row, dict(row, theta=0.5, cost=0.2), dict(row, theta=2.0, k=4)]
    svg = render_sweep_svg(rows)
    assert svg.count("<circle") == 6
    ET.fromstring(svg)


def test_empty_sweep_svg_axes_only():
    svg = render_sweep_svg([])
    assert "<polyline" not in svg
    assert svg.count("<line") == 2
    ET.fromstring(svg)


def test_shells_svg():
    svg = render_shells_svg([2.0 ** -n for n in range(40)])
    assert "<polyline" in svg
    ET.fromstring(svg)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(FAST))
    code = cli_main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["inequalities"]["fail"] == 0


def test_cli_gauge_check(tmp_path):
    code = cli_main(["gauge-check", "--f", '{"family":"power","s":0.5}',
                     "--g", '{"family":"power","s":0.25}',
                     "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "gauge_check.json").read_text())
    assert doc["integral_condition"]["status"] == "finite"
    assert doc["integral_condition"]["value"] == pytest.approx(1.0)
    assert doc["doubling"]["s"] == pytest.approx(0.5)


def test_cli_classify(tmp_path):
    code = cli_main(["classify", "--f", '{"family":"logpower","s":1.1}',
                     "--psi", '{"family":"exp_power","tau":3}', "--k", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "classify.csv").read_text()
    assert "finite" in text


def test_cli_gap_report(tmp_path):
    code = cli_main(["gap-report", "--delta", "0.5", "--s", "2.5",
                     "--out", str(tmp_path)])
    assert code == 0
    assert "gap" in (tmp_path / "gap_report.csv").read_text()


def test_cli_parser_is_built_once_and_matches_a_fresh_one(capsys):
    # main parses with one cached parser; each call must still see only its
    # own flags, so run subcommands in turn against a newly built parser
    assert cli.build_parser() is cli.build_parser()
    f = '{"family":"power","s":0.5}'
    argvs = [
        ["gap-report", "--delta", "0.5", "--s", "1.5", "--s", "2.5"],
        ["gauge-check", "--f", f, "--g", '{"family":"power","s":0.25}'],
        ["gap-report", "--delta", "0.5", "--s", "3.5"],
        ["construct", "--f", f, "--depth", "3"],
        ["gap-report", "--delta", "0.5"],
        ["classify", "--f", '{"family":"logpower","s":1.1}',
         "--psi", '{"family":"exp_power","tau":3}', "--blocks", "4096"],
    ]
    for argv in argvs:
        fresh = cli.build_parser.__wrapped__().parse_args(argv)
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh)
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert (code, out) == (fresh.fn(fresh), capsys.readouterr().out), argv
    # --s appends start from an empty list on every call
    parse = cli.build_parser().parse_args
    assert parse(["gap-report", "--delta", "0.5", "--s", "1.5"]).s == [1.5]
    assert parse(["gap-report", "--delta", "0.5", "--s", "3.5"]).s == [3.5]
    assert parse(["gap-report", "--delta", "0.5"]).s is None


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"f": {"family": "power", "s": 0.5}, "depth": 0}')
    code = cli_main(["run", "--config", str(cfg)])
    assert code == 2
    assert "depth" in capsys.readouterr().err
    # the disc cap is a module constant, not a config key
    cfg.write_text(json.dumps(dict(FAST, disc_cap=10 ** 7)))
    assert cli_main(["run", "--config", str(cfg)]) == 2
    assert "unknown keys: ['disc_cap']" in capsys.readouterr().err
    # a --depth 1 override is rejected before any file is written
    cfg.write_text(json.dumps(FAST))
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out),
                     "--depth", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: invalid config: depth: must be an integer >= 2\n")
    assert not out.exists()


_POWER = '{"family":"power","s":0.5}'


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "MISSING"], "cannot read config"),
    (["run", "--config", "DIR"], "cannot read config"),
    (["run", "--config", "NOPE"], "is not valid JSON"),
    (["gauge-check", "--f", "{nope"], "--f is not valid JSON"),
    (["gauge-check", "--f", _POWER, "--g", "{nope"], "--g is not valid JSON"),
    (["classify", "--f", _POWER, "--psi", "{nope"], "--psi is not valid JSON"),
])
def test_cli_read_errors_exit_2(argv, message, tmp_path, capsys):
    (tmp_path / "nope.json").write_text("{nope", encoding="utf-8")
    paths = {"MISSING": tmp_path / "missing.json", "DIR": tmp_path,
             "NOPE": tmp_path / "nope.json"}
    code = cli_main([str(paths.get(a, a)) for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (["gauge-check", "--f", '{"family":"power"}'], "lacks key 's'"),
    (["gauge-check", "--f", _POWER, "--g", '{"family":"powerlog","s":0.5}'],
     "lacks key 'delta'"),
    (["gauge-check", "--f", '{"family":"logpower","s":"half"}'],
     "key 's' is not a number"),
    (["gauge-check", "--f", '{"family":"table"}'], "lacks key 'table'"),
    (["gauge-check", "--f", '{"family":"table","table":5}'], "key 'table' must"),
    (["gauge-check", "--f", '{"family":"table","table":[[0,0],[1]]}'],
     "key 'table' must"),
    (["gauge-check", "--f", '{"family":"table","table":[["a","b"],[1,1]]}'],
     "key 'table' must"),
    (["classify", "--f", _POWER, "--psi", '{"family":"power"}'], "lacks key 'tau'"),
    (["classify", "--f", _POWER, "--psi", '{"tau":3}'], "lacks key 'family'"),
    (["classify", "--f", _POWER, "--psi", '{"family":"exp_power","tau":[3]}'],
     "key 'tau' is not a number"),
    (["gauge-check", "--f", '{"family":"power","s":true}'],
     "key 's' is not a number"),
    (["gauge-check", "--f", '{"family":"power","s":"0.5"}'],
     "key 's' is not a number"),
    (["gauge-check", "--f", '{"family":"power","s":Infinity}'],
     "key 's' is not a number"),
    (["gauge-check", "--f", '{"family":"table","table":[[-20,"-10"],[0,true]]}'],
     "key 'table' must"),
    (["gauge-check", "--f", '{"family":"table","table":[[-20,-10],[0,NaN]]}'],
     "key 'table' must"),
    (["gap-report", "--delta", "0.5", "--s", "0"], "positive finite"),
    (["gap-report", "--delta", "0.5", "--s", "-1"], "positive finite"),
    (["gap-report", "--delta", "0.5", "--s", "nan"], "positive finite"),
    (["classify", "--f", _POWER, "--psi", '{"family":"exp_power","tau":3}',
      "--blocks", "-5"], "block count"),
    # flat below its first knot, so f does not vanish at 0
    (["gauge-check", "--f", '{"family":"table","table":[[-20,-3],[-1,-3],[0,-1]]}'],
     "log f must rise between its first two samples"),
])
def test_cli_incomplete_specs_exit_2(argv, message, capsys):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_sweep_partner_is_a_gap_pair():
    f = power(0.5)
    g = sweep_partner(f)
    assert g.family == "powerlog" and g.delta == 0.5


_REQUIRED = {
    "gauge-check": ["--f", '{"family":"power","s":0.5}'],
    "classify": ["--f", '{"family":"logpower","s":1.1}',
                 "--psi", '{"family":"exp_power","tau":3}'],
    "gap-report": ["--delta", "0.5"],
    "construct": ["--f", '{"family":"power","s":0.5}'],
    "sweep": ["--f", '{"family":"power","s":0.5}'],
    "energy": ["--f", '{"family":"power","s":0.5}'],
}
_SHARED = (("--config", "c.json"), ("--seed", "1"), ("--emit", "csv"),
           ("--depth", "3"), ("--angles", "64"))


@pytest.mark.parametrize("cmd, flag, value", [
    *[("gauge-check", flag, value) for flag, value in _SHARED[1:]],
    *[("classify", flag, value) for flag, value in _SHARED],
    *[("gap-report", flag, value) for flag, value in _SHARED],
    ("construct", "--seed", "1"), ("construct", "--angles", "64"),
    ("sweep", "--seed", "1"),
    ("energy", "--angles", "64"), ("energy", "--emit", "json"),
])
def test_cli_rejects_flags_a_subcommand_does_not_read(cmd, flag, value, capsys):
    with pytest.raises(SystemExit) as err:
        cli_main([cmd, *_REQUIRED[cmd], flag, value])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# each subcommand's stages, and a config (svg on) that gives them something
# to check: depth 4 and 256 angles give the sweep measured rows, where
# FAST's depth 3 and 64 angles give none
_SUBCOMMANDS = {
    "construct": (("gauges", "construct", "validate"), dict(FAST, depth=3)),
    "sweep": (("gauges", "construct", "sweep"), dict(FAST, depth=4, angles=256)),
    "energy": (("gauges", "construct", "energy"), dict(FAST, depth=3, seed=3)),
}
# the check ids each stage writes; validate writes every other id
_STAGE_CHECKS = {"frostman": {"Eq34"}, "energy": {"AvgProjEnergy", "AvgProjTransfer"},
                 "sweep": {"Eq35", "Eq36trend"}}


def _check_stage(check_id: str) -> str:
    return next((stage for stage, ids in _STAGE_CHECKS.items()
                 if check_id in ids), "validate")


@pytest.fixture(scope="module")
def subcommand_runs(tmp_path_factory):
    """Each subcommand and ``run`` on that subcommand's config, into
    ``<cmd>/<cmd>`` and ``<cmd>/run``, with their exit codes and stdout."""
    root = tmp_path_factory.mktemp("subcommands")
    outcomes = {}
    for cmd, (_, doc) in _SUBCOMMANDS.items():
        cfg = root / f"{cmd}.json"
        cfg.write_text(json.dumps(dict(doc, emit={
            "csv": True, "json": True, "svg": True})))
        for name in (cmd, "run"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_main([name, "--config", str(cfg), "--out",
                               str(root / cmd / name)])
            outcomes[cmd, name] = (rc, buf.getvalue())
    return root, outcomes


@pytest.mark.parametrize("cmd", list(_SUBCOMMANDS))
def test_cli_subcommand_writes_the_run_files(cmd, subcommand_runs):
    root, outcomes = subcommand_runs
    sub_dir, run_dir = root / cmd / cmd, root / cmd / "run"
    (rc, out), (run_rc, run_out) = outcomes[cmd, cmd], outcomes[cmd, "run"]
    assert rc == run_rc == 0
    sub = json.loads((sub_dir / "report.json").read_text())
    run = json.loads((run_dir / "report.json").read_text())
    assert json.loads(out) == sub["summary"]

    # the subcommand's stages, its prerequisites included, as the run
    # records them, and the keys those stages set
    stages, _ = _SUBCOMMANDS[cmd]
    assert [s["stage"] for s in sub["stages"]] == list(stages)
    assert sub["stages"] == [s for s in run["stages"] if s["stage"] in stages]
    assert all(s["status"] == "ok" for s in sub["stages"])
    shared = set(sub) - {"stages", "checks", "verdicts", "summary"}
    assert shared <= set(run)
    assert {k: sub[k] for k in shared} == {k: run[k] for k in shared}

    # its check rows are the run's rows from the same stages
    assert sub["checks"] == [r for r in run["checks"]
                             if _check_stage(r["check_id"]) in stages]
    sub_csv = (sub_dir / "checks.csv").read_text().splitlines()
    run_csv = (run_dir / "checks.csv").read_text().splitlines()
    assert sub_csv == run_csv[:1] + [
        line for line in run_csv[1:]
        if _check_stage(line.split(",", 1)[0]) in stages]

    # every other file it writes is byte-equal to the run's
    others = {p.name for p in sub_dir.iterdir()} - {"report.json", "checks.csv"}
    assert others == {"construct": {"hierarchy.svg"},
                      "sweep": {"sweep.csv", "sweep.svg"},
                      "energy": set()}[cmd]
    for name in others:
        assert (sub_dir / name).read_bytes() == (run_dir / name).read_bytes()


def test_cli_construct(tmp_path):
    code = cli_main(["construct", "--f", '{"family":"power","s":0.5}',
                     "--depth", "3", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["hierarchy"]["N"] == [9, 9, 9]
    assert doc["checks"] and all(r["passed"] for r in doc["checks"])
    assert (tmp_path / "checks.csv").exists()


def test_cli_sweep(tmp_path):
    code = cli_main(["sweep", "--f", '{"family":"power","s":0.5}',
                     "--depth", "4", "--angles", "64",
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "theta,k,cost,bound,margin"


def test_cli_energy(tmp_path):
    code = cli_main(["energy", "--f", '{"family":"power","s":0.5}',
                     "--depth", "3", "--pairs", "5000", "--seed", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())["energy"]
    assert doc["mean"] > 0 and doc["capacity_lower_bound"] > 0
    assert doc["capacity_lower_bound"] == 1.0 / doc["mean"]
    assert doc["collisions_rejected"] == 0
    # one stratum per divergence level; the mean is their p-weighted sum
    assert [lv["level"] for lv in doc["levels"]] == [1, 2, 3]
    assert sum(lv["pairs"] for lv in doc["levels"]) == 5000
    assert doc["mean"] == pytest.approx(
        sum(lv["p"] * lv["mean"] for lv in doc["levels"]), rel=1e-12)


def test_cli_sweep_writes_the_run_files(subcommand_runs):
    root, _ = subcommand_runs
    assert len((root / "sweep" / "run" / "sweep.csv").read_text()
               .splitlines()) > 2
    for name in ("sweep.csv", "sweep.svg"):
        assert (root / "sweep" / "sweep" / name).read_bytes() == \
            (root / "sweep" / "run" / name).read_bytes()


def test_cli_construct_writes_the_run_hierarchy_svg(subcommand_runs):
    root, _ = subcommand_runs
    assert (root / "construct" / "construct" / "hierarchy.svg").read_bytes() == \
        (root / "construct" / "run" / "hierarchy.svg").read_bytes()


def test_cli_construct_writes_the_run_hierarchy(subcommand_runs):
    # one serialiser, DiscHierarchy.to_dict, for both documents
    root, _ = subcommand_runs
    doc = json.loads((root / "construct" / "construct" / "report.json").read_text())
    report = json.loads((root / "construct" / "run" / "report.json").read_text())
    assert set(report["hierarchy"]) == {"schedule", "a", "N", "theta", "d"}
    assert doc["hierarchy"] == report["hierarchy"]


def test_cli_energy_draws_the_run_energy(subcommand_runs):
    root, _ = subcommand_runs
    energy = json.loads((root / "energy" / "energy" / "report.json").read_text())
    report = json.loads((root / "energy" / "run" / "report.json").read_text())
    for key in ("mean", "stderr", "capacity_lower_bound", "collisions_rejected",
                "levels"):
        assert energy["energy"][key] == report["energy"][key]
    assert energy["config"]["pairs"] == 5000 and energy["config"]["seed"] == 3


@pytest.mark.parametrize("f", [
    {"family": "powerlog", "delta": 0.5, "s": 0.5},
    {"family": "table", "table": [[-10.0, -5.0], [-1.0, -0.6]]},
])
def test_cli_construct_needs_no_sweep_partner(f, tmp_path, capsys):
    # the gauges stage cannot pick g for a non-power f, but construct
    # reads only f: the failed prerequisite alone does not exit 2
    code = cli_main(["construct", "--f", json.dumps(f), "--depth", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    stages = {s["stage"]: s["status"] for s in report["stages"]}
    assert stages == {"gauges": "failed", "construct": "ok", "validate": "ok"}


def test_cli_construct_names_the_failed_construction(capsys):
    # a dimension-zero gauge admits no shift: construct fails, validate is
    # skipped, and the failures behind the skip are named
    f = '{"family":"logpower","s":1.0}'
    assert cli_main(["construct", "--f", f, "--depth", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert "error: construct: no admissible start k1 <= 1000000" in err[-1]
    assert all(line.startswith("error: ") for line in err)
    # sweep asks for no construction of its own, yet its skip names it
    assert cli_main(["sweep", "--f", f, "--g", '{"family":"power","s":0.5}',
                     "--depth", "3"]) == 2
    err = capsys.readouterr().err
    assert "error: construct: no admissible start k1 <= 1000000" in err


def test_pipeline_rejects_unknown_stages():
    with pytest.raises(ValueError, match=r"unknown stages: \['swep'\]"):
        run_pipeline(parse_config(json.dumps(FAST)), stages=("construct", "swep"))


def test_cli_run_names_a_failed_stage(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise hierarchy.DiscCapExceeded("no energy today")

    monkeypatch.setattr(measure, "mc_energy", refuse)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FAST))
    assert cli_main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: energy: no energy today\n"


def test_run_shells_svg_is_the_1024_shell_integral(subcommand_runs, monkeypatch):
    # reference: a separate 1024-shell run of the integral condition
    monkeypatch.setattr(conditions, "SHELLS", 1024)
    f = power(0.5)
    shells = conditions.check_integral_condition(f, sweep_partner(f))
    assert len(shells.shell_sums) == 1024
    root, _ = subcommand_runs
    assert (root / "sweep" / "run" / "shells.svg").read_text(encoding="utf-8") == \
        render_shells_svg(shells.shell_sums)


_NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule fails
from gaugeproj.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    results.append([rc, buf.getvalue()])
loaded = sorted(name for name, mod in sys.modules.items()
                if name.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"results": results, "scipy": loaded}))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FAST))
    f = '{"family":"power","s":0.5}'
    argvs = [
        ["gauge-check", "--f", f, "--g", '{"family":"power","s":0.25}'],
        ["construct", "--f", f, "--depth", "3"],
        ["sweep", "--f", f, "--depth", "3", "--angles", "64"],
        ["energy", "--f", f, "--depth", "3", "--pairs", "2000"],
        ["classify", "--f", '{"family":"logpower","s":1.1}',
         "--psi", '{"family":"exp_power","tau":3}', "--blocks", "4096"],
        ["gap-report", "--delta", "0.5"],
        ["run", "--config", str(cfg)],
    ]
    src = str(Path(gaugeproj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["scipy"] == []
    expected = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
        expected.append([rc, buf.getvalue()])
    assert [rc for rc, _ in expected] == [0] * len(argvs)
    assert got["results"] == expected
