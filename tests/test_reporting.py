import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from gaugeproj import (ConfigError, GaugeFitError, conditions, gauges,
                       parse_config, power, run_pipeline, sweep_partner)
from gaugeproj.cli import main as cli_main
from gaugeproj.hierarchy import (BranchingPlan, build_hierarchy,
                                 schedule_from_radii)
from gaugeproj.svgreport import (render_hierarchy_svg, render_shells_svg,
                                 render_sweep_svg)

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


def test_parse_rejects_unknown_keys_and_lists_all_violations():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"f": {"family": "power", "s": 0.5},
                                 "depth": 0, "angles": 1, "wat": 1}))
    msg = str(err.value)
    assert "wat" in msg and "depth" in msg and "angles" in msg
    # the sweep needs at least 32 angles, so the config does too
    with pytest.raises(ConfigError, match="angles: must be an integer >= 32"):
        parse_config(json.dumps({"f": {"family": "power", "s": 0.5},
                                 "depth": 3, "angles": 16}))


def test_parse_requires_gauge():
    with pytest.raises(ConfigError, match="required"):
        parse_config("{}")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_config_round_trip_canonical():
    cfg = parse_config(json.dumps(FAST))
    text = cfg.canonical_json()
    again = parse_config(text)
    assert again.canonical_json() == text
    assert again == cfg


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

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
    # the energy stage reuses g's doubling fit; without it, it fails plainly
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
    assert "gauges stage failed" in stages["energy"]["error"]


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

    def counted(f, g, n_shells):
        calls.append(n_shells)
        return real(f, g, n_shells)

    monkeypatch.setattr(conditions, "check_integral_condition", counted)
    doc = dict(FAST, emit={"csv": True, "json": True, "svg": True})
    run_pipeline(parse_config(json.dumps(doc)), tmp_path / "out")
    assert calls == [2048]
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


def test_hierarchy_svg_circle_count():
    svg = render_hierarchy_svg(_small_hierarchy(3))
    assert svg.count("<circle") == 1 + 3
    ET.fromstring(svg)


def test_hierarchy_svg_full_circle_count(h05_depth5):
    svg = render_hierarchy_svg(h05_depth5, max_discs=10 ** 5)
    h = h05_depth5
    expected = 1 + sum(h.disc_count(k) for k in range(1, h.depth + 1))
    assert svg.count("<circle") == expected
    assert "subsampled" not in svg


def test_hierarchy_svg_small_budget_notice(h05_depth5):
    svg = render_hierarchy_svg(h05_depth5, max_discs=100)
    assert "subsampled" in svg
    ET.fromstring(svg)


def reference_hierarchy_svg(h, max_discs=10 ** 5):
    """render_hierarchy_svg with one sx/sy/_num call per disc coordinate."""
    from gaugeproj.svgreport import MARGIN, VIEW, _first_paths, _num, _svg
    r0 = h.radius(0)
    scale = (VIEW - 2 * MARGIN) / (2 * r0)

    def sx(x):
        return VIEW / 2 + x * scale

    def sy(y):
        return VIEW / 2 - y * scale

    body = [f'<circle cx="{_num(VIEW / 2)}" cy="{_num(VIEW / 2)}" '
            f'r="{_num(r0 * scale)}" fill="none" stroke="#333" stroke-width="1"/>']
    drawn = 1
    for level in range(1, h.depth + 1):
        count = h.disc_count(level)
        budget = max_discs - drawn
        if budget <= 0:
            body.append(f"<!-- level {level} omitted: disc budget exhausted -->")
            continue
        if count > budget or count > h.disc_cap:
            take = min(budget, h.disc_cap, 4096)
            centers = _first_paths(h, level, take)
            body.append(f"<!-- level {level} subsampled: first {take} of "
                        f"{count} paths -->")
        else:
            centers = h.level_centers(level)
        r = max(h.radius(level) * scale, 0.05)
        for cx, cy in centers:
            body.append(f'<circle cx="{_num(sx(cx))}" cy="{_num(sy(cy))}" '
                        f'r="{_num(r)}" fill="none" stroke="#06c" '
                        f'stroke-width="0.5"/>')
        drawn += len(centers)
    for level in range(1, h.depth + 1):
        ex, ey = h.direction(level)
        body.append(f'<line x1="{_num(sx(-r0 * ex))}" y1="{_num(sy(-r0 * ey))}" '
                    f'x2="{_num(sx(r0 * ex))}" y2="{_num(sy(r0 * ey))}" '
                    f'stroke="#c60" stroke-width="0.4" stroke-dasharray="4 4"/>')
    return _svg(body)


@pytest.mark.parametrize("fixture, max_discs", [
    ("h05_depth5", 10 ** 5),  # every level drawn in full
    ("h08_depth5", 10 ** 5),  # deep levels subsampled
    ("h05_depth5", 100),      # budget exhausted part way
])
def test_hierarchy_svg_equals_the_per_disc_renderer(fixture, max_discs, request):
    h = request.getfixturevalue(fixture)
    got = render_hierarchy_svg(h, max_discs=max_discs).split("\n")
    want = reference_hierarchy_svg(h, max_discs=max_discs).split("\n")
    # first differing line only: a diff of two megabyte strings takes minutes
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, (first, got[first], want[first])
    assert len(got) == len(want)


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


def test_cli_construct(tmp_path):
    code = cli_main(["construct", "--f", '{"family":"power","s":0.5}',
                     "--depth", "3", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "hierarchy.json").read_text())
    assert doc["hierarchy"]["N"] == [9, 9, 9]
    assert doc["validation"]["passed"] is True
    assert (tmp_path / "validation.csv").exists()


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
    doc = json.loads((tmp_path / "energy.json").read_text())
    assert doc["mean"] > 0 and doc["capacity_lower_bound"] > 0


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


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"f": {"family": "power", "s": 0.5}, "depth": 0}')
    code = cli_main(["run", "--config", str(cfg)])
    assert code == 2
    assert "depth" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def fast_svg_run(tmp_path_factory):
    """The FAST config with svg on, through ``run``, ``sweep`` and
    ``construct`` into sibling directories.  Depth 4 and 256 angles give
    the sweep measured rows; FAST's depth 3 and 64 angles give none."""
    root = tmp_path_factory.mktemp("shared")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(dict(FAST, depth=4, angles=256, emit={
        "csv": True, "json": True, "svg": True})))
    for cmd in ("run", "sweep", "construct"):
        assert cli_main([cmd, "--config", str(cfg), "--out",
                         str(root / cmd)]) == 0
    return root


def test_cli_sweep_writes_the_run_files(fast_svg_run):
    assert len((fast_svg_run / "run" / "sweep.csv").read_text().splitlines()) > 2
    for name in ("sweep.csv", "sweep.svg"):
        assert (fast_svg_run / "sweep" / name).read_bytes() == \
            (fast_svg_run / "run" / name).read_bytes()


def test_cli_construct_writes_the_run_hierarchy_svg(fast_svg_run):
    assert (fast_svg_run / "construct" / "hierarchy.svg").read_bytes() == \
        (fast_svg_run / "run" / "hierarchy.svg").read_bytes()


def test_run_shells_svg_is_the_1024_shell_integral(fast_svg_run):
    # reference: a separate 1024-shell run of the integral condition
    f = power(0.5)
    shells = conditions.check_integral_condition(f, sweep_partner(f), 1024)
    assert (fast_svg_run / "run" / "shells.svg").read_text(encoding="utf-8") == \
        render_shells_svg(shells.shell_sums)
