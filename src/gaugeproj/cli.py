"""Command-line interface.

Subcommands: gauge-check, construct, sweep, energy, classify, gap-report
and run (the full pipeline).  ``construct``, ``sweep`` and ``energy`` are
``run`` restricted to their stages: each calls ``run_pipeline`` with the
stages it asks for, prints the run's summary line and writes the run's
files for the stages that ran.  All state comes from flags and the config
file; there are no environment variables and no ambient randomness.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import diophantine, gauges
from .config import EMIT_DEFAULTS, ConfigError, parse_config
from .pipeline import (condition_verdicts, run_pipeline, verdict_payload,
                       _csv_text, _json_text, _sanitize, _write_file)

_FLAGS = {
    "--config": {"help": "path to a JSON run config"},
    "--seed": {"type": int, "help": "seed override"},
    "--out": {"help": "output directory for report files"},
    "--emit": {"help": "comma list of csv,json,svg"},
    "--depth": {"type": int, "help": "construction depth override"},
    "--angles": {"type": int, "help": "angle grid size override"},
}


def _flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _json_arg(text: str, what: str):
    """Parsed JSON text; malformed text is a ConfigError naming its source."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from None


def _gauge_arg(text: str, flag: str) -> gauges.GaugeFunction:
    return gauges.parse_gauge(_json_arg(text, flag))


def _load_config(args):
    """The config file (if any) with the subcommand's flag overrides."""
    doc = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}") from None
        doc = _json_arg(text, f"config {args.config}")
    for key in ("f", "g"):
        if getattr(args, key, None):
            doc[key] = _json_arg(getattr(args, key), f"--{key}")
    for key in ("seed", "depth", "angles", "pairs"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    # --out stays a CLI concern so the echoed config (and hence the bundle)
    # is identical across runs into different directories
    if getattr(args, "emit", None) is not None:
        flags = dict.fromkeys(EMIT_DEFAULTS, False)
        for token in args.emit.split(","):
            token = token.strip()
            if token not in flags:
                raise ConfigError(f"unknown emit format {token!r}")
            flags[token] = True
        doc["emit"] = flags
    return parse_config(doc)


def _write(args, name: str, text: str) -> None:
    """Write a document under --out, or to stdout without it."""
    if args.out:
        _write_file(Path(args.out), name, text)
    else:
        sys.stdout.write(text)


def cmd_gauge_check(args) -> int:
    f = _gauge_arg(args.f, "--f")
    g = _gauge_arg(args.g, "--g") if args.g else None
    fit = f.doubling
    payload: dict = {"f": f.to_dict(), "doubling": {
        "s": fit.s, "kappa": fit.kappa, "constant": fit.constant}}
    try:
        co = gauges.codoubling_exponent(f)
        payload["codoubling"] = {"s": co.s, "kappa": co.kappa}
    except gauges.GaugeFitError as e:
        payload["codoubling"] = {"failed": str(e)}
    if g is not None:
        payload["g"] = g.to_dict()
    payload.update(condition_verdicts(f, g)[0])
    _write(args, "gauge_check.json", _json_text(payload))
    return 0


def cmd_classify(args) -> int:
    f = _gauge_arg(args.f, "--f")
    psi = diophantine.parse_approx(_json_arg(args.psi, "--psi"))
    sv = diophantine.classify_series(f, psi, args.k, args.blocks)
    _write(args, "classify.csv", _csv_text(
        ["family_f", "family_psi", "tau", "k", "verdict", "fitted_exponent",
         "statement"],
        [[f.family, psi.family, psi.tau, args.k, sv.verdict.status,
          sv.fitted_exponent, sv.measure_statement]]))
    if args.out:
        _write(args, "classify.json", _json_text(
            {"verdict": verdict_payload(sv.verdict),
             "fitted_exponent": sv.fitted_exponent,
             "statement": sv.measure_statement}))
    return 0


def cmd_gap_report(args) -> int:
    s_values = args.s if args.s else None
    rep = diophantine.gap_report(args.delta, args.k, s_values)
    _write(args, "gap_report.csv", _csv_text(
        ["s", "band", "integral_condition", "consistent"],
        [[r.s, r.band, r.integral_status, r.consistent] for r in rep.rows]))
    if args.out:
        _write(args, "gap_report.json", _json_text(
            {"delta": rep.delta, "k": rep.k, "tau": rep.tau,
             "bands": [list(b) for b in rep.bands],
             "rows": [{"s": r.s, "band": r.band,
                       "integral_condition": r.integral_status,
                       "consistent": r.consistent} for r in rep.rows]}))
    return 0


def cmd_run(args) -> int:
    """``run`` and the subcommands that run part of it: the pipeline over
    ``args.stages`` (every stage when None)."""
    result = run_pipeline(_load_config(args), args.out, args.stages)
    for stage, error in result.errors:
        sys.stderr.write(f"error: {stage}: {error}\n")
    summary = result.bundle["summary"]
    sys.stdout.write(json.dumps(_sanitize(summary), sort_keys=True) + "\n")
    return result.exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, each with only the flags it reads.

    Built once per process and shared by every ``main`` call: parsing
    fills a fresh namespace each time and changes nothing in the tree.
    """
    parser = argparse.ArgumentParser(
        prog="gaugeproj",
        description=("gauge-function cover costs, nested-disc constructions "
                     "and projection sweeps"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauge-check", help="scaling fits and analytic conditions")
    p.add_argument("--f", required=True, help="gauge spec JSON")
    p.add_argument("--g", help="second gauge spec JSON for pair conditions")
    _flags(p, "--out")
    p.set_defaults(fn=cmd_gauge_check)

    p = sub.add_parser("construct", help="build and validate a hierarchy")
    p.add_argument("--f", help="gauge spec JSON")
    _flags(p, "--config", "--out", "--emit", "--depth")
    p.set_defaults(fn=cmd_run, stages=("construct", "validate"))

    p = sub.add_parser("sweep", help="angle sweep of projected cover costs")
    p.add_argument("--f", help="gauge spec JSON")
    p.add_argument("--g", help="cover-cost gauge spec JSON")
    _flags(p, "--config", "--out", "--emit", "--depth", "--angles")
    p.set_defaults(fn=cmd_run, stages=("sweep",))

    p = sub.add_parser("energy", help="Monte Carlo energy and capacity witness")
    p.add_argument("--f", help="gauge spec JSON")
    p.add_argument("--g", help="energy gauge spec JSON")
    p.add_argument("--pairs", type=int, help="pair count override")
    _flags(p, "--config", "--seed", "--out", "--depth")
    p.set_defaults(fn=cmd_run, stages=("energy",))

    p = sub.add_parser("classify", help="series criterion for approximable sets")
    p.add_argument("--f", required=True, help="gauge spec JSON")
    p.add_argument("--psi", required=True, help="approximation spec JSON")
    p.add_argument("--k", type=int, default=2, help="ambient dimension")
    p.add_argument("--blocks", type=int, default=16384)
    _flags(p, "--out")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("gap-report", help="regime bands for the gap family")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--s", type=float, action="append",
                   help="exponent to classify (repeatable)")
    _flags(p, "--out")
    p.set_defaults(fn=cmd_gap_report)

    p = sub.add_parser("run", help="full pipeline")
    _flags(p, "--config", "--seed", "--out", "--emit", "--depth", "--angles")
    p.set_defaults(fn=cmd_run, stages=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, gauges.GaugeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
