"""Run configuration: JSON ingestion with strict validation and defaults.

All randomness is seeded from the config; there is no ambient entropy
anywhere in the pipeline, so identical configs produce byte-identical
report bundles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .gauges import GaugeFunction, parse_gauge

SCHEMA_VERSION = 1

_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "g": "auto",
    "depth": 4,
    "angles": 256,
    "pairs": 200_000,
    "scan_samples": 10_000,
    "seed": 0,
    "out_dir": None,
    "emit": {"csv": True, "json": True, "svg": False},
}


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every violation."""


@dataclass(frozen=True)
class RunConfig:
    f_spec: dict
    g_spec: object  # gauge spec dict or "auto"
    depth: int
    angles: int
    pairs: int
    scan_samples: int
    seed: int
    out_dir: str | None
    emit: dict = field(default_factory=dict)

    def gauge_f(self) -> GaugeFunction:
        return parse_gauge(self.f_spec)

    def gauge_g(self) -> GaugeFunction | None:
        return None if self.g_spec == "auto" else parse_gauge(self.g_spec)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "f": self.f_spec,
            "g": self.g_spec,
            "depth": self.depth,
            "angles": self.angles,
            "pairs": self.pairs,
            "scan_samples": self.scan_samples,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "emit": dict(sorted(self.emit.items())),
        }


def parse_config(document) -> RunConfig:
    """Validated config from JSON text or an already-parsed object.

    Unknown keys are rejected; every violation is reported in one error.
    """
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")

    known = {"f"} | set(_DEFAULTS)
    problems = []
    extra = sorted(set(doc) - known)
    if extra:
        problems.append(f"unknown keys: {extra}")

    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in doc.items() if k in known})

    if merged.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version must be {SCHEMA_VERSION}")

    f_spec = merged.get("f") if "f" in doc else None
    if f_spec is None:
        problems.append("f: gauge spec is required")
    else:
        try:
            parse_gauge(f_spec)
        except Exception as e:
            problems.append(f"f: {e}")

    g_spec = merged["g"]
    if g_spec != "auto":
        try:
            parse_gauge(g_spec)
        except Exception as e:
            problems.append(f"g: {e}")

    def _int_at_least(key, minimum):
        v = merged[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            problems.append(f"{key}: must be an integer >= {minimum}")
            return minimum
        return v

    depth = _int_at_least("depth", 2)  # derive_radius_schedule needs K >= 2
    angles = _int_at_least("angles", 32)  # the sweep's minimum grid
    pairs = _int_at_least("pairs", 1000)
    scan_samples = _int_at_least("scan_samples", 1)
    seed = _int_at_least("seed", 0)

    emit = merged["emit"]
    if (not isinstance(emit, dict) or set(emit) - {"csv", "json", "svg"}
            or not all(isinstance(v, bool) for v in emit.values())):
        problems.append("emit: must be an object with boolean csv/json/svg")
        emit = dict(_DEFAULTS["emit"])
    else:
        emit = {**_DEFAULTS["emit"], **emit}

    out_dir = merged["out_dir"]
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append("out_dir: must be a string path or null")
        out_dir = None

    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))

    return RunConfig(f_spec, g_spec, depth, angles, pairs,
                     scan_samples, seed, out_dir, emit)
