"""Run configuration: JSON ingestion with strict validation and defaults.

All randomness is seeded from the config; there is no ambient entropy
anywhere in the pipeline, so identical configs produce byte-identical
report bundles.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .gauges import GaugeFunction, parse_gauge
from .hierarchy import MIN_DEPTH
from .measure import MIN_PAIRS
from .projection import MIN_ANGLES

SCHEMA_VERSION = 1

EMIT_DEFAULTS = {"csv": True, "json": True, "svg": False}


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every violation."""


@dataclass(frozen=True)
class RunConfig:
    """A validated run config.  Its fields are the config document's keys
    besides ``schema_version``, each with its default; f has none."""

    f: dict
    g: object = "auto"  # gauge spec dict or "auto"
    depth: int = 4
    angles: int = 256
    pairs: int = 200_000
    scan_samples: int = 10_000
    seed: int = 0
    emit: dict = field(default_factory=lambda: dict(EMIT_DEFAULTS))

    def gauge_f(self) -> GaugeFunction:
        return parse_gauge(self.f)

    def gauge_g(self) -> GaugeFunction | None:
        return None if self.g == "auto" else parse_gauge(self.g)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


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

    defaults = {fl.name: fl.default for fl in fields(RunConfig)}
    problems = []
    extra = sorted(set(doc) - set(defaults) - {"schema_version"})
    if extra:
        problems.append(f"unknown keys: {extra}")

    if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        problems.append(f"schema_version must be {SCHEMA_VERSION}")

    f_spec = doc.get("f")
    if f_spec is None:
        problems.append("f: gauge spec is required")
    else:
        try:
            parse_gauge(f_spec)
        except Exception as e:
            problems.append(f"f: {e}")

    g_spec = doc.get("g", defaults["g"])
    if g_spec != "auto":
        try:
            parse_gauge(g_spec)
        except Exception as e:
            problems.append(f"g: {e}")

    def _int_at_least(key, minimum):
        v = doc.get(key, defaults[key])
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            problems.append(f"{key}: must be an integer >= {minimum}")
            return minimum
        return v

    depth = _int_at_least("depth", MIN_DEPTH)
    angles = _int_at_least("angles", MIN_ANGLES)
    pairs = _int_at_least("pairs", MIN_PAIRS)
    scan_samples = _int_at_least("scan_samples", 1)
    seed = _int_at_least("seed", 0)

    emit = doc.get("emit", {})
    if (not isinstance(emit, dict) or set(emit) - set(EMIT_DEFAULTS)
            or not all(isinstance(v, bool) for v in emit.values())):
        problems.append("emit: must be an object with boolean csv/json/svg")
        emit = {}

    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))

    return RunConfig(f_spec, g_spec, depth, angles, pairs, scan_samples, seed,
                     {**EMIT_DEFAULTS, **emit})
