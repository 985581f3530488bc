"""Compare two sets of recorded benchmark results.

    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

Each file holds the JSON lines ``run.py --record`` appends.  For every
workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over the median) and a verdict against the metric's
bound:

* ``unresolved``: a side's spread is wider than the bound;
* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``within``: otherwise.

``setup_s`` is judged on its medians only, as the benchmark's contract
does.  The exit code is 1 when any metric is worse or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NO_SPREAD_CHECK = {"setup_s"}


def load(path: str) -> dict:
    """(workload, metric) -> values, from untraced records."""
    out = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"] or not rec["correct"]:
            continue
        for name, m in rec["metrics"].items():
            out[rec["workload"], name].append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    b_med, _, _, b_spread = summary(base)
    n_med, _, _, n_spread = summary(new)
    bound = metric["bound"]
    if metric["name"] not in NO_SPREAD_CHECK and max(b_spread, n_spread) > bound:
        return "unresolved"
    change = (n_med - b_med) / b_med
    worse = change > bound if metric["better"] == "lower" else -change > bound
    return "worse" if worse else "within"


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: run.py compare BASE.jsonl NEW.jsonl\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':14s} {'metric':12s} {'bound':>5s}  "
          f"{'base median [q1, q3] spread':40s}  "
          f"{'new median [q1, q3] spread':40s}  verdict")
    for wl in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            b, n = base.get((wl, m["name"])), new.get((wl, m["name"]))
            if not b or not n:
                print(f"{wl:14s} {m['name']:12s} {m['bound']:5.2f}  missing")
                bad += 1
                continue
            cells = []
            for values in (b, n):
                med, q1, q3, spread = summary(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {spread:.3f} "
                             f"(n={len(values)})")
            v = verdict(m, b, n)
            bad += v != "within"
            print(f"{wl:14s} {m['name']:12s} {m['bound']:5.2f}  "
                  f"{cells[0]:40s}  {cells[1]:40s}  {v}")
    return 1 if bad else 0
