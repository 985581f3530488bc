"""One benchmark process: set up a workload, then run it in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --seconds S --trace 0|1

With ``--setup-only`` it imports gaugeproj, generates and parses the
workload's inputs, prints ``ready`` and exits; the launcher times that.
Otherwise it prints one JSON line with the unit times, failures and peak
memory of this process (untraced), or the per-layer metrics (traced).
The gaugeproj package is imported from the ``src`` directory of the
checkout this file lives in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gaugeproj  # noqa: E402

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_FAILURES_SHOWN = 5


class Loop:
    """Closed loop over a workload's cycle: the next unit starts when the
    previous one (and its output check) has finished."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tracer = tracer
        self.times: list[float] = []
        self.inputs: list[int] = []   # index in the cycle, per entry of times
        self.info: dict = {}
        self.units: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def unit(self, index: int, traced: bool) -> None:
        item = self.wl.items[index]
        unit = (self.wl.name, self.attempted)
        self.attempted += 1
        self.tracer.unit = unit
        self.units[unit] = self.wl.name
        span = self.tracer.span("unit") if traced else contextlib.nullcontext()
        try:
            with span:
                t0 = time.perf_counter()
                outcome = self.wl.run(item)
                elapsed = time.perf_counter() - t0
            self.info[unit] = self.wl.check(item, outcome, self.tracer, unit)
        except Exception as e:  # every failure is counted, the loop goes on
            self.failures.append(f"{item.get('label')}: {type(e).__name__}: {e}")
            return
        finally:
            self.tracer.unit = None
        self.times.append(elapsed)
        self.inputs.append(index)

    def cycles(self, seconds: float, traced: bool = False) -> float:
        """Whole cycles while the next one is expected to fit in ``seconds``
        (at least one); returns the window's wall time."""
        start = time.perf_counter()
        done = 0
        while True:
            for index in range(len(self.wl.items)):
                self.unit(index, traced)
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > seconds:
                return elapsed


def _warm_up(workload) -> None:
    """One untimed unit, so lazy set-up inside the program is not timed."""
    with contextlib.suppress(Exception):
        workload.run(workload.items[0])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    wl = WORKLOADS[name](seed, workdir)
    obs = layers.observers()
    tracer = Tracer(gaugeproj, only=wl.capture,
                    observers={n: obs[n] for n in wl.capture})
    with tracer:
        _warm_up(wl)
        loop = Loop(wl, tracer)
        window = loop.cycles(seconds)
    return {"workload": name, "times": loop.times, "inputs": loop.inputs,
            "labels": [item["label"] for item in wl.items], "window_s": window,
            "attempted": loop.attempted, "failed": len(loop.failures),
            "failures": loop.failures[:MAX_FAILURES_SHOWN],
            "peak_rss_mb": _peak_rss_mb(), "describe": wl.describe()}


def traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced reference cycles of ``name`` for half the time, then one
    traced cycle of every workload; each per-layer metric is read from its
    home workload's traced units."""
    first = WORKLOADS[name](seed, workdir)
    wls = [first] + [cls(seed, workdir) for n, cls in WORKLOADS.items()
                     if n != name]
    obs = layers.observers()
    capture = Tracer(gaugeproj, only=first.capture,
                     observers={n: obs[n] for n in first.capture})
    with capture:
        _warm_up(first)
        reference = Loop(first, capture)
        reference.cycles(seconds / 2)
    for wl in wls[1:]:
        _warm_up(wl)
    tracer = Tracer(gaugeproj, observers=obs)
    loops = []
    with tracer:
        for wl in wls:
            loop = Loop(wl, tracer)
            loop.cycles(0.0, traced=True)
            loops.append(loop)
    units = {u: w for loop in loops for u, w in loop.units.items()}
    info = {u: i for loop in loops for u, i in loop.info.items()}
    failures = reference.failures + [f for loop in loops for f in loop.failures]
    metrics = {}
    if not failures:
        metrics = layers.layer_metrics(tracer, units, info)
        metrics["measure.ball_mass_us"] = layers.ball_mass_us(seed)
        # the launcher adds trace.overhead_s from the two sets of unit times
        if set(metrics) | {"trace.overhead_s"} != set(layers.SPEC):
            raise RuntimeError("traced metrics differ from layers.json: "
                               f"{sorted(set(metrics) ^ set(layers.SPEC))}")
    return {"workload": name, "metrics": metrics, "spans": len(tracer.spans),
            "reference": {"times": reference.times, "inputs": reference.inputs},
            "traced": {"times": loops[0].times, "inputs": loops[0].inputs},
            "attempted": reference.attempted + sum(l.attempted for l in loops),
            "failed": len(failures), "failures": failures[:MAX_FAILURES_SHOWN],
            "describe": first.describe()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(gaugeproj.__file__).resolve().parents:
        sys.stderr.write(f"gaugeproj imported from {gaugeproj.__file__}, "
                         f"not from {src}\n")
        return 2
    workdir = Path(args.workdir)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    run = traced if args.trace else untraced
    result = run(args.workload, args.seed, args.seconds, workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
