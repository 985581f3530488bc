"""gaugeproj benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py compare BASE.jsonl NEW.jsonl

Run from the root of a checkout.  The launcher pins BLAS/OpenMP threads to
one, times SETUPS fresh interpreters that import gaugeproj and parse the
workload's inputs (setup_s), then runs the workload in one worker process
for the timed window.  It prints a readable report, the environment stamp
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--record``
appends that object, with the workload, seed and stamp, to a JSON-lines
file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUPS = 5
SETUP_TIMEOUT_S = 25
WORKER_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
# pinned in every process the benchmark starts; the program is unchanged
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond
    it, or None when there are too few samples for any of them."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles' inclusive rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def env_stamp() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]}


def _worker_cmd(args, workdir: Path) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]


def measure_setup(args, workdir: Path, env: dict) -> list[float]:
    """Wall time from starting a fresh interpreter until it has imported
    gaugeproj and parsed the workload's inputs, SETUPS times."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd(args, workdir) + ["--setup-only"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup failed: {err.strip()[-2000:]}")
        times.append(t1 - t0)
    return times


def run_worker(args, workdir: Path, env: dict) -> dict:
    cmd = _worker_cmd(args, workdir) + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S + args.seconds)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker timed out after {e.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def input_medians(times: list[float], inputs: list[int]) -> dict[int, float]:
    """Median unit time per input (the item's index in the cycle)."""
    groups: dict[int, list[float]] = {}
    for i, t in zip(inputs, times):
        groups.setdefault(i, []).append(t)
    return {i: statistics.median(ts) for i, ts in groups.items()}


def unit_p50(times: list[float], inputs: list[int]) -> float:
    """The median over inputs of each input's median unit time.

    A cycle mixes inputs whose times differ severalfold, so the median of
    all units would sit on the edge between two inputs and jump with a
    single noisy unit; the median over inputs stays inside one.
    """
    return statistics.median(input_medians(times, inputs).values())


def end_to_end(result: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one untraced run, with notes saying how
    each was formed."""
    times, inputs = result["times"], result["inputs"]
    if not times:
        raise BenchError("no unit completed")
    medians = input_medians(times, inputs)
    p_tail = tail_percentile(len(times))
    if p_tail is None:
        tail = max(medians.values())
        tail_note = (f"unit_s_tail is the slowest input's median: {len(times)} "
                     f"units are too few for p{TAIL_LADDER[-1]:g} with "
                     f"{TAIL_BEYOND} beyond")
    else:
        tail = percentile(times, p_tail)
        tail_note = (f"unit_s_tail is p{p_tail:g} over {len(times)} units "
                     f"({len(times) - int(len(times) * p_tail / 100.0)} beyond)")
    attempted = result["attempted"]
    values = {
        "setup_s": statistics.median(setup),
        "unit_s_p50": unit_p50(times, inputs),
        "unit_s_tail": tail,
        "units_per_s": len(times) / result["window_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"units={len(times)} attempted={attempted} failed={result['failed']} "
        f"fail_frac={result['failed'] / attempted:.4f} "
        f"window_s={result['window_s']:.2f}",
        f"unit_s_p50 is the median over {len(medians)} inputs of each "
        f"input's median; median of all units {statistics.median(times):.4f} s",
        tail_note,
        f"setup_s median of {len(setup)} fresh interpreters: "
        + " ".join(f"{t:.3f}" for t in setup),
    ]
    if len(medians) <= 8:
        notes += [f"median {m:.4f} s over {inputs.count(i)} units: "
                  f"{result['labels'][i]}" for i, m in sorted(medians.items())]
    return values, notes


def measure(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "gaugeproj" / "__init__.py").is_file():
        raise BenchError("no gaugeproj sources under src/ in this checkout")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.environ.update(THREAD_ENV)
    env = dict(os.environ)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else measure_setup(args, workdir, env)
        result = run_worker(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    stamp = env_stamp()
    if args.trace:
        values, notes = result["metrics"], [f"spans recorded: {result['spans']}"]
        if values:
            values["trace.overhead_s"] = (unit_p50(**result["traced"])
                                          - unit_p50(**result["reference"]))
    else:
        values, notes = end_to_end(result, setup)
    print(f"# gaugeproj benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# environment: " + json.dumps(stamp, sort_keys=True))
    for line in notes + result["describe"]:
        print(f"# {line}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    correct = result["failed"] == 0
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            if correct:
                raise BenchError(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "environment": stamp,
                                 "notes": notes, **final}) + "\n")
    print(json.dumps(final))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    p = argparse.ArgumentParser(description="gaugeproj benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record", help="append the result to this JSON-lines file")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        return measure(args)
    except (BenchError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"benchmark error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
