"""Benchmark of the lossgate training library.

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload three-stage --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced calls with traced operations and reports the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in both modes, each in a
process of its own, one after another.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
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
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("train-all", "three-stage", "stage1-learn", "sweep")

# one BLAS thread: the library is single-threaded Python, and on a 2-CPU host
# a second BLAS thread only competes with it
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs and of each run")
    parser.add_argument("--seconds", type=float, default=20.0, help="time budget of the measured repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_threads": PINNED_THREADS,
        "LOSSGATE_THREADS": os.environ.get("LOSSGATE_THREADS"),
    }


def run_one(args) -> int:
    import workloads  # after the environment is pinned and src/ is importable

    print("env", json.dumps(environment(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            spans = WORK / f"spans-{args.workload}.csv.gz"
            result = workloads.measure_traced(args.workload, args.seed, args.seconds, workdir, spans)
            units = workloads.tracing.LAYER_METRICS
            mode = f"traced operations, spans in {spans.relative_to(ROOT)}"
        else:
            result = workloads.measure(args.workload, args.seed, args.seconds, workdir)
            units = workloads.E2E_METRICS
            mode = "timed calls, tracing off"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = result.tally
    print(f"workload {args.workload} seed {args.seed}: {len(result.times)} {mode}")
    for label, times in (("call", result.times), ("set-up", result.setup_times)):
        if times:
            times = sorted(times)
            print(f"  {label} wall seconds as measured: n {len(times)} min {times[0]:.4f} "
                  f"median {statistics.median(times):.4f} max {times[-1]:.4f}")
    for problem in sorted(set(tally.problems)):
        print("FAILED CHECK", problem)
    for name, value in result.metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name][0]}")
    print(f"  {'error_rate':<40} {tally.failed / tally.attempted:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in result.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, one child process at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            print(child.stdout, end="", flush=True)
            if child.returncode != 0:
                print(f"{workload} --trace {trace} exited with {child.returncode}", file=sys.stderr)
                return child.returncode
            result = json.loads(child.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "lossgate" / "__init__.py").is_file():
        print(f"error: no lossgate sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    os.environ.pop("LOSSGATE_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
