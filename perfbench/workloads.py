"""The benchmark's workloads: seeded inputs, set-up, the timed call, and the
checks every output must pass.

All four workloads train on the acceptance corpus shape of
``tests/test_acceptance.py``. They differ in which layer does the work:

- ``train-all``: the model does forward and backward on every batch; gate
  and predictor are idle. The bypass workload for predictor changes.
- ``three-stage``: stage 2 begins near batch 550 of 5000, so predictor
  queries (``predict_batch``) dominate.
- ``stage1-learn``: the predictor is never consulted, only trained: a
  ``loss`` query and an ``update`` on every batch after warmup.
- ``sweep``: ``lossgate sweep`` in-process on the written JSONL files, so
  the CLI, dataset loading and several independent runs sit in the timed
  call.

Load model: closed loop, one caller, one process. Each timed call starts
when the previous one has returned.
"""

from __future__ import annotations

import csv
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import lossgate.cli
import lossgate.data
import lossgate.trainer
from lossgate.trainer import TrainerConfig

import hostspeed
import tracing

WORKLOADS = ("train-all", "three-stage", "stage1-learn", "sweep")
GATED = ("three-stage", "stage1-learn")

TRAIN_SIZE = 20000
EVAL_SIZE = 2000
SETUP_REPEATS = 5
MIN_REPEATS = 3
MIN_TRACED = 2

# name -> (unit, better)
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "examples_per_s": ("examples/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy": ("fraction", "higher"),
    "t_norm_model": ("ratio", "lower"),
}

# grid rows of the sweep in CSV order: the train-all reference, two fixed
# thresholds, and three-stage at two warmup fractions (both reach stage 2)
SWEEP_EPOCHS = 1
SWEEP_ROWS = [
    ("train-all", None),
    ("fixed-threshold", "0.3"),
    ("fixed-threshold", "0.5"),
    ("three-stage", "0.1"),
    ("three-stage", "0.2"),
]


def workload_config(workload: str, seed: int) -> TrainerConfig:
    """The acceptance configuration at 2 epochs, adapted to the workload."""
    cfg = TrainerConfig(
        mode="three-stage", epochs=2, batch_size=8, seed=seed,
        n0_fraction=0.2, threshold_window=64, predictor_window=8, alt=0.5,
        skip_margin_gamma=0.87,
    )
    if workload == "train-all":
        return replace(cfg, mode="train-all")
    if workload == "stage1-learn":
        return replace(cfg, disable_predictor=True)
    return cfg


@dataclass
class Inputs:
    train: Path
    eval: Path
    n_train: int


def write_inputs(seed: int, directory: Path) -> Inputs:
    """Generate the seeded corpus and write it as JSONL; the program reads
    only these files."""
    train = lossgate.data.generate_toy_corpus(TRAIN_SIZE, duplication=5, noise_rate=0.05, seed=seed)
    evalset = lossgate.data.generate_toy_corpus(EVAL_SIZE, duplication=1, noise_rate=0.0, seed=seed + 10001)
    inputs = Inputs(directory / "train.jsonl", directory / "eval.jsonl", len(train))
    lossgate.data.write_jsonl(train, str(inputs.train))
    lossgate.data.write_jsonl(evalset, str(inputs.eval))
    return inputs


def sweep_argv(inputs: Inputs, seed: int, out: Path) -> list[str]:
    return [
        "sweep", "--data", str(inputs.train), "--eval-data", str(inputs.eval), "--out", str(out),
        "--batch-size", "8", "--threshold-window", "64", "--skip-gamma", "0.87",
        "--seeds", str(seed), "--epochs-grid", str(SWEEP_EPOCHS),
        "--fixed-thresholds", ",".join(t for m, t in SWEEP_ROWS if m == "fixed-threshold"),
        "--n0-grid", ",".join(t for m, t in SWEEP_ROWS if m == "three-stage"),
        "--window-grid", "8", "--alt-grid", "0.5",
    ]


# -- set-up and the timed call ------------------------------------------------


@dataclass
class Prepared:
    train: list
    evalset: list
    trainer: lossgate.trainer.Trainer | None


def load_examples(path: Path) -> list:
    examples = lossgate.data.load_dataset(str(path))
    for ex in examples:
        ex.features()
    return examples


def set_up(workload: str, seed: int, inputs: Inputs) -> Prepared:
    """What a user pays before the timed call: loading, hashing and, where
    the workload trains directly, building the Trainer."""
    train = load_examples(inputs.train)
    evalset = load_examples(inputs.eval)
    trainer = None
    if workload != "sweep":
        trainer = lossgate.trainer.Trainer(workload_config(workload, seed), train, evalset)
    return Prepared(train, evalset, trainer)


def timed_call(workload: str, seed: int, inputs: Inputs, prepared: Prepared):
    """Run the workload's call once: ``(seconds, output)``. The output is the
    report dict, or ``(exit code, CSV text)`` for the sweep; None if it raised."""
    if workload == "sweep":
        out = inputs.train.parent / "sweep.csv"
        out.unlink(missing_ok=True)
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = lossgate.cli.main(sweep_argv(inputs, seed, out))
            elapsed = time.perf_counter() - start
        return elapsed, (code, out.read_text(encoding="utf-8") if out.exists() else "")
    trainer = prepared.trainer
    if trainer is None:
        trainer = lossgate.trainer.Trainer(workload_config(workload, seed), prepared.train, prepared.evalset)
    prepared.trainer = None  # a Trainer runs once
    start = time.perf_counter()
    try:
        output = trainer.run().to_json_dict()
    except Exception:  # noqa: BLE001 - a raising run is a failed operation
        traceback.print_exc(file=sys.stderr)
        output = None
    return time.perf_counter() - start, output


# -- output checks ------------------------------------------------------------


def check_report(workload: str, seed: int, n_train: int, report: dict) -> list[str]:
    """Problems with one training run's report; empty when it is correct."""
    cfg = workload_config(workload, seed)
    found = []
    if report["config"] != asdict(cfg):
        found.append("report config differs from the workload's")
    total = report["batches_total"]
    full, bs, fs = report["full_steps"], report["backward_skipped"], report["forward_skipped"]
    expected = cfg.epochs * math.ceil(n_train / cfg.batch_size)
    if total != expected:
        found.append(f"batches_total {total} != epochs x ceil(n/batch) = {expected}")
    if full + bs + fs != total:
        found.append(f"full {full} + backward_skipped {bs} + forward_skipped {fs} != batches_total {total}")
    per_batch = cfg.t_forward + cfg.t_backward
    want = (bs * cfg.t_forward + full * per_batch) / (total * per_batch) if total else math.nan
    if not math.isclose(report["T_norm"], want, rel_tol=1e-9):
        found.append(f"T_norm {report['T_norm']!r} != time model {want!r}")
    if not 0.0 <= report["accuracy"] <= 1.0:
        found.append(f"accuracy {report['accuracy']!r} outside [0, 1]")
    starts = report["stage_boundaries"]
    if workload == "train-all" and (bs or fs):
        found.append("train-all skipped batches")
    if workload == "stage1-learn" and (starts["full_filter_start"] is not None or fs):
        found.append("stage1-learn reached stage 2 or skipped a forward pass")
    if workload == "three-stage":
        stage1, stage2 = starts["backward_filter_start"], starts["full_filter_start"]
        if stage1 is None or (stage2 is not None and not stage1 < stage2 <= total):
            found.append(f"stage boundaries out of order: {stage1}, {stage2}")
    return found


def check_sweep(n_train: int, output: tuple[int, str]) -> list[list[str]]:
    """Problems per grid row of one sweep; every list empty when correct."""
    code, text = output
    if code != 0:
        return [[f"sweep exited with {code}"] for _ in SWEEP_ROWS]
    rows = [r for r in csv.DictReader(io.StringIO(text)) if r["row_type"] == "run"]
    if len(rows) != len(SWEEP_ROWS):
        return [[f"{len(rows)} run rows, expected {len(SWEEP_ROWS)}"] for _ in SWEEP_ROWS]
    defaults = TrainerConfig()
    tf, per_batch = defaults.t_forward, defaults.t_forward + defaults.t_backward
    total = SWEEP_EPOCHS * math.ceil(n_train / 8)
    found: list[list[str]] = [[] for _ in SWEEP_ROWS]
    for problems, row, (method, param) in zip(found, rows, SWEEP_ROWS):
        if row["method"] != method or (param or "") not in (row["fixed_threshold"], row["n0_fraction"]):
            problems.append(f"row {row['method']} where {method} {param} was expected")
        alpha_b, alpha_fb = float(row["alpha_b"]), float(row["alpha_fb"])
        bs, fs = round(alpha_b * total), round(alpha_fb * total)
        full = total - bs - fs
        if not all(math.isclose(n, a * total, abs_tol=1e-6) for n, a in ((bs, alpha_b), (fs, alpha_fb))):
            problems.append("skip fractions are not whole batches of epochs x ceil(n/8)")
        if full < 0:
            problems.append("skip fractions exceed 1")
        if not math.isclose(float(row["t_total"]), bs * tf + full * per_batch, rel_tol=1e-9):
            problems.append(f"t_total {row['t_total']} != time model")
        want = (bs * tf + full * per_batch) / (total * per_batch)
        if not math.isclose(float(row["t_norm"]), want, rel_tol=1e-9):
            problems.append(f"t_norm {row['t_norm']} != time model")
        if method == "train-all" and (bs or fs):
            problems.append("train-all skipped batches")
        if method == "fixed-threshold" and fs:
            problems.append("fixed-threshold skipped a forward pass")
        if not 0.0 <= float(row["accuracy"]) <= 1.0:
            problems.append(f"accuracy {row['accuracy']} outside [0, 1]")
    return found


def canonical(report: dict) -> str:
    """The report as compared across repeats: wall-clock overhead excluded."""
    return json.dumps({k: v for k, v in report.items() if k != "overhead_wall_seconds"}, sort_keys=True)


class Tally:
    """Checks each output of one workload and counts operations: a training
    run, or one grid row of the sweep. Every output must also equal the
    first one seen."""

    def __init__(self, workload: str, seed: int, n_train: int):
        self.workload, self.seed, self.n_train = workload, seed, n_train
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.problems: list[str] = []

    def add(self, output) -> None:
        if self.workload == "sweep":
            found = check_sweep(self.n_train, output)
            if self.first is not None and output != self.first:
                old = self.first[1].splitlines()
                new = output[1].splitlines()
                changed = [i for i in range(len(SWEEP_ROWS)) if old[i + 1:i + 2] != new[i + 1:i + 2]]
                for i in changed or range(len(SWEEP_ROWS)):
                    found[i].append("sweep CSV differs from the first repeat")
        elif output is None:
            found = [["the run raised"]]
        else:
            found = [check_report(self.workload, self.seed, self.n_train, output)]
            if self.first is not None and canonical(output) != canonical(self.first):
                found[0].append("report differs from the first repeat")
        if self.first is None:
            self.first = output
        self.attempted += len(found)
        self.failed += sum(1 for problems in found if problems)
        self.problems += [p for problems in found for p in problems]


# -- measurement --------------------------------------------------------------


def _more(started: float, times: list[float], minimum: int, seconds: float) -> bool:
    """Start another repeat while it is expected to end within the budget."""
    if len(times) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


def examples_per_call(workload: str, n_train: int) -> int:
    """Training examples one timed call consumes, skipped ones included."""
    if workload == "sweep":
        return len(SWEEP_ROWS) * SWEEP_EPOCHS * n_train
    return workload_config(workload, 0).epochs * n_train


def quality(workload: str, output) -> tuple[float, float]:
    """(accuracy, analytic T_norm); the mean over the run rows for the sweep."""
    if workload == "sweep":
        rows = [r for r in csv.DictReader(io.StringIO(output[1])) if r["row_type"] == "run"]
        return (
            statistics.fmean(float(r["accuracy"]) for r in rows),
            statistics.fmean(float(r["t_norm"]) for r in rows),
        )
    return output["accuracy"], output["T_norm"]


@dataclass
class Result:
    metrics: dict[str, float]
    tally: Tally
    times: list[float]  # wall seconds of each timed call, as measured
    setup_times: list[float]  # wall seconds of each set-up, as measured


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> Result:
    """End-to-end metrics, tracing off. Set-up and call times are medians of
    host-speed-adjusted wall times (see ``hostspeed``)."""
    inputs = write_inputs(seed, workdir)
    probe = hostspeed.HostProbe()
    setup_times: list[float] = []
    probes = [probe.seconds()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = set_up(workload, seed, inputs)
        setup_times.append(time.perf_counter() - start)
        probes.append(probe.seconds())
    setup_s = statistics.median(hostspeed.adjusted(setup_times, probes))

    tally = Tally(workload, seed, inputs.n_train)
    run_times: list[float] = []
    probes = probes[-1:]
    started = time.perf_counter()
    while _more(started, run_times, MIN_REPEATS, seconds):
        elapsed, output = timed_call(workload, seed, inputs, prepared)
        run_times.append(elapsed)
        probes.append(probe.seconds())
        tally.add(output)
    run_s = statistics.median(hostspeed.adjusted(run_times, probes))

    accuracy, t_norm = quality(workload, tally.first) if tally.first is not None else (0.0, 0.0)
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "examples_per_s": examples_per_call(workload, inputs.n_train) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": accuracy,
        "t_norm_model": t_norm,
    }
    return Result(metrics, tally, run_times, setup_times)


def measure_traced(workload: str, seed: int, seconds: float, workdir: Path, spans_path: Path) -> Result:
    """Per-layer metrics. Each cycle runs the call untraced, then a traced
    operation (set-up plus call), then, on gated workloads, an untraced
    train-all run at the same seed for the wall-clock T_norm."""
    inputs = write_inputs(seed, workdir)
    prepared = set_up(workload, seed, inputs)
    tally = Tally(workload, seed, inputs.n_train)
    reference = Tally("train-all", seed, inputs.n_train)
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    train_all: list[float] = []
    cycles: list[float] = []
    started = time.perf_counter()
    while _more(started, cycles, MIN_TRACED, seconds):
        cycle_start = time.perf_counter()
        elapsed, output = timed_call(workload, seed, inputs, prepared)
        untraced.append(elapsed)
        tally.add(output)
        with tracer.recording(len(traced)):
            fresh = set_up(workload, seed, inputs)
            elapsed, output = timed_call(workload, seed, inputs, fresh)
        traced.append(elapsed)
        tally.add(output)  # must equal the untraced output
        if workload in GATED:
            examples = Prepared(prepared.train, prepared.evalset, None)
            elapsed, output = timed_call("train-all", seed, inputs, examples)
            train_all.append(elapsed)
            reference.add(output)
        cycles.append(time.perf_counter() - cycle_start)
    tracer.write_csv(str(spans_path))

    if workload in GATED:
        wall_t_norm = statistics.median(untraced) / statistics.median(train_all)
    elif workload == "sweep":
        # per grid row: its run time over the train-all row's, averaged like t_norm_model
        ratios = []
        for op in range(len(traced)):
            runs = [s.end - s.start for s in tracer.spans if s.op == op and s.name == "cli.run"]
            ratios.append(statistics.fmean(r / runs[0] for r in runs))
        wall_t_norm = statistics.median(ratios)
    else:
        wall_t_norm = 1.0
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics = tracing.layer_metrics(tracer, list(range(len(traced))), wall_t_norm, overhead)
    tally.attempted += reference.attempted
    tally.failed += reference.failed
    tally.problems += reference.problems
    return Result(metrics, tally, traced, [])
