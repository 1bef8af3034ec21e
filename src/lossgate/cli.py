"""Command-line surface: single runs, grid sweeps, baseline comparisons, and
toy-corpus generation.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime error. An
output path that resolves to an input or to another output, that is a
directory or that lies in a directory that does not exist exits 2 before any
work, as does a --config file that cannot be read, is not UTF-8 (a leading
byte-order mark is dropped) or gives a key twice. Every command checks every
run's time model once its data is loaded, and one that prices a run at an
infinite T or p_t exits 2 before the first run.

TrainerConfig field field_name is flag --field-name, but for two spelled
otherwise (--n0, --skip-gamma); a --config key is a field that has a flag.
run's --trace sets record_trace, and disable_predictor is a library diagnostic.
gen-toy's flags are generate_toy_corpus's parameters, with its defaults. sweep
and compare exit 2 before loading on a flag or a --config key of a field they
set for each run, or leave unread (compare: mode, seed, fixed_threshold,
random_skip_ratio, a_full; sweep: these and epochs, n0_fraction,
predictor_window, alt), and on
--eval-every-epoch or its key, as neither writes a per-epoch curve; neither
--help lists those flags. sweep checks --max-runs before it builds a run's
config. compare names a fixed threshold's method fixed-threshold-{t}, with t
written as the sweep CSV writes it. A negative number, -inf and -1e-3 too,
may follow its flag after a space, as may a comma list of numbers that starts
with one. sweep scores each run's AGOT, after the runs, against the accuracy
of the train-all run of its (epochs, seed); compare writes no AGOT and leaves
every run's a_full unset.

sweep and compare deal their runs over one process per CPU this process may
run on, and no more processes than runs: run i goes to process i mod P. The
command's own process runs its share, from run 0, and forks the others, so
one CPU or one run (as in run) forks nothing. The outputs do not depend on
P. Each process stops at its first failure, and the command reports that of
the first failing run in list order, once every child has ended. A child's
results count only once it exits 0, which it does after sending them; a
child that ends otherwise is a runtime error that names its exit code. No
child outlives the command.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import pickle
import re
import signal
import sys
from dataclasses import fields, replace
from functools import partial
from typing import BinaryIO

import numpy as np

from .data import Corpus, generate_toy_corpus, load_dataset, write_jsonl
from .trainer import RunReport, TrainerConfig, csv_field, priced_time, random_control, run, write_csv, write_trace

DEFAULT_N0_GRID = [0.1, 0.2, 0.3, 0.4]
DEFAULT_WINDOW_GRID = [4, 8, 16]
DEFAULT_ALT_GRID = [0.1, 0.2, 0.3, 0.4, 0.5]
DEFAULT_FIXED_THRESHOLDS = [0.1, 0.3, 0.5, 0.7]

# a sweep row's grid columns; the modes without such a parameter leave it empty
GRID_COLUMNS = ["n0_fraction", "window_w", "alt", "fixed_threshold"]

SWEEP_COLUMNS = [
    "row_type", "method", *GRID_COLUMNS,
    "epochs", "seed", "accuracy", "accuracy_std", "alpha_b", "alpha_fb",
    "t_total", "t_norm", "agot", "agot_optimal",
]

COMPARE_COLUMNS = [
    "method", "n_seeds", "accuracy_mean", "accuracy_std",
    "t_norm_mean", "t_norm_std", "skip_ratio_mean", "matched_target_mean",
]

# the TrainerConfig fields each command sets for every run, or leaves unread: compare writes no
# AGOT, so no output reads a_full, and no sweep run reads random_skip_ratio
COMPARE_SETS = ("mode", "seed", "fixed_threshold", "random_skip_ratio", "a_full")
SWEEP_SETS = (*COMPARE_SETS, "epochs", "n0_fraction", "predictor_window", "alt")


class UsageError(Exception):
    pass


def _parse_list(kind: type, raw: str) -> list:
    """A comma-separated list of ``kind`` (int or float), as an argparse type."""
    try:
        return [kind(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {raw!r}") from None


_parse_floats, _parse_ints = partial(_parse_list, float), partial(_parse_list, int)


def _load_examples(path: str, header: bool) -> Corpus:
    try:
        examples = load_dataset(path, header=header)
    except FileNotFoundError:
        raise UsageError(f"dataset not found: {path}") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise UsageError(f"cannot read dataset {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    if not examples:
        raise UsageError(f"dataset is empty: {path}")
    return examples


def _load_data(args: argparse.Namespace) -> tuple[Corpus, Corpus | None]:
    """The training set and the optional held-out set named by the data flags."""
    train = _load_examples(args.data, args.header)
    held_out = _load_examples(args.eval_data, args.header) if args.eval_data else None
    return train, held_out


# the --config keys, each a field with a flag; record_trace and disable_predictor have neither
_CONFIG_FIELDS = {f.name: f for f in fields(TrainerConfig) if f.name not in ("record_trace", "disable_predictor")}

# the flags not spelled --field-name
_FLAG_SPELLINGS = {"n0_fraction": "--n0", "skip_margin_gamma": "--skip-gamma"}

# the argparse type of a flag, by the annotation of what it sets
_FLAG_TYPES = {"int": int, "float": float, "str": str}


def _flag(name: str) -> str:
    """The flag that sets TrainerConfig field ``name``."""
    return _FLAG_SPELLINGS.get(name, "--" + name.replace("_", "-"))


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` pairs; keys are TrainerConfig field names, each
    given once. A value is JSON, or else what the field's flag makes of it.
    A UTF-8 byte-order mark at the start of the file is dropped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{line_no}: repeated config key {key!r}")
        try:
            values[key] = json.loads(raw)
        except json.JSONDecodeError:
            values[key] = _parsed_as_flag(key, raw)
    return values


def _parsed_as_flag(name: str, raw: str):
    """``raw`` converted as field ``name``'s flag converts it, so ``inf``
    is a float as it is on the command line; ``raw`` itself where that fails
    or the field's flag takes no value, for the config to refuse."""
    kind = _FLAG_TYPES.get(_CONFIG_FIELDS[name].type.partition(" | ")[0], str)
    try:
        return kind(raw)
    except ValueError:
        return raw


def _add_trainer_flags(parser: argparse.ArgumentParser, refused: tuple[str, ...] = ()) -> None:
    """One flag per --config key, in field order; a flag left out
    parses to None, so the config file or the field default stands. --help
    leaves out the ``refused`` fields' flags, which parse for the command to refuse."""
    g = parser.add_argument_group("trainer options")
    g.add_argument("--config", help="flat key=value config file; flags override it")
    for f in _CONFIG_FIELDS.values():
        flag = _flag(f.name)
        kind = f.type.partition(" | ")[0]
        shown = argparse.SUPPRESS if f.name in refused else None
        if kind == "bool":  # every bool field defaults to False
            g.add_argument(flag, action="store_true", default=None, dest=f.name, help=shown)
        else:
            g.add_argument(flag, type=_FLAG_TYPES[kind], choices=f.metadata.get("choices"), dest=f.name, help=shown)


def _config_from_args(args: argparse.Namespace, sets: tuple[str, ...] = ()) -> TrainerConfig:
    """The --config file's values with the flags given over them. ``sets``
    names the fields the command sets for each run, whose flags and keys it
    refuses; a command that sets any writes no per-epoch curve, and refuses
    eval_every_epoch too."""
    values = _read_config_file(args.config) if args.config else {}
    if sets:
        _reject_overridden(args, sets, values, "sets these fields for each run")
        _reject_overridden(args, ("eval_every_epoch",), values, "writes no per-epoch curve")
    for name in _CONFIG_FIELDS:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    try:
        return TrainerConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _reject_clobbering(args: argparse.Namespace) -> None:
    """An output path that resolves to an input or to another output would
    overwrite that file; one that is a directory, or lies in a directory that
    does not exist, could not be written after all the work."""
    inputs, outputs = ("data", "eval_data", "config"), ("out", "eval_out", "report", "trace")
    named: dict[str, str] = {}
    for name in inputs + outputs:
        path = getattr(args, name, None)
        if not path:
            continue
        if name in outputs and os.path.isdir(path):
            raise UsageError(f"{_flag(name)} names a directory: {path}")
        if name in outputs and not os.path.isdir(os.path.dirname(path) or "."):
            raise UsageError(f"{_flag(name)} lies in a directory that does not exist: {path}")
        other = named.setdefault(os.path.realpath(path), name)
        if other != name and name in outputs:
            raise UsageError(f"{_flag(name)} and {_flag(other)} name the same file: {path}")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="training set (.jsonl or .tsv)")
    parser.add_argument("--eval-data", help="held-out set for accuracy")
    parser.add_argument("--header", action="store_true", help="TSV only: skip the first line")


# -- run ---------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.trace:
        cfg = replace(cfg, record_trace=True)
    train_examples, eval_examples = _load_data(args)
    [report] = _run_in_order([cfg], train_examples, eval_examples)
    # a non-finite float fails here rather than write JSON's invalid Infinity or NaN
    payload = json.dumps(report.to_json_dict(), indent=2, allow_nan=False)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.trace:
        write_trace(report.traces, args.trace)
    # stdout carries only the JSON when the report goes there
    print(
        f"mode={cfg.mode} accuracy={report.accuracy:.4f} "
        f"alpha_b={report.alpha_b:.4f} alpha_fb={report.alpha_fb:.4f} "
        f"T_norm={report.t_norm:.4f}"
        + (f" report={args.report}" if args.report else ""),
        file=sys.stdout if args.report else sys.stderr,
    )
    return 0


# -- sweep and compare ---------------------------------------------------------


def _reject_overridden(args: argparse.Namespace, names: tuple[str, ...], file_values: dict, reason: str) -> None:
    """A flag or a --config key of these fields would be ignored, for
    ``reason``, which the refusal gives after the command's name."""
    flags = [_flag(name) for name in names if getattr(args, name) is not None]
    keys = [name for name in names if name in file_values]
    for what, given in (("flags", flags), ("config keys", keys)):
        if given:
            raise UsageError(f"{args.command} {reason}, so it refuses their {what}: {', '.join(given)}")


def _reject_repeats(name: str, values: list) -> None:
    """A repeated value would run or summarise the same row twice."""
    if len(set(values)) < len(values):
        raise UsageError(f"repeated value in {name}")


def _variant(base: TrainerConfig, **changes) -> TrainerConfig:
    """``replace(base, **changes)``, with a bad value a usage error: commands
    build every config before the first run, so a bad grid value exits 2."""
    try:
        return replace(base, **changes)
    except ValueError as exc:
        named = " ".join(f"{key}={value}" for key, value in changes.items())
        raise UsageError(f"{named}: {exc}") from exc


def _process_count() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(
    configs: list[TrainerConfig], share: range, train_examples: Corpus, eval_examples: Corpus | None
) -> list[RunReport | Exception]:
    """Run ``configs[i]`` for each ``i`` in ``share``, in order: each run's
    report, or the exception of the first run that raises, which ends the list."""
    reports: list[RunReport] = []
    for i in share:
        try:
            reports.append(run(configs[i], train_examples, eval_examples))
        except Exception as exc:  # noqa: BLE001 - the caller raises the first failure of all shares
            return [*reports, exc]
    return reports


def _fork_share(
    configs: list[TrainerConfig], share: range, train_examples: Corpus, eval_examples: Corpus | None
) -> tuple[int, BinaryIO]:
    """Run ``share`` in a forked child, which pickles what ``_run_share``
    returns onto a pipe: the child's pid and the pipe's reading end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(_run_share(configs, share, train_examples, eval_examples), pipe)
            status = 0
        finally:
            # never back into the caller's stack, and no exit handlers or buffered output of the caller's
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _run_in_order(
    configs: list[TrainerConfig], train_examples: Corpus, eval_examples: Corpus | None
) -> list[RunReport]:
    """Check the time model of every config, run each as given, and return
    their reports in config order.

    The runs are dealt over ``_process_count()`` processes, at most one per
    config: config ``i`` runs in process ``i mod P``. The caller is process 0
    and forks the others, so with one process nothing is forked. Each process
    runs its share in order and stops at its first failure; the failure of the
    first failing config in list order is raised, after every child has ended.
    A child's results count only once it exits 0, after sending them; one
    that ends otherwise raises ``RuntimeError`` with its exit code."""
    for cfg in configs:
        try:
            priced_time(cfg, len(train_examples))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    n_procs = max(1, min(_process_count(), len(configs)))
    shares = [range(k, len(configs), n_procs) for k in range(n_procs)]
    children: list[tuple[int, BinaryIO]] = []
    try:
        if n_procs > 1:  # what the caller's streams hold is written by the caller alone
            sys.stdout.flush()
            sys.stderr.flush()
        for share in shares[1:]:
            children.append(_fork_share(configs, share, train_examples, eval_examples))
        results = [_run_share(configs, shares[0], train_examples, eval_examples)]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                raise RuntimeError(f"a run process ended with exit code {code} before sending its results")
            results.append(pickle.loads(payload))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes: list[RunReport | Exception | None] = [None] * len(configs)
    for share, share_outcomes in zip(shares, results):
        for i, outcome in zip(share, share_outcomes):
            outcomes[i] = outcome
    # a run a process never reached comes after that process's own failure
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _mean_std(values: list[float]) -> tuple[float, float]:
    """The mean and the sample standard deviation (0.0 for a single value)."""
    values = np.array(values)
    return float(values.mean()), float(values.std(ddof=1)) if len(values) > 1 else 0.0


# -- sweep ---------------------------------------------------------------------


def _sweep_grid(args: argparse.Namespace, base: TrainerConfig) -> list[tuple[TrainerConfig, tuple]]:
    """One config per run with its GRID_COLUMNS values, train-all first in
    each (epochs, seed) block. Seeds run outside epochs: a batch partition
    depends on the seed and not on the epoch count, so the runs of one seed
    share one partition."""
    grid = []
    for seed in args.seeds:
        for epochs in args.epochs_grid:
            common = _variant(base, epochs=epochs, seed=seed)
            grid.append((_variant(common, mode="train-all"), (None, None, None, None)))
            for t in args.fixed_thresholds:
                grid.append((_variant(common, mode="fixed-threshold", fixed_threshold=t), (None, None, None, t)))
            for n0 in args.n0_grid:
                for w in args.window_grid:
                    for alt in args.alt_grid:
                        cfg = _variant(common, mode="three-stage", n0_fraction=n0, predictor_window=w, alt=alt)
                        grid.append((cfg, (n0, w, alt, None)))
    return grid


def _sweep_run_count(args: argparse.Namespace) -> int:
    """``len(_sweep_grid(args, base))``, from the grid lengths alone."""
    staged = len(args.n0_grid) * len(args.window_grid) * len(args.alt_grid)
    return len(args.epochs_grid) * len(args.seeds) * (1 + len(args.fixed_thresholds) + staged)


def _config_label(cfg: TrainerConfig, row: tuple) -> str:
    named = zip((*GRID_COLUMNS, "epochs"), (*row, cfg.epochs))
    return " ".join([cfg.mode] + [f"{key}={value}" for key, value in named if value is not None])


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _config_from_args(args, SWEEP_SETS)
    for grid_name in ("n0_grid", "window_grid", "alt_grid", "fixed_thresholds", "epochs_grid", "seeds"):
        values, name = getattr(args, grid_name), grid_name.replace("_", "-")
        if not values and grid_name != "fixed_thresholds":
            raise UsageError(f"empty grid: {name}")
        _reject_repeats(f"grid: {name}", values)
    n_runs = _sweep_run_count(args)
    if n_runs > args.max_runs:
        raise UsageError(f"grid has {n_runs} runs, over the cap of {args.max_runs}")
    grid = _sweep_grid(args, base)
    train_examples, eval_examples = _load_data(args)
    reports = _run_in_order([cfg for cfg, _ in grid], train_examples, eval_examples)
    # each run is scored against the accuracy of the train-all run of its (epochs, seed)
    a_full = {(cfg.epochs, cfg.seed): rep.accuracy for (cfg, _), rep in zip(grid, reports) if cfg.mode == "train-all"}
    runs = [(cfg, row, rep.with_a_full(a_full[cfg.epochs, cfg.seed])) for (cfg, row), rep in zip(grid, reports)]
    # rows, summaries and the optimum's ties go epochs-major, seeds inside
    runs.sort(key=lambda run: args.epochs_grid.index(run[0].epochs))

    scored = [i for i, (_, _, rep) in enumerate(runs) if rep.agot is not None]
    optimal = min(
        scored, key=lambda i: (-runs[i][2].agot, runs[i][2].t_norm, _config_label(*runs[i][:2])), default=None
    )

    rows = []
    groups: dict[tuple, list[RunReport]] = {}
    for i, (cfg, row, rep) in enumerate(runs):
        rows.append([
            "run", cfg.mode, *row, cfg.epochs, cfg.seed, rep.accuracy, None,
            rep.alpha_b, rep.alpha_fb, rep.total_time, rep.t_norm, rep.agot, int(i == optimal),
        ])
        groups.setdefault((cfg.mode, *row, cfg.epochs), []).append(rep)
    for key, group in groups.items():
        agots = [r.agot for r in group]
        rows.append([
            "summary", *key, None, *_mean_std([r.accuracy for r in group]),
            float(np.mean([r.alpha_b for r in group])),
            float(np.mean([r.alpha_fb for r in group])),
            float(np.mean([r.total_time for r in group])),
            float(np.mean([r.t_norm for r in group])),
            float(np.mean(agots)) if None not in agots else None, None,
        ])

    write_csv(args.out, SWEEP_COLUMNS, rows)
    print(f"wrote {len(runs)} runs + {len(groups)} summaries to {args.out}")
    if optimal is not None:
        cfg, row, rep = runs[optimal]
        print(f"agot-optimal: {_config_label(cfg, row)} (agot={rep.agot:.4f})")
    return 0


# -- compare -------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    base = _config_from_args(args, COMPARE_SETS)
    if not args.seeds:
        raise UsageError("need at least one seed")
    _reject_repeats("--seeds", args.seeds)
    _reject_repeats("--fixed-thresholds", args.fixed_thresholds)
    methods = [(mode, _variant(base, mode=mode)) for mode in ("train-all", "three-stage", "auto-threshold-only")]
    methods += [
        (f"fixed-threshold-{csv_field(t)}", _variant(base, mode="fixed-threshold", fixed_threshold=t))
        for t in args.fixed_thresholds
    ]
    # seed-major, so the runs of one seed share the partition the training corpus keeps
    labels = [label for _ in args.seeds for label, _ in methods]
    configs = [_variant(cfg, seed=seed) for seed in args.seeds for _, cfg in methods]
    train_examples, eval_examples = _load_data(args)

    reports = _run_in_order(configs, train_examples, eval_examples)
    # each gated method's matched-ratio control, built from its run; the controls run after every method
    gated = [(label, cfg, report) for label, cfg, report in zip(labels, configs, reports) if cfg.mode != "train-all"]
    labels += [f"random@{label}" for label, _, _ in gated]
    controls = [random_control(cfg, report.alpha_b + report.alpha_fb) for _, cfg, report in gated]
    reports += _run_in_order(controls, train_examples, eval_examples)
    per_label: dict[str, list[RunReport]] = {}
    for label, report in zip(labels, reports):
        per_label.setdefault(label, []).append(report)

    rows = []
    for label, reps in per_label.items():
        targets = [r.config["random_skip_ratio"] for r in reps if r.config["mode"] == "random-skip"]
        rows.append([
            label, len(reps),
            *_mean_std([r.accuracy for r in reps]),
            *_mean_std([r.t_norm for r in reps]),
            float(np.mean([r.alpha_b + r.alpha_fb for r in reps])),
            float(np.mean(targets)) if targets else None,
        ])

    if args.out:
        write_csv(args.out, COMPARE_COLUMNS, rows)
        print(f"wrote comparison to {args.out}")
    print(f"{'method':<28}{'accuracy':>18}{'t_norm':>10}{'skipped':>10}")
    for label, _, acc, std, tn, _, skip, _ in rows:
        print(f"{label:<28}{acc:>10.4f} ± {std:.4f}{tn:>10.4f}{skip:>10.4f}")
    return 0


# -- gen-toy -------------------------------------------------------------------


# the gen-toy flag that sets each generate_toy_corpus parameter, in signature order
_GEN_TOY_FLAGS = {
    "num_examples": "--num-examples", "duplication": "--dup-factor", "noise_rate": "--noise", "seed": "--seed",
    "class_vocab": "--class-vocab", "shared_vocab": "--shared-vocab", "min_tokens": "--min-tokens",
    "max_tokens": "--max-tokens", "indicative_prob": "--indicative-prob",
}


def _toy_corpus(flags: dict[str, str], **params) -> Corpus:
    """``generate_toy_corpus``, with a bad argument reported by its ``flags`` name."""
    try:
        return generate_toy_corpus(**params)
    except ValueError as exc:
        message = re.sub(r"\b(" + "|".join(flags) + r")\b", lambda m: flags[m.group()], str(exc))
        raise UsageError(message) from exc


def cmd_gen_toy(args: argparse.Namespace) -> int:
    params = {name: getattr(args, name) for name in _GEN_TOY_FLAGS}
    corpus = _toy_corpus(_GEN_TOY_FLAGS, **params)
    eval_corpus = None
    if args.eval_out:
        eval_flags = {**_GEN_TOY_FLAGS, "num_examples": "--eval-size", "seed": "--eval-seed"}
        eval_seed = args.eval_seed if args.eval_seed is not None else args.seed + 1
        eval_params = {"num_examples": args.eval_size, "duplication": 1, "noise_rate": 0.0, "seed": eval_seed}
        eval_corpus = _toy_corpus(eval_flags, **{**params, **eval_params})
    write_jsonl(corpus, args.out)
    print(f"wrote {len(corpus)} examples to {args.out}")
    if eval_corpus is not None:
        write_jsonl(eval_corpus, args.eval_out)
        print(f"wrote {len(eval_corpus)} eval examples to {args.eval_out}")
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lossgate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its report")
    _add_data_flags(p_run)
    _add_trainer_flags(p_run)
    p_run.add_argument("--report", help="report JSON path (default: print to stdout)")
    p_run.add_argument("--trace", help="write a per-batch decision trace here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs, CSV out, AGOT-optimal marked")
    _add_data_flags(p_sweep)
    _add_trainer_flags(p_sweep, (*SWEEP_SETS, "eval_every_epoch"))
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--n0-grid", type=_parse_floats, default=DEFAULT_N0_GRID)
    p_sweep.add_argument("--window-grid", type=_parse_ints, default=DEFAULT_WINDOW_GRID)
    p_sweep.add_argument("--alt-grid", type=_parse_floats, default=DEFAULT_ALT_GRID)
    p_sweep.add_argument("--fixed-thresholds", type=_parse_floats, default=DEFAULT_FIXED_THRESHOLDS)
    p_sweep.add_argument("--epochs-grid", type=_parse_ints, default=[1])
    p_sweep.add_argument("--seeds", type=_parse_ints, default=[0])
    p_sweep.add_argument("--max-runs", type=int, default=1000)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="all methods vs matched-ratio random skipping")
    _add_data_flags(p_cmp)
    _add_trainer_flags(p_cmp, (*COMPARE_SETS, "eval_every_epoch"))
    p_cmp.add_argument("--seeds", type=_parse_ints, default=[0])
    p_cmp.add_argument("--fixed-thresholds", type=_parse_floats, default=DEFAULT_FIXED_THRESHOLDS)
    p_cmp.add_argument("--out", help="CSV output path")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-toy", help="generate the seeded redundant toy corpus")
    p_gen.add_argument("--out", required=True)
    params = inspect.signature(generate_toy_corpus).parameters
    for name, flag in _GEN_TOY_FLAGS.items():  # a corpus size has no default; the CLI's is 20000
        default = 20000 if name == "num_examples" else params[name].default
        p_gen.add_argument(
            flag, type=_FLAG_TYPES[params[name].annotation], default=default, dest=name,
            metavar=flag[2:].replace("-", "_").upper(),
        )
    p_gen.add_argument("--eval-out")
    p_gen.add_argument("--eval-size", type=int, default=2000)
    p_gen.add_argument("--eval-seed", type=int)
    p_gen.set_defaults(func=cmd_gen_toy)

    return parser


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _joined_negative_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with each token of comma-separated numbers that starts with
    ``-`` joined to the flag before it when that flag takes a value, as
    ``--alt -1e-3`` to ``--alt=-1e-3``. argparse reads ``-1`` as a value but
    ``-inf``, ``-1e-3`` or ``-0.5,0.3`` as an unknown option; no option string
    reads as a number."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices.values()
    takes_value = {flag for p in commands for a in p._actions if a.nargs is None for flag in a.option_strings}
    joined: list[str] = []
    for token in argv:
        negative = token.startswith("-") and all(map(_is_number, token.split(",")))
        if joined and joined[-1] in takes_value and negative:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_negative_values(parser, sys.argv[1:] if argv is None else argv))
    try:
        _reject_clobbering(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
