"""Command-line surface: single runs, grid sweeps, baseline comparisons, and
toy-corpus generation.

Exit codes: 0 success, 2 usage or configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import trainer as trainer_mod
from .data import Example, generate_toy_corpus, load_dataset, write_jsonl
from .trainer import TrainerConfig, run, run_random_skip, write_trace

DEFAULT_N0_GRID = [0.1, 0.2, 0.3, 0.4]
DEFAULT_WINDOW_GRID = [4, 8, 16]
DEFAULT_ALT_GRID = [0.1, 0.2, 0.3, 0.4, 0.5]
DEFAULT_FIXED_THRESHOLDS = [0.1, 0.3, 0.5, 0.7]

SWEEP_COLUMNS = [
    "row_type", "method", "n0_fraction", "window_w", "alt", "fixed_threshold",
    "epochs", "seed", "accuracy", "accuracy_std", "alpha_b", "alpha_fb",
    "t_total", "t_norm", "agot", "agot_optimal",
]

COMPARE_COLUMNS = [
    "method", "n_seeds", "accuracy_mean", "accuracy_std",
    "t_norm_mean", "t_norm_std", "skip_ratio_mean", "matched_target_mean",
]


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_floats(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part.strip()]


def _parse_ints(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


def _load_examples(path: str, format: str | None, header: bool) -> list[Example]:
    if not os.path.exists(path):
        raise UsageError(f"dataset not found: {path}")
    examples = load_dataset(path, format=format, header=header)
    if not examples:
        raise UsageError(f"dataset is empty: {path}")
    return examples


_CONFIG_FIELDS = {f.name: f for f in fields(TrainerConfig)}


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` pairs; keys are TrainerConfig field names."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = json.loads(raw)
            except json.JSONDecodeError:
                values[key] = raw
    return values


def _add_trainer_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("trainer options")
    g.add_argument("--config", help="flat key=value config file; flags override it")
    g.add_argument("--mode", choices=trainer_mod.MODES)
    g.add_argument("--epochs", type=int)
    g.add_argument("--batch-size", type=int, dest="batch_size")
    g.add_argument("--seed", type=int)
    g.add_argument("--no-shuffle", action="store_true", default=None)
    g.add_argument("--learning-rate", type=float, dest="learning_rate")
    g.add_argument("--n0", type=float, dest="n0_fraction")
    g.add_argument("--threshold-window", type=int, dest="threshold_window")
    g.add_argument("--predictor-window", type=int, dest="predictor_window")
    g.add_argument("--alt", type=float)
    g.add_argument("--skip-gamma", type=float, dest="skip_margin_gamma")
    g.add_argument("--variance-tolerance", type=float, dest="variance_tolerance")
    g.add_argument("--smoothing-alpha", type=float, dest="smoothing_alpha")
    g.add_argument("--batch-decision", choices=("mean", "vote"), dest="batch_decision")
    g.add_argument("--fixed-threshold", type=float, dest="fixed_threshold")
    g.add_argument("--random-skip-ratio", type=float, dest="random_skip_ratio")
    g.add_argument("--t-forward", type=float, dest="t_forward")
    g.add_argument("--t-backward", type=float, dest="t_backward")
    g.add_argument("--agot-epsilon", type=float, dest="agot_epsilon")
    g.add_argument("--a-full", type=float, dest="a_full")
    g.add_argument("--power-cpu", type=float, dest="power_cpu_watts")
    g.add_argument("--power-dram", type=float, dest="power_dram_watts")
    g.add_argument("--power-gpu", type=float, dest="power_gpu_watts")
    g.add_argument("--gpu-count", type=int, dest="gpu_count")
    g.add_argument("--eval-every-epoch", action="store_true", default=None, dest="eval_every_epoch")


def _config_from_args(args: argparse.Namespace) -> TrainerConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    if getattr(args, "no_shuffle", None):
        values["shuffle"] = False
    try:
        cfg = TrainerConfig(**values)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="training set (.jsonl or .tsv)")
    parser.add_argument("--eval-data", dest="eval_data", help="held-out set for accuracy")
    parser.add_argument("--format", choices=("jsonl", "tsv"))
    parser.add_argument("--header", action="store_true", help="TSV only: skip the first line")


# -- run ---------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.trace:
        cfg = replace(cfg, record_trace=True)
    train_examples = _load_examples(args.data, args.format, args.header)
    eval_examples = _load_examples(args.eval_data, args.format, args.header) if args.eval_data else None
    report = run(cfg, train_examples, eval_examples)
    payload = json.dumps(report.to_json_dict(), indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.trace:
        write_trace(report.traces, args.trace)
    print(
        f"mode={cfg.mode} accuracy={report.accuracy:.4f} "
        f"alpha_b={report.alpha_b:.4f} alpha_fb={report.alpha_fb:.4f} "
        f"T_norm={report.t_norm:.4f}"
        + (f" report={args.report}" if args.report else "")
    )
    return 0


# -- sweep ---------------------------------------------------------------------


def _sweep_grid(args: argparse.Namespace, base: TrainerConfig) -> list[dict]:
    """Ordered grid rows; each carries the method label, its parameters, and
    the full TrainerConfig."""
    rows = []
    for epochs in args.epochs_grid:
        for seed in args.seeds:
            common = replace(base, epochs=epochs, seed=seed)
            rows.append({
                "method": "train-all",
                "config": replace(common, mode="train-all"),
                "n0_fraction": None, "window_w": None, "alt": None, "fixed_threshold": None,
                "epochs": epochs, "seed": seed,
            })
            for t in args.fixed_thresholds:
                rows.append({
                    "method": "fixed-threshold",
                    "config": replace(common, mode="fixed-threshold", fixed_threshold=t),
                    "n0_fraction": None, "window_w": None, "alt": None, "fixed_threshold": t,
                    "epochs": epochs, "seed": seed,
                })
            for n0 in args.n0_grid:
                for w in args.window_grid:
                    for alt in args.alt_grid:
                        rows.append({
                            "method": "three-stage",
                            "config": replace(
                                common, mode="three-stage", n0_fraction=n0,
                                predictor_window=w, alt=alt,
                            ),
                            "n0_fraction": n0, "window_w": w, "alt": alt, "fixed_threshold": None,
                            "epochs": epochs, "seed": seed,
                        })
    return rows


def _config_label(row: dict) -> str:
    parts = [row["method"]]
    for key in ("n0_fraction", "window_w", "alt", "fixed_threshold", "epochs"):
        if row[key] is not None:
            parts.append(f"{key}={row[key]}")
    return " ".join(parts)


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    for grid_name in ("n0_grid", "window_grid", "alt_grid", "epochs_grid", "seeds"):
        if not getattr(args, grid_name):
            raise UsageError(f"empty grid: {grid_name.replace('_', '-')}")
    train_examples = _load_examples(args.data, args.format, args.header)
    eval_examples = _load_examples(args.eval_data, args.format, args.header) if args.eval_data else None

    rows = _sweep_grid(args, base)
    if len(rows) > args.max_runs:
        raise UsageError(f"grid has {len(rows)} runs, over the cap of {args.max_runs}")

    # train-all reference runs first: they supply a_full for every other row
    ref_rows = [r for r in rows if r["method"] == "train-all"]
    a_full = {}
    for row in ref_rows:
        row["report"] = run(row["config"], train_examples, eval_examples)
        a_full[(row["epochs"], row["seed"])] = row["report"].accuracy

    for row in rows:
        if row["method"] != "train-all":
            cfg = replace(row["config"], a_full=a_full[(row["epochs"], row["seed"])])
            row["report"] = run(cfg, train_examples, eval_examples)

    best = None
    for row in rows:
        agot = row["report"].agot
        if agot is None:
            continue
        key = (-agot, row["report"].t_norm, _config_label(row))
        if best is None or key < best[0]:
            best = (key, row)
    optimal_row = best[1] if best else None

    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        rep = row["report"]
        lines.append(",".join([
            "run", row["method"],
            _fmt(row["n0_fraction"]), _fmt(row["window_w"]), _fmt(row["alt"]),
            _fmt(row["fixed_threshold"]), str(row["epochs"]), str(row["seed"]),
            _fmt(rep.accuracy), "", _fmt(rep.alpha_b), _fmt(rep.alpha_fb),
            _fmt(rep.total_time), _fmt(rep.t_norm), _fmt(rep.agot),
            "1" if row is optimal_row else "0",
        ]))

    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["method"], row["n0_fraction"], row["window_w"], row["alt"],
               row["fixed_threshold"], row["epochs"])
        groups.setdefault(key, []).append(row)
    for key, group in groups.items():
        accs = np.array([r["report"].accuracy for r in group])
        agots = [r["report"].agot for r in group]
        mean_agot = float(np.mean(agots)) if all(a is not None for a in agots) else None
        lines.append(",".join([
            "summary", key[0],
            _fmt(key[1]), _fmt(key[2]), _fmt(key[3]), _fmt(key[4]), str(key[5]), "",
            _fmt(float(accs.mean())),
            _fmt(float(accs.std(ddof=1)) if len(accs) > 1 else 0.0),
            _fmt(float(np.mean([r["report"].alpha_b for r in group]))),
            _fmt(float(np.mean([r["report"].alpha_fb for r in group]))),
            _fmt(float(np.mean([r["report"].total_time for r in group]))),
            _fmt(float(np.mean([r["report"].t_norm for r in group]))),
            _fmt(mean_agot), "",
        ]))

    payload = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(payload)
    print(f"wrote {len(rows)} runs + {len(groups)} summaries to {args.out}")
    if optimal_row is not None:
        print(f"agot-optimal: {_config_label(optimal_row)} (agot={optimal_row['report'].agot:.4f})")
    return 0


# -- compare -------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    base = _config_from_args(args)
    if not args.seeds:
        raise UsageError("need at least one seed")
    train_examples = _load_examples(args.data, args.format, args.header)
    eval_examples = _load_examples(args.eval_data, args.format, args.header) if args.eval_data else None

    method_configs: list[tuple[str, TrainerConfig]] = [("train-all", replace(base, mode="train-all"))]
    method_configs.append(("three-stage", replace(base, mode="three-stage")))
    method_configs.append(("auto-threshold-only", replace(base, mode="auto-threshold-only")))
    for t in args.fixed_thresholds:
        method_configs.append((f"fixed-threshold-{t:g}", replace(base, mode="fixed-threshold", fixed_threshold=t)))

    jobs = [
        (label, replace(cfg, seed=seed))
        for seed in args.seeds
        for label, cfg in method_configs
    ]
    per_method: dict[str, list] = {}
    for label, cfg in jobs:
        per_method.setdefault(label, []).append(run(cfg, train_examples, eval_examples))

    # matched-ratio controls: one random-skip run per filtered method and seed
    random_jobs = []
    targets: dict[str, list[float]] = {}
    for label, _ in method_configs:
        if label == "train-all":
            continue
        for seed_idx, seed in enumerate(args.seeds):
            ratio = per_method[label][seed_idx].alpha_b + per_method[label][seed_idx].alpha_fb
            if ratio >= 1.0:
                ratio = min(ratio, 1.0 - 1e-9)
            random_jobs.append((f"random@{label}", replace(base, seed=seed), ratio))
            targets.setdefault(f"random@{label}", []).append(ratio)
    for label, cfg, ratio in random_jobs:
        report = run(replace(cfg, mode="random-skip", random_skip_ratio=ratio), train_examples, eval_examples)
        per_method.setdefault(label, []).append(report)

    lines = [",".join(COMPARE_COLUMNS)]
    table = []
    for label, reps in per_method.items():
        accs = np.array([r.accuracy for r in reps])
        tns = np.array([r.t_norm for r in reps])
        skips = np.array([r.alpha_b + r.alpha_fb for r in reps])
        target = targets.get(label)
        row = [
            label, str(len(reps)),
            _fmt(float(accs.mean())), _fmt(float(accs.std(ddof=1)) if len(reps) > 1 else 0.0),
            _fmt(float(tns.mean())), _fmt(float(tns.std(ddof=1)) if len(reps) > 1 else 0.0),
            _fmt(float(skips.mean())),
            _fmt(float(np.mean(target)) if target else None),
        ]
        lines.append(",".join(row))
        table.append((label, accs.mean(), accs.std(ddof=1) if len(reps) > 1 else 0.0, tns.mean(), skips.mean()))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote comparison to {args.out}")
    print(f"{'method':<28}{'accuracy':>18}{'t_norm':>10}{'skipped':>10}")
    for label, acc, std, tn, skip in table:
        print(f"{label:<28}{acc:>10.4f} ± {std:.4f}{tn:>10.4f}{skip:>10.4f}")
    return 0


# -- gen-toy -------------------------------------------------------------------


def cmd_gen_toy(args: argparse.Namespace) -> int:
    if args.dup_factor < 1:
        raise UsageError("--dup-factor must be >= 1")
    if not 0.0 <= args.noise < 1.0:
        raise UsageError("--noise must lie in [0, 1)")
    corpus = generate_toy_corpus(
        num_examples=args.num_examples,
        duplication=args.dup_factor,
        noise_rate=args.noise,
        seed=args.seed,
        class_vocab=args.class_vocab,
        shared_vocab=args.shared_vocab,
        min_tokens=args.min_tokens,
        max_tokens=args.max_tokens,
        indicative_prob=args.indicative_prob,
    )
    write_jsonl(corpus, args.out)
    print(f"wrote {len(corpus)} examples to {args.out}")
    if args.eval_out:
        eval_corpus = generate_toy_corpus(
            num_examples=args.eval_size,
            duplication=1,
            noise_rate=0.0,
            seed=args.eval_seed if args.eval_seed is not None else args.seed + 1,
            class_vocab=args.class_vocab,
            shared_vocab=args.shared_vocab,
            min_tokens=args.min_tokens,
            max_tokens=args.max_tokens,
            indicative_prob=args.indicative_prob,
        )
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
    _add_trainer_flags(p_sweep)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--n0-grid", type=_parse_floats, default=DEFAULT_N0_GRID, dest="n0_grid")
    p_sweep.add_argument("--window-grid", type=_parse_ints, default=DEFAULT_WINDOW_GRID, dest="window_grid")
    p_sweep.add_argument("--alt-grid", type=_parse_floats, default=DEFAULT_ALT_GRID, dest="alt_grid")
    p_sweep.add_argument(
        "--fixed-thresholds", type=_parse_floats, default=DEFAULT_FIXED_THRESHOLDS, dest="fixed_thresholds"
    )
    p_sweep.add_argument("--epochs-grid", type=_parse_ints, default=[1], dest="epochs_grid")
    p_sweep.add_argument("--seeds", type=_parse_ints, default=[0])
    p_sweep.add_argument("--max-runs", type=int, default=1000, dest="max_runs")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="all methods vs matched-ratio random skipping")
    _add_data_flags(p_cmp)
    _add_trainer_flags(p_cmp)
    p_cmp.add_argument("--seeds", type=_parse_ints, default=[0])
    p_cmp.add_argument(
        "--fixed-thresholds", type=_parse_floats, default=DEFAULT_FIXED_THRESHOLDS, dest="fixed_thresholds"
    )
    p_cmp.add_argument("--out", help="CSV output path")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-toy", help="generate the seeded redundant toy corpus")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--num-examples", type=int, default=20000, dest="num_examples")
    p_gen.add_argument("--dup-factor", type=int, default=5, dest="dup_factor")
    p_gen.add_argument("--noise", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--class-vocab", type=int, default=800, dest="class_vocab")
    p_gen.add_argument("--shared-vocab", type=int, default=800, dest="shared_vocab")
    p_gen.add_argument("--min-tokens", type=int, default=6, dest="min_tokens")
    p_gen.add_argument("--max-tokens", type=int, default=14, dest="max_tokens")
    p_gen.add_argument("--indicative-prob", type=float, default=0.2, dest="indicative_prob")
    p_gen.add_argument("--eval-out", dest="eval_out")
    p_gen.add_argument("--eval-size", type=int, default=2000, dest="eval_size")
    p_gen.add_argument("--eval-seed", type=int, default=None, dest="eval_seed")
    p_gen.set_defaults(func=cmd_gen_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
