import argparse
import functools
import inspect
import json
import os
import re
from dataclasses import fields
from pathlib import Path

import pytest

from lossgate import cli, data, metrics, trainer
from lossgate.cli import COMPARE_COLUMNS, SWEEP_COLUMNS, main
from lossgate.data import generate_toy_corpus, load_dataset, write_jsonl
from lossgate.trainer import TrainerConfig


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "toy.jsonl"
    corpus = generate_toy_corpus(
        600, duplication=3, noise_rate=0.05, seed=4,
        class_vocab=60, shared_vocab=100, min_tokens=5, max_tokens=9, indicative_prob=0.4,
    )
    write_jsonl(corpus, str(path))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# -- the flag surface --------------------------------------------------------------


TRAINER_OPTIONS = [
    "--config", "--mode", "--epochs", "--batch-size", "--seed", "--learning-rate", "--n0",
    "--threshold-window", "--predictor-window", "--alt", "--skip-gamma", "--smoothing-alpha",
    "--fixed-threshold", "--random-skip-ratio", "--t-forward", "--t-backward", "--a-full", "--eval-every-epoch",
]
DATA_OPTIONS = ["--data", "--eval-data", "--header"]

# each subcommand's option strings in --help order, as the hand-written parser had them
OPTION_STRINGS = {
    "run": ["-h", "--help", *DATA_OPTIONS, *TRAINER_OPTIONS, "--report", "--trace"],
    "sweep": [
        "-h", "--help", *DATA_OPTIONS, *TRAINER_OPTIONS, "--out", "--n0-grid", "--window-grid", "--alt-grid",
        "--fixed-thresholds", "--epochs-grid", "--seeds", "--max-runs",
    ],
    "compare": ["-h", "--help", *DATA_OPTIONS, *TRAINER_OPTIONS, "--seeds", "--fixed-thresholds", "--out"],
    "gen-toy": [
        "-h", "--help", "--out", "--num-examples", "--dup-factor", "--noise", "--seed", "--class-vocab",
        "--shared-vocab", "--min-tokens", "--max-tokens", "--indicative-prob", "--eval-out", "--eval-size",
        "--eval-seed",
    ],
}


@pytest.mark.parametrize("command", list(OPTION_STRINGS))
def test_option_strings_in_help_order(command):
    parser = subparsers()[command]
    assert [option for action in parser._actions for option in action.option_strings] == OPTION_STRINGS[command]


@pytest.mark.parametrize("command", list(OPTION_STRINGS))
def test_help_lists_every_accepted_flag_and_no_refused_one(command):
    # sweep and compare refuse the flags of the fields they set and --eval-every-epoch
    sets = {"sweep": cli.SWEEP_SETS, "compare": cli.COMPARE_SETS}.get(command)
    refused = {cli._flag(name) for name in (*sets, "eval_every_epoch")} if sets else set()
    listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", subparsers()[command].format_help()))
    assert listed == set(OPTION_STRINGS[command]) - refused
    assert len(refused) == {"sweep": 10, "compare": 6}.get(command, 0)


def test_the_config_keys_are_the_fields_with_a_trainer_flag():
    [group] = [g for g in subparsers()["run"]._action_groups if g.title == "trainer options"]
    assert {action.dest for action in group._group_actions} - {"config"} == set(cli._CONFIG_FIELDS)
    # run's --trace sets record_trace, and disable_predictor is a library diagnostic
    assert {f.name for f in fields(TrainerConfig)} - set(cli._CONFIG_FIELDS) == {"record_trace", "disable_predictor"}


# the fields that have no flag, so no --config key either
@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
@pytest.mark.parametrize("line", ["record_trace = true", "disable_predictor = true"])
def test_a_config_key_of_a_field_without_a_flag_is_unknown(corpus_file, tmp_path, capsys, monkeypatch, command, line):
    refuse_loading(monkeypatch)
    cfg_path, out = tmp_path / "cmd.cfg", tmp_path / "out"
    cfg_path.write_text(line + "\n")
    out_flag = "--report" if command == "run" else "--out"
    assert run_cli(command, "--data", corpus_file, out_flag, str(out), "--config", str(cfg_path)) == 2
    key = line.partition(" ")[0]
    assert capsys.readouterr().err == f"error: {cfg_path}:1: unknown config key {key!r}\n"
    assert not out.exists()


# the flags of the fields that went with the fixed cost model and the always-shuffled epoch
REMOVED_FLAGS = [
    ["--no-shuffle"], ["--agot-epsilon", "0.95"], ["--power-cpu", "100"], ["--power-dram", "50"],
    ["--power-gpu", "250"], ["--gpu-count", "1"],
]


@pytest.mark.parametrize("flag_args", REMOVED_FLAGS, ids=[args[0] for args in REMOVED_FLAGS])
def test_a_removed_flag_is_an_unrecognized_argument(corpus_file, tmp_path, capsys, monkeypatch, flag_args):
    refuse_loading(monkeypatch)
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        run_cli("run", "--data", corpus_file, "--report", str(report), *flag_args)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag_args)}" in capsys.readouterr().err
    assert not report.exists()


def sample_value(f):
    """A valid value for field ``f`` other than its default."""
    if "choices" in f.metadata:
        return next(choice for choice in f.metadata["choices"] if choice != f.default)
    kind = f.type.partition(" | ")[0]
    if kind == "bool":
        return not f.default
    if f.default is None:
        return 0.5
    return f.default + 1 if kind == "int" else f.default / 2


FLAGGED_FIELDS = list(cli._CONFIG_FIELDS.values())

# the fields only one mode takes, with that mode
MODE_FIELDS = {"fixed_threshold": "fixed-threshold", "random_skip_ratio": "random-skip"}


@pytest.mark.parametrize("f", FLAGGED_FIELDS, ids=[f.name for f in FLAGGED_FIELDS])
def test_trainer_flag_builds_the_config_its_file_key_does(tmp_path, f):
    parser = subparsers()["run"]
    action = next(a for a in parser._actions if a.dest == f.name)
    value = sample_value(f)
    flag_args = [action.option_strings[0]] + ([] if isinstance(value, bool) else [str(value)])
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{f.name} = {json.dumps(value)}\n")
    if f.name in MODE_FIELDS:
        flag_args += ["--mode", MODE_FIELDS[f.name]]
        cfg_path.write_text(cfg_path.read_text() + f"mode = {MODE_FIELDS[f.name]}\n")
    from_flag = cli._config_from_args(parser.parse_args(["--data", "x.jsonl", *flag_args]))
    from_file = cli._config_from_args(parser.parse_args(["--data", "x.jsonl", "--config", str(cfg_path)]))
    assert getattr(from_flag, f.name) == value != f.default
    assert from_flag == from_file


FLOAT_FIELDS = [f for f in FLAGGED_FIELDS if f.type.startswith("float")]


@pytest.mark.parametrize("raw", ["inf", "-inf"])
@pytest.mark.parametrize("f", FLOAT_FIELDS, ids=[f.name for f in FLOAT_FIELDS])
def test_an_infinite_float_key_builds_or_fails_as_its_flag_does(tmp_path, f, raw):
    # JSON spells infinity "Infinity", so "inf" is read as the flag reads it
    parser = subparsers()["run"]
    flag = next(a for a in parser._actions if a.dest == f.name).option_strings[0]
    mode = ["--mode", MODE_FIELDS[f.name]] if f.name in MODE_FIELDS else []
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{f.name} = {raw}\n")

    def built(*argv):
        try:
            return cli._config_from_args(parser.parse_args(["--data", "x.jsonl", *mode, *argv]))
        except cli.UsageError as exc:
            return str(exc)

    assert built(f"{flag}={raw}") == built("--config", str(cfg_path))
    if f.name == "fixed_threshold":
        # a report has no valid JSON for an infinite gate
        assert built("--config", str(cfg_path)) == "fixed_threshold must be finite"


def test_gen_toy_flags_follow_generate_toy_corpus():
    params = inspect.signature(generate_toy_corpus).parameters
    assert list(cli._GEN_TOY_FLAGS) == list(params)
    defaults = vars(subparsers()["gen-toy"].parse_args(["--out", "x.jsonl"]))
    assert {name: defaults[name] for name in params} == {
        name: 20000 if name == "num_examples" else p.default for name, p in params.items()
    }


def test_gen_toy_writes_what_generate_toy_corpus_returns(tmp_path):
    out, expected = tmp_path / "toy.jsonl", tmp_path / "expected.jsonl"
    values = dict(
        num_examples=50, duplication=2, noise_rate=0.2, seed=9, class_vocab=30, shared_vocab=40,
        min_tokens=2, max_tokens=4, indicative_prob=0.5,
    )
    argv = [arg for name, value in values.items() for arg in (cli._GEN_TOY_FLAGS[name], str(value))]
    assert run_cli("gen-toy", "--out", str(out), *argv) == 0
    write_jsonl(generate_toy_corpus(**values), str(expected))
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("flag, raw, expected", [
    ("--n0-grid", "0.1,abc", "expected comma-separated numbers, got '0.1,abc'"),
    ("--window-grid", "4,8.5", "expected comma-separated integers, got '4,8.5'"),
])
def test_list_flag_error_says_what_was_expected(corpus_file, tmp_path, capsys, flag, raw, expected):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("sweep", "--data", corpus_file, "--out", str(tmp_path / "x.csv"), flag, raw)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: {expected}" in err
    assert "_parse" not in err


# -- gen-toy ---------------------------------------------------------------------


def test_gen_toy_writes_corpus(tmp_path, capsys):
    out = tmp_path / "toy.jsonl"
    eval_out = tmp_path / "eval.jsonl"
    code = run_cli(
        "gen-toy", "--out", str(out), "--num-examples", "120", "--dup-factor", "3",
        "--noise", "0.1", "--seed", "2", "--eval-out", str(eval_out), "--eval-size", "40",
    )
    assert code == 0
    assert len(load_dataset(str(out))) == 120
    assert len(load_dataset(str(eval_out))) == 40


def test_gen_toy_deterministic_bytes(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for path in (a, b):
        assert run_cli("gen-toy", "--out", str(path), "--num-examples", "80", "--seed", "6") == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_toy_rejects_bad_noise(tmp_path):
    assert run_cli("gen-toy", "--out", str(tmp_path / "x.jsonl"), "--noise", "1.5") == 2


BAD_GEN_TOY = [
    ("num-examples", ["--num-examples", "0"], "--num-examples"),
    ("dup-factor", ["--dup-factor", "0"], "--dup-factor"),
    ("class-vocab", ["--class-vocab", "0"], "--class-vocab"),
    ("shared-vocab", ["--shared-vocab", "0"], "--shared-vocab"),
    ("token-range", ["--min-tokens", "10", "--max-tokens", "5"], "--max-tokens"),
    ("min-tokens", ["--min-tokens", "-1"], "--min-tokens"),
    ("indicative-prob", ["--indicative-prob", "1.5"], "--indicative-prob"),
    ("indicative-prob-nan", ["--indicative-prob", "nan"], "--indicative-prob"),
    ("eval-size", ["--eval-size", "0"], "--eval-size"),
    ("noise", ["--noise", "-0.1"], "--noise"),
    ("seed", ["--seed", "-1"], "--seed"),
    ("eval-seed", ["--eval-seed", "-1"], "--eval-seed"),
]


@pytest.mark.parametrize("case, flags, named", BAD_GEN_TOY, ids=[c[0] for c in BAD_GEN_TOY])
def test_gen_toy_bad_argument_exits_2_and_writes_nothing(tmp_path, capsys, case, flags, named):
    out = tmp_path / "toy.jsonl"
    eval_out = tmp_path / "eval.jsonl"
    code = run_cli("gen-toy", "--out", str(out), "--eval-out", str(eval_out), "--num-examples", "40", *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # the message names the flag, not generate_toy_corpus's parameter
    assert named in err
    assert not any(param in err for param in ("num_examples", "duplication", "noise_rate", "_vocab", "_tokens", "_prob"))
    assert not out.exists()
    assert not eval_out.exists()


def test_gen_toy_refuses_one_file_for_both_outputs(tmp_path, capsys):
    out = tmp_path / "same.jsonl"
    code = run_cli("gen-toy", "--out", str(out), "--eval-out", str(out), "--num-examples", "50", "--eval-size", "5")
    assert code == 2
    assert f"--eval-out and --out name the same file: {out}" in capsys.readouterr().err
    assert not out.exists()


# -- run --------------------------------------------------------------------------


def test_run_three_stage_writes_report(corpus_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "run", "--data", corpus_file, "--mode", "three-stage", "--epochs", "2",
        "--seed", "7", "--batch-size", "16", "--threshold-window", "8",
        "--alt", "0.6", "--report", str(report_path),
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    for key in ("accuracy", "alpha_b", "alpha_fb", "T", "T_norm", "agot",
                "p_t", "co2e", "stage_boundaries", "config"):
        assert key in payload
    assert "accuracy=" in capsys.readouterr().out


def test_run_without_report_writes_only_json_to_stdout(corpus_file, capsys):
    code = run_cli("run", "--data", corpus_file, "--mode", "train-all", "--batch-size", "16")
    assert code == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["config"]["mode"] == "train-all"
    assert "accuracy=" in err


@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-1e-3"])
@pytest.mark.parametrize("flag, mode", [("--fixed-threshold", "fixed-threshold"), ("--alt", "three-stage")])
def test_a_negative_flag_value_parses_as_with_an_equals_sign(corpus_file, tmp_path, capsys, flag, mode, value):
    # argparse takes "-1" for a value but "-inf" or "-1e-3" for an option
    report = tmp_path / "report.json"

    def outcome(*flag_args):
        argv = ["run", "--data", corpus_file, "--mode", mode, "--batch-size", "16", "--report", str(report)]
        try:
            code = run_cli(*argv, *flag_args)
        except SystemExit as exc:  # an argparse error
            code = exc.code
        return code, capsys.readouterr()

    joined = outcome(f"{flag}={value}")
    assert outcome(flag, value) == joined
    if flag == "--fixed-threshold" and value == "-inf":
        # refused before loading, as a report has no valid JSON for it
        assert joined[0] == 2
        assert "fixed_threshold must be finite" in joined[1].err
        assert not report.exists()


def test_a_flag_after_a_flag_missing_its_value_is_not_joined_to_it(corpus_file, tmp_path, capsys, monkeypatch):
    # only a number that starts with "-" is joined, so argparse still sees --eval-data without a value
    refuse_loading(monkeypatch)
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        run_cli("run", "--data", corpus_file, "--eval-data", "--report", str(report))
    assert exit_info.value.code == 2
    assert "argument --eval-data: expected one argument" in capsys.readouterr().err
    assert not report.exists()


def test_run_huge_learning_rate_exits_3(corpus_file, tmp_path, capsys):
    # a finite but huge step size overflows the warmup loss window's variance
    report_path = tmp_path / "report.json"
    code = run_cli(
        "run", "--data", corpus_file, "--mode", "three-stage", "--batch-size", "8",
        "--learning-rate", "1e300", "--report", str(report_path),
    )
    assert code == 3
    assert "non-finite loss window variance" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("mode", ["three-stage", "train-all"])
def test_run_keeps_a_given_a_full_and_scores_agot_against_it(corpus_file, tmp_path, mode):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "run", "--data", corpus_file, "--mode", mode, "--epochs", "2", "--a-full", "0.8",
        "--report", str(report_path),
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["config"]["a_full"] == 0.8
    params = metrics.AgotParams(a_base=payload["a_base"], a_full=0.8)
    assert payload["agot"] == metrics.agot(payload["accuracy"], payload["T_norm"], params)


def test_run_train_all_reports_zero_skips(corpus_file, tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "run", "--data", corpus_file, "--mode", "train-all", "--epochs", "1",
        "--report", str(report_path),
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["alpha_b"] == 0.0
    assert payload["alpha_fb"] == 0.0
    assert payload["T_norm"] == 1.0


def test_run_missing_dataset_exits_2(capsys, tmp_path):
    code = run_cli("run", "--data", str(tmp_path / "absent.jsonl"), "--mode", "train-all")
    assert code == 2
    assert capsys.readouterr().err == f"error: dataset not found: {tmp_path / 'absent.jsonl'}\n"


@pytest.mark.parametrize("flag", ["--data", "--eval-data"])
def test_run_dataset_that_is_not_a_readable_file_exits_2_before_training(
    corpus_file, tmp_path, capsys, monkeypatch, flag
):
    def no_training(*args, **kwargs):
        raise AssertionError("training started without a readable dataset")

    monkeypatch.setattr(cli, "run", no_training)
    directory = tmp_path / "data.jsonl"
    directory.mkdir()
    paths = {"--data": corpus_file, "--eval-data": corpus_file, flag: str(directory)}
    assert run_cli("run", *(item for pair in paths.items() for item in pair), "--mode", "train-all") == 2
    err = capsys.readouterr().err
    assert f"cannot read dataset {directory}" in err and "runtime error" not in err


@pytest.mark.parametrize("record, message", [
    ('{"text": 5, "label": 1}', "line 2: 'text' must be a string"),
    ('{"text": "a b", "text2": 123, "label": 1}', "line 2: 'text2' must be a string"),
    ('{"text": "a b", "label": 2}', "line 2: label out of range"),
    # a label must be a JSON integer: not a string, a float or a bool, even of value 1
    ('{"text": "a b", "label": "1"}', "line 2: label must be an integer, got '1'"),
    ('{"text": "a b", "label": 1.0}', "line 2: label must be an integer, got 1.0"),
    ('{"text": "a b", "label": true}', "line 2: label must be an integer, got True"),
    ("a b\tx", "line 2: label not an integer: 'x'"),
])
def test_run_bad_record_exits_2(tmp_path, capsys, record, message):
    # a record that is not a JSON object is a TSV row, after a good one of its own format
    if record.startswith("{"):
        path, good = tmp_path / "bad.jsonl", '{"text": "ok", "label": 0}'
    else:
        path, good = tmp_path / "bad.tsv", "ok\t0"
    path.write_text(good + "\n" + record + "\n")
    assert run_cli("run", "--data", str(path), "--mode", "train-all") == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_run_dataset_of_blank_lines_exits_2(tmp_path, capsys):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n   \n\n")
    assert run_cli("run", "--data", str(path), "--mode", "train-all") == 2
    assert capsys.readouterr().err == f"error: dataset is empty: {path}\n"


def test_run_writes_trace(corpus_file, tmp_path):
    trace_path = tmp_path / "trace.csv"
    report_path = tmp_path / "report.json"
    code = run_cli(
        "run", "--data", corpus_file, "--mode", "three-stage", "--epochs", "1",
        "--batch-size", "16", "--threshold-window", "8",
        "--trace", str(trace_path), "--report", str(report_path),
    )
    assert code == 0
    lines = trace_path.read_text().strip().split("\n")
    payload = json.loads(report_path.read_text())
    assert lines[0] == "epoch,batch,stage,decision,loss,predictor_p1"
    assert len(lines) - 1 == payload["batches_total"]


def test_run_config_file_with_flag_override(corpus_file, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# a comment\n"
        "\n"
        "  # an indented comment\n"
        "mode = train-all\n"
        "epochs = 2\n"
        "batch_size = 16  # comment\n"
        "smoothing_alpha = 0.5\n"
    )
    report_path = tmp_path / "report.json"
    code = run_cli(
        "run", "--data", corpus_file, "--config", str(cfg_path),
        "--epochs", "1", "--report", str(report_path),
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["config"]["mode"] == "train-all"  # from the file
    assert payload["config"]["epochs"] == 1  # flag wins
    assert payload["config"]["batch_size"] == 16
    assert payload["config"]["smoothing_alpha"] == 0.5


# a config file that is missing or not made of pairs, by its text (None: no file), and the message
@pytest.mark.parametrize("text, message", [
    (None, "config file not found: {path}"),
    ("# a comment\n\n  # an indented comment\nnot a pair\n", "{path}:4: expected 'key = value'"),
], ids=["missing", "not-a-pair"])
def test_run_config_file_refusal_exits_2_before_any_work(corpus_file, tmp_path, capsys, monkeypatch, text, message):
    refuse_work(monkeypatch)
    path = tmp_path / "run.cfg"
    if text is not None:
        path.write_text(text)
    assert run_cli("run", "--data", corpus_file, "--config", str(path)) == 2
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_a_config_key_given_twice_exits_2_before_loading(corpus_file, tmp_path, capsys, monkeypatch, command):
    # the later value would silently win, as a repeated grid value would run twice
    refuse_work(monkeypatch)
    cfg_path = tmp_path / "twice.cfg"
    cfg_path.write_text("learning_rate = 0.5\nlearning_rate = 0.5\nbatch_size = 16\n")
    out = ["--out", str(tmp_path / "out.csv")] if command == "sweep" else []
    assert run_cli(command, "--data", corpus_file, "--config", str(cfg_path), *out) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}:2: repeated config key 'learning_rate'\n"


def test_a_config_file_with_a_byte_order_mark_is_read_without_it(corpus_file, tmp_path):
    cfg_path = tmp_path / "bom.cfg"
    cfg_path.write_text("\ufeffmode = train-all\nepochs = 1\n", encoding="utf-8")
    assert cli._read_config_file(str(cfg_path)) == {"mode": "train-all", "epochs": 1}
    report_path = tmp_path / "report.json"
    assert run_cli("run", "--data", corpus_file, "--config", str(cfg_path), "--report", str(report_path)) == 0
    assert json.loads(report_path.read_text())["config"]["mode"] == "train-all"


def test_run_unknown_config_key_exits_2(corpus_file, tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("warp_factor = 9\n")
    assert run_cli("run", "--data", corpus_file, "--config", str(cfg_path)) == 2
    assert "unknown config key" in capsys.readouterr().err


BAD_CONFIGS = [
    # batch_decision and force_l_low were config keys once; a stale config file naming one is an unknown key
    ("batch_decision", [], "batch_decision = median"),
    ("force_l_low", [], "force_l_low = -inf"),
    ("t_forward", ["--t-forward", "0"], None),
    ("t_backward", ["--t-backward", "-1"], None),
    # shuffle, agot_epsilon, the power_*_watts and gpu_count were config keys once; the cost model is fixed now
    ("shuffle", [], "shuffle = false"),
    ("agot_epsilon", [], "agot_epsilon = 0.95"),
    ("power_cpu_watts", [], "power_cpu_watts = 100"),
    ("power_dram_watts", [], "power_dram_watts = 50"),
    ("power_gpu_watts", [], "power_gpu_watts = 250"),
    ("gpu_count", [], "gpu_count = 1"),
    ("skip_margin_gamma", ["--skip-gamma", "0"], None),
    # variance_tolerance was a config key once; a stale config file naming it is an unknown key
    ("variance_tolerance", [], "variance_tolerance = 1e-4"),
    ("smoothing_alpha", ["--smoothing-alpha", "0"], None),
    ("batch_size", [], "batch_size = 8.5"),
    # numpy cannot index with a size of 2**63 or more
    ("batch_size-huge", ["--batch-size", "10000000000000000000"], None),
    ("threshold_window-huge", ["--threshold-window", "10000000000000000000"], None),
    ("predictor_window-huge", ["--predictor-window", "10000000000000000000"], None),
    ("epochs", [], "epochs = true"),
    ("epochs-not-an-int", [], "epochs = abc"),
    ("smoothing_alpha-inf", ["--smoothing-alpha", "inf"], None),
    ("t_forward-inf", ["--t-forward", "inf"], None),
    ("learning_rate", ["--learning-rate", "inf"], None),
    ("variance_tolerance-inf", [], "variance_tolerance = inf"),
    ("a_full", ["--a-full", "7"], None),
    ("a_full-negative", ["--a-full", "-0.5"], None),
    ("random_skip_ratio", ["--mode", "random-skip", "--random-skip-ratio", "-3"], None),
    ("random_skip_ratio-missing", ["--mode", "random-skip"], None),
    # a field only one mode reads is refused under any other
    ("fixed_threshold-train-all", ["--mode", "train-all", "--fixed-threshold", "0.05"], None),
    ("random_skip_ratio-train-all", ["--mode", "train-all", "--random-skip-ratio", "0.5"], None),
]


@pytest.mark.parametrize("case, flags, config_line", BAD_CONFIGS, ids=[c[0] for c in BAD_CONFIGS])
def test_run_bad_config_exits_2_before_training(corpus_file, tmp_path, capsys, monkeypatch, case, flags, config_line):
    def no_training(*args, **kwargs):
        raise AssertionError("training started on an invalid config")

    monkeypatch.setattr(cli, "run", no_training)
    argv = ["run", "--data", corpus_file, *flags]
    if config_line is not None:
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(config_line + "\n")
        argv += ["--config", str(cfg_path)]
    assert run_cli(*argv) == 2
    field = case.partition("-")[0]
    assert field in capsys.readouterr().err


def test_run_a_time_model_priced_at_infinity_exits_2_before_the_first_pass(corpus_file, tmp_path, capsys, monkeypatch):
    # each pass time is finite, but T is not, and a report would write it as JSON's invalid Infinity
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass ran on a time model priced at infinity")

    monkeypatch.setattr("lossgate.model.TargetModel.forward", no_pass)
    report = tmp_path / "report.json"
    argv = ["run", "--data", corpus_file, "--t-forward", "1e308", "--t-backward", "1e308", "--report", str(report)]
    assert run_cli(*argv) == 2
    assert "error: t_forward and t_backward price" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command, flags", [
    ("run", ["--epochs", "1000000000"]),
    ("sweep", ["--epochs-grid", "1,1000000000"]),
    ("compare", ["--epochs", "1000000000"]),
], ids=["run", "sweep", "compare"])
def test_every_command_refuses_a_time_model_priced_at_infinity_before_the_first_run(
    corpus_file, tmp_path, capsys, monkeypatch, command, flags
):
    # one epoch at 1e300 per forward prices finitely, a billion epochs do not
    started = []

    def no_run(config, *args):
        started.append(config)
        raise AssertionError("a run started on a time model priced at infinity")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "out.csv"
    out_flag = "--report" if command == "run" else "--out"
    assert run_cli(command, "--data", corpus_file, out_flag, str(out), "--t-forward", "1e300", *flags) == 2
    assert "error: t_forward and t_backward price 1000000000 epoch(s)" in capsys.readouterr().err
    assert started == []
    assert not out.exists()


def refuse_loading(monkeypatch):
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the data for a command line it refuses")

    monkeypatch.setattr(cli, "load_dataset", no_loading)


@pytest.mark.parametrize("flag, other", [("--trace", "--report"), ("--trace", "--config")])
def test_run_refuses_an_output_that_is_another_file_it_names(corpus_file, tmp_path, capsys, monkeypatch, flag, other):
    refuse_loading(monkeypatch)
    path = tmp_path / "same.txt"
    path.write_text("mode = train-all\n")
    assert run_cli("run", "--data", corpus_file, other, str(path), flag, str(path)) == 2
    assert f"{flag} and {other} name the same file: {path}" in capsys.readouterr().err
    assert path.read_text() == "mode = train-all\n"


def refuse_work(monkeypatch):
    for name in ("run", "load_dataset", "generate_toy_corpus"):
        @functools.wraps(getattr(cli, name))  # the signature gen-toy builds its flags from
        def no_work(*args, **kwargs):
            raise AssertionError("started work on a command line it refuses")

        monkeypatch.setattr(cli, name, no_work)


# each command's output flags
OUTPUT_FLAGS = {
    "run": ["--report", "--trace"], "sweep": ["--out"], "compare": ["--out"], "gen-toy": ["--out", "--eval-out"],
}


@pytest.mark.parametrize("kind", ["directory", "in-missing-directory"])
@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in OUTPUT_FLAGS.items() for f in flags])
def test_an_output_path_that_cannot_be_written_exits_2_before_any_work(
    corpus_file, tmp_path, capsys, monkeypatch, command, flag, kind
):
    # else the write fails after all the work, and run --trace's after the report is written
    refuse_work(monkeypatch)
    (tmp_path / "dir").mkdir()
    if kind == "directory":
        bad, message = tmp_path / "dir", "names a directory"
    else:
        bad, message = tmp_path / "absent" / "out.txt", "lies in a directory that does not exist"
    argv = [command] + ([] if command == "gen-toy" else ["--data", corpus_file])
    for name in OUTPUT_FLAGS[command]:  # every other output a writable path
        argv += [name, str(bad if name == flag else tmp_path / name.lstrip("-"))]
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*argv) == 2
    assert f"error: {flag} {message}: {bad}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
def test_a_config_file_that_cannot_be_read_exits_2_before_any_work(corpus_file, tmp_path, capsys, monkeypatch, command):
    refuse_work(monkeypatch)
    out = ["--out", str(tmp_path / "out.csv")] if command == "sweep" else []
    assert run_cli(command, "--data", corpus_file, "--config", str(tmp_path), *out) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read config file {tmp_path}: Is a directory" in err and "runtime error" not in err
    assert not (tmp_path / "out.csv").exists()


def test_a_config_file_that_is_not_utf8_exits_2_before_any_work(corpus_file, tmp_path, capsys, monkeypatch):
    # the decoding error is raised while lines are read, after the file opened
    refuse_work(monkeypatch)
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"mode = \xff\xfe\n")
    assert run_cli("run", "--data", corpus_file, "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {config}: 'utf-8' codec can't decode byte 0xff")


# -- sweep -------------------------------------------------------------------------


SWEEP_ARGS = [
    "--epochs-grid", "1", "--seeds", "0,1", "--n0-grid", "0.1", "--window-grid", "4",
    "--alt-grid", "0.4,0.6", "--fixed-thresholds", "0.3", "--batch-size", "16",
    "--threshold-window", "8",
]


GOLDEN_SWEEP_HEADER = (
    "row_type,method,n0_fraction,window_w,alt,fixed_threshold,epochs,seed,"
    "accuracy,accuracy_std,alpha_b,alpha_fb,t_total,t_norm,agot,agot_optimal"
)


def test_sweep_writes_expected_rows(corpus_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--data", corpus_file, "--out", str(out), *SWEEP_ARGS)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == GOLDEN_SWEEP_HEADER
    rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in lines[1:]]
    run_rows = [r for r in rows if r["row_type"] == "run"]
    summary_rows = [r for r in rows if r["row_type"] == "summary"]
    # per seed: 1 train-all + 1 fixed + 2 three-stage = 4 runs, 2 seeds
    assert len(run_rows) == 8
    assert len(summary_rows) == 4
    marked = [r for r in run_rows if r["agot_optimal"] == "1"]
    assert len(marked) == 1
    best = float(marked[0]["agot"])
    for r in run_rows:
        if r["agot"]:
            assert float(r["agot"]) <= best + 1e-12


def test_sweep_rerun_is_byte_identical(corpus_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("sweep", "--data", corpus_file, "--out", str(out), *SWEEP_ARGS) == 0
    assert a.read_bytes() == b.read_bytes()


def record_runs(monkeypatch):
    """Make every run the CLI starts append its (config, report) to the
    returned list."""
    runs = []

    def recording_run(cfg, *data):
        report = trainer.run(cfg, *data)
        runs.append((cfg, report))
        return report

    monkeypatch.setattr(cli, "run", recording_run)
    return runs


def assert_a_full_from_train_all(runs):
    """Each train-all run scored against its own accuracy, and each other run
    took as a_full the accuracy of an earlier train-all run with its
    (epochs, seed)."""
    reference = {}
    for cfg, report in runs:
        key = (cfg.epochs, cfg.seed)
        if cfg.mode == "train-all":
            assert cfg.a_full is None
            reference[key] = report.accuracy
        else:
            assert cfg.a_full == reference[key]


def test_sweep_runs_each_config_once_in_grid_order(corpus_file, tmp_path, monkeypatch):
    runs = record_runs(monkeypatch)
    args = [*SWEEP_ARGS, "--epochs-grid", "1,2"]
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--data", corpus_file, "--out", str(out), *args) == 0
    # per (epochs, seed): train-all, then fixed 0.3, then three-stage at alt 0.4 and 0.6;
    # the blocks run seed-major and their rows are written epochs-major
    assert len(runs) == 16
    assert [cfg.mode for cfg, _ in runs[:4]] == ["train-all", "fixed-threshold", "three-stage", "three-stage"]
    assert [(cfg.epochs, cfg.seed) for cfg, _ in runs[::4]] == [(1, 0), (2, 0), (1, 1), (2, 1)]
    assert_a_full_from_train_all(runs)
    rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in out.read_text().splitlines()[1:]]
    written = [(r["epochs"], r["seed"]) for r in rows if r["row_type"] == "run"]
    assert written == [("1", "0")] * 4 + [("1", "1")] * 4 + [("2", "0")] * 4 + [("2", "1")] * 4


def count_gathers(monkeypatch) -> list[int]:
    """Make every batch partition or eval batch the CLI gathers append its
    batch size to the returned list."""
    gather, gathered = data._gathered, []

    def counting_gathered(*args):
        gathered.append(args[-1])
        return gather(*args)

    monkeypatch.setattr(data, "_gathered", counting_gathered)
    return gathered


def test_sweep_gathers_one_partition_per_seed(corpus_file, tmp_path, monkeypatch):
    # the loaded corpus keeps its last partition, which depends on the seed
    # and not on the epoch count, and the grid runs seeds outside epochs
    runs = record_runs(monkeypatch)
    gathered = count_gathers(monkeypatch)
    args = [*SWEEP_ARGS, "--epochs-grid", "1,2"]
    assert run_cli("sweep", "--data", corpus_file, "--out", str(tmp_path / "s.csv"), *args) == 0
    assert len(runs) == 16
    # each run packs its eval batch: here the whole training set, in one batch
    assert gathered.count(len(load_dataset(corpus_file))) == 16
    assert gathered.count(16) == 2


OVERRIDDEN_FLAGS = [
    *(("sweep", flag, value) for flag, value in [
        ("--mode", "random-skip"), ("--epochs", "2"), ("--seed", "9"), ("--fixed-threshold", "0.4"),
        ("--n0", "0.3"), ("--predictor-window", "6"), ("--alt", "0.2"), ("--a-full", "0.9"),
        # no sweep run reads it, whatever the mode
        ("--random-skip-ratio", "0.5"),
    ]),
    *(("compare", flag, value) for flag, value in [
        ("--mode", "train-all"), ("--seed", "9"), ("--fixed-threshold", "0.4"),
        ("--random-skip-ratio", "0.5"), ("--a-full", "0.9"),
    ]),
]


@pytest.mark.parametrize(
    "command, flag, value", OVERRIDDEN_FLAGS, ids=[f"{c}{f}" for c, f, _ in OVERRIDDEN_FLAGS]
)
def test_sweep_and_compare_refuse_the_flags_they_override(
    corpus_file, tmp_path, capsys, monkeypatch, command, flag, value
):
    refuse_loading(monkeypatch)
    out = tmp_path / "out.csv"
    assert run_cli(command, "--data", corpus_file, "--out", str(out), flag, value) == 2
    assert f"{command} sets these fields for each run, so it refuses their flags: {flag}" in capsys.readouterr().err
    assert not out.exists()


OVERRIDDEN_KEYS = [("sweep", name) for name in cli.SWEEP_SETS] + [("compare", name) for name in cli.COMPARE_SETS]


@pytest.mark.parametrize("command, name", OVERRIDDEN_KEYS, ids=[f"{c}-{n}" for c, n in OVERRIDDEN_KEYS])
def test_sweep_and_compare_refuse_the_config_keys_they_override(
    corpus_file, tmp_path, capsys, monkeypatch, command, name
):
    refuse_loading(monkeypatch)
    cfg_path, out = tmp_path / "cmd.cfg", tmp_path / "out.csv"
    cfg_path.write_text(f"{name} = {json.dumps(sample_value(cli._CONFIG_FIELDS[name]))}\n")
    assert run_cli(command, "--data", corpus_file, "--out", str(out), "--config", str(cfg_path)) == 2
    refusal = f"{command} sets these fields for each run, so it refuses their config keys: {name}"
    assert refusal in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("given", ["flag", "key"])
@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_sweep_and_compare_refuse_eval_every_epoch_as_they_write_no_curve(
    corpus_file, tmp_path, capsys, monkeypatch, command, given
):
    refuse_loading(monkeypatch)
    cfg_path, out = tmp_path / "cmd.cfg", tmp_path / "out.csv"
    cfg_path.write_text("eval_every_epoch = true\n")
    args = ["--eval-every-epoch"] if given == "flag" else ["--config", str(cfg_path)]
    assert run_cli(command, "--data", corpus_file, "--out", str(out), *args) == 2
    what = "flags: --eval-every-epoch" if given == "flag" else "config keys: eval_every_epoch"
    assert f"{command} writes no per-epoch curve, so it refuses their {what}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_sweep_and_compare_name_the_fields_they_set_before_eval_every_epoch(
    corpus_file, tmp_path, capsys, monkeypatch, command
):
    # both refusals apply; the fields the command sets for each run come first
    refuse_loading(monkeypatch)
    out = tmp_path / "out.csv"
    assert run_cli(command, "--data", corpus_file, "--out", str(out), "--seed", "9", "--eval-every-epoch") == 2
    err = capsys.readouterr().err
    assert f"{command} sets these fields for each run, so it refuses their flags: --seed" in err
    assert "per-epoch curve" not in err
    assert not out.exists()


def test_overridden_flags_cover_every_field_each_command_sets():
    sets = {"sweep": cli.SWEEP_SETS, "compare": cli.COMPARE_SETS}
    expected = {(command, cli._flag(name)) for command, names in sets.items() for name in names}
    assert {(command, flag) for command, flag, _ in OVERRIDDEN_FLAGS} == expected


GRID_CONFIGS = {
    "train-all": (TrainerConfig(mode="train-all"), (None, None, None, None)),
    "random-skip": (TrainerConfig(mode="random-skip", random_skip_ratio=0.3), (None, None, None, None)),
    "fixed-threshold": (TrainerConfig(mode="fixed-threshold", fixed_threshold=0.4), (None, None, None, 0.4)),
    "auto-threshold-only": (TrainerConfig(mode="auto-threshold-only"), (None, None, None, None)),
    "three-stage": (TrainerConfig(mode="three-stage", n0_fraction=0.2, predictor_window=6, alt=0.3), (0.2, 6, 0.3, None)),
}


@pytest.mark.parametrize("mode", GRID_CONFIGS)
def test_grid_values_name_only_the_parameters_of_the_mode(mode):
    # a fixed threshold is None outside its mode, which TrainerConfig keeps so
    cfg, expected = GRID_CONFIGS[mode]
    assert cli._grid_values(cfg) == expected


def test_grid_configs_cover_every_mode():
    assert set(GRID_CONFIGS) == set(trainer.MODES)


def test_sweep_over_cap_exits_2(corpus_file, tmp_path, capsys):
    code = run_cli(
        "sweep", "--data", corpus_file, "--out", str(tmp_path / "x.csv"),
        *SWEEP_ARGS, "--max-runs", "3",
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err


def comma_list(values) -> str:
    return ",".join(map(str, values))


def test_sweep_refuses_a_huge_grid_before_building_a_config(corpus_file, tmp_path, capsys, monkeypatch):
    def no_variant(*args, **kwargs):
        raise AssertionError("a config was built for an over-cap grid")

    monkeypatch.setattr(cli, "_variant", no_variant)
    # 100 seeds x 10 epoch counts x (1 train-all + 9 fixed + 10 x 9 x 11 three-stage) = 10**6 runs
    code = run_cli(
        "sweep", "--data", corpus_file, "--out", str(tmp_path / "x.csv"),
        "--seeds", comma_list(range(100)), "--epochs-grid", comma_list(range(1, 11)),
        "--fixed-thresholds", comma_list(t / 10 for t in range(1, 10)),
        "--n0-grid", comma_list(n / 10 for n in range(1, 11)), "--window-grid", comma_list(range(1, 10)),
        "--alt-grid", comma_list(a / 10 for a in range(1, 12)),
    )
    assert code == 2
    assert "grid has 1000000 runs, over the cap of 1000" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    [],
    ["--fixed-thresholds", ""],
    ["--seeds", "0,1,2", "--epochs-grid", "1,2", "--window-grid", "4"],
    ["--n0-grid", "0.2", "--window-grid", "4", "--alt-grid", "0.5", "--fixed-thresholds", "0.1,0.9"],
], ids=["defaults", "no-fixed", "seeds-epochs", "one-staged"])
def test_sweep_run_count_is_the_grid_length(grid):
    args = cli.build_parser().parse_args(["sweep", "--data", "x.jsonl", "--out", "x.csv", *grid])
    assert cli._sweep_run_count(args) == len(cli._sweep_grid(args, TrainerConfig()))


def test_sweep_empty_grid_exits_2(corpus_file, tmp_path):
    code = run_cli(
        "sweep", "--data", corpus_file, "--out", str(tmp_path / "x.csv"),
        "--seeds", "", "--epochs-grid", "1",
    )
    assert code == 2


REPEATED_SWEEP_GRIDS = [
    ("n0-grid", "0.1,0.1"),
    ("window-grid", "4,8,4"),
    ("alt-grid", "0.4,0.40"),
    ("fixed-thresholds", "0.3,0.3"),
    ("epochs-grid", "1,1"),
    ("seeds", "0,1,0"),
]


@pytest.mark.parametrize("flag, values", REPEATED_SWEEP_GRIDS, ids=[c[0] for c in REPEATED_SWEEP_GRIDS])
def test_sweep_repeated_grid_value_exits_2_before_training(corpus_file, tmp_path, capsys, monkeypatch, flag, values):
    runs = record_runs(monkeypatch)
    out = tmp_path / "x.csv"
    code = run_cli("sweep", "--data", corpus_file, "--out", str(out), *SWEEP_ARGS, f"--{flag}", values)
    assert code == 2
    assert f"repeated value in grid: {flag}" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


BAD_SWEEP_GRIDS = [
    ("n0-grid", "0.1,0", "n0_fraction must lie in (0, 1]"),
    ("window-grid", "4,0", "predictor_window must be >= 1"),
    ("alt-grid", "0.4,-1", "alt must be positive and finite"),
    ("epochs-grid", "1,0", "epochs must be >= 1"),
    ("seeds", "0,-1", "seed must be an integer >= 0"),
    ("fixed-thresholds", "0.3,nan", "fixed_threshold must not be NaN"),
]


@pytest.mark.parametrize("flag, values, message", BAD_SWEEP_GRIDS, ids=[c[0] for c in BAD_SWEEP_GRIDS])
def test_sweep_bad_grid_value_exits_2_before_training(corpus_file, tmp_path, capsys, monkeypatch, flag, values, message):
    # the bad value comes last in its grid, so every earlier run would train first
    runs = record_runs(monkeypatch)
    out = tmp_path / "x.csv"
    code = run_cli("sweep", "--data", corpus_file, "--out", str(out), *SWEEP_ARGS, f"--{flag}", values)
    assert code == 2
    assert message in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_sweep_refuses_an_out_path_that_resolves_to_its_data(corpus_file, tmp_path, capsys, monkeypatch):
    refuse_loading(monkeypatch)
    data = tmp_path / "toy.jsonl"
    data.write_bytes(Path(corpus_file).read_bytes())
    link = tmp_path / "sweep.csv"
    link.symlink_to(data)
    assert run_cli("sweep", "--data", str(data), "--out", str(link), *SWEEP_ARGS) == 2
    assert f"--out and --data name the same file: {link}" in capsys.readouterr().err
    assert data.read_bytes() == Path(corpus_file).read_bytes()


# -- compare -----------------------------------------------------------------------


def test_compare_outputs_matched_random_rows(corpus_file, tmp_path, capsys):
    out = tmp_path / "compare.csv"
    code = run_cli(
        "compare", "--data", corpus_file, "--seeds", "0,1", "--batch-size", "16",
        "--threshold-window", "8", "--alt", "0.6", "--fixed-thresholds", "0.3",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "method,n_seeds,accuracy_mean,accuracy_std,"
        "t_norm_mean,t_norm_std,skip_ratio_mean,matched_target_mean"
    )
    rows = [dict(zip(COMPARE_COLUMNS, line.split(","))) for line in lines[1:]]
    by_method = {r["method"]: r for r in rows}
    assert "train-all" in by_method
    assert "three-stage" in by_method
    assert "auto-threshold-only" in by_method
    assert "fixed-threshold-0.3" in by_method
    assert "random@three-stage" in by_method
    assert float(by_method["train-all"]["t_norm_mean"]) == 1.0
    assert float(by_method["train-all"]["accuracy_std"]) >= 0.0
    # the matched control targets exactly the method's realized skip ratio
    assert float(by_method["random@three-stage"]["matched_target_mean"]) == pytest.approx(
        float(by_method["three-stage"]["skip_ratio_mean"]), abs=1e-12
    )
    assert float(by_method["auto-threshold-only"]["skip_ratio_mean"]) > 0.0


def test_compare_gathers_one_partition_per_seed_for_methods_and_for_controls(corpus_file, tmp_path, monkeypatch):
    # methods and then controls run seed-major, so each seed's runs share its partition
    runs = record_runs(monkeypatch)
    gathered = count_gathers(monkeypatch)
    flags = ["--seeds", "0,1", "--batch-size", "16", "--threshold-window", "8", "--fixed-thresholds", "0.3"]
    assert run_cli("compare", "--data", corpus_file, *flags) == 0
    # 4 methods and 3 controls per seed
    assert [cfg.seed for cfg, _ in runs] == [0] * 4 + [1] * 4 + [0] * 3 + [1] * 3
    assert gathered.count(len(load_dataset(corpus_file))) == 14
    assert gathered.count(16) == 4


def test_compare_requires_seed(corpus_file, tmp_path):
    assert run_cli("compare", "--data", corpus_file, "--seeds", "") == 2


@pytest.mark.parametrize("flags", [
    ["--seeds", "0,0"],
    ["--seeds", "0,1", "--fixed-thresholds", "0.3,0.3"],
    # equal values, as sweep refuses them, though their reprs differ
    ["--seeds", "0", "--fixed-thresholds", "0,-0"],
], ids=["seeds", "thresholds", "signed-zeros"])
def test_compare_repeated_value_exits_2_before_training(corpus_file, tmp_path, capsys, monkeypatch, flags):
    runs = record_runs(monkeypatch)
    out = tmp_path / "c.csv"
    assert run_cli("compare", "--data", corpus_file, "--out", str(out), *flags) == 2
    assert "repeated value" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_compare_runs_two_close_thresholds_as_two_methods(corpus_file, tmp_path):
    # each method is named by its threshold's repr, as the sweep CSV writes it, so no two values share a name
    out = tmp_path / "c.csv"
    flags = ["--seeds", "0", "--batch-size", "16", "--threshold-window", "8", "--fixed-thresholds", "0.3,0.3000001"]
    assert run_cli("compare", "--data", corpus_file, "--out", str(out), *flags) == 0
    methods = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    for name in ("fixed-threshold-0.3", "fixed-threshold-0.3000001"):
        assert methods.count(name) == 1 and methods.count(f"random@{name}") == 1


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "0", "--fixed-thresholds", "0.3,nan"], "fixed_threshold must not be NaN"),
    (["--seeds", "0,-1"], "seed must be an integer >= 0"),
], ids=["nan-threshold", "negative-seed"])
def test_compare_bad_value_exits_2_before_training(corpus_file, tmp_path, capsys, monkeypatch, flags, message):
    runs = record_runs(monkeypatch)
    out = tmp_path / "c.csv"
    assert run_cli("compare", "--data", corpus_file, "--out", str(out), *flags) == 2
    assert message in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_compare_fills_a_full_and_survives_a_control_that_skips_everything(corpus_file, tmp_path, monkeypatch):
    runs = record_runs(monkeypatch)
    out = tmp_path / "c.csv"
    # at batch 32 every loss of this corpus is below 0.7, so fixed-threshold-0.7
    # skips every backward and its matched control skips every batch
    code = run_cli(
        "compare", "--data", corpus_file, "--seeds", "0,1", "--fixed-thresholds", "0.3,0.7",
        "--out", str(out),
    )
    assert code == 0
    assert_a_full_from_train_all(runs)
    # 5 methods and 4 controls per seed, methods first
    assert len(runs) == 18
    assert [cfg.mode for cfg, _ in runs[10:]] == ["random-skip"] * 8
    skipped_all = [report for cfg, report in runs if cfg.mode == "random-skip" and report.t_norm == 0.0]
    assert skipped_all and all(report.agot is None for report in skipped_all)
    rows = {line.split(",")[0]: line.split(",") for line in out.read_text().strip().split("\n")[1:]}
    assert rows["random@fixed-threshold-0.7"][1] == "2"
    assert float(rows["random@fixed-threshold-0.7"][6]) == 1.0
