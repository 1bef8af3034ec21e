import json
import os

import pytest

from lossgate import cli
from lossgate.cli import COMPARE_COLUMNS, SWEEP_COLUMNS, main
from lossgate.data import generate_toy_corpus, load_dataset, write_jsonl


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
    assert "dataset not found" in capsys.readouterr().err


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
        "mode = train-all\n"
        "epochs = 2\n"
        "batch_size = 16  # comment\n"
        'batch_decision = "mean"\n'
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


def test_run_unknown_config_key_exits_2(corpus_file, tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("warp_factor = 9\n")
    assert run_cli("run", "--data", corpus_file, "--config", str(cfg_path)) == 2
    assert "unknown config key" in capsys.readouterr().err


BAD_CONFIGS = [
    ("batch_decision", [], "batch_decision = median"),
    ("t_forward", ["--t-forward", "0"], None),
    ("t_backward", ["--t-backward", "-1"], None),
    ("agot_epsilon", ["--agot-epsilon", "1.5"], None),
    ("skip_margin_gamma", ["--skip-gamma", "0"], None),
    ("variance_tolerance", ["--variance-tolerance", "-0.1"], None),
    ("smoothing_alpha", ["--smoothing-alpha", "0"], None),
    ("batch_size", [], "batch_size = 8.5"),
    ("epochs", [], "epochs = true"),
    ("smoothing_alpha-inf", ["--smoothing-alpha", "inf"], None),
    ("t_forward-inf", ["--t-forward", "inf"], None),
    ("learning_rate", ["--learning-rate", "inf"], None),
    ("variance_tolerance-inf", ["--variance-tolerance", "inf"], None),
    ("power_cpu_watts", ["--power-cpu", "inf"], None),
    ("a_full", ["--a-full", "7"], None),
    ("a_full-negative", ["--a-full", "-0.5"], None),
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


def test_sweep_parallel_matches_serial(corpus_file, tmp_path, monkeypatch):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli("sweep", "--data", corpus_file, "--out", str(serial), *SWEEP_ARGS) == 0
    monkeypatch.setenv("LOSSGATE_THREADS", "4")
    assert run_cli("sweep", "--data", corpus_file, "--out", str(parallel), *SWEEP_ARGS) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_over_cap_exits_2(corpus_file, tmp_path, capsys):
    code = run_cli(
        "sweep", "--data", corpus_file, "--out", str(tmp_path / "x.csv"),
        *SWEEP_ARGS, "--max-runs", "3",
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_sweep_empty_grid_exits_2(corpus_file, tmp_path):
    code = run_cli(
        "sweep", "--data", corpus_file, "--out", str(tmp_path / "x.csv"),
        "--seeds", "", "--epochs-grid", "1",
    )
    assert code == 2


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


def test_compare_requires_seed(corpus_file, tmp_path):
    assert run_cli("compare", "--data", corpus_file, "--seeds", "") == 2
