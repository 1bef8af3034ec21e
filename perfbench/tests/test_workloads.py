import copy
import json
from pathlib import Path

import pytest

import lossgate.data
import lossgate.trainer
import hostspeed
import run
import tracing
import workloads
from workloads import Inputs, Prepared, Tally

N_SMALL = 400


def small_inputs(tmp_path: Path, seed: int = 0) -> Inputs:
    train = lossgate.data.generate_toy_corpus(N_SMALL, seed=seed)
    evalset = lossgate.data.generate_toy_corpus(50, duplication=1, noise_rate=0.0, seed=seed + 1)
    inputs = Inputs(tmp_path / "train.jsonl", tmp_path / "eval.jsonl", N_SMALL)
    lossgate.data.write_jsonl(train, str(inputs.train))
    lossgate.data.write_jsonl(evalset, str(inputs.eval))
    return inputs


def small_report(workload: str, seed: int = 0) -> dict:
    examples = lossgate.data.generate_toy_corpus(N_SMALL, seed=seed)
    cfg = workloads.workload_config(workload, seed)
    return lossgate.trainer.Trainer(cfg, examples).run().to_json_dict()


def test_same_seed_writes_byte_identical_inputs(tmp_path):
    paths = {}
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        (tmp_path / name).mkdir()
        paths[name] = workloads.write_inputs(seed, tmp_path / name)
    for attr in ("train", "eval"):
        assert getattr(paths["a"], attr).read_bytes() == getattr(paths["b"], attr).read_bytes()
        assert getattr(paths["a"], attr).read_bytes() != getattr(paths["c"], attr).read_bytes()
    assert paths["a"].n_train == workloads.TRAIN_SIZE


def test_doctored_report_fails_a_check_and_raises_error_rate():
    report = small_report("train-all")
    assert workloads.check_report("train-all", 0, N_SMALL, report) == []
    doctored = copy.deepcopy(report)
    doctored["full_steps"] -= 1
    doctored["backward_skipped"] += 1
    problems = workloads.check_report("train-all", 0, N_SMALL, doctored)
    assert any("T_norm" in p for p in problems)
    assert any("train-all skipped" in p for p in problems)

    tally = Tally("train-all", 0, N_SMALL)
    tally.add(report)
    tally.add(doctored)
    tally.add(None)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_report_checks_cover_stage_rules_and_repeats():
    report = small_report("stage1-learn")
    assert workloads.check_report("stage1-learn", 0, N_SMALL, report) == []
    reached = copy.deepcopy(report)
    reached["stage_boundaries"]["full_filter_start"] = 90
    assert workloads.check_report("stage1-learn", 0, N_SMALL, reached)
    unordered = copy.deepcopy(small_report("three-stage"))
    unordered["stage_boundaries"]["full_filter_start"] = unordered["stage_boundaries"]["backward_filter_start"]
    assert any("out of order" in p for p in workloads.check_report("three-stage", 0, N_SMALL, unordered))

    tally = Tally("stage1-learn", 0, N_SMALL)
    changed = copy.deepcopy(report)
    changed["accuracy"] = report["accuracy"] / 2
    changed_overhead = copy.deepcopy(report)
    changed_overhead["overhead_wall_seconds"] += 1.0
    for output in (report, changed_overhead, changed):
        tally.add(output)
    assert (tally.attempted, tally.failed) == (3, 1)


def test_sweep_rows_are_checked_one_by_one(tmp_path):
    inputs = small_inputs(tmp_path)
    _, output = workloads.timed_call("sweep", 0, inputs, Prepared([], [], None))
    code, text = output
    assert code == 0
    assert workloads.check_sweep(N_SMALL, output) == [[] for _ in workloads.SWEEP_ROWS]

    lines = text.splitlines(keepends=True)
    fields = lines[2].split(",")
    fields[13] = repr(float(fields[13]) * 0.9)  # t_norm of the first fixed-threshold row
    doctored = (0, "".join(lines[:2] + [",".join(fields)] + lines[3:]))
    found = workloads.check_sweep(N_SMALL, doctored)
    assert [bool(p) for p in found] == [False, True, False, False, False]

    tally = Tally("sweep", 0, N_SMALL)
    tally.add(output)
    tally.add(doctored)
    tally.add((3, ""))
    assert tally.attempted == 3 * len(workloads.SWEEP_ROWS)
    assert tally.failed == 1 + len(workloads.SWEEP_ROWS)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((Path(workloads.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == workloads.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_host_speed_adjustment_uses_the_probes_around_each_interval():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.adjusted([1.0, 2.0], [ref, 2 * ref, 2 * ref]) == pytest.approx([1.0 / 1.5, 1.0])
    assert hostspeed.HostProbe().seconds() > 0.0
