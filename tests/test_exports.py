"""The package's import surface: its export list names only what exists, its
library objects take only the options a caller sets, and it runs on numpy
alone."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lossgate
from lossgate.data import MiniBatch, pack
from lossgate.metapredictor import NaiveBayesModel
from lossgate.metrics import EnergyParams
from lossgate.model import TargetModel
from lossgate.trainer import Trainer

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in lossgate.__all__ if not hasattr(lossgate, name)]
    assert missing == []
    assert len(set(lossgate.__all__)) == len(lossgate.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from lossgate import *", namespace)
    assert set(lossgate.__all__) <= set(namespace)


# each object's parameters; every one is set by a command, a demo, the
# benchmark or the acceptance suite, and the hash space sizes both models
PARAMETERS = {
    "TargetModel": (TargetModel, ["learning_rate"]),
    "NaiveBayesModel": (NaiveBayesModel, ["smoothing_alpha"]),
    "pack": (pack, ["buckets", "labels"]),
    "EnergyParams": (EnergyParams, ["p_cpu", "p_dram", "p_gpu", "gpu_count", "hours"]),
    "Trainer._pass": (Trainer._pass, ["self", "batch", "learn", "skip", "predictor_p1"]),
    # a batch's fields: what every consumer of a batch reads
    "MiniBatch": (MiniBatch, ["indices", "rows", "labels", "positions"]),
}


@pytest.mark.parametrize("name", PARAMETERS)
def test_each_library_object_takes_only_the_options_a_caller_sets(name):
    obj, expected = PARAMETERS[name]
    assert list(inspect.signature(obj).parameters) == expected


# generates a corpus, runs it end to end and prints every scipy module loaded
NO_SCIPY_SCRIPT = """
import sys
import lossgate.cli
assert lossgate.cli.main(["gen-toy", "--out", "toy.jsonl", "--num-examples", "200"]) == 0
assert lossgate.cli.main(["run", "--data", "toy.jsonl", "--report", "report.json", "--trace", "trace.csv"]) == 0
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_a_run_imports_no_scipy(tmp_path):
    # scipy is a test dependency only; a fresh interpreter shows what the package itself loads
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").stat().st_size > 0
