"""Loss-gated training-data filtering: skip backward passes on low-loss
batches via an automatic moving-average threshold, then skip forward passes
too via an online Naive Bayes predictor over bag-of-words features."""

from .data import (
    HASH_BUCKETS,
    Example,
    MiniBatch,
    generate_toy_corpus,
    hash_bucket,
    load_dataset,
    make_batches,
    pack,
    pack_examples,
    tokenize,
    vectorize,
    write_jsonl,
)
from .metapredictor import NaiveBayesModel, PredictorLossWindow, make_label
from .metrics import AgotParams, EnergyParams, SkipFractions, TimingModel, agot, energy_co2, t_norm, total_time
from .model import ForwardResult, TargetModel, load_checkpoint, save_checkpoint
from .threshold import ThresholdState
from .trainer import (
    RunReport,
    Stage,
    StepTrace,
    Trainer,
    TrainerConfig,
    TrainerState,
    build_epoch_batches,
    run,
    run_random_skip,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "HASH_BUCKETS",
    "AgotParams",
    "EnergyParams",
    "Example",
    "ForwardResult",
    "MiniBatch",
    "NaiveBayesModel",
    "PredictorLossWindow",
    "RunReport",
    "SkipFractions",
    "Stage",
    "StepTrace",
    "TargetModel",
    "ThresholdState",
    "TimingModel",
    "Trainer",
    "TrainerConfig",
    "TrainerState",
    "agot",
    "build_epoch_batches",
    "energy_co2",
    "generate_toy_corpus",
    "hash_bucket",
    "load_checkpoint",
    "load_dataset",
    "make_batches",
    "make_label",
    "pack",
    "pack_examples",
    "run",
    "run_random_skip",
    "save_checkpoint",
    "t_norm",
    "tokenize",
    "total_time",
    "vectorize",
    "write_jsonl",
    "write_trace",
]
