"""Quantization-aware training as a regularizer against noisy labels.

A small float64 experiment stack: a reverse-mode autodiff core, dense and
convolutional layers, fake quantization with straight-through gradients,
structured magnitude pruning, classic regularizers, synthetic datasets with
controlled label corruption, and sweep commands that compare all of them
under identical conditions.
"""

from .config import ExperimentConfig, load_config, parse_config
from .data import Dataset, NoiseSpec, inject_noise, split, split_count, synth_blobs, synth_multitask
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    DomainError,
    QregError,
    TrainingError,
)
from .layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Model,
    PerTaskNorm,
    ReLU,
    build_cnn_small,
    build_mlp_multitask,
    build_mlp_small,
    forward,
)
from .losses import binary_ce_loss, cross_entropy_loss, one_hot, softmax
from .metrics import RunSummary, accuracy, aggregate_runs, binary_accuracy, f1_per_task
from .pruning import PruneSpec, prune_model
from .quantization import QuantConfig, QuantizedLayer, fake_quantize, wrap_model
from .records import EpochRow, RunRecord
from .regularization import EarlyStopper, RegularizerConfig, smooth_labels, weight_decay_loss
from .training import Adam, TrainResult, TrainSettings, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "BatchNorm",
    "ConfigError",
    "ContractError",
    "Conv2d",
    "DataError",
    "Dataset",
    "Dense",
    "DimensionError",
    "DomainError",
    "Dropout",
    "EarlyStopper",
    "EpochRow",
    "ExperimentConfig",
    "Flatten",
    "Model",
    "NoiseSpec",
    "PerTaskNorm",
    "PruneSpec",
    "QregError",
    "QuantConfig",
    "QuantizedLayer",
    "ReLU",
    "RegularizerConfig",
    "RunRecord",
    "RunSummary",
    "TrainResult",
    "TrainSettings",
    "TrainingError",
    "accuracy",
    "aggregate_runs",
    "binary_accuracy",
    "binary_ce_loss",
    "build_cnn_small",
    "build_mlp_multitask",
    "build_mlp_small",
    "cross_entropy_loss",
    "evaluate",
    "f1_per_task",
    "fake_quantize",
    "forward",
    "inject_noise",
    "load_config",
    "one_hot",
    "parse_config",
    "prune_model",
    "smooth_labels",
    "softmax",
    "split",
    "split_count",
    "synth_blobs",
    "synth_multitask",
    "train",
    "weight_decay_loss",
    "wrap_model",
]
