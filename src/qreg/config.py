"""INI experiment configuration: parsing, validation, fingerprinting.

Every key has a default, so the minimal valid config is an empty file. Unknown
sections or keys are errors rather than warnings; a typo that silently falls
back to a default would invalidate a whole sweep.

A job trains one resolved config; a swept variant is its own config, built
with dataclasses.replace. The fingerprint identifies a result row's
provenance: it hashes the config it is called on together with the job
coordinates (mode, noise level, and whether the multitask protocol
early-stops every mode), and deliberately leaves out everything that must not
affect the numbers being compared across runs of the same job: seeds, output
paths, the experiment name, and the lists of jobs to sweep. Records that
share a fingerprint are aggregable; records that do not are not.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .pruning import PruneSpec
from .quantization import QuantConfig
from .regularization import RegularizerConfig
from .training import MODES, TrainSettings

DATA_KINDS = ("blobs", "multitask")
PRESETS = ("mlp-small", "cnn-small", "mlp-multitask")

# section -> key -> default (as the string configparser would produce)
SCHEMA: dict[str, dict[str, str]] = {
    "experiment": {
        "name": "exp",
        "seeds": "0,1,2,3,4",
        "output_dir": "results",
        "modes": "none,weight_decay,dropout,label_smoothing,early_stopping,pruning,quantization",
        "noise_levels": "0.0,0.2,0.4",
    },
    "data": {
        "kind": "blobs",
        "num_classes": "10",
        "num_tasks": "12",
        "dim": "32",
        "train_size": "2000",
        "test_size": "1000",
        "separation": "4.5",
        "val_fraction": "0.1",
        "data_seed": "7",
        "noise_exclude_original": "false",
    },
    "model": {
        "preset": "mlp-small",
    },
    "training": {
        "epochs": "30",
        "batch_size": "64",
        "learning_rate": "0.001",
        "beta1": "0.9",
        "beta2": "0.999",
        "adam_eps": "1e-8",
    },
    "quantization": {
        "weight_bits": "4",
        "act_bits": "4",
        "boundary_bits": "8",
        "ema_momentum": "0.99",
        "keep_batchnorm": "",  # empty resolves by model preset
    },
    "regularization": {
        "weight_decay": "0.01",
        "dropout_rate": "0.1",
        "label_smoothing": "0.1",
        "early_stop_patience": "5",
        "early_stop_metric": "val_loss",
    },
    "pruning": {
        "ratio": "0.75",
        "warmup_epochs": "-1",  # -1 resolves to floor(0.25 * epochs)
        "criterion": "lowest",
    },
    "stability": {
        "quant_bits": "4,6,8",
        "prune_ratios": "0.5,0.75,0.9",
        "dropout_rates": "0.05,0.1,0.3",
    },
}


def _qualify(section: str, key: str) -> str:
    return f"{section}.{key}"


class _Reader:
    """Typed access to one section with key-precise error messages."""

    def __init__(self, section: str, values: dict[str, str]):
        self.section = section
        self.values = values

    def raw(self, key: str) -> str:
        return self.values[key]

    def string(self, key: str, choices: tuple[str, ...] | None = None) -> str:
        v = self.values[key].strip()
        if choices is not None and v not in choices:
            raise ConfigError(
                f"expected one of {', '.join(choices)}, got '{v}'",
                key=_qualify(self.section, key),
            )
        return v

    def integer(self, key: str) -> int:
        v = self.values[key].strip()
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"expected an integer, got '{v}'", key=_qualify(self.section, key)) from None

    def floating(self, key: str) -> float:
        v = self.values[key].strip()
        try:
            out = float(v)
        except ValueError:
            raise ConfigError(f"expected a number, got '{v}'", key=_qualify(self.section, key)) from None
        if not math.isfinite(out):
            raise ConfigError(f"expected a finite number, got '{v}'", key=_qualify(self.section, key))
        return out

    def boolean(self, key: str) -> bool:
        v = self.values[key].strip().lower()
        if v in ("true", "yes", "on", "1"):
            return True
        if v in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"expected true or false, got '{v}'", key=_qualify(self.section, key))

    def int_list(self, key: str, allow_empty: bool = False) -> tuple[int, ...]:
        return tuple(self._split(key, int, "integers", allow_empty))

    def float_list(self, key: str, allow_empty: bool = False) -> tuple[float, ...]:
        return tuple(self._split(key, float, "numbers", allow_empty))

    def str_list(self, key: str) -> tuple[str, ...]:
        return tuple(self._split(key, str, "names", False))

    def _split(self, key, cast, what, allow_empty):
        """The listed values. A repeat is an error: equal values, or floats
        whose `:g` labels, as the output files print them, are equal."""
        raw = self.values[key]
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            if allow_empty:
                return []
            raise ConfigError(f"expected comma-separated {what}, got '{raw}'", key=_qualify(self.section, key))
        try:
            values = [cast(p) for p in parts]
        except ValueError:
            raise ConfigError(f"expected comma-separated {what}, got '{raw}'", key=_qualify(self.section, key)) from None
        labels = [f"{v:g}" if cast is float else str(v) for v in values]
        for i, label in enumerate(labels):
            if label in labels[:i] or values[i] in values[:i]:
                raise ConfigError(f"'{label}' is listed more than once", key=_qualify(self.section, key))
        return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description; every field is validated."""

    name: str = "exp"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "results"
    modes: tuple[str, ...] = MODES
    noise_levels: tuple[float, ...] = (0.0, 0.2, 0.4)

    data_kind: str = "blobs"
    num_classes: int = 10
    num_tasks: int = 12
    dim: int = 32
    train_size: int = 2000
    test_size: int = 1000
    separation: float = 4.5
    val_fraction: float = 0.1
    data_seed: int = 7
    noise_exclude_original: bool = False

    preset: str = "mlp-small"

    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    quant: QuantConfig = field(default_factory=QuantConfig)
    reg: RegularizerConfig = field(default_factory=RegularizerConfig)
    prune: PruneSpec = field(default_factory=lambda: PruneSpec(ratio=0.75, warmup_epochs=7))

    stability_quant_bits: tuple[int, ...] = (4, 6, 8)
    stability_prune_ratios: tuple[float, ...] = (0.5, 0.75, 0.9)
    stability_dropout_rates: tuple[float, ...] = (0.05, 0.1, 0.3)

    def fingerprint(self, mode: str, noise: float, always_early_stop: bool = False) -> str:
        """12-hex-digit job identity; see the module docstring for scope."""
        payload = {
            "data": [
                self.data_kind, self.num_classes, self.num_tasks, self.dim,
                self.train_size, self.test_size, self.separation,
                self.val_fraction, self.data_seed, self.noise_exclude_original,
            ],
            "model": self.preset,
            "training": [
                self.epochs, self.batch_size, self.learning_rate,
                self.beta1, self.beta2, self.adam_eps,
            ],
            "quant": [
                self.quant.weight_bits, self.quant.act_bits, self.quant.boundary_bits,
                self.quant.ema_momentum, self.quant.keep_batchnorm,
            ],
            "reg": [
                self.reg.weight_decay, self.reg.dropout_p, self.reg.label_smoothing,
                self.reg.early_stop_patience, self.reg.early_stop_metric,
            ],
            "prune": [self.prune.ratio, self.prune.warmup_epochs, self.prune.criterion],
            # the third slot names the protocol; empty for the plain one, so
            # plain jobs keep the fingerprints (and file names) they always had
            "job": [mode, float(noise), "always_early_stop" if always_early_stop else ""],
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return digest[:12]

    def train_settings(self, mode: str, seed: int, noise: float = 0.0, *,
                       always_early_stop: bool = False) -> TrainSettings:
        """TrainSettings for one job of this config."""
        return TrainSettings(
            mode=mode,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            beta1=self.beta1,
            beta2=self.beta2,
            adam_eps=self.adam_eps,
            reg=self.reg,
            quant=self.quant if mode == "quantization" else None,
            prune=self.prune if mode == "pruning" else None,
            always_early_stop=always_early_stop,
            seed=seed,
            fingerprint=self.fingerprint(mode, noise, always_early_stop),
        )


def _collect(parser: configparser.ConfigParser) -> dict[str, dict[str, str]]:
    values = {section: dict(defaults) for section, defaults in SCHEMA.items()}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError("unknown section", key=section)
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError("unknown key", key=_qualify(section, key))
            values[section][key] = value
    return values


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as e:
        raise ConfigError(f"invalid config syntax: {e}") from None
    values = _collect(parser)

    exp = _Reader("experiment", values["experiment"])
    data = _Reader("data", values["data"])
    model = _Reader("model", values["model"])
    training = _Reader("training", values["training"])
    quant = _Reader("quantization", values["quantization"])
    reg = _Reader("regularization", values["regularization"])
    prune = _Reader("pruning", values["pruning"])
    stab = _Reader("stability", values["stability"])

    modes = exp.str_list("modes")
    for m in modes:
        if m not in MODES:
            raise ConfigError(f"unknown mode '{m}'", key="experiment.modes")
    noise_levels = exp.float_list("noise_levels")
    for s in noise_levels:
        if not 0.0 <= s < 1.0:
            raise ConfigError(f"noise levels must lie in [0, 1), got {s}", key="experiment.noise_levels")
    seeds = exp.int_list("seeds")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {min(seeds)}", key="experiment.seeds")

    kind = data.string("kind", DATA_KINDS)
    num_classes = data.integer("num_classes")
    num_tasks = data.integer("num_tasks")
    dim = data.integer("dim")
    train_size = data.integer("train_size")
    test_size = data.integer("test_size")
    separation = data.floating("separation")
    val_fraction = data.floating("val_fraction")
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}", key="data.num_classes")
    if num_tasks < 1:
        raise ConfigError(f"need at least 1 task, got {num_tasks}", key="data.num_tasks")
    if dim < 1:
        raise ConfigError(f"dim must be positive, got {dim}", key="data.dim")
    if kind == "blobs" and dim < num_classes:
        raise ConfigError(
            f"blobs need dim >= num_classes, got dim {dim} for {num_classes} classes",
            key="data.dim",
        )
    if train_size < 1 or test_size < 1:
        raise ConfigError("train_size and test_size must be positive", key="data.train_size")
    if kind == "blobs" and (train_size + test_size) % num_classes:
        raise ConfigError(
            f"train_size + test_size must divide evenly into {num_classes} classes,"
            f" got {train_size + test_size}",
            key="data.train_size",
        )
    if separation <= 0.0:
        raise ConfigError(f"separation must be positive, got {separation}", key="data.separation")
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must lie in (0, 1), got {val_fraction}", key="data.val_fraction")
    data_seed = data.integer("data_seed")
    if data_seed < 0:
        raise ConfigError(f"data_seed must be >= 0, got {data_seed}", key="data.data_seed")

    preset = model.string("preset", PRESETS)
    if (preset == "mlp-multitask") != (kind == "multitask"):
        raise ConfigError(
            f"preset '{preset}' does not fit data kind '{kind}'", key="model.preset"
        )
    epochs = training.integer("epochs")
    batch_size = training.integer("batch_size")
    learning_rate = training.floating("learning_rate")
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}", key="training.epochs")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}", key="training.batch_size")
    if learning_rate <= 0.0:
        raise ConfigError(f"learning_rate must be > 0, got {learning_rate}", key="training.learning_rate")
    betas = {key: training.floating(key) for key in ("beta1", "beta2")}
    for key, beta in betas.items():
        if not 0.0 <= beta < 1.0:
            raise ConfigError(f"{key} must lie in [0, 1), got {beta}", key=_qualify("training", key))
    adam_eps = training.floating("adam_eps")
    if adam_eps <= 0.0:
        raise ConfigError(f"adam_eps must be > 0, got {adam_eps}", key="training.adam_eps")

    for key in ("weight_bits", "act_bits", "boundary_bits"):
        bits = quant.integer(key)
        if not 2 <= bits <= 16:
            raise ConfigError(f"bit width must lie in [2, 16], got {bits}", key=_qualify("quantization", key))
    momentum = quant.floating("ema_momentum")
    if not 0.0 < momentum < 1.0:
        raise ConfigError(f"ema_momentum must lie in (0, 1), got {momentum}", key="quantization.ema_momentum")
    keep_bn_raw = quant.raw("keep_batchnorm").strip()
    keep_batchnorm = quant.boolean("keep_batchnorm") if keep_bn_raw else preset == "mlp-multitask"
    quant_cfg = QuantConfig(
        weight_bits=quant.integer("weight_bits"),
        act_bits=quant.integer("act_bits"),
        boundary_bits=quant.integer("boundary_bits"),
        ema_momentum=momentum,
        keep_batchnorm=keep_batchnorm,
    )

    wd = reg.floating("weight_decay")
    dr = reg.floating("dropout_rate")
    ls = reg.floating("label_smoothing")
    patience = reg.integer("early_stop_patience")
    metric = reg.string("early_stop_metric", ("val_loss", "val_accuracy"))
    if wd < 0.0:
        raise ConfigError(f"weight_decay must be >= 0, got {wd}", key="regularization.weight_decay")
    if not 0.0 <= dr < 1.0:
        raise ConfigError(f"dropout_rate must lie in [0, 1), got {dr}", key="regularization.dropout_rate")
    if not 0.0 <= ls < 1.0:
        raise ConfigError(f"label_smoothing must lie in [0, 1), got {ls}", key="regularization.label_smoothing")
    if patience < 0:
        raise ConfigError(f"early_stop_patience must be >= 0, got {patience}", key="regularization.early_stop_patience")
    reg_cfg = RegularizerConfig(
        weight_decay=wd, dropout_p=dr, label_smoothing=ls,
        early_stop_patience=patience, early_stop_metric=metric,
    )

    ratio = prune.floating("ratio")
    warmup = prune.integer("warmup_epochs")
    criterion = prune.string("criterion", ("lowest", "highest"))
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"ratio must lie in [0, 1), got {ratio}", key="pruning.ratio")
    if warmup == -1:
        warmup = int(0.25 * epochs)
    elif warmup < 0:
        raise ConfigError(f"warmup_epochs must be >= 0 (or -1 for automatic), got {warmup}", key="pruning.warmup_epochs")
    prune_spec = PruneSpec(ratio=ratio, warmup_epochs=warmup, criterion=criterion)

    # an empty grid disables that mode's stability sweep
    stab_bits = stab.int_list("quant_bits", allow_empty=True)
    for bits in stab_bits:
        if not 2 <= bits <= 16:
            raise ConfigError(f"bit width must lie in [2, 16], got {bits}", key="stability.quant_bits")
    stab_ratios = stab.float_list("prune_ratios", allow_empty=True)
    for r in stab_ratios:
        if not 0.0 <= r < 1.0:
            raise ConfigError(f"ratio must lie in [0, 1), got {r}", key="stability.prune_ratios")
    stab_rates = stab.float_list("dropout_rates", allow_empty=True)
    for r in stab_rates:
        if not 0.0 <= r < 1.0:
            raise ConfigError(f"dropout rate must lie in [0, 1), got {r}", key="stability.dropout_rates")

    return ExperimentConfig(
        name=exp.string("name"),
        seeds=seeds,
        output_dir=exp.string("output_dir"),
        modes=modes,
        noise_levels=noise_levels,
        data_kind=kind,
        num_classes=num_classes,
        num_tasks=num_tasks,
        dim=dim,
        train_size=train_size,
        test_size=test_size,
        separation=separation,
        val_fraction=val_fraction,
        data_seed=data_seed,
        noise_exclude_original=data.boolean("noise_exclude_original"),
        preset=preset,
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        beta1=betas["beta1"],
        beta2=betas["beta2"],
        adam_eps=adam_eps,
        quant=quant_cfg,
        reg=reg_cfg,
        prune=prune_spec,
        stability_quant_bits=stab_bits,
        stability_prune_ratios=stab_ratios,
        stability_dropout_rates=stab_rates,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    return parse_config(text)
