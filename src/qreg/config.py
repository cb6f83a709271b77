"""INI experiment configuration: parsing, validation, fingerprinting.

Every key has a default, so the minimal valid config is an empty file. Unknown
sections or keys are errors rather than warnings; a typo that silently falls
back to a default would invalidate a whole sweep.

parse_config only reads types. Which values are legal is checked once, on
construction: QuantConfig, RegularizerConfig, PruneSpec and TrainSettings
check their own fields, and ExperimentConfig.__post_init__ checks the rest,
naming the INI key in a ConfigError. So every ExperimentConfig is valid,
whether parsed or built with dataclasses.replace.

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
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .errors import ConfigError, ContractError
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


# sub-config field -> its INI key, where that is not "<section>.<field>"
_INI_KEYS = {"dropout_p": "regularization.dropout_rate", "mode": "experiment.modes"}


@contextmanager
def _keyed(section: str, key: str | None = None):
    """Raise a sub-config's ContractError as a ConfigError naming `section.key`,
    or, without `key`, the INI key of the field the error names."""
    try:
        yield
    except ContractError as e:
        name = _qualify(section, key) if key else _INI_KEYS.get(e.field, _qualify(section, e.field))
        raise ConfigError(str(e), key=name) from None


class _Reader:
    """Typed access to one section with key-precise error messages."""

    def __init__(self, section: str, values: dict[str, str]):
        self.section = section
        self.values = values

    def string(self, key: str) -> str:
        return self.values[key].strip()

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

    def int_list(self, key: str) -> tuple[int, ...]:
        return self._split(key, int, "integers")

    def float_list(self, key: str) -> tuple[float, ...]:
        return self._split(key, float, "numbers")

    def str_list(self, key: str) -> tuple[str, ...]:
        return self._split(key, str, "names")

    def _split(self, key, cast, what):
        """The listed values in order; a blank value lists none."""
        raw = self.values[key]
        try:
            return tuple(cast(p.strip()) for p in raw.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"expected comma-separated {what}, got '{raw}'", key=_qualify(self.section, key)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description, valid by construction.

    __post_init__ checks every field that belongs to no sub-config (the
    sub-configs check their own) and raises a ConfigError naming the INI key.
    """

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

    def __post_init__(self):
        lists = {
            "experiment.modes": self.modes,
            "experiment.noise_levels": self.noise_levels,
            "experiment.seeds": self.seeds,
            # may be empty: an empty grid disables that mode's stability sweep
            "stability.quant_bits": self.stability_quant_bits,
            "stability.prune_ratios": self.stability_prune_ratios,
            "stability.dropout_rates": self.stability_dropout_rates,
        }
        for key, values in lists.items():
            if not values and key.startswith("experiment."):
                raise ConfigError("must list at least one value", key=key)
            # a repeat is an equal value, or a float whose `:g` label (as the outputs print it) is taken
            labels = [f"{v:g}" if isinstance(v, float) else str(v) for v in values]
            for i, label in enumerate(labels):
                if label in labels[:i] or values[i] in values[:i]:
                    raise ConfigError(f"'{label}' is listed more than once", key=key)
        for s in self.noise_levels:
            if not 0.0 <= s < 1.0:
                raise ConfigError(f"noise levels must lie in [0, 1), got {s}", key="experiment.noise_levels")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}", key="experiment.seeds")

        if self.data_kind not in DATA_KINDS:
            raise ConfigError(f"expected one of {', '.join(DATA_KINDS)}, got '{self.data_kind}'", key="data.kind")
        blobs = self.data_kind == "blobs"
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}", key="data.num_classes")
        if self.num_tasks < 1:
            raise ConfigError(f"need at least 1 task, got {self.num_tasks}", key="data.num_tasks")
        if self.dim < 1:
            raise ConfigError(f"dim must be positive, got {self.dim}", key="data.dim")
        if blobs and self.dim < self.num_classes:
            raise ConfigError(
                f"blobs need dim >= num_classes, got dim {self.dim} for {self.num_classes} classes",
                key="data.dim",
            )
        if self.train_size < 1:
            raise ConfigError(f"train_size must be positive, got {self.train_size}", key="data.train_size")
        if self.test_size < 1:
            raise ConfigError(f"test_size must be positive, got {self.test_size}", key="data.test_size")
        total = self.train_size + self.test_size
        if blobs and total % self.num_classes:
            raise ConfigError(
                f"train_size + test_size must divide evenly into {self.num_classes} classes, got {total}",
                key="data.train_size",
            )
        if not blobs and total < 4:
            raise ConfigError(f"multitask data needs train_size + test_size >= 4, got {total}",
                              key="data.train_size")
        if not self.separation > 0.0:
            raise ConfigError(f"separation must be positive, got {self.separation}", key="data.separation")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must lie in (0, 1), got {self.val_fraction}", key="data.val_fraction")
        if self.train_size > 2**53:
            raise ConfigError(f"train_size must be at most 2**53, where float64 counts exactly, got {self.train_size}",
                              key="data.train_size")
        held_out = round(self.val_fraction * self.train_size)  # as data.split rounds it
        if not 0 < held_out < self.train_size:
            raise ConfigError(
                f"val_fraction {self.val_fraction:g} of train_size {self.train_size} holds out"
                f" {held_out} rows; the split needs at least 1 on each side",
                key="data.val_fraction",
            )
        if self.data_seed < 0:
            raise ConfigError(f"data_seed must be >= 0, got {self.data_seed}", key="data.data_seed")

        if self.preset not in PRESETS:
            raise ConfigError(f"expected one of {', '.join(PRESETS)}, got '{self.preset}'", key="model.preset")
        if (self.preset == "mlp-multitask") != (self.data_kind == "multitask"):
            raise ConfigError(f"preset '{self.preset}' does not fit data kind '{self.data_kind}'",
                              key="model.preset")

        # the mode and training fields: TrainSettings checks them for every job
        with _keyed("training"):
            for mode in self.modes:
                self.train_settings(mode, 0)
        # a batch norm in train mode needs two rows in every minibatch
        rows = self.train_size - held_out
        for mode in self._trained_modes():
            if self._keeps_batchnorm(mode) and (self.batch_size == 1 or rows % self.batch_size == 1):
                raise ConfigError(
                    f"{rows} training rows in batches of {self.batch_size} leave a batch of one row,"
                    f" and {self.preset} trains a batch norm in mode '{mode}'",
                    key="training.batch_size",
                )
        # each grid value: the sub-config variant it names checks it
        with _keyed("stability", "quant_bits"):
            for bits in self.stability_quant_bits:
                replace(self.quant, weight_bits=bits, act_bits=bits)
        with _keyed("stability", "prune_ratios"):
            for ratio in self.stability_prune_ratios:
                replace(self.prune, ratio=ratio)
        with _keyed("stability", "dropout_rates"):
            for rate in self.stability_dropout_rates:
                replace(self.reg, dropout_p=rate)

    def _trained_modes(self) -> tuple[str, ...]:
        """The configured modes, then those of the non-empty stability grids."""
        grids = (("quantization", self.stability_quant_bits), ("pruning", self.stability_prune_ratios),
                 ("dropout", self.stability_dropout_rates))
        return self.modes + tuple(mode for mode, grid in grids if grid and mode not in self.modes)

    def _keeps_batchnorm(self, mode: str) -> bool:
        """Whether a job of `mode` trains a batch norm: per-task norms stay in
        every mode; cnn-small's drop out only under quantization without keep_batchnorm."""
        if self.preset == "cnn-small":
            return mode != "quantization" or self.quant.keep_batchnorm
        return self.preset == "mlp-multitask"

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
    """The config an INI text describes. Only types are read here; the
    dataclasses check every value on construction (see the module docstring)."""
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

    preset = model.string("preset")
    epochs = training.integer("epochs")
    # the two keys whose default follows another key
    keep_batchnorm = preset == "mlp-multitask"
    if quant.string("keep_batchnorm"):
        keep_batchnorm = quant.boolean("keep_batchnorm")
    warmup = prune.integer("warmup_epochs")
    if warmup == -1:
        # floor(0.25 * epochs); a bad epochs resolves to 0, so that ExperimentConfig reports it
        warmup = max(epochs, 0) // 4

    with _keyed("quantization"):
        quant_cfg = QuantConfig(
            weight_bits=quant.integer("weight_bits"),
            act_bits=quant.integer("act_bits"),
            boundary_bits=quant.integer("boundary_bits"),
            ema_momentum=quant.floating("ema_momentum"),
            keep_batchnorm=keep_batchnorm,
        )
    with _keyed("regularization"):
        reg_cfg = RegularizerConfig(
            weight_decay=reg.floating("weight_decay"),
            dropout_p=reg.floating("dropout_rate"),
            label_smoothing=reg.floating("label_smoothing"),
            early_stop_patience=reg.integer("early_stop_patience"),
            early_stop_metric=reg.string("early_stop_metric"),
        )
    with _keyed("pruning"):
        prune_spec = PruneSpec(ratio=prune.floating("ratio"), warmup_epochs=warmup,
                               criterion=prune.string("criterion"))

    return ExperimentConfig(
        name=exp.string("name"),
        seeds=exp.int_list("seeds"),
        output_dir=exp.string("output_dir"),
        modes=exp.str_list("modes"),
        noise_levels=exp.float_list("noise_levels"),
        data_kind=data.string("kind"),
        num_classes=data.integer("num_classes"),
        num_tasks=data.integer("num_tasks"),
        dim=data.integer("dim"),
        train_size=data.integer("train_size"),
        test_size=data.integer("test_size"),
        separation=data.floating("separation"),
        val_fraction=data.floating("val_fraction"),
        data_seed=data.integer("data_seed"),
        noise_exclude_original=data.boolean("noise_exclude_original"),
        preset=preset,
        epochs=epochs,
        batch_size=training.integer("batch_size"),
        learning_rate=training.floating("learning_rate"),
        beta1=training.floating("beta1"),
        beta2=training.floating("beta2"),
        adam_eps=training.floating("adam_eps"),
        quant=quant_cfg,
        reg=reg_cfg,
        prune=prune_spec,
        stability_quant_bits=stab.int_list("quant_bits"),
        stability_prune_ratios=stab.float_list("prune_ratios"),
        stability_dropout_rates=stab.float_list("dropout_rates"),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    return parse_config(text)
