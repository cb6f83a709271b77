"""INI experiment configuration: parsing, validation, fingerprinting.

SCHEMA is the one list of sections and keys: it maps each INI key to the
ExperimentConfig field it sets. The dataclasses hold every default and every
range, so the minimal valid config is an empty file. Unknown sections or keys
are errors rather than warnings; a typo that silently falls back to a default
would invalidate a whole sweep. STABILITY_GRIDS is likewise the one table of
the stability sweep's grids: which field lists each mode's grid values, what
a value sets, and how the `hyper` column labels it.

parse_config only reads types: each key the text gives is read as the type of
its field's default and replaces that default. Which values are legal is
checked once, on construction: QuantConfig, RegularizerConfig, PruneSpec and
TrainSettings check their own fields, and ExperimentConfig.__post_init__
checks the rest, naming the INI key in a ConfigError. So every
ExperimentConfig is valid, whether parsed or built with dataclasses.replace.

A job trains one resolved config; a swept variant is its own config, built
with dataclasses.replace. The fingerprint identifies a result row's
provenance: it hashes the config it is called on together with the job
coordinates (mode, noise level, and whether the multitask protocol
early-stops every mode). Its payload is read off SCHEMA, so every key of a
hashed section enters the hash by construction, and a new section is hashed
unless UNHASHED lists it. UNHASHED holds the sections that must not affect
the numbers being compared across runs of the same job: seeds, output paths,
the experiment name, and the lists of jobs to sweep. Records that share a
fingerprint are aggregable; records that do not are not.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .errors import ConfigError, ContractError
from .pruning import PruneSpec
from .quantization import QuantConfig
from .regularization import RegularizerConfig
from .training import MODES, TrainSettings

DATA_KINDS = ("blobs", "multitask")
PRESETS = ("mlp-small", "cnn-small", "mlp-multitask")

# section -> INI key -> the ExperimentConfig field it sets; "quant.weight_bits"
# is the weight_bits field of ExperimentConfig.quant. The defaults of
# keep_batchnorm and warmup_epochs follow another key; see parse_config.
SCHEMA: dict[str, dict[str, str]] = {
    "experiment": {"name": "name", "seeds": "seeds", "output_dir": "output_dir", "modes": "modes",
                   "noise_levels": "noise_levels"},
    "data": {"kind": "data_kind", "num_classes": "num_classes", "num_tasks": "num_tasks", "dim": "dim",
             "train_size": "train_size", "test_size": "test_size", "separation": "separation",
             "val_fraction": "val_fraction", "data_seed": "data_seed",
             "noise_exclude_original": "noise_exclude_original"},
    "model": {"preset": "preset"},
    "training": {"epochs": "epochs", "batch_size": "batch_size", "learning_rate": "learning_rate",
                 "beta1": "beta1", "beta2": "beta2", "adam_eps": "adam_eps"},
    "quantization": {"weight_bits": "quant.weight_bits", "act_bits": "quant.act_bits",
                     "boundary_bits": "quant.boundary_bits", "ema_momentum": "quant.ema_momentum",
                     "keep_batchnorm": "quant.keep_batchnorm"},
    "regularization": {"weight_decay": "reg.weight_decay", "dropout_rate": "reg.dropout_p",
                       "label_smoothing": "reg.label_smoothing", "early_stop_patience": "reg.early_stop_patience",
                       "early_stop_metric": "reg.early_stop_metric"},
    "pruning": {"ratio": "prune.ratio", "warmup_epochs": "prune.warmup_epochs", "criterion": "prune.criterion"},
    "stability": {"quant_bits": "stability_quant_bits", "prune_ratios": "stability_prune_ratios",
                  "dropout_rates": "stability_dropout_rates"},
}
# the sections the fingerprint leaves out: they pick the jobs to run, not what a job computes
UNHASHED = ("experiment", "stability")

# mode -> (the ExperimentConfig field that lists its stability grid, the
# sub-config a grid value varies, the fields of it that the value sets, and
# the `hyper` label of such a sub-config as a format string)
STABILITY_GRIDS: dict[str, tuple[str, str, tuple[str, ...], str]] = {
    "quantization": ("stability_quant_bits", "quant", ("weight_bits", "act_bits"), "w{weight_bits}a{act_bits}"),
    "pruning": ("stability_prune_ratios", "prune", ("ratio",), "{ratio:g}"),
    "dropout": ("stability_dropout_rates", "reg", ("dropout_p",), "{dropout_p:g}"),
}


def _key_of(name: str) -> str:
    """The INI key, as "section.key", that sets ExperimentConfig field `name`
    ("quant.weight_bits" names a field of a sub-config)."""
    return next(f"{s}.{k}" for s, keys in SCHEMA.items() for k, f in keys.items() if f == name)


@contextmanager
def _keyed(sub: str = "", key: str | None = None):
    """Raise a ContractError as a ConfigError naming `key`, or, without it, the
    INI key that sets the field the error names (a field of sub-config `sub`, if given)."""
    try:
        yield
    except ContractError as e:
        raise ConfigError(str(e), key=key or _key_of(f"{sub}.{e.field}" if sub else e.field)) from None


def read_value(raw: str, like, key: str):
    """`raw` read as the type of `like`: bool, int, float, str, or a tuple of
    one of them, which a blank value leaves empty. A ConfigError names `key`.

    A float -0 reads as 0: the two train alike, so they must not give one
    run two fingerprints (the fingerprint hashes a float's text).
    """
    if isinstance(like, tuple):
        cast = type(like[0])
        try:
            # adding cast() (0, 0.0 or "") changes no value but a float -0
            return tuple(cast(p.strip()) + cast() for p in raw.split(",") if p.strip())
        except ValueError:
            what = {int: "integers", float: "numbers", str: "names"}[cast]
            raise ConfigError(f"expected comma-separated {what}, got '{raw}'", key=key) from None
    v = raw.strip()
    if isinstance(like, bool):
        v = v.lower()
        if v in ("true", "yes", "on", "1"):
            return True
        if v in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"expected true or false, got '{v}'", key=key)
    if isinstance(like, int):
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"expected an integer, got '{v}'", key=key) from None
    if isinstance(like, float):
        try:
            out = float(v)
        except ValueError:
            raise ConfigError(f"expected a number, got '{v}'", key=key) from None
        if not math.isfinite(out):
            raise ConfigError(f"expected a finite number, got '{v}'", key=key)
        return out + 0.0
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description, valid by construction.

    __post_init__ checks every field that belongs to no sub-config (the
    sub-configs check their own) and raises a ConfigError naming the INI key.
    """

    name: str = "exp"
    output_dir: str = "results"
    modes: tuple[str, ...] = MODES
    noise_levels: tuple[float, ...] = (0.0, 0.2, 0.4)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

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

    epochs: int = TrainSettings.epochs
    batch_size: int = TrainSettings.batch_size
    learning_rate: float = TrainSettings.learning_rate
    beta1: float = TrainSettings.beta1
    beta2: float = TrainSettings.beta2
    adam_eps: float = TrainSettings.adam_eps

    quant: QuantConfig = field(default_factory=QuantConfig)
    reg: RegularizerConfig = field(default_factory=RegularizerConfig)
    prune: PruneSpec = field(default_factory=lambda: PruneSpec(ratio=0.75, warmup_epochs=7))

    stability_quant_bits: tuple[int, ...] = (4, 6, 8)
    stability_prune_ratios: tuple[float, ...] = (0.5, 0.75, 0.9)
    stability_dropout_rates: tuple[float, ...] = (0.05, 0.1, 0.3)

    def __post_init__(self):
        grids = [grid for grid, *_ in STABILITY_GRIDS.values()]
        for name, values in vars(self).items():  # the fields, in declaration order
            if not isinstance(values, tuple):
                continue
            key = _key_of(name)
            # only a grid may be empty: an empty grid disables that mode's stability sweep
            if not values and name not in grids:
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
        if not 0 < self.val_size < self.train_size:
            raise ConfigError(
                f"val_fraction {self.val_fraction:g} of train_size {self.train_size} holds out"
                f" {self.val_size} rows; the split needs at least 1 on each side",
                key="data.val_fraction",
            )
        if self.data_seed < 0:
            raise ConfigError(f"data_seed must be >= 0, got {self.data_seed}", key="data.data_seed")

        if self.preset not in PRESETS:
            raise ConfigError(f"expected one of {', '.join(PRESETS)}, got '{self.preset}'", key="model.preset")
        if (self.preset == "mlp-multitask") != (self.data_kind == "multitask"):
            raise ConfigError(f"preset '{self.preset}' does not fit data kind '{self.data_kind}'",
                              key="model.preset")

        # the training fields: TrainSettings checks them for every job
        with _keyed():
            for mode in self.modes:
                if mode not in MODES:
                    raise ConfigError(f"unknown mode '{mode}', expected one of {MODES}", key="experiment.modes")
                self.train_settings(mode, 0)
        # a batch norm in train mode needs two rows in every minibatch
        rows = self.train_size - self.val_size
        for mode in self._trained_modes():
            if self._keeps_batchnorm(mode) and (self.batch_size == 1 or rows % self.batch_size == 1):
                raise ConfigError(
                    f"{rows} training rows in batches of {self.batch_size} leave a batch of one row,"
                    f" and {self.preset} trains a batch norm in mode '{mode}'",
                    key="training.batch_size",
                )
        # each grid value: the sub-config variant it names checks it. A grid that
        # leaves out the configured setting gets it appended as its reference
        # (experiments._stability_variants), so no value may print as its label.
        for mode, (grid, sub, sets, label) in STABILITY_GRIDS.items():
            with _keyed(key=_key_of(grid)):
                variants = self.grid(mode)
            reference = getattr(self, sub)
            taken = label.format(**vars(reference))
            if reference not in variants and taken in [label.format(**vars(v)) for v in variants]:
                keys = " and ".join(_key_of(f"{sub}.{name}") for name in sets)
                raise ConfigError(f"'{taken}' also labels the {mode} reference, {keys} as configured, "
                                  "which differs from the listed value", key=_key_of(grid))

    @property
    def val_size(self) -> int:
        """The validation rows held out of train_size, rounded as data.split rounds its fraction."""
        return int(round(self.val_fraction * self.train_size))

    def grid(self, mode: str) -> list:
        """The variants of `mode`'s sub-config that the values of its stability grid name."""
        grid, sub, sets, _ = STABILITY_GRIDS[mode]
        return [replace(getattr(self, sub), **dict.fromkeys(sets, value)) for value in getattr(self, grid)]

    def _trained_modes(self) -> tuple[str, ...]:
        """The configured modes, then those of the non-empty stability grids."""
        return self.modes + tuple(mode for mode, (grid, *_) in STABILITY_GRIDS.items()
                                  if getattr(self, grid) and mode not in self.modes)

    def _keeps_batchnorm(self, mode: str) -> bool:
        """Whether a job of `mode` trains a batch norm: per-task norms stay in
        every mode; cnn-small's drop out only under quantization without keep_batchnorm."""
        if self.preset == "cnn-small":
            return mode != "quantization" or self.quant.keep_batchnorm
        return self.preset == "mlp-multitask"

    def fingerprint(self, mode: str, noise: float, always_early_stop: bool = False) -> str:
        """12-hex-digit job identity; see the module docstring for scope.

        Each section outside UNHASHED enters the hash with its fields in SCHEMA
        order, keyed by the sub-config it sets or else by its name; the one
        field of a one-key section goes in as a scalar.
        """
        payload = {}
        for section, keys in SCHEMA.items():
            if section not in UNHASHED:
                names = tuple(keys.values())
                payload[names[0].rpartition(".")[0] or section] = attrgetter(*names)(self)
        # the third slot names the protocol; empty for the plain one, so
        # plain jobs keep the fingerprints (and file names) they always had
        payload["job"] = [mode, float(noise), "always_early_stop" if always_early_stop else ""]
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return digest[:12]

    def train_settings(self, mode: str, seed: int, noise: float = 0.0, *,
                       always_early_stop: bool = False) -> TrainSettings:
        """TrainSettings for one job of this config."""
        return TrainSettings(
            mode=mode,
            **{name: getattr(self, name) for name in SCHEMA["training"].values()},
            reg=self.reg,
            quant=self.quant if mode == "quantization" else None,
            prune=self.prune if mode == "pruning" else None,
            always_early_stop=always_early_stop,
            seed=seed,
            fingerprint=self.fingerprint(mode, noise, always_early_stop),
        )


def parse_config(text: str) -> ExperimentConfig:
    """The config an INI text describes: each key the text gives replaces its
    field's default. Only types are read here; the dataclasses check every
    value on construction (see the module docstring)."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as e:
        raise ConfigError(f"invalid config syntax: {e}") from None
    if parser.defaults():  # configparser would copy [DEFAULT] keys into every section
        raise ConfigError("unknown section", key=parser.default_section)
    defaults = ExperimentConfig()
    fields: dict = {}
    subs: dict = {"quant": {}, "reg": {}, "prune": {}}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError("unknown section", key=section)
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError("unknown key", key=f"{section}.{key}")
            name = SCHEMA[section][key]
            if name == "quant.keep_batchnorm" and not raw.strip():
                continue
            sub, _, attr = name.rpartition(".")
            (subs[sub] if sub else fields)[attr] = read_value(raw, attrgetter(name)(defaults), f"{section}.{key}")

    # the two keys whose default follows another key
    subs["quant"].setdefault("keep_batchnorm", fields.get("preset", defaults.preset) == "mlp-multitask")
    if subs["prune"].get("warmup_epochs", -1) == -1:
        # floor(0.25 * epochs); a bad epochs resolves to 0, so that ExperimentConfig reports it
        subs["prune"]["warmup_epochs"] = max(fields.get("epochs", defaults.epochs), 0) // 4
    for sub, changes in subs.items():
        with _keyed(sub):
            subs[sub] = replace(getattr(defaults, sub), **changes)
    return ExperimentConfig(**fields, **subs)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}")
    return parse_config(text)
