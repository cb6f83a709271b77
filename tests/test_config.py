import re
from dataclasses import FrozenInstanceError, replace
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreg.config import PRESETS, SCHEMA, UNHASHED, ExperimentConfig, load_config, parse_config
from qreg.errors import ConfigError
from qreg.experiments import build_model, cmd_train
from qreg.layers import BatchNorm
from qreg.quantization import wrap_model
from qreg.training import MODES

FULL = """
[experiment]
name = demo
seeds = 1,2,3
output_dir = out
modes = none,quantization
noise_levels = 0.0,0.3

[data]
kind = blobs
num_classes = 4
dim = 16
train_size = 160
test_size = 40
separation = 3.5
val_fraction = 0.2
data_seed = 11

[model]
preset = mlp-small

[training]
epochs = 8
batch_size = 16
learning_rate = 0.002

[quantization]
weight_bits = 6
act_bits = 5

[regularization]
weight_decay = 0.02
dropout_rate = 0.2

[pruning]
ratio = 0.5
warmup_epochs = 3

[stability]
quant_bits = 4,8
"""


def test_empty_config_yields_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.prune.warmup_epochs == 7  # floor(0.25 * 30)
    assert cfg.quant.keep_batchnorm is False


def test_full_config_parses_every_section():
    cfg = parse_config(FULL)
    assert cfg.name == "demo"
    assert cfg.seeds == (1, 2, 3)
    assert cfg.modes == ("none", "quantization")
    assert cfg.noise_levels == (0.0, 0.3)
    assert cfg.num_classes == 4
    assert cfg.separation == 3.5
    assert cfg.epochs == 8
    assert cfg.learning_rate == 0.002
    assert cfg.quant.weight_bits == 6
    assert cfg.quant.act_bits == 5
    assert cfg.reg.weight_decay == 0.02
    assert cfg.reg.dropout_p == 0.2
    assert cfg.prune.ratio == 0.5
    assert cfg.prune.warmup_epochs == 3
    assert cfg.stability_quant_bits == (4, 8)


def test_inline_comments_are_stripped():
    cfg = parse_config("[training]\nepochs = 5  # quick run\n")
    assert cfg.epochs == 5


def test_unknown_section_is_named_in_the_error():
    with pytest.raises(ConfigError, match="optimizer"):
        parse_config("[optimizer]\nlr = 1\n")


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nepochs = 5\n",  # once parsed silently to the default 30 epochs
    "[DEFAULT]\nepochs = 5\n[training]\nbatch_size = 16\n",
    "[DEFAULT]\nepochs = 5\n[data]\ndim = 16\n",
])
def test_a_default_section_is_an_unknown_section(text):
    with pytest.raises(ConfigError, match="'DEFAULT': unknown section"):
        parse_config(text)


def test_unknown_key_is_named_in_the_error():
    with pytest.raises(ConfigError, match="training.epohcs"):
        parse_config("[training]\nepohcs = 5\n")


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="training.epochs"):
        parse_config("[training]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="data.separation"):
        parse_config("[data]\nseparation = wide\n")
    with pytest.raises(ConfigError, match="data.noise_exclude_original"):
        parse_config("[data]\nnoise_exclude_original = maybe\n")


def test_range_validation():
    with pytest.raises(ConfigError, match="val_fraction"):
        parse_config("[data]\nval_fraction = 1.5\n")
    with pytest.raises(ConfigError, match="quantization.weight_bits"):
        parse_config("[quantization]\nweight_bits = 1\n")
    with pytest.raises(ConfigError, match="noise_levels"):
        parse_config("[experiment]\nnoise_levels = 0.0,1.0\n")
    with pytest.raises(ConfigError, match="experiment.modes"):
        parse_config("[experiment]\nmodes = none,ridge\n")
    with pytest.raises(ConfigError, match="seeds"):
        parse_config("[experiment]\nseeds = 1,1\n")


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "modes", "none,quantization,none"),
    ("experiment", "noise_levels", "0.2,0.2"),
    ("experiment", "noise_levels", "0.0,-0.0"),
    ("experiment", "seeds", "3,03"),
    ("stability", "quant_bits", "4,8,4"),
    ("stability", "prune_ratios", "0.5,0.5000001"),  # both print as 0.5
    ("stability", "dropout_rates", "0.1,0.10"),
])
def test_list_keys_reject_repeats(section, key, value):
    with pytest.raises(ConfigError, match=f"'{section}.{key}'.*more than once"):
        parse_config(f"[{section}]\n{key} = {value}\n")


def test_grid_values_with_distinct_labels_are_kept():
    cfg = parse_config("[stability]\nprune_ratios = 0.5,0.50001\n[experiment]\nnoise_levels = 0.1,0.15\n")
    assert cfg.stability_prune_ratios == (0.5, 0.50001)
    assert cfg.noise_levels == (0.1, 0.15)


@pytest.mark.parametrize("section, key, value", [
    ("training", "beta1", "1.5"),
    ("training", "beta1", "1.0"),
    ("training", "beta2", "-0.1"),
    ("training", "adam_eps", "0"),
    ("training", "adam_eps", "-1e-8"),
    ("data", "data_seed", "-1"),
    ("experiment", "seeds", "0,-1"),
])
def test_adam_and_seed_values_are_range_checked(section, key, value):
    with pytest.raises(ConfigError, match=f"'{section}.{key}'"):
        parse_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("section, key, value", [
    ("experiment", "modes", "none,ridge"),
    ("training", "epochs", "0"),
    ("training", "epochs", "-9"),  # resolves warmup_epochs = -1 to 0, not to a bad warmup
    ("training", "learning_rate", "-0.0"),
    ("quantization", "ema_momentum", "1.0"),
    ("regularization", "dropout_rate", "1.0"),  # RegularizerConfig calls it dropout_p
    ("regularization", "early_stop_metric", "val_f1"),
    ("pruning", "ratio", "1.0"),
    ("pruning", "criterion", "middle"),
    ("stability", "quant_bits", "4,17"),
    ("stability", "prune_ratios", "0.5,1.0"),
    ("stability", "dropout_rates", "-0.1"),
    ("data", "kind", "images"),
    ("data", "test_size", "0"),
])
def test_errors_of_the_dataclass_checks_name_the_ini_key(section, key, value):
    with pytest.raises(ConfigError, match=f"'{section}.{key}'"):
        parse_config(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("change, key", [
    (dict(seeds=()), "experiment.seeds"),
    (dict(seeds=(1, 1)), "experiment.seeds"),
    (dict(noise_levels=(1.0,)), "experiment.noise_levels"),
    (dict(modes=("ridge",)), "experiment.modes"),
    (dict(val_fraction=0.001), "data.val_fraction"),  # holds out none of FULL's 160 rows
    (dict(val_fraction=0.999), "data.val_fraction"),  # holds out all of them
    (dict(learning_rate=float("nan")), "training.learning_rate"),
    (dict(stability_prune_ratios=(0.5, 1.0)), "stability.prune_ratios"),
])
def test_a_replaced_config_is_checked_like_a_parsed_one(change, key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        replace(parse_config(FULL), **change)


_INTS = st.one_of(st.integers(-3, 20),
                  st.sampled_from([-2**64, -2**31, 2**31, 2**64, 10**30, 10**400, -10**400]))
_TEXT = st.text(alphabet="abnoe01.-, ", max_size=4)
_VALUES = st.one_of(
    _INTS.map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "0.0", "0.5", "1.0", "1e-300", "1e308"]),
    _TEXT,
    # a repeated list entry
    st.one_of(_INTS.map(str), _TEXT.filter(lambda t: "," not in t)).map(lambda v: f"{v},{v}"),
)


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
@settings(max_examples=40, deadline=None)
@given(value=_VALUES)
def test_one_bad_value_is_a_config_error_naming_its_section(section, key, value):
    try:
        cfg = parse_config(f"[{section}]\n{key} = {value}\n")
    except ConfigError as e:
        assert e.key is not None and e.key.startswith(f"{section}.")
        return
    assert replace(cfg, seeds=cfg.seeds) == cfg
    for mode in cfg.modes:
        cfg.train_settings(mode, 0)


def test_train_size_beyond_float_range_is_a_config_error():
    with pytest.raises(ConfigError, match="'data.train_size'"):
        parse_config("[data]\ntrain_size = 1" + "0" * 400 + "\n")


CNN_145_ROWS = "[data]\ntrain_size = 161\ntest_size = 39\nnum_classes = 4\ndim = 16\n[model]\npreset = cnn-small\n"
MULTITASK = "[data]\nkind = multitask\n[model]\npreset = mlp-multitask\n"


@pytest.mark.parametrize("text", [
    CNN_145_ROWS + "[training]\nbatch_size = 16\n",  # 145 = 9 * 16 + 1
    "[model]\npreset = cnn-small\n[training]\nbatch_size = 1\n",
    MULTITASK + "[training]\nbatch_size = 1\n",
    MULTITASK + "[training]\nbatch_size = 7\n",  # 1800 = 257 * 7 + 1
    # quantization keeps the batch norms it is told to keep
    CNN_145_ROWS + "[experiment]\nmodes = quantization\n[training]\nbatch_size = 16\n"
    "[quantization]\nkeep_batchnorm = true\n[stability]\nprune_ratios =\ndropout_rates =\n",
    # the stability sweep trains pruning, which keeps them
    CNN_145_ROWS + "[experiment]\nmodes = quantization\n[training]\nbatch_size = 16\n",
])
def test_a_one_row_minibatch_under_batch_norm_is_a_config_error(text):
    with pytest.raises(ConfigError, match="'training.batch_size'"):
        parse_config(text)


@pytest.mark.parametrize("text", [
    CNN_145_ROWS.replace("cnn-small", "mlp-small") + "[training]\nbatch_size = 16\n",  # no batch norm
    CNN_145_ROWS + "[training]\nbatch_size = 17\n",  # 145 = 8 * 17 + 9
    CNN_145_ROWS + "[experiment]\nmodes = quantization\n[training]\nbatch_size = 16\n"
    "[stability]\nprune_ratios =\ndropout_rates =\n",  # wrap_model drops the batch norms
])
def test_a_one_row_minibatch_without_batch_norm_is_accepted(text):
    parse_config(text)


def test_blob_sizes_must_divide_into_classes():
    with pytest.raises(ConfigError, match="train_size"):
        parse_config("[data]\nnum_classes = 7\ndim = 16\ntrain_size = 100\ntest_size = 1\n")


def test_preset_must_match_data_kind():
    with pytest.raises(ConfigError, match="model.preset"):
        parse_config("[data]\nkind = multitask\n[model]\npreset = mlp-small\n")
    cfg = parse_config("[data]\nkind = multitask\n[model]\npreset = mlp-multitask\n")
    assert cfg.data_kind == "multitask"


def test_keep_batchnorm_default_follows_preset():
    assert parse_config("").quant.keep_batchnorm is False
    multitask = parse_config("[data]\nkind = multitask\n[model]\npreset = mlp-multitask\n")
    assert multitask.quant.keep_batchnorm is True
    forced = parse_config(
        "[data]\nkind = multitask\n[model]\npreset = mlp-multitask\n"
        "[quantization]\nkeep_batchnorm = false\n"
    )
    assert forced.quant.keep_batchnorm is False


def test_warmup_minus_one_resolves_from_epochs():
    cfg = parse_config("[training]\nepochs = 10\n[pruning]\nwarmup_epochs = -1\n")
    assert cfg.prune.warmup_epochs == 2
    with pytest.raises(ConfigError, match="warmup_epochs"):
        parse_config("[pruning]\nwarmup_epochs = -2\n")


def test_syntax_error_is_a_config_error():
    with pytest.raises(ConfigError, match="syntax"):
        parse_config("epochs = 5\n")  # key before any section header


def test_fingerprint_ignores_seeds_name_and_outputs():
    base = parse_config(FULL)
    relabeled = parse_config(
        FULL.replace("name = demo", "name = other")
            .replace("seeds = 1,2,3", "seeds = 7,8")
            .replace("output_dir = out", "output_dir = elsewhere")
    )
    assert base.fingerprint("none", 0.0) == relabeled.fingerprint("none", 0.0)


def test_fingerprint_separates_jobs_and_configs():
    cfg = parse_config(FULL)
    prints = {
        cfg.fingerprint("none", 0.0),
        cfg.fingerprint("none", 0.2),
        cfg.fingerprint("quantization", 0.0),
        replace(cfg, quant=replace(cfg.quant, weight_bits=8)).fingerprint("quantization", 0.0),
        parse_config(FULL.replace("epochs = 8", "epochs = 9")).fingerprint("none", 0.0),
    }
    assert len(prints) == 5
    assert all(len(p) == 12 for p in prints)


def test_train_settings_wires_mode_specific_pieces():
    cfg = parse_config(FULL)
    quant = cfg.train_settings("quantization", seed=3, noise=0.3)
    assert quant.quant is cfg.quant
    assert quant.prune is None
    assert quant.seed == 3
    assert quant.fingerprint == cfg.fingerprint("quantization", 0.3)

    pruned = cfg.train_settings("pruning", seed=0)
    assert pruned.prune is cfg.prune
    assert pruned.quant is None

    plain = cfg.train_settings("none", seed=1)
    assert plain.quant is None and plain.prune is None
    assert plain.epochs == 8 and plain.batch_size == 16

    # a swept setting is a resolved config of its own, fingerprinted by its fields
    variant = replace(cfg, quant=replace(cfg.quant, weight_bits=8))
    swept = variant.train_settings("quantization", seed=3, noise=0.3)
    assert swept.quant is variant.quant and swept.quant.weight_bits == 8
    assert swept.fingerprint == variant.fingerprint("quantization", 0.3) != quant.fingerprint


def test_multitask_protocol_enters_the_fingerprint():
    cfg = parse_config(FULL)
    plain = cfg.train_settings("quantization", seed=1, noise=0.3)
    protocol = cfg.train_settings("quantization", seed=1, noise=0.3, always_early_stop=True)
    assert protocol.always_early_stop and not plain.always_early_stop
    assert protocol.fingerprint != plain.fingerprint


def test_parsed_config_is_hashable_and_frozen_throughout():
    cfg = parse_config(FULL)
    assert hash(cfg) == hash(parse_config(FULL))
    with pytest.raises(FrozenInstanceError):
        cfg.reg.weight_decay = 0.5


def test_load_config_reads_files_and_reports_missing(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(FULL)
    assert load_config(path) == parse_config(FULL)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.ini")


@pytest.mark.parametrize("mode, noise, fp", [
    ("none", 0.0, "6de6938eee22"),
    ("quantization", 0.3, "70a34b710d65"),
])
def test_cmd_train_file_names_are_pinned(tmp_path, mode, noise, fp):
    # a changed fingerprint payload would silently orphan earlier result files
    cfg = replace(parse_config(FULL), seeds=(1,))  # seeds stay out of the fingerprint
    assert cmd_train(cfg, str(tmp_path), quiet=True, mode=mode, noise=noise) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"checkpoint_{fp}_1.qreg", f"run_{fp}_1.csv"]


@pytest.mark.parametrize("text, mode, noise, always_early_stop, fp", [
    ("[model]\npreset = cnn-small\n[training]\nepochs = 9\n[pruning]\nratio = 0.3\n",
     "pruning", 0.2, False, "ce2d31791dfb"),
    ("[data]\nkind = multitask\n[model]\npreset = mlp-multitask\n[quantization]\nweight_bits = 3\n",
     "quantization", 0.4, True, "9f87ed4548d9"),
    ("[data]\nkind = multitask\n[model]\npreset = mlp-multitask\n", "none", 0.4, True, "23501104de3f"),
    ("[model]\npreset = cnn-small\n[quantization]\nkeep_batchnorm = true\nema_momentum = 0.9\n",
     "quantization", 0.0, False, "f681c0107c1a"),
    ("[regularization]\nweight_decay = 0.02\ndropout_rate = 0.2\nlabel_smoothing = 0.1\n"
     "early_stop_patience = 3\nearly_stop_metric = val_accuracy\n", "dropout", 0.3, False, "ab4038dda119"),
])
def test_fingerprints_are_pinned(text, mode, noise, always_early_stop, fp):
    # each digest names result files already written; a changed payload would orphan them
    assert parse_config(text).fingerprint(mode, noise, always_early_stop) == fp


def _reads_floats(name: str) -> bool:
    """Whether the INI key that sets field `name` is read as a number or a list of numbers."""
    like = attrgetter(name)(ExperimentConfig())
    return isinstance(like[0] if isinstance(like, tuple) else like, float)


def _parsed(text: str):
    """The repr and fingerprint of the config `text` describes, or the text of its ConfigError."""
    try:
        cfg = parse_config(text)
    except ConfigError as e:
        return str(e)
    return repr(cfg), cfg.fingerprint("none", 0.0)


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items() for k, name in keys.items()
                                          if _reads_floats(name)])
def test_a_negative_zero_reads_as_zero(section, key):
    # -0.0 == 0.0, but the two print and hash apart, so one run would get two fingerprints
    listed = isinstance(attrgetter(SCHEMA[section][key])(ExperimentConfig()), tuple)
    values = ["-0", "-0.0"] + (["0.5, -0"] if listed else [])
    for value in values:
        zero = value.replace("-", "")
        assert _parsed(f"[{section}]\n{key} = {value}\n") == _parsed(f"[{section}]\n{key} = {zero}\n"), value


@pytest.mark.parametrize("section", [s for s in SCHEMA if s not in UNHASHED])
def test_a_hashed_section_sets_top_level_fields_or_those_of_one_sub_config(section):
    # the fingerprint keys a section's values by this one owner
    assert len({name.rpartition(".")[0] for name in SCHEMA[section].values()}) == 1


# a valid non-default value for every key in SCHEMA; a key missing here fails
# the coverage test below
NON_DEFAULT = {
    "experiment.name": "other", "experiment.seeds": "1", "experiment.output_dir": "elsewhere",
    "experiment.modes": "none", "experiment.noise_levels": "0.3",
    "data.kind": "multitask", "data.num_classes": "5", "data.num_tasks": "11", "data.dim": "16",
    "data.train_size": "2010", "data.test_size": "990", "data.separation": "3.0", "data.val_fraction": "0.2",
    "data.data_seed": "8", "data.noise_exclude_original": "true",
    "model.preset": "cnn-small",
    "training.epochs": "20", "training.batch_size": "32", "training.learning_rate": "0.002",
    "training.beta1": "0.8", "training.beta2": "0.99", "training.adam_eps": "1e-7",
    "quantization.weight_bits": "6", "quantization.act_bits": "6", "quantization.boundary_bits": "7",
    "quantization.ema_momentum": "0.9", "quantization.keep_batchnorm": "true",
    "regularization.weight_decay": "0.02", "regularization.dropout_rate": "0.2",
    "regularization.label_smoothing": "0.2", "regularization.early_stop_patience": "3",
    "regularization.early_stop_metric": "val_accuracy",
    "pruning.ratio": "0.5", "pruning.warmup_epochs": "3", "pruning.criterion": "highest",
    "stability.quant_bits": "5", "stability.prune_ratios": "0.6", "stability.dropout_rates": "0.2",
}


@pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items() for k in keys])
def test_fingerprint_covers_exactly_the_keys_outside_experiment_and_stability(section, key):
    text = f"[{section}]\n{key} = {NON_DEFAULT[f'{section}.{key}']}\n"
    if (section, key) == ("data", "kind"):
        text += "[model]\npreset = mlp-multitask\n"  # the only preset that fits multitask data
    cfg, default = parse_config(text), ExperimentConfig()
    field = attrgetter(SCHEMA[section][key])
    assert field(cfg) != field(default)
    changed = cfg.fingerprint("none", 0.0) != default.fingerprint("none", 0.0)
    assert changed == (section not in ("experiment", "stability"))
    if section == "training":
        assert getattr(cfg.train_settings("none", 0), SCHEMA[section][key]) == field(cfg)


def _readme_config_table() -> list[tuple[str, str]]:
    """(section.key, default cell) of each key in the README "Configuration" table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| section.key | default | meaning |\n|---|---|---|\n")[1].split("\n\n")[0]
    rows = []
    for line in table.splitlines():
        keys, defaults = (cell.split(" / ") for cell in line.split(" | ")[:2])
        section = keys[0].strip("| `").split(".")[0]
        keys = [k.strip("| `") for k in keys[:1]] + [f"{section}.{k.strip('`')}" for k in keys[1:]]
        rows += zip(keys, defaults, strict=True)
    return rows


def test_readme_config_table_lists_the_schema_keys():
    assert sorted(key for key, _ in _readme_config_table()) == sorted(
        f"{s}.{k}" for s, keys in SCHEMA.items() for k in keys)


@pytest.mark.parametrize("key, default", [(k, d.strip("`")) for k, d in _readme_config_table()
                                          if d not in ("all seven", "by preset")])
def test_readme_config_defaults_are_the_defaults(key, default):
    section, name = key.split(".")
    assert parse_config(f"[{section}]\n{name} = {default}\n") == parse_config("")


def test_readme_layout_names_each_module_once():
    root = Path(__file__).resolve().parents[1]
    layout = (root / "README.md").read_text().split("## Layout\n\n```\n")[1].split("```")[0]
    named = re.findall(r"^  (\S+\.py)\s", layout, flags=re.MULTILINE)
    assert sorted(named) == sorted(p.name for p in (root / "src" / "qreg").glob("*.py"))


@pytest.mark.parametrize("keep", ["false", "true"])
@pytest.mark.parametrize("preset", PRESETS)
def test_the_batch_norm_rule_agrees_with_the_models(preset, keep):
    # config states by preset name which jobs train a batch norm; the builders
    # and wrap_model state it by layer type (a PerTaskNorm is a BatchNorm)
    kind = "multitask" if preset == "mlp-multitask" else "blobs"
    cfg = parse_config(f"[data]\nkind = {kind}\n[model]\npreset = {preset}\n"
                       f"[quantization]\nkeep_batchnorm = {keep}\n")
    for mode in MODES:
        model = build_model(cfg, 0, cfg.reg.dropout_p if mode == "dropout" else 0.0)
        if mode == "quantization":
            model = wrap_model(model, cfg.quant)
        has_norm = any(isinstance(layer, BatchNorm) for layer in model.layers)
        assert cfg._keeps_batchnorm(mode) == has_norm, mode
