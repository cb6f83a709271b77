import os
import subprocess
import sys

import pytest

import qreg
from qreg.cli import main

CONFIG = """
[experiment]
seeds = 0,1
modes = none,quantization
noise_levels = 0.0,0.3

[data]
num_classes = 3
dim = 8
train_size = 240
test_size = 60
separation = 4.0

[training]
epochs = 3
batch_size = 32
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return path


def test_train_subcommand(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["train", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    assert sorted(p.name[:4] for p in out.iterdir()) == ["chec", "chec", "run_", "run_"]
    stdout = capsys.readouterr().out
    assert "seed=0" in stdout and "seed=1" in stdout


def test_quiet_suppresses_progress(config_file, tmp_path, capsys):
    code = main(["train", "--config", str(config_file), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_seed_override_controls_output_files(config_file, tmp_path):
    out = tmp_path / "out"
    code = main(["train", "--config", str(config_file), "--out", str(out), "--seeds", "9"])
    assert code == 0
    names = [p.name for p in out.iterdir()]
    assert len(names) == 2
    assert all(name.endswith("_9.csv") or name.endswith("_9.qreg") for name in names)


def test_invalid_seed_override_exits_2(config_file, tmp_path, capsys):
    code = main(["train", "--config", str(config_file), "--out", str(tmp_path), "--seeds", "a,b"])
    assert code == 2
    assert "seeds" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.ini")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_output_dir_exits_2(config_file, capsys):
    code = main(["train", "--config", str(config_file), "--out", "/proc/absent/out"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_config_error_names_the_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[training]\nepohcs = 5\n")
    code = main(["train", "--config", str(path)])
    assert code == 2
    assert "training.epohcs" in capsys.readouterr().err


def test_noise_flag_validation(config_file, tmp_path, capsys):
    code = main(["train", "--config", str(config_file), "--out", str(tmp_path), "--noise", "1.5"])
    assert code == 2
    assert "noise" in capsys.readouterr().err


def test_mode_flag_selects_regularizer(config_file, tmp_path):
    out = tmp_path / "out"
    code = main(["train", "--config", str(config_file), "--out", str(out),
                 "--mode", "quantization", "--seeds", "0", "--quiet"])
    assert code == 0
    assert len(list(out.iterdir())) == 2


def test_noise_sweep_end_to_end_rerun_is_byte_identical(config_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["noise-sweep", "--config", str(config_file), "--out", str(out_a), "--quiet"]) == 0
    assert main(["noise-sweep", "--config", str(config_file), "--out", str(out_b), "--quiet"]) == 0
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    assert (out_a / "sweep_mean.csv").read_bytes() == (out_b / "sweep_mean.csv").read_bytes()


def test_default_output_dir_comes_from_config(tmp_path, monkeypatch):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.replace("seeds = 0,1", "seeds = 0\noutput_dir = from_config"))
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--config", str(path), "--quiet"]) == 0
    assert (tmp_path / "from_config").is_dir()


@pytest.mark.parametrize("value", ["two", "0", "-1", "1.5", ""])
def test_invalid_thread_count_exits_2(config_file, tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("QREG_THREADS", value)
    code = main(["train", "--config", str(config_file), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "QREG_THREADS" in capsys.readouterr().err


MULTITASK_CONFIG = """
[experiment]
seeds = 0
noise_levels = 0.3

[data]
kind = multitask
num_tasks = 3
dim = 8
train_size = 200
test_size = 50

[model]
preset = mlp-multitask
"""


@pytest.mark.parametrize("command", ["train", "noise-sweep", "stability-sweep", "multitask"])
def test_invalid_thread_count_creates_no_output_dir(config_file, tmp_path, monkeypatch, command):
    if command == "multitask":
        config_file.write_text(MULTITASK_CONFIG)
    monkeypatch.setenv("QREG_THREADS", "0")
    out = tmp_path / "out"
    assert main([command, "--config", str(config_file), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()



def _with_key(text, section, key, value):
    """`text` with `key = value` set in `[section]`, replacing any earlier setting."""
    lines = [l for l in text.splitlines() if not l.startswith(f"{key} =")]
    header = f"[{section}]"
    if header not in lines:
        lines += ["", header]
    lines.insert(lines.index(header) + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, section, key, value", [
    ("noise-sweep", "experiment", "modes", "none,none"),
    ("noise-sweep", "experiment", "noise_levels", "0.2,0.2"),
    ("stability-sweep", "stability", "quant_bits", "4,4"),
    ("stability-sweep", "stability", "prune_ratios", "0.5,0.5000001"),
    ("stability-sweep", "stability", "dropout_rates", "0.3,0.30"),
    ("train", "training", "beta1", "1.5"),
    ("noise-sweep", "training", "beta2", "1.0"),
    ("train", "training", "adam_eps", "0"),
    ("train", "data", "data_seed", "-1"),
    ("noise-sweep", "experiment", "seeds", "-1"),
    ("train", "data", "val_fraction", "0.001"),  # holds out round(0.24) = 0 of 240 rows
    ("noise-sweep", "data", "val_fraction", "0.999"),  # holds out all 240
    # within 1e-9 of 1: drops every neuron of a layer of any width
    ("noise-sweep", "pruning", "ratio", "0.999999999999"),
    ("stability-sweep", "stability", "prune_ratios", "0.5,0.999999999999"),
])
def test_bad_config_value_exits_2_before_any_output(tmp_path, capsys, command, section, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(_with_key(CONFIG, section, key, value))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


ONE_ROW_BATCH = """
[data]
train_size = 161
test_size = 39
num_classes = 4
dim = 16

[model]
preset = cnn-small

[training]
epochs = 1
batch_size = 16
"""


@pytest.mark.parametrize("command, extra", [
    ("train", []),
    ("train", ["--mode", "pruning"]),
    ("noise-sweep", []),
    ("stability-sweep", []),
])
def test_a_one_row_minibatch_under_batch_norm_exits_2_before_any_output(tmp_path, capsys, command, extra):
    # 161 - round(16.1) = 145 training rows = 9 * 16 + 1
    path = tmp_path / "bad.ini"
    path.write_text(ONE_ROW_BATCH)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--quiet"] + extra) == 2
    assert "training.batch_size" in capsys.readouterr().err
    assert not out.exists()


def test_train_mode_flag_is_checked_like_the_config(tmp_path, capsys):
    # quantization without keep_batchnorm drops cnn-small's batch norms, so a
    # one-row batch is fine there, but not for the mode --mode asks for
    path = tmp_path / "q.ini"
    path.write_text(ONE_ROW_BATCH + "[experiment]\nmodes = quantization\nseeds = 0\n"
                    "[stability]\nprune_ratios =\ndropout_rates =\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "ok"), "--quiet"]) == 0
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out), "--quiet", "--mode", "none"]) == 2
    assert "training.batch_size" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_override_exits_2(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--out", str(out), "--seeds", "1,-2"]) == 2
    assert "experiment.seeds" in capsys.readouterr().err
    assert not out.exists()


PRUNING_SWEEP = (CONFIG.replace("seeds = 0,1", "seeds = 0")
                 .replace("modes = none,quantization", "modes = none,pruning"))

# runs the CLI with prune_model raising inside every pruning job; forked
# pool workers inherit the patch
RAISING_PRUNE = """
import sys
import qreg.cli, qreg.training
from qreg.errors import ContractError

def prune_model(model, spec):
    raise ContractError("pruning would remove every neuron in a layer")

qreg.training.prune_model = prune_model
sys.exit(qreg.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_job_that_raises_fails_alone_and_the_sweep_exits_3(tmp_path, threads):
    path = tmp_path / "prune.ini"
    path.write_text(PRUNING_SWEEP)
    out = tmp_path / "out"
    env = dict(os.environ, QREG_THREADS=threads, PYTHONPATH=os.path.dirname(os.path.dirname(qreg.__file__)))
    proc = subprocess.run([sys.executable, "-c", RAISING_PRUNE, "noise-sweep", "--config", str(path), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr == ""  # no traceback
    assert "pruning s=0.3 seed=0: FAILED (ContractError: pruning would remove every neuron" in proc.stdout
    assert proc.stdout.endswith("2 of 4 runs failed; summaries cover the rest\n")
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "mode,s,seed,final_test_acc"
    assert [row.split(",")[:3] for row in rows[1:]] == [["none", "0", "0"], ["none", "0.3", "0"]]


# runs the CLI with every pruning job killing the process it runs in
KILLING_PRUNE = """
import os
import sys
import qreg.cli, qreg.training

def prune_model(model, spec):
    os._exit(1)

qreg.training.prune_model = prune_model
sys.exit(qreg.cli.main(sys.argv[1:]))
"""


def test_a_killed_pool_worker_fails_its_jobs_and_the_sweep_exits_3(tmp_path):
    path = tmp_path / "prune.ini"
    path.write_text(PRUNING_SWEEP)
    out = tmp_path / "out"
    env = dict(os.environ, QREG_THREADS="2", PYTHONPATH=os.path.dirname(os.path.dirname(qreg.__file__)))
    proc = subprocess.run([sys.executable, "-c", KILLING_PRUNE, "noise-sweep", "--config", str(path), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    # which `none` jobs the dying pool takes down with it depends on scheduling
    assert proc.returncode == 3
    assert proc.stderr == ""  # no traceback
    for s in ("0", "0.3"):
        assert f"pruning s={s} seed=0: FAILED (BrokenProcessPool: " in proc.stdout
    assert proc.stdout.endswith(" of 4 runs failed; summaries cover the rest\n")
    assert sorted(os.listdir(out)) == ["sweep.csv", "sweep_mean.csv"]  # no temp file left
    assert (out / "sweep.csv").read_text().startswith("mode,s,seed,final_test_acc\n")


def test_a_default_section_exits_2_before_any_output(config_file, tmp_path, capsys):
    config_file.write_text("[DEFAULT]\nepochs = 5\n" + CONFIG)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--out", str(out), "--quiet"]) == 2
    assert "DEFAULT" in capsys.readouterr().err
    assert not out.exists()
