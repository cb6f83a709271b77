import os
import signal
import subprocess
import sys
import threading

import pytest

import qreg
import qreg.cli
from qreg.cli import main
from qreg.errors import DataError

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
    # so is a config that is not UTF-8
    path, out = tmp_path / "latin1.ini", tmp_path / "out"
    path.write_bytes(b"[experiment]\nname = caf\xe9\xff\n")
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


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


def test_a_negative_zero_noise_is_the_zero_noise(config_file, tmp_path, capsys):
    runs = {}
    for noise in ("0", "-0"):
        out = tmp_path / f"noise{noise}"
        assert main(["train", "--config", str(config_file), "--out", str(out), "--noise", noise]) == 0
        runs[noise] = capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs["-0"] == runs["0"]
    assert "s=0 seed=0" in runs["0"][0]


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


def _python_m_qreg(*args, cwd, **env):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qreg.__file__)), **env)
    return subprocess.run([sys.executable, "-m", "qreg", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_python_m_qreg_is_the_cli(tmp_path, capsys):
    proc = _python_m_qreg("--help", cwd=tmp_path)
    assert proc.returncode == 0 and "noise-sweep" in proc.stdout

    out = tmp_path / "missing_out"
    proc = _python_m_qreg("train", "--config", str(tmp_path / "missing.ini"), "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and not out.exists()

    path = tmp_path / "one.ini"
    path.write_text(CONFIG.replace("seeds = 0,1", "seeds = 0").replace("epochs = 3", "epochs = 2"))
    proc = _python_m_qreg("train", "--config", str(path), "--out", str(tmp_path / "module"), cwd=tmp_path)
    assert proc.returncode == 0 and proc.stderr == ""
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "direct")]) == 0
    assert proc.stdout == capsys.readouterr().out
    files = {p.name: p.read_bytes() for p in (tmp_path / "module").iterdir()}
    assert len(files) == 2
    assert files == {p.name: p.read_bytes() for p in (tmp_path / "direct").iterdir()}


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


# command, its config and extra flags, the label of a job that fails, the
# last line, and the files written; RAISING_PRUNE fails every pruning job
RAISING_COMMANDS = [
    ("noise-sweep", PRUNING_SWEEP, [], "pruning s=0.3 seed=0",
     "2 of 4 runs failed; summaries cover the rest", ["sweep.csv", "sweep_mean.csv"]),
    ("train", PRUNING_SWEEP, ["--mode", "pruning"], "pruning s=0 seed=0", "1 of 1 runs failed", None),
    ("stability-sweep", PRUNING_SWEEP + "[stability]\nquant_bits = 4\nprune_ratios = 0.75\ndropout_rates =\n", [],
     "pruning 0.75 s=0.3 seed=0", "2 of 4 runs failed; stability.csv covers the rest", ["stability.csv"]),
    ("multitask", MULTITASK_CONFIG + "[training]\nepochs = 3\n", [], "pruning s=0.3 seed=0",
     "1 of 6 runs failed; multitask.csv covers the rest", ["multitask.csv"]),
]


@pytest.mark.parametrize("command, text, extra, label, tail, files", RAISING_COMMANDS,
                         ids=[command for command, *_ in RAISING_COMMANDS])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_job_that_raises_fails_alone_and_the_sweep_exits_3(tmp_path, threads, command, text, extra, label, tail,
                                                              files):
    path = tmp_path / "prune.ini"
    path.write_text(text)
    out = tmp_path / "out"
    env = dict(os.environ, QREG_THREADS=threads, PYTHONPATH=os.path.dirname(os.path.dirname(qreg.__file__)))
    proc = subprocess.run([sys.executable, "-c", RAISING_PRUNE, command, "--config", str(path), "--out", str(out),
                           *extra], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr == ""  # no traceback
    assert f"  {label}: FAILED (ContractError: pruning would remove every neuron" in proc.stdout
    assert proc.stdout.endswith(f"\n{tail}\n")
    if files is None:  # train: the failed run's record, and no checkpoint
        assert [name[:4] for name in os.listdir(out)] == ["run_"]
    else:
        assert sorted(os.listdir(out)) == files
    if command == "noise-sweep":
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "mode,s,seed,final_test_acc"
        assert [row.split(",")[:3] for row in rows[1:]] == [["none", "0", "0"], ["none", "0.3", "0"]]


# runs the CLI with every quantization job killing the process it runs in
KILLING_QUANT = """
import os
import sys
import qreg.cli, qreg.training

def wrap_model(model, config):
    os._exit(1)

qreg.training.wrap_model = wrap_model
sys.exit(qreg.cli.main(sys.argv[1:]))
"""


def test_a_killed_pool_worker_fails_its_jobs_and_the_sweep_exits_3(tmp_path):
    path = tmp_path / "quant.ini"
    # quantization ranks first in the fork order, so the `none` jobs start
    # while and after the quantization jobs' processes die
    path.write_text(CONFIG.replace("seeds = 0,1", "seeds = 0"))
    env = dict(os.environ, QREG_THREADS="2", PYTHONPATH=os.path.dirname(os.path.dirname(qreg.__file__)))
    outputs = []
    for rerun in range(3):
        out = tmp_path / f"out{rerun}"
        proc = subprocess.run([sys.executable, "-c", KILLING_QUANT, "noise-sweep", "--config", str(path),
                               "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        # a process that dies takes no other job with it: only the quantization jobs fail
        assert proc.returncode == 3
        assert proc.stderr == ""  # no traceback
        failed = [line.split(":")[0].strip() for line in proc.stdout.splitlines() if ": FAILED (" in line]
        assert failed == ["quantization s=0 seed=0", "quantization s=0.3 seed=0"]
        for s in ("0", "0.3"):
            assert f"quantization s={s} seed=0: FAILED (ChildProcessError: job process exited with code 1)" \
                in proc.stdout
        assert proc.stdout.endswith("2 of 4 runs failed; summaries cover the rest\n")
        assert sorted(os.listdir(out)) == ["sweep.csv", "sweep_mean.csv"]  # no temp file left
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "mode,s,seed,final_test_acc"
        assert [row.split(",")[:3] for row in rows[1:]] == [["none", "0", "0"], ["none", "0.3", "0"]]
        outputs.append({name: (out / name).read_bytes() for name in ("sweep.csv", "sweep_mean.csv")})
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_default_section_exits_2_before_any_output(config_file, tmp_path, capsys):
    config_file.write_text("[DEFAULT]\nepochs = 5\n" + CONFIG)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config_file), "--out", str(out), "--quiet"]) == 2
    assert "DEFAULT" in capsys.readouterr().err
    assert not out.exists()


def test_any_qreg_error_exits_2_with_one_line(config_file, tmp_path, capsys, monkeypatch):
    def corrupt(*args, **kwargs):
        raise DataError("state dict mismatch")

    monkeypatch.setattr(qreg.cli, "cmd_train", corrupt)
    assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: state dict mismatch\n"
    assert captured.out == ""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_diverging_job_fails_with_nothing_on_stderr(config_file, tmp_path, threads):
    config_file.write_text(CONFIG + "learning_rate = 1e300\n")  # into [training], the last section
    proc = _python_m_qreg("train", "--config", str(config_file), "--out", str(tmp_path / "out"),
                          cwd=tmp_path, QREG_THREADS=threads)
    assert proc.returncode == 3
    assert "  none s=0 seed=0: FAILED (loss diverged in epoch 1)\n" in proc.stdout
    assert proc.stdout.endswith("2 of 2 runs failed\n")
    assert proc.stderr == ""  # the FAILED lines say it all: no numpy RuntimeWarning


# runs the CLI, counting the jobs that start and end. The first quantization
# job to build its model sends a signal, once: SIGINT to the whole process
# group, as Ctrl-C does ("group"), the same once the other job has ended and
# none is left to start ("idle"), SIGINT twice to the sweep process alone, as
# `kill -INT` does ("parent-twice"), or SIGTERM to the sweep process alone, as
# `kill` and `timeout` do ("term"), while the job goes on
INTERRUPTING_QUANT = """
import os
import signal
import sys
import time
import qreg.cli, qreg.experiments, qreg.training

marks, how, sweep = sys.argv[1], sys.argv[2], os.getpid()
build_model, train, wrap_model = qreg.experiments.build_model, qreg.experiments.train, qreg.training.wrap_model

def counted_build_model(*args):
    with open(os.path.join(marks, "starts"), "a") as fh:
        fh.write("job\\n")
    return build_model(*args)

def marked_train(*args):
    result = train(*args)
    with open(os.path.join(marks, "ends"), "a") as fh:
        fh.write("job\\n")
    return result

def interrupting_wrap_model(model, config):
    try:
        os.close(os.open(os.path.join(marks, "pressed"), os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return wrap_model(model, config)
    while how == "idle" and not os.path.exists(os.path.join(marks, "ends")):
        time.sleep(0.01)
    if how == "parent-twice":
        os.kill(sweep, signal.SIGINT)
        time.sleep(0.3)  # the sweep kills this job first, so the second one is sent only if it does not
        os.kill(sweep, signal.SIGINT)
    elif how == "term":
        os.kill(sweep, signal.SIGTERM)
    else:
        time.sleep(0.2 if how == "idle" else 0.0)  # the process that ran the other job has now exited
        os.killpg(0, signal.SIGINT)
    return wrap_model(model, config)

qreg.experiments.build_model = counted_build_model
qreg.experiments.train = marked_train
qreg.training.wrap_model = interrupting_wrap_model
sys.exit(qreg.cli.main(sys.argv[3:]))
"""


def _interrupt_a_sweep(tmp_path, threads, jobs, how, code):
    path, marks, out = tmp_path / "exp.ini", tmp_path / "marks", tmp_path / "out"
    if jobs == 12:  # jobs are left to start when the first quantization job sends its signal
        path.write_text(CONFIG.replace("seeds = 0,1", "seeds = 0,1,2"))
    else:  # the `none` job ends, and then no job is left to start
        path.write_text(CONFIG.replace("seeds = 0,1", "seeds = 0").replace("0.0,0.3", "0.0"))
    marks.mkdir()
    env = dict(os.environ, QREG_THREADS=threads, PYTHONPATH=os.path.dirname(os.path.dirname(qreg.__file__)))
    # a session of its own, so a group SIGINT reaches the sweep and its job processes, never pytest
    proc = subprocess.Popen([sys.executable, "-c", INTERRUPTING_QUANT, str(marks), how, "noise-sweep",
                             "--config", str(path), "--out", str(out)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == code
    assert stderr == "interrupted\n"  # no traceback, from the sweep or from a job process
    assert stdout == ""
    assert os.listdir(out) == []  # no file, temp files included
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no job process outlived the sweep
    starts = (marks / "starts").read_text().count("job")
    assert (starts == 2) if jobs == 2 else (1 <= starts < jobs)  # no job started after the signal
    if threads == "2":
        assert starts <= 2  # one job per worker, and none waiting in a queue
    if how in ("parent-twice", "term") and threads == "2":
        assert not (marks / "ends").exists()  # the sweep killed its running jobs at once


@pytest.mark.parametrize("threads, jobs, how", [("1", 12, "group"), ("2", 12, "group"), ("2", 2, "idle"),
                                                ("2", 12, "parent-twice")])
def test_ctrl_c_stops_a_sweep_with_exit_130_and_one_line(tmp_path, threads, jobs, how):
    _interrupt_a_sweep(tmp_path, threads, jobs, how, 130)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sigterm_stops_a_sweep_with_exit_143_and_one_line(tmp_path, threads):
    _interrupt_a_sweep(tmp_path, threads, 12, "term", 143)


def test_main_restores_the_sigterm_handler_it_found_and_runs_in_any_thread(config_file, tmp_path):
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        assert main(["train", "--config", str(config_file), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert signal.getsignal(signal.SIGTERM) is handler
        # only the main thread may set a signal handler, so main in another thread sets none
        codes = []
        thread = threading.Thread(target=lambda: codes.append(
            main(["train", "--config", str(config_file), "--out", str(tmp_path / "thread"), "--quiet"])))
        thread.start()
        thread.join(timeout=120)
        assert codes == [0]
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)
