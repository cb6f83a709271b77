"""The benchmark's workloads and their INI generator.

Each workload is one `qreg` command run on an INI built from a workload seed.
All are closed loops with a single caller: the jobs of one command run back
to back (or across the pool for `multitask_pool`), and the next command starts
only when the previous one has exited.

The workload seed selects one of INPUT_SETS input sets (seed mod INPUT_SETS),
which sets `[experiment] seeds` and `[data] data_seed`. Folding the seed keeps
a stored reference result (reference.json) for every seed the benchmark can
be given, so every run checks its numbers, not only its shape.

Epochs are sized so one command takes about 5 s on a 2-core x86 VM, which
puts 7 to 9 iterations in a 40 s run. In `multitask_pool` the patience (10)
exceeds the epochs (7): every job runs all its epochs, so the wall time does
not hinge on when a job stops, while the best-epoch snapshots still happen.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUT_SETS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    command: str       # qreg subcommand
    threads: int       # QREG_THREADS: worker processes for the job pool
    body: str          # INI sections after [experiment] seeds / [data] data_seed
    modes: tuple[str, ...]
    noise_levels: tuple[float, ...]
    outputs: tuple[tuple[str, str], ...]  # (file, header); each has one row per job
    acc: tuple[str, str]                  # (file, column) whose mean is test_acc_mean
    why: str

    @property
    def jobs(self) -> int:
        return len(self.modes) * len(self.noise_levels)

    @property
    def first_noise(self) -> float:
        """Noise level of the command's first job; multitask runs only the harshest."""
        return max(self.noise_levels) if self.command == "multitask" else self.noise_levels[0]


SWEEP_OUTPUTS = (("sweep.csv", "mode,s,seed,final_test_acc"),
                 ("sweep_mean.csv", "mode,s,mean_acc,std_acc,gain_vs_baseline"))

WORKLOADS = {
    w.name: w
    for w in (
        # criterion-07 shape: conv2d, BatchNorm and both quantizers dominate;
        # Dense and Adam (about 10k parameters) do little
        Workload(
            name="cnn_quant",
            command="noise-sweep",
            threads=1,
            modes=("none", "quantization"),
            noise_levels=(0.2,),
            outputs=SWEEP_OUTPUTS,
            acc=("sweep.csv", "final_test_acc"),
            body="""\
[data]
kind = blobs
num_classes = 10
dim = 32
train_size = 2000
test_size = 1000
separation = 4.5

[model]
preset = cnn-small

[training]
epochs = 10
batch_size = 64
learning_rate = 0.001

[quantization]
weight_bits = 4
act_bits = 4
keep_batchnorm = true
""",
            why="cnn-small noise sweep, none vs quantization: conv2d, BatchNorm and the quantizers do most of the work",
        ),
        # Dense matmuls, graph overhead, Adam over 42k parameters and every
        # classic regularizer; no conv or BatchNorm and 1 quantized job of 7,
        # so this is the bypass case for conv, BatchNorm and quantizer changes
        Workload(
            name="mlp_modes",
            command="noise-sweep",
            threads=1,
            modes=("none", "weight_decay", "dropout", "label_smoothing",
                   "early_stopping", "pruning", "quantization"),
            noise_levels=(0.2,),
            outputs=SWEEP_OUTPUTS,
            acc=("sweep.csv", "final_test_acc"),
            body="""\
[data]
kind = blobs
num_classes = 10
dim = 32
train_size = 2000
test_size = 1000
separation = 4.5

[model]
preset = mlp-small

[training]
epochs = 7
batch_size = 64
learning_rate = 0.001
""",
            why="mlp-small noise sweep over all seven modes: Dense, autodiff, Adam and regularizers; bypasses conv, BatchNorm and most quantization",
        ),
        # criterion-08 shape: the only workload through the process pool and
        # the sigmoid / F1 / PerTaskNorm path; the last job to finish sets
        # the wall time
        Workload(
            name="multitask_pool",
            command="multitask",
            threads=2,
            modes=("none", "weight_decay", "dropout", "label_smoothing", "pruning", "quantization"),
            noise_levels=(0.3,),
            outputs=(("multitask.csv", ",".join(["mode"] + [f"f1_t{t}" for t in range(12)] + ["f1_avg"])),),
            acc=("multitask.csv", "f1_avg"),
            body="""\
[data]
kind = multitask
num_tasks = 12
dim = 24
train_size = 8000
test_size = 2000

[model]
preset = mlp-multitask

[training]
epochs = 7
batch_size = 64
learning_rate = 0.001

[regularization]
early_stop_patience = 10
""",
            why="12-task multitask table on a 2-worker process pool: pool scheduling, per-task norms, F1 and early-stopping snapshots",
        ),
    )
}


def input_set(seed: int) -> int:
    return seed % INPUT_SETS


def make_ini(workload: Workload, seed: int) -> str:
    """INI text for one workload seed; a pure function of its arguments."""
    k = input_set(seed)
    modes = ",".join(workload.modes)
    noise = ",".join(f"{s:g}" for s in workload.noise_levels)
    head = f"[experiment]\nname = {workload.name}\nseeds = {k}\nmodes = {modes}\nnoise_levels = {noise}\n\n"
    return head + workload.body.replace("[data]\n", f"[data]\ndata_seed = {k}\n", 1)
