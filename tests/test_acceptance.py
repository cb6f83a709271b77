"""Release acceptance suite: ten end-to-end checks of the shipped engine.

Each test is one acceptance criterion with its tolerance and time budget
stated inline; run with -v to get one pass/fail line per criterion. The
trend criteria (07, 08) train real models and dominate the runtime of the
file (roughly seven minutes on one desktop core). Expected values come from
closed-form bounds, independent recomputation, or explicit predicates over
emitted result files, never from freezing engine output.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest
from gradcheck import away_from, check_grads, conv_reference, uniform

from qreg import tensor as T
from qreg.config import load_config
from qreg.data import Dataset, NoiseSpec, inject_noise
from qreg.experiments import cmd_multitask, cmd_noise_sweep, cmd_stability_sweep, cmd_train
from qreg.layers import build_mlp_small, forward
from qreg.pruning import PruneSpec, prune_model
from qreg.quantization import QuantConfig, QuantizedLayer, fake_quantize, wrap_model
from qreg.regularization import smooth_labels


def read_csv(path: Path, expected_header: list[str]) -> list[dict]:
    """Load one result CSV, validating the exact header; the shared schema check."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == expected_header, f"{path.name}: header {header} != {expected_header}"
        rows = [dict(zip(header, row)) for row in reader]
    for row in rows:
        assert len(row) == len(expected_header), f"{path.name}: ragged row {row}"
    return rows


def test_criterion_01_quantizer_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    n = 100_000
    per_bits = n // 3 + 1
    for bits in (2, 4, 8):
        q = 2 ** (bits - 1) - 1
        lam = 10.0 ** rng.uniform(-3.0, 3.0, size=per_bits)
        x = rng.uniform(-lam, lam)
        fq = fake_quantize(x, bits, lam)
        # round-trip bound is half a grid step, exactly
        assert np.all(np.abs(fq - x) <= lam / (2.0 * q))
        # odd symmetry must hold bitwise
        np.testing.assert_array_equal(fake_quantize(-x, bits, lam), -fq)
        # monotonicity over pairs sharing a scale
        lo = np.minimum(x, -x + lam / 3.0)
        hi = np.maximum(x, -x + lam / 3.0)
        assert np.all(fake_quantize(lo, bits, lam) <= fake_quantize(hi, bits, lam))
        # the output grid has at most 2^bits - 1 distinct points per scale
        dense = np.linspace(-2.0, 2.0, 4001)
        assert np.unique(fake_quantize(dense, bits, 1.0)).size <= 2**bits - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 01 PASS: quantizer contract on {3 * per_bits} triples in {elapsed:.2f}s")


def test_criterion_02_straight_through_gradient_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    model = wrap_model(build_mlp_small(12, 5, rng), QuantConfig(weight_bits=4, act_bits=4))
    model.train_mode = True
    x = T.parameter(rng.standard_normal((8, 12)))
    out = forward(model, x)
    upstream = rng.standard_normal(out.shape)
    T.backward(T.reduce_sum(T.mul(out, T.constant(upstream))))
    pairs = 0
    for layer in model.layers:
        if isinstance(layer, QuantizedLayer):
            for below, above in layer.last_ste_pairs:
                assert above.grad is not None and below.grad is not None
                np.testing.assert_array_equal(below.grad, above.grad)
                pairs += 1
    assert pairs == 6  # an activation and a weight quantizer on each of 3 layers
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 02 PASS: {pairs} quantize nodes pass gradients through bitwise in {elapsed:.2f}s")


def test_criterion_03_autodiff_matches_finite_differences():
    # Every differentiable op, 100 random instances each, against central
    # differences. straight_through is excluded by construction: its defined
    # gradient is the identity, which criterion 02 checks bitwise (the true
    # derivative of a rounding forward is zero almost everywhere).
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n = 100

    def dims(k=2, lo=2, hi=5):
        return tuple(int(d) for d in rng.integers(lo, hi, size=k))

    for _ in range(n):
        s = dims()
        for op_node, op_np in ((T.add, np.add), (T.sub, np.subtract), (T.mul, np.multiply)):
            check_grads(op_node, op_np, [uniform(rng, s), uniform(rng, s)], rng)
        m, k, p = dims(3)
        check_grads(T.matmul, np.matmul, [uniform(rng, (m, k)), uniform(rng, (k, p))], rng)
        check_grads(T.transpose, np.transpose, [uniform(rng, dims())], rng)
        r, c = dims()
        check_grads(
            lambda a: T.reshape(a, (c, r)), lambda v: v.reshape(c, r), [uniform(rng, (r, c))], rng
        )
        check_grads(T.relu, lambda v: np.maximum(v, 0.0), [away_from(uniform(rng, dims()), [0.0])], rng)
        check_grads(T.sigmoid, lambda v: 1.0 / (1.0 + np.exp(-v)), [uniform(rng, dims())], rng)
        check_grads(T.exp, np.exp, [uniform(rng, dims())], rng)
        check_grads(T.log, np.log, [uniform(rng, dims(), 0.1, 3.0)], rng)
        e = float(rng.choice([1.5, 2.0, 3.0]))
        check_grads(lambda a: T.power(a, e), lambda v: v**e, [uniform(rng, dims(), 0.2, 2.0)], rng)
        check_grads(
            lambda a: T.clamp(a, -1.0, 1.0),
            lambda v: np.clip(v, -1.0, 1.0),
            [away_from(uniform(rng, dims()), [-1.0, 1.0])],
            rng,
        )
        axis = [None, 0, 1, (0, 1)][int(rng.integers(4))]
        check_grads(
            lambda a: T.reduce_sum(a, axis=axis), lambda v: v.sum(axis=axis), [uniform(rng, dims())], rng
        )
        check_grads(
            lambda a: T.reduce_mean(a, axis=axis), lambda v: v.mean(axis=axis), [uniform(rng, dims())], rng
        )
        stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        check_grads(
            lambda xn, wn: T.conv2d(xn, wn, stride, padding),
            lambda xv, wv: conv_reference(xv, wv, stride, padding),
            [uniform(rng, (1, 2, 4, 4)), uniform(rng, (2, 2, 2, 2))],
            rng,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 03 PASS: 15 ops x {n} instances vs central differences in {elapsed:.1f}s")


def test_criterion_04_label_smoothing_two_class_values():
    binary = np.array([[0, 1, 1, 0], [1, 0, 0, 1]], dtype=np.float64)
    smoothed = smooth_labels(binary, 0.1, 2)
    # exact arithmetic of the blend toward uniform
    np.testing.assert_array_equal(smoothed, (1.0 - 0.1) * binary + 0.1 / 2.0)
    assert np.all(np.abs(np.where(binary == 1.0, smoothed - 0.95, smoothed - 0.05)) <= 1e-12)
    one_hot = np.eye(2)[np.array([0, 1, 1, 0])]
    rows = smooth_labels(one_hot, 0.1, 2)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.abs(np.sort(rows, axis=1) - np.array([0.05, 0.95])) <= 1e-12)
    print("criterion 04 PASS: alpha=0.1, C=2 maps {0,1} to {0.05, 0.95}, rows sum to 1 within 1e-12")


def test_criterion_05_noise_injection_statistics():
    t0 = time.perf_counter()
    n, s, c = 100_000, 0.4, 10
    rng = np.random.default_rng(3)
    ds = Dataset(np.zeros((n, 1)), rng.integers(0, c, size=n), num_classes=c)
    noisy, idx = inject_noise(ds, NoiseSpec(fraction=s, seed=17))
    assert len(idx) == round(s * n) == 40_000
    changed = float(np.mean(noisy.labels != ds.labels))
    assert 0.35 <= changed <= 0.37  # expectation s*(1 - 1/C) = 0.36
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 05 PASS: changed fraction {changed:.4f} in [0.35, 0.37], count exact, {elapsed:.2f}s")


def test_criterion_06_structured_pruning_contract():
    rng = np.random.default_rng(41)
    model = build_mlp_small(12, 10, rng)
    ratio = 0.75
    pruned = prune_model(model, PruneSpec(ratio=ratio))

    # survivor sets recomputed independently from the original weights; the
    # dense layers of this preset sit at indices 0, 2 (hidden) and 4 (head)
    def survivors(layer_index):
        w = model.layers[layer_index].weight.value
        removed = np.argsort(np.abs(w).sum(axis=1), kind="stable")[: math.floor(ratio * w.shape[0])]
        return np.setdiff1d(np.arange(w.shape[0]), removed), removed

    kept0, removed0 = survivors(0)
    kept2, removed2 = survivors(2)
    assert pruned.layers[0].out_features == 256 - math.floor(ratio * 256) == 64
    assert pruned.layers[2].out_features == 128 - math.floor(ratio * 128) == 32
    assert pruned.layers[4].out_features == 10  # the head keeps every class
    np.testing.assert_array_equal(pruned.layers[0].weight.value, model.layers[0].weight.value[kept0])
    np.testing.assert_array_equal(
        pruned.layers[2].weight.value, model.layers[2].weight.value[kept2][:, kept0]
    )
    np.testing.assert_array_equal(pruned.layers[4].weight.value, model.layers[4].weight.value[:, kept2])

    masked = build_mlp_small(12, 10, np.random.default_rng(41))
    masked.load_state_dict(model.state_dict())
    for li, removed in ((0, removed0), (2, removed2)):
        masked.layers[li].weight.value[removed] = 0.0
        masked.layers[li].bias.value[removed] = 0.0
    x = np.random.default_rng(5).standard_normal((32, 12))
    np.testing.assert_allclose(forward(pruned, x).value, forward(masked, x).value, rtol=0, atol=1e-9)
    print("criterion 06 PASS: ratio 0.75 removes floor(0.75*F) lowest-L1 neurons; forward matches zero-masked original within 1e-9")


NOISE_TREND_INI = """
[experiment]
name = noise-robustness
seeds = 0,1,2,3,4
modes = none,quantization
noise_levels = 0.0,0.2,0.4

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
epochs = 60
batch_size = 64
learning_rate = 0.001

[quantization]
weight_bits = 4
act_bits = 4
; normalization keeps activation ranges pinned, so the 15-level 4-bit
; activation grid binds as a capacity constraint under label noise
keep_batchnorm = true
"""


@pytest.mark.slow
def test_criterion_07_noise_robustness_trend(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "noise.ini"
    cfg_path.write_text(NOISE_TREND_INI)
    out = tmp_path / "out"
    assert cmd_noise_sweep(load_config(cfg_path), out, quiet=True) == 0
    rows = read_csv(out / "sweep_mean.csv", ["mode", "s", "mean_acc", "std_acc", "gain_vs_baseline"])
    cells = {(r["mode"], r["s"]): r for r in rows}
    clean_baseline = float(cells[("none", "0")]["mean_acc"])
    assert 0.85 <= clean_baseline <= 0.95
    gain = {s: float(cells[("quantization", s)]["gain_vs_baseline"]) for s in ("0", "0.2", "0.4")}
    assert gain["0.2"] > 0.0
    assert gain["0.4"] > 0.0
    assert gain["0.4"] > gain["0"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"criterion 07 PASS: clean baseline {clean_baseline:.3f}; quantization gains "
        f"{gain['0']:+.4f} (s=0) {gain['0.2']:+.4f} (s=0.2) {gain['0.4']:+.4f} (s=0.4) in {elapsed:.0f}s"
    )


MULTITASK_TREND_INI = """
[experiment]
name = multitask-f1
seeds = 0,1,2,3,4
noise_levels = 0.3

[data]
kind = multitask
num_tasks = 12
dim = 24
train_size = 8000
test_size = 2000

[model]
preset = mlp-multitask

[training]
epochs = 60
batch_size = 64
learning_rate = 0.001

[regularization]
early_stop_patience = 10
"""


@pytest.mark.slow
def test_criterion_08_multitask_f1_trend(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "multi.ini"
    cfg_path.write_text(MULTITASK_TREND_INI)
    out = tmp_path / "out"
    assert cmd_multitask(load_config(cfg_path), out, quiet=True) == 0
    header = ["mode"] + [f"f1_t{t}" for t in range(12)] + ["f1_avg"]
    rows = {r["mode"]: r for r in read_csv(out / "multitask.csv", header)}
    per_task = {
        mode: np.array([float(rows[mode][f"f1_t{t}"]) for t in range(12)])
        for mode in ("none", "quantization")
    }
    avg = {mode: float(rows[mode]["f1_avg"]) for mode in per_task}
    spread = {mode: per_task[mode].std(ddof=1) for mode in per_task}
    assert avg["quantization"] >= avg["none"]
    assert spread["quantization"] <= spread["none"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    print(
        f"criterion 08 PASS: avg F1 {avg['quantization']:.4f} >= {avg['none']:.4f}, "
        f"across-task std {spread['quantization']:.4f} <= {spread['none']:.4f} in {elapsed:.0f}s"
    )


STABILITY_INI = """
[experiment]
name = stability
seeds = 0,1
modes = none,quantization,pruning,dropout
noise_levels = 0.2

[data]
kind = blobs
num_classes = 4
dim = 16
train_size = 400
test_size = 100

[training]
epochs = 6
"""


def test_criterion_09_stability_sweep_emission(tmp_path):
    cfg_path = tmp_path / "stability.ini"
    cfg_path.write_text(STABILITY_INI)
    out = tmp_path / "out"
    assert cmd_stability_sweep(load_config(cfg_path), out, quiet=True) == 0
    rows = read_csv(out / "stability.csv", ["mode", "hyper", "s", "gain_vs_reference"])
    got = {(r["mode"], r["hyper"]) for r in rows}
    expected = (
        {("quantization", h) for h in ("w4a4", "w6a6", "w8a8")}
        | {("pruning", h) for h in ("0.5", "0.75", "0.9")}
        | {("dropout", h) for h in ("0.05", "0.1", "0.3")}
    )
    assert got == expected
    for r in rows:
        float(r["s"]), float(r["gain_vs_reference"])  # every cell parses as a number
    # the spread itself is reported, not asserted
    for mode in ("quantization", "pruning", "dropout"):
        gains = [float(r["gain_vs_reference"]) for r in rows if r["mode"] == mode]
        print(f"criterion 09 report: {mode} max-min gain spread {max(gains) - min(gains):.4f}")
    print("criterion 09 PASS: stability sweep emitted all nine variants with a valid schema")


DETERMINISM_INI = """
[experiment]
name = determinism
seeds = 0,1
modes = none,quantization
noise_levels = 0.0,0.3

[data]
kind = blobs
num_classes = 3
dim = 8
train_size = 240
test_size = 60

[training]
epochs = 3
"""


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "det.ini"
    cfg_path.write_text(DETERMINISM_INI)
    cfg = load_config(cfg_path)
    for cmd, kwargs in ((cmd_noise_sweep, {}), (cmd_train, {"mode": "quantization", "noise": 0.3})):
        a, b = tmp_path / f"{cmd.__name__}_a", tmp_path / f"{cmd.__name__}_b"
        assert cmd(cfg, a, quiet=True, **kwargs) == 0
        assert cmd(cfg, b, quiet=True, **kwargs) == 0
        names_a = sorted(p.name for p in a.iterdir())
        assert names_a == sorted(p.name for p in b.iterdir()) and names_a
        for name in names_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{cmd.__name__}: {name} differs"
    print("criterion 10 PASS: noise-sweep and train reruns produced byte-identical outputs")
