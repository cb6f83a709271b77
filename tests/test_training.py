from dataclasses import replace

import numpy as np
import pytest

import qreg.training
from qreg import tensor as T
from qreg.data import split, synth_blobs, synth_multitask
from qreg.errors import ContractError, TrainingError
from qreg.layers import Dense, Dropout, Model, ReLU, build_cnn_small, build_mlp_multitask, build_mlp_small, forward
from qreg.losses import binary_ce_loss, cross_entropy_loss, one_hot
from qreg.pruning import PruneSpec, prune_model
from qreg.quantization import QuantConfig, QuantizedLayer
from qreg.records import RunRecord
from qreg.regularization import RegularizerConfig
from qreg.training import Adam, TrainSettings, evaluate, train


def tiny_model(seed, din=8, hidden=16, num_classes=3):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    layers = [Dense(din, hidden, rng), ReLU(), Dense(hidden, num_classes, rng)]
    return Model(layers, head="softmax", out_dim=num_classes, input_shape=(din,))


@pytest.fixture(scope="module")
def blob_splits():
    full = synth_blobs(num_classes=3, per_class=150, dim=8, separation=4.0, seed=7)
    train_ds, test_ds = split(full, 0.25, 99)
    tr, val = split(train_ds, 0.15, 100)
    return tr, val, test_ds


# ---------------------------------------------------------------- Adam


def test_adam_first_step_matches_closed_form():
    # with g = 1 the bias-corrected moments are exactly 1, so the update
    # is lr / (1 + eps)
    p = T.parameter(np.array([2.0, -3.0]), name="w")
    loss = T.reduce_sum(p)
    opt = Adam([("w", p)], lr=1e-3)
    T.backward(loss)
    opt.step()
    expected = 1e-3 / (1.0 + 1e-8)
    np.testing.assert_allclose(np.array([2.0, -3.0]) - p.value, [expected, expected], rtol=1e-9)


def test_adam_matches_reference_implementation_over_steps():
    rng = np.random.default_rng(5)
    w0 = rng.normal(size=(4,))
    p = T.parameter(w0.copy(), name="w")
    opt = Adam([("w", p)], lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8)

    ref = w0.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        target = np.arange(4.0)
        diff = T.sub(p, T.constant(target))
        loss = T.reduce_sum(T.mul(diff, diff))
        p.zero_grad()
        T.backward(loss)
        g = 2.0 * (ref - target)
        opt.step()

        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(p.value, ref, rtol=1e-12)


def test_adam_zero_learning_rate_is_a_no_op():
    p = T.parameter(np.array([1.0, 2.0]), name="w")
    opt = Adam([("w", p)], lr=0.0)
    for _ in range(3):
        p.zero_grad()
        T.backward(T.reduce_sum(T.mul(p, p)))
        opt.step()
    np.testing.assert_array_equal(p.value, [1.0, 2.0])


def test_adam_missing_gradient_counts_as_zero():
    p = T.parameter(np.array([5.0]), name="w")
    opt = Adam([("w", p)], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.value, [5.0])


def test_adam_nonfinite_gradient_names_the_parameter():
    p = T.parameter(np.array([1.0]), name="layer0.weight")
    opt = Adam([("layer0.weight", p)], lr=0.1)
    p._grad = np.array([np.nan])
    with pytest.raises(TrainingError, match="layer0.weight"):
        opt.step()


class PerParameterAdam:
    """Adam's former update, one parameter at a time: the bitwise reference."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = list(params), lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for _, p in self.params]
        self.v = [np.zeros_like(p.value) for _, p in self.params]

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for i, (name, p) in enumerate(self.params):
            g = p._grad
            if g is None:
                g = np.zeros_like(p.value)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            p.value = p.value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class GatheringAdam(Adam):
    """Adam's former flat step, which gathers the values every step: the bitwise reference."""

    def step(self):
        self.t += 1
        if not self.params:
            return
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        g = np.concatenate([np.zeros(p.value.size) if p._grad is None else qreg.training._flat(p._grad)
                            for _, p in self.params], out=self._g)
        if not np.all(np.isfinite(g)):
            for name, p in self.params:
                if p._grad is not None and not np.all(np.isfinite(p._grad)):
                    raise TrainingError(f"non-finite gradient for parameter '{name}'")
        new = np.concatenate([qreg.training._flat(p.value) for _, p in self.params])
        m, v, a, b = self.m, self.v, self._a, self._b
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1.0 - self.beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - self.beta2, out=a)
        np.multiply(v, self.beta2, out=v)
        np.add(v, a, out=v)
        np.divide(m, c1, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.multiply(a, self.lr, out=a)
        np.divide(a, b, out=a)
        np.subtract(new, a, out=new)
        for (_, p), lo, hi in zip(self.params, self.bounds[:-1], self.bounds[1:]):
            shape = p.value.shape
            if len(shape) == 2:
                p.value = new[lo:hi].reshape(shape[::-1]).T
            else:
                p.value = new[lo:hi].reshape(shape)


ADAM_PRESETS = {
    "cnn-small": (lambda rng: build_cnn_small((1, 4, 8), 5, rng), (1, 4, 8)),
    "mlp-small": (lambda rng: build_mlp_small(32, 5, rng), (32,)),
    "mlp-multitask": (lambda rng: build_mlp_multitask(24, 5, rng), (24,)),
}


@pytest.mark.parametrize("preset", sorted(ADAM_PRESETS))
def test_flat_adam_is_bitwise_the_per_parameter_update(preset):
    build, shape = ADAM_PRESETS[preset]
    models = [build(np.random.default_rng(3)) for _ in range(3)]
    flat = Adam(models[0].named_parameters(), lr=1e-2)
    ref = PerParameterAdam(models[1].named_parameters(), lr=1e-2)
    gathering = GatheringAdam(models[2].named_parameters(), lr=1e-2)
    data = np.random.default_rng(4)
    saw_strided = False
    for step in range(50):
        if step == 10:
            snapshots = [model.state_dict() for model in models]
        if step == 30:  # rebinding values between steps (as an early-stopping restore does)
            for model, snapshot in zip(models, snapshots):
                model.load_state_dict(snapshot)
        if step == 40:  # rebinding one value alone
            for opt in (flat, ref, gathering):
                p = opt.params[0][1]
                p.value = p.value * 0.5
        x = data.standard_normal((16,) + shape)
        labels = data.integers(0, 2 if preset == "mlp-multitask" else 5, (16, 5))
        for model, opt in zip(models, (flat, ref, gathering)):
            model.train_mode = True
            for _, p in opt.params:
                p.zero_grad()
            logits = forward(model, x)
            if preset == "mlp-multitask":
                loss = binary_ce_loss(logits, labels.astype(np.float64))
            else:
                loss = cross_entropy_loss(logits, one_hot(labels[:, 0], 5))
            T.backward(loss)
            if step % 5 == 0:
                opt.params[-1][1].zero_grad()  # a parameter without gradient counts as zero
            # a dense weight's gradient is linear's (x.T @ g).T, stored uncopied
            saw_strided |= any(not p._grad.flags.c_contiguous for _, p in opt.params if p._grad is not None)
            opt.step()
        for (name, a), (_, b), (_, c) in zip(flat.params, ref.params, gathering.params):
            np.testing.assert_array_equal(a.value, b.value, err_msg=name, strict=True)
            np.testing.assert_array_equal(a.value, c.value, err_msg=name, strict=True)
            assert a.value.strides == c.value.strides, name
    assert saw_strided
    # the flat moments hold each 2-D parameter transposed
    for flat_moment, ref_moments in ((flat.m, ref.m), (flat.v, ref.v)):
        expected = np.concatenate([(r.T if r.ndim == 2 else r).reshape(-1) for r in ref_moments])
        np.testing.assert_array_equal(flat_moment, expected, strict=True)
    np.testing.assert_array_equal(flat.m, gathering.m, strict=True)
    np.testing.assert_array_equal(flat.v, gathering.v, strict=True)


def test_adam_steps_on_finite_gradients_whose_squares_overflow():
    models = [build_mlp_small(4, 3, np.random.default_rng(0)) for _ in range(2)]
    opts = [Adam(models[0].named_parameters(), lr=0.1), GatheringAdam(models[1].named_parameters(), lr=0.1)]
    data = np.random.default_rng(1)
    for step in range(6):
        grads = [data.standard_normal(p.value.shape) * (1e200 if step % 2 and i == 1 else 1.0)
                 for i, (_, p) in enumerate(opts[0].params)]
        for opt in opts:
            for (_, p), g in zip(opt.params, grads):
                p._grad = g
            with np.errstate(over="ignore"):
                opt.step()  # g . g overflows on the odd steps; no gradient is non-finite
        for (name, a), (_, b) in zip(opts[0].params, opts[1].params):
            np.testing.assert_array_equal(a.value, b.value, err_msg=name, strict=True)
    np.testing.assert_array_equal(opts[0].v, opts[1].v, strict=True)
    assert np.isinf(opts[0].v).any()


def test_adam_keeps_dense_weights_in_the_layout_linear_reads():
    model = build_mlp_small(32, 5, np.random.default_rng(0))
    model.train_mode = True
    opt = Adam(model.named_parameters(), lr=1e-2)
    buffers = [a for a in vars(opt).values() if isinstance(a, np.ndarray)]
    data = np.random.default_rng(1)
    before = None
    for step in range(4):
        for _, p in opt.params:
            p.zero_grad()
        x = data.standard_normal((16, 32))
        T.backward(cross_entropy_loss(forward(model, x), one_hot(data.integers(0, 5, 16), 5)))
        opt.step()
        values = [p.value for _, p in opt.params]
        for name, p in opt.params:
            if p.value.ndim == 2:  # linear transposes it to C order without a copy
                assert p.value.flags.f_contiguous, name
                assert np.shares_memory(np.ascontiguousarray(p.value.T), p.value), name
            assert not any(np.shares_memory(p.value, b) for b in buffers), name
            if before is not None:  # each step's values are fresh memory
                assert not any(np.shares_memory(p.value, b) for b in before), name
        before = values
    state = model.state_dict()
    assert all(v.flags.c_contiguous for v in state.values())
    for name, p in opt.params:
        np.testing.assert_array_equal(state[name], p.value, strict=True)


def test_flat_adam_names_the_parameter_with_a_nonfinite_gradient():
    model = build_mlp_small(4, 3, np.random.default_rng(0))
    params = model.named_parameters()
    opt = Adam(params, lr=0.1)
    for i, (_, p) in enumerate(params):
        p._grad = np.full(p.value.shape, np.inf if i == 3 else 1.0)
    before = [p.value for _, p in params]
    with pytest.raises(TrainingError, match=f"'{params[3][0]}'"):
        opt.step()
    assert all(p.value is v for (_, p), v in zip(params, before))  # nothing was updated


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("steps_before", [0, 2])
def test_flat_adam_leaves_every_value_on_a_nonfinite_gradient(bad, steps_before):
    model = build_mlp_small(4, 3, np.random.default_rng(0))
    params = model.named_parameters()
    opt = Adam(params, lr=0.1)
    for _ in range(steps_before):  # the values are then views of the last step's vector
        for _, p in params:
            p._grad = np.ones(p.value.shape)
        opt.step()
    for i, (_, p) in enumerate(params):
        p._grad = np.full(p.value.shape, 1.0)
        if i == 3:
            p._grad.flat[-1] = bad
    before = [(p.value, p.value.copy()) for _, p in params]
    with pytest.raises(TrainingError, match=f"'{params[3][0]}'"):
        opt.step()
    for (name, p), (value, copy) in zip(params, before):  # nothing was updated
        assert p.value is value, name
        np.testing.assert_array_equal(p.value, copy, strict=True)


def test_adam_validates_hyperparameters():
    p = T.parameter(np.array([1.0]), name="w")
    with pytest.raises(ContractError):
        Adam([("w", p)], lr=-1.0)
    with pytest.raises(ContractError):
        Adam([("w", p)], beta1=1.0)
    with pytest.raises(ContractError):
        Adam([("w", p)], eps=0.0)


# ---------------------------------------------------------------- settings


def test_settings_validation():
    with pytest.raises(ContractError):
        TrainSettings(mode="ridge")
    with pytest.raises(ContractError):
        TrainSettings(epochs=0)
    with pytest.raises(ContractError):
        TrainSettings(mode="quantization")  # needs a QuantConfig
    with pytest.raises(ContractError):
        TrainSettings(mode="pruning")  # needs a PruneSpec
    TrainSettings(mode="quantization", quant=QuantConfig())
    TrainSettings(mode="pruning", prune=PruneSpec(ratio=0.5))


def test_train_rejects_mismatched_head(blob_splits):
    tr, val, test_ds = blob_splits
    rng = np.random.default_rng(0)
    wrong = Model([Dense(8, 3, rng)], head="sigmoid", out_dim=3, input_shape=(8,))
    with pytest.raises(ContractError):
        train(wrong, tr, val, test_ds, TrainSettings(epochs=1))


# ---------------------------------------------------------------- training


def test_training_reduces_loss_and_fits_blobs(blob_splits):
    tr, val, test_ds = blob_splits
    res = train(tiny_model(0), tr, val, test_ds,
                TrainSettings(mode="none", epochs=25, batch_size=32, seed=0))
    rows = res.record.rows
    assert len(rows) == 25
    assert rows[-1].train_loss < 0.3 * rows[0].train_loss
    assert rows[-1].train_acc > 0.8
    assert res.record.best_epoch == 25


def test_training_is_deterministic_per_seed(blob_splits):
    tr, val, test_ds = blob_splits
    make = lambda: TrainSettings(mode="none", epochs=4, batch_size=32, seed=3)
    a = train(tiny_model(3), tr, val, test_ds, make())
    b = train(tiny_model(3), tr, val, test_ds, make())
    assert a.record.to_csv_text() == b.record.to_csv_text()
    c = train(tiny_model(4), tr, val, test_ds,
              TrainSettings(mode="none", epochs=4, batch_size=32, seed=4))
    assert c.record.to_csv_text() != a.record.to_csv_text()


def test_weight_decay_mode_shrinks_weights(blob_splits):
    tr, val, test_ds = blob_splits
    plain = train(tiny_model(1), tr, val, test_ds,
                  TrainSettings(mode="none", epochs=6, batch_size=32, seed=1))
    decayed = train(tiny_model(1), tr, val, test_ds,
                    TrainSettings(mode="weight_decay", epochs=6, batch_size=32, seed=1,
                                  reg=RegularizerConfig(weight_decay=0.05)))
    norm = lambda m: sum(float(np.sum(w.value**2)) for w in m.weight_nodes())
    assert norm(decayed.model) < norm(plain.model)
    # the recorded train_loss is the data term, so it stays comparable across modes
    assert decayed.record.rows[-1].train_loss < 2.0


def test_early_stopping_restores_best_epoch_weights(blob_splits):
    tr, val, test_ds = blob_splits
    settings = TrainSettings(mode="early_stopping", epochs=15, batch_size=32, seed=2,
                             reg=RegularizerConfig(early_stop_patience=2))
    res = train(tiny_model(2), tr, val, test_ds, settings)
    rec = res.record
    assert 1 <= rec.best_epoch <= len(rec.rows)
    # the restored model reproduces the recorded best-epoch validation loss exactly
    val_loss, _, _, _ = evaluate(res.model, val)
    assert val_loss == rec.rows[rec.best_epoch - 1].val_loss
    if len(rec.rows) < settings.epochs:
        assert rec.best_epoch < len(rec.rows)


def test_pruning_mode_shrinks_hidden_layer_after_warmup(blob_splits):
    tr, val, test_ds = blob_splits
    settings = TrainSettings(mode="pruning", epochs=5, batch_size=32, seed=5,
                             prune=PruneSpec(ratio=0.5, warmup_epochs=2))
    res = train(tiny_model(5), tr, val, test_ds, settings)
    first = res.model.layers[0]
    last = res.model.layers[2]
    assert first.out_features == 8
    assert last.in_features == 8
    assert last.out_features == 3  # the head is never pruned
    assert len(res.record.rows) == 5
    assert all(np.isfinite(list(r.metrics().values())).all() for r in res.record.rows)


def test_pruning_warmup_beyond_epochs_still_fires(blob_splits):
    tr, val, test_ds = blob_splits
    settings = TrainSettings(mode="pruning", epochs=2, batch_size=64, seed=5,
                             prune=PruneSpec(ratio=0.5, warmup_epochs=10))
    res = train(tiny_model(5), tr, val, test_ds, settings)
    assert res.model.layers[0].out_features == 8


def test_quantization_mode_wraps_and_trains(blob_splits):
    tr, val, test_ds = blob_splits
    base = tiny_model(6)
    settings = TrainSettings(mode="quantization", epochs=3, batch_size=32, seed=6,
                             quant=QuantConfig(weight_bits=4, act_bits=4))
    res = train(base, tr, val, test_ds, settings)
    assert res.model is not base
    quantized = [l for l in res.model.layers if isinstance(l, QuantizedLayer)]
    assert len(quantized) == 2
    assert all(l.calibrated for l in quantized)
    assert len(res.record.rows) == 3


def test_multitask_training_records_f1(blob_splits):
    ds = synth_multitask(num_tasks=4, n=300, dim=10, seed=9)
    tr_full, test_ds = split(ds, 0.25, 50)
    tr, val = split(tr_full, 0.15, 51)
    model = build_mlp_multitask(10, 4, np.random.default_rng(1))
    res = train(model, tr, val, test_ds, TrainSettings(mode="none", epochs=2, batch_size=32, seed=9))
    row = res.record.rows[-1]
    assert row.f1 is not None and len(row.f1) == 4
    assert 0.0 <= row.f1_avg <= 1.0
    text = res.record.to_csv_text()
    assert "f1_t3" in text.splitlines()[0]


def test_divergence_carries_truncated_record(blob_splits, monkeypatch):
    tr, val, test_ds = blob_splits
    real = qreg.training.cross_entropy_loss
    calls = {"n": 0}

    def flaky(logits, targets):
        calls["n"] += 1
        out = real(logits, targets)
        if calls["n"] >= 5:  # epoch 1 makes 4 calls (1 train batch + 3 evals)
            out.value = np.array(np.nan)
        return out

    monkeypatch.setattr(qreg.training, "cross_entropy_loss", flaky)
    settings = TrainSettings(mode="none", epochs=4, batch_size=len(tr.labels), seed=0,
                             fingerprint="deadbeef")
    with pytest.raises(TrainingError, match="epoch 2") as err:
        train(tiny_model(0), tr, val, test_ds, settings)
    rec = err.value.record
    assert isinstance(rec, RunRecord)
    assert len(rec.rows) == 1
    assert rec.fingerprint == "deadbeef"
    assert rec.to_csv_text().count("\n") == 2  # header plus the surviving epoch


def test_always_early_stop_applies_to_other_modes(blob_splits):
    tr, val, test_ds = blob_splits
    settings = TrainSettings(mode="weight_decay", epochs=40, batch_size=32, seed=7,
                             always_early_stop=True,
                             reg=RegularizerConfig(weight_decay=0.01, early_stop_patience=1))
    res = train(tiny_model(7), tr, val, test_ds, settings)
    assert res.record.best_epoch <= len(res.record.rows)
    val_loss, _, _, _ = evaluate(res.model, val)
    assert val_loss == res.record.rows[res.record.best_epoch - 1].val_loss


def test_label_smoothing_mode_feeds_smoothed_targets(blob_splits, monkeypatch):
    tr, val, test_ds = blob_splits
    from qreg.losses import one_hot
    from qreg.regularization import smooth_labels

    real = qreg.training.cross_entropy_loss
    seen = []

    def spy(logits, targets):
        seen.append(np.asarray(targets))
        return real(logits, targets)

    monkeypatch.setattr(qreg.training, "cross_entropy_loss", spy)
    train(tiny_model(0), tr, val, test_ds,
          TrainSettings(mode="label_smoothing", epochs=1, batch_size=len(tr.labels), seed=0,
                        reg=RegularizerConfig(label_smoothing=0.2)))
    # call 1 is the training batch; later calls are hard-label evaluations
    batch = seen[0]
    np.testing.assert_allclose(np.unique(batch), [0.2 / 3, 0.8 + 0.2 / 3], rtol=1e-12)
    want = smooth_labels(one_hot(tr.labels, 3), 0.2, 3)
    # the training batch is a shuffled view of exactly these rows
    np.testing.assert_allclose(np.sort(batch, axis=0), np.sort(want, axis=0))


def test_separable_blobs_reach_high_accuracy():
    full = synth_blobs(num_classes=3, per_class=200, dim=8, separation=10.0, seed=1)
    train_pool, test_ds = split(full, 0.25, 11)
    tr, val = split(train_pool, 0.15, 12)
    res = train(tiny_model(1), tr, val, test_ds,
                TrainSettings(mode="none", epochs=20, batch_size=32, seed=1))
    assert res.record.final_test_acc >= 0.99


def test_evaluate_multitask_returns_per_task_f1():
    ds = synth_multitask(num_tasks=3, n=60, dim=6, seed=2)
    model = build_mlp_multitask(6, 3, np.random.default_rng(0))
    loss, acc, f1, f1_avg = evaluate(model, ds)
    assert np.isfinite(loss)
    assert 0.0 <= acc <= 1.0
    assert f1.shape == (3,)
    assert f1_avg == pytest.approx(float(f1.mean()))


WHOLE_RUNS = {
    "none": dict(),
    "weight_decay": dict(reg=RegularizerConfig(weight_decay=0.05)),
    "dropout": dict(),
    "label_smoothing": dict(),
    "early_stopping": dict(reg=RegularizerConfig(early_stop_patience=1)),
    "pruning": dict(prune=PruneSpec(ratio=0.5, warmup_epochs=2)),
    "quantization": dict(quant=QuantConfig(weight_bits=4, act_bits=4)),
    "pruning+early_stop": dict(prune=PruneSpec(ratio=0.5, warmup_epochs=2), always_early_stop=True,
                               reg=RegularizerConfig(early_stop_patience=1)),
}


def whole_run(case, splits, final_row_only=False):
    mode = case.split("+")[0]
    rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(0,)))
    model = Model([Dense(8, 24, rng), ReLU(), Dense(24, 16, rng), ReLU(), Dense(16, 3, rng)],
                  head="softmax", out_dim=3, input_shape=(8,))
    if mode == "dropout":
        model.layers.insert(2, Dropout(0.2))
    return train(model, *splits, TrainSettings(mode=mode, epochs=8, batch_size=32, learning_rate=0.01, seed=4,
                                               final_row_only=final_row_only, **WHOLE_RUNS[case]))


@pytest.mark.parametrize("case", sorted(WHOLE_RUNS))
def test_whole_runs_are_bitwise_those_of_the_per_parameter_adam(case, blob_splits, tmp_path, monkeypatch):
    from qreg.checkpoint import write_container

    outputs = []
    for optimizer in (Adam, PerParameterAdam):
        monkeypatch.setattr(qreg.training, "Adam", optimizer)
        res = whole_run(case, blob_splits)
        path = tmp_path / f"{optimizer.__name__}.qreg"
        write_container(path, res.model.state_dict())
        outputs.append((res.record.to_csv_text(), res.record.best_epoch, path.read_bytes()))
        if "early" in case:  # the run stopped and restored its best epoch's parameters
            assert res.record.best_epoch < len(res.record.rows) < 8
    assert outputs[0] == outputs[1]


def assert_measured_alike(final, whole):
    """`final` (a final_row_only record) holds `whole`'s rows, its final row in full and
    every other row without train_acc and the test metrics."""
    assert final.best_epoch == whole.best_epoch
    assert len(final.rows) == len(whole.rows)
    for i, (a, b) in enumerate(zip(final.rows, whole.rows)):
        if i == whole.best_epoch - 1:
            assert vars(a) == vars(b)  # every field, compared exactly
        else:
            assert (a.train_acc, a.test_acc, a.f1, a.f1_avg) == (None, None, None, None)
            assert vars(a) == vars(replace(b, train_acc=None, test_acc=None, f1=None, f1_avg=None))


@pytest.mark.parametrize("case", sorted(WHOLE_RUNS))
def test_a_run_that_measures_its_final_row_alone_measures_it_as_every_epoch_does(case, blob_splits):
    whole, final = (whole_run(case, blob_splits, final_row_only) for final_row_only in (False, True))
    assert_measured_alike(final.record, whole.record)
    whole_state, final_state = whole.model.state_dict(), final.model.state_dict()
    assert whole_state.keys() == final_state.keys()
    for name, value in whole_state.items():
        assert final_state[name].tobytes() == value.tobytes()
    if "early" in case:  # the final row is the restored best epoch, not the last one
        assert whole.record.best_epoch < len(whole.record.rows)


@pytest.mark.parametrize("mode, extra", [
    ("quantization", dict(quant=QuantConfig(weight_bits=4, act_bits=4, keep_batchnorm=True))),
    ("pruning", dict(prune=PruneSpec(ratio=0.5, warmup_epochs=2)))])
def test_a_stopping_multitask_run_measures_its_final_row_alone_as_every_epoch_does(mode, extra):
    ds = synth_multitask(num_tasks=4, n=400, dim=10, seed=9)
    tr_full, test_ds = split(ds, 0.25, 50)
    tr, val = split(tr_full, 0.15, 51)
    records = []
    for final_row_only in (False, True):
        model = build_mlp_multitask(10, 4, np.random.default_rng(1))
        settings = TrainSettings(mode=mode, epochs=10, batch_size=32, learning_rate=0.02, seed=9,
                                 always_early_stop=True, reg=RegularizerConfig(early_stop_patience=1),
                                 final_row_only=final_row_only, **extra)
        records.append(train(model, tr, val, test_ds, settings).record)
    whole, final = records
    assert whole.best_epoch < len(whole.rows)  # the final row is a restored best epoch
    assert_measured_alike(final, whole)
    assert final.final_row().f1 is not None and len(final.final_row().f1) == 4


@pytest.mark.parametrize("final_row_only", [False, True])
def test_eval_passes_per_epoch_follow_final_row_only(blob_splits, monkeypatch, final_row_only):
    tr, val, test_ds = blob_splits
    rows = []
    real = qreg.training.eval_logits

    def counted(model, features):
        rows.append(features.shape[0])
        return real(model, features)

    monkeypatch.setattr(qreg.training, "eval_logits", counted)
    settings = TrainSettings(mode="early_stopping", epochs=30, batch_size=32, learning_rate=0.05, seed=1,
                             reg=RegularizerConfig(early_stop_patience=1), final_row_only=final_row_only)
    epochs = len(train(tiny_model(1), tr, val, test_ds, settings).record.rows)
    assert epochs < 30
    if final_row_only:  # the validation set every epoch; the training and test sets once
        assert rows == [val.n] * epochs + [tr.n, test_ds.n]
    else:
        assert rows == [val.n, tr.n, test_ds.n] * epochs


def test_pruning_with_no_warmup_prunes_before_the_first_epoch(blob_splits, monkeypatch):
    tr, val, test_ds = blob_splits
    spec = PruneSpec(ratio=0.5, warmup_epochs=0)
    widths = []
    real_forward = qreg.training.forward

    def recording_forward(model, x, rng=None):
        widths.append(model.layers[0].out_features)
        return real_forward(model, x, rng)

    monkeypatch.setattr(qreg.training, "forward", recording_forward)
    settings = TrainSettings(mode="pruning", epochs=6, batch_size=32, seed=5, prune=spec,
                             always_early_stop=True, reg=RegularizerConfig(early_stop_patience=1))
    res = train(tiny_model(5), tr, val, test_ds, settings)
    assert res.model.layers[0].out_features == 8 and res.model.layers[2].in_features == 8
    assert set(widths) == {8}  # the first training batch already ran on the pruned model
    # so the run is that of the pruned model trained plainly, its stopper alive from row 1
    plain = train(prune_model(tiny_model(5), spec), tr, val, test_ds,
                  TrainSettings(mode="none", epochs=6, batch_size=32, seed=5, always_early_stop=True,
                                reg=RegularizerConfig(early_stop_patience=1)))
    assert [vars(r) for r in res.record.rows] == [vars(r) for r in plain.record.rows]
    assert res.record.best_epoch == plain.record.best_epoch
    val_loss, _, _, _ = evaluate(res.model, val)
    assert val_loss == res.record.rows[res.record.best_epoch - 1].val_loss


def _nan_loss_from_epoch_2(monkeypatch, model):
    real = qreg.training.cross_entropy_loss
    epoch = {"n": 0}

    def loss(logits, targets):
        if logits.requires_grad:  # one train batch per epoch; an eval's logits are a constant
            epoch["n"] += 1
        out = real(logits, targets)
        if epoch["n"] > 1:
            out.value = np.array(np.nan)
        return out

    monkeypatch.setattr(qreg.training, "cross_entropy_loss", loss)


def _nan_gradient_from_epoch_2(monkeypatch, model):
    real = T.backward
    calls = {"n": 0}

    def backward(loss):
        real(loss)
        calls["n"] += 1
        if calls["n"] > 1:  # one batch per epoch
            model.layers[0].weight._grad = np.full(model.layers[0].weight.shape, np.nan)

    monkeypatch.setattr(T, "backward", backward)


def _nan_accuracy_from_epoch_2(monkeypatch, model):
    real = qreg.training.accuracy
    calls = {"n": 0}

    def accuracy(logits, labels):
        calls["n"] += 1
        return real(logits, labels) if calls["n"] <= 3 else float("nan")  # 3 evals per epoch

    monkeypatch.setattr(qreg.training, "accuracy", accuracy)


def _nan_activations_from_epoch_2(monkeypatch, model):
    real = qreg.training.forward
    calls = {"n": 0}

    def forward(m, x, rng=None):
        if m.train_mode:
            calls["n"] += 1
            if calls["n"] > 1:  # one train batch per epoch; the first quantizer meets the NaN
                x = np.full(x.shape, np.nan)
        return real(m, x, rng)

    monkeypatch.setattr(qreg.training, "forward", forward)


@pytest.mark.parametrize("poison, message, mode", [
    (_nan_loss_from_epoch_2, "loss diverged in epoch 2", "none"),
    (_nan_gradient_from_epoch_2, "non-finite gradient", "none"),
    (_nan_accuracy_from_epoch_2, "metrics diverged in epoch 2", "none"),
    (_nan_activations_from_epoch_2, "activations diverged in epoch 2", "quantization")])
def test_every_training_failure_carries_the_completed_rows_and_leaves_eval_mode(
        blob_splits, monkeypatch, poison, message, mode):
    tr, val, test_ds = blob_splits
    model = tiny_model(0)
    poison(monkeypatch, model)
    settings = TrainSettings(mode=mode, epochs=4, batch_size=len(tr.labels), seed=0, fingerprint="deadbeef",
                             quant=QuantConfig() if mode == "quantization" else None)
    with pytest.raises(TrainingError, match=message) as err:
        train(model, tr, val, test_ds, settings)
    rec = err.value.record
    assert rec.fingerprint == "deadbeef"
    assert [r.epoch for r in rec.rows] == [1]
    assert model.train_mode is False
