import dataclasses
import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

import papernet.training as training_mod
from papernet.data import load_weights, save_weights, stratified_split
from papernet.errors import ConfigError, NonFiniteError, TrainingError
from papernet.model import ModelGraph, build_papernet, forward
from papernet.tensor import ComputationTape, ParamBuffer, Tensor, _make_output, backward
from papernet.training import (
    LOG_FLOOR,
    AdamState,
    Plateau,
    TrainConfig,
    adam_step,
    predict_probs,
    train,
    weighted_cross_entropy,
)

from conftest import make_synthetic


def history_rows_without_seconds(path):
    lines = path.read_text().strip().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def softmax_reference(a):
    """The generic softmax tape op that the loss absorbed."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return ((g - dot) * data,)

    return _make_output(data, (a,), "softmax_lastaxis", rule)


def loss_on_probs_reference(probs, onehot, class_w=None):
    """The loss node as it was when it took probabilities, without L2."""
    weights = np.ones(probs.shape[1]) if class_w is None else np.asarray(class_w)
    picked = (onehot * weights).astype(probs.dtype)
    p = probs.data
    floored = np.maximum(p, p.dtype.type(LOG_FLOOR))
    loss = -(picked * np.log(floored)).sum(axis=1).mean(axis=0)

    def rule(g):
        return ((-g / len(p)) * picked / floored * (p > LOG_FLOOR),)

    return _make_output(loss, (probs,), "weighted_cross_entropy", rule)


class TestWeightedCrossEntropy:
    def test_perfect_predictions_zero_loss(self):
        # a logit gap of 1000: the other classes' probabilities underflow to 0
        onehot = np.eye(4)[[0, 1, 2, 3]]
        loss = weighted_cross_entropy(Tensor(1000.0 * onehot), onehot)
        assert loss.item() == 0.0

    def test_uniform_probs_log_k(self):
        logits = Tensor(np.zeros((8, 4)))
        onehot = np.eye(4)[np.arange(8) % 4]
        loss = weighted_cross_entropy(logits, onehot)
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-6)

    def test_weight_scales_linearly(self):
        logits = Tensor(np.zeros((6, 4)))
        onehot = np.eye(4)[np.zeros(6, dtype=int)]
        loss = weighted_cross_entropy(logits, onehot, class_w=[2.0, 1.0, 1.0, 1.0])
        assert loss.item() == pytest.approx(2.0 * np.log(4.0), rel=1e-6)

    def test_l2_penalty_added(self):
        model = build_papernet(seed=0, dtype=np.float64)
        logits = Tensor(np.zeros((4, 4)))
        onehot = np.eye(4)
        plain = weighted_cross_entropy(logits, onehot).item()
        with_l2 = weighted_cross_entropy(logits, onehot, model=model, l2=1e-3).item()
        expected_penalty = 1e-3 * sum(
            float(np.sum(w.data**2)) for w in model.weight_matrices()
        )
        assert with_l2 - plain == pytest.approx(expected_penalty, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.zeros((2, 4))), np.eye(4))

    def test_floor_and_gradient_above_it(self):
        # row 0's p_y = e^-40 / (1 + e^-40) ~ 4.2e-18 is floored at 1e-12: it
        # adds -w_y log(1e-12) and no gradient. Above the floor the logit
        # gradient is w_y * (p - onehot) / B
        logits = Tensor(np.array([[0.0, 40.0], [0.0, 0.0], [0.0, np.log(3.0)], [1.0, -1.0]]),
                        requires_grad=True)
        w = np.array([2.0, 0.5])
        y = np.array([0, 1, 0, 1])
        with ComputationTape() as tape:
            loss = weighted_cross_entropy(logits, np.eye(2)[y], w)
            backward(tape, loss)
        e = np.exp(logits.data)
        p = e / e.sum(axis=1, keepdims=True)
        p_y = np.maximum(p[np.arange(4), y], 1e-12)
        assert loss.item() == pytest.approx(np.sum(-w[y] * np.log(p_y)) / 4, rel=1e-12)
        expected = w[y][:, None] * (p - np.eye(2)[y]) / 4
        expected[0] = 0.0
        np.testing.assert_array_equal(logits.grad[0], [0.0, 0.0])
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12, atol=1e-17)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_softmax_then_loss_on_probs_bitwise(self, dtype, weighted):
        rng = np.random.default_rng(21)
        z = rng.normal(0.0, 2.0, size=(6, 4)).astype(dtype)
        z[0] = [0.0, 40.0, 0.0, 0.0]  # label 0: p_y ~ 4.2e-18, below the floor
        onehot = np.eye(4)[[0, 1, 2, 3, 1, 0]]
        class_w = [2.0, 0.5, 1.0, 1.5] if weighted else None
        results = []
        for fused in (True, False):
            logits = Tensor(z.copy(), requires_grad=True)
            with ComputationTape() as tape:
                if fused:
                    loss = weighted_cross_entropy(logits, onehot, class_w)
                else:
                    loss = loss_on_probs_reference(softmax_reference(logits), onehot, class_w)
                backward(tape, loss)
            results.append((loss.data, logits.grad))
        assert not results[0][1][0].any()
        for actual, expected in zip(*results):
            assert actual.dtype == expected.dtype == dtype
            assert actual.tobytes() == expected.tobytes()

    def test_penalty_gradient_is_two_l2_w(self):
        model = build_papernet(seed=0, dtype=np.float64)
        logits = Tensor(np.zeros((4, 4)), requires_grad=True)
        with ComputationTape() as tape:
            backward(tape, weighted_cross_entropy(logits, np.eye(4), model=model, l2=1e-3))
        matrices = {id(w) for w in model.weight_matrices()}
        for name, p in model.params.items():
            if id(p) in matrices:
                np.testing.assert_array_equal(p.grad, 2 * 1e-3 * p.data, err_msg=name)
            else:
                assert p.grad is None, name

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    def test_one_tape_node(self, l2):
        model = build_papernet(seed=0)
        logits = Tensor(np.zeros((4, 4), dtype=np.float32), requires_grad=True)
        with ComputationTape() as tape:
            weighted_cross_entropy(logits, np.eye(4), [1.0, 2.0, 1.0, 0.5], model, l2)
        assert [node.name for node in tape.nodes] == ["weighted_cross_entropy"]


def test_b64_train_step_records_fourteen_tape_nodes():
    model = build_papernet(seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16, 1)).astype(np.float32)
    with ComputationTape() as tape:
        logits = forward(model, x, mode="train", rng=rng)
        backward(tape, weighted_cross_entropy(logits, np.eye(4)[np.arange(64) % 4], None,
                                              model, 1e-4))
    block = ["conv1d_same", "batchnorm"]
    assert [node.name for node in tape.nodes] == [
        *block, *block, "maxpool1d", *block, "se_residual_attention", "bilstm",
        "global_max_pool_time", "dense", "dropout", "dense", "weighted_cross_entropy",
    ]


def assert_views_of_buffers(model):
    """Each parameter's data, and any gradient, is its slice of the model's
    buffers, the slices back to back in ``params`` order."""
    flat = model.flat
    start = 0
    for name, p in model.params.items():
        assert p.home == (flat, start), name
        for arr, buf in ((p.data, flat.data), (p.grad, flat.grad)):
            if arr is None:
                continue
            assert arr.base is buf, name
            offset = arr.__array_interface__["data"][0] - buf.__array_interface__["data"][0]
            assert offset == start * buf.itemsize, name
        start += p.size
    assert start == flat.data.size and flat.data.dtype == model.dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_parameters_stay_views_of_the_flat_buffers(tmp_path, dtype):
    model = build_papernet(seed=3, dtype=dtype)
    assert_views_of_buffers(model)
    assert model.flat.grad is None
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16, 1)).astype(dtype)
    with ComputationTape() as tape:
        logits = forward(model, x, mode="train", rng=rng)
        backward(tape, weighted_cross_entropy(logits, np.eye(4)[np.arange(16) % 4], None,
                                              model, 1e-4))
    assert model.flat.grad is not None
    assert all(p.grad is not None for p in model.trainable().values())
    assert_views_of_buffers(model)
    # the forward moved the running statistics, in place; Adam leaves them be
    stats = {k: p.data.copy() for k, p in model.params.items() if not p.requires_grad}
    adam_step(model.trainable(), AdamState.for_params(model.trainable()), 1e-3)
    for name, before in stats.items():
        assert model.params[name].data.tobytes() == before.tobytes(), name
    assert_views_of_buffers(model)
    model.zero_grad()
    assert not model.flat.grad.any() and all(p.grad is None for p in model.params.values())

    clone = model.copy()
    assert_views_of_buffers(clone)
    assert clone.flat.grad is None and not np.shares_memory(clone.flat.data, model.flat.data)
    assert clone.flat.data.tobytes() == model.flat.data.tobytes()

    save_weights(model, tmp_path / "w")
    for loaded in (load_weights(tmp_path / "w"), load_weights(tmp_path / "w", clone)):
        assert_views_of_buffers(loaded)
        assert loaded.flat.grad is None

    features, labels = make_synthetic(n=120, seed=1)
    best, final, _ = train(model, features, labels, stratified_split(labels, seed=0),
                           TrainConfig(batch_size=32, max_epochs=1, seed=2))
    for trained in (model, best, final):
        assert_views_of_buffers(trained)


def _adam(model, path):
    trainable = model.trainable()
    adam_step(trainable, AdamState.for_params(trainable), 1e-3)


REBIND = {
    "grad": lambda p: setattr(p, "grad", np.ones_like(p.data)),
    "data": lambda p: setattr(p, "data", np.full_like(p.data, 7.0)),
}
BUFFER_READERS = {
    "adam_step": _adam,
    "save_weights": save_weights,
    "copy": lambda m, path: m.copy(),
}


@pytest.mark.parametrize("reader", BUFFER_READERS)
@pytest.mark.parametrize("slot", REBIND)
def test_a_parameter_rebound_off_its_buffer_is_named(tmp_path, slot, reader):
    """Adam, saving and copying read the model's buffer, not the tensors:
    each refuses a parameter whose ``grad`` or ``data`` was assigned."""
    model = build_papernet(seed=3)
    before = model.flat.data.tobytes()
    REBIND[slot](model.params["dense2.bias"])
    with pytest.raises(ValueError, match=rf"dense2\.bias\.{slot} is not its view"):
        BUFFER_READERS[reader](model, tmp_path / "w")
    assert model.flat.data.tobytes() == before and not (tmp_path / "w").exists()


def packed_param(values, grad):
    """A one-tensor parameter dict in its own buffer, holding ``grad``."""
    p = {"w": Tensor(np.asarray(values), requires_grad=True)}
    ParamBuffer(p.values(), p["w"].data.copy())
    p["w"].accumulate_grad(np.asarray(grad))
    return p


class TestAdam:
    def test_first_step_magnitude(self):
        p = packed_param([1.0], np.array([1.0], dtype=np.float32))
        state = AdamState.for_params(p)
        adam_step(p, state, lr=1e-3)
        delta = p["w"].data[0] - 1.0
        assert delta == pytest.approx(-1e-3 / (1.0 + 1e-7), rel=1e-5)

    def test_zero_gradient_fixed_point(self):
        p = packed_param([2.5, -1.0], np.zeros(2, dtype=np.float32))
        adam_step(p, AdamState.for_params(p), lr=1e-3)
        np.testing.assert_array_equal(p["w"].data, [2.5, -1.0])

    def test_constant_gradient_recurrence_oracle(self):
        # independent scalar recurrence, iterated in plain python
        g, lr, b1, b2, eps = 0.7, 1e-3, 0.9, 0.999, 1e-7
        m = v = 0.0
        theta_expected = 5.0
        p = packed_param(np.array([5.0], dtype=np.float64), [g])
        state = AdamState.for_params(p)
        for t in range(1, 11):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            step = lr * m_hat / (np.sqrt(v_hat) + eps)
            theta_expected -= step
            adam_step(p, state, lr)
            assert p["w"].data[0] == pytest.approx(theta_expected, rel=1e-12)
            # constant gradient: per-step move approaches lr * sign(g)
            assert step == pytest.approx(lr, rel=1e-3)

    def test_tensors_outside_one_buffer_rejected(self):
        loose = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(ValueError, match="one ParamBuffer"):
            AdamState.for_params(loose)
        with pytest.raises(ValueError, match="one ParamBuffer"):
            AdamState.for_params({**packed_param([1.0], [0.0]), "u": packed_param([2.0], [0.0])["w"]})

    def test_non_finite_gradient_aborts(self):
        p = packed_param([1.0], np.array([np.inf], dtype=np.float32))
        with pytest.raises(TrainingError, match="w"):
            adam_step(p, AdamState.for_params(p), lr=1e-3)


class TestPlateau:
    # learning-rate cuts
    def test_improving_keeps_lr(self):
        plateau = Plateau(TrainConfig(lr0=1e-3))
        for f1 in (0.5, 0.6, 0.7, 0.8):
            plateau.observe(f1)
            assert plateau.lr == 1e-3

    def test_flat_three_epochs_halves(self):
        plateau = Plateau(TrainConfig(lr0=1e-3))
        plateau.observe(0.5)
        lrs = []
        for _ in range(3):
            plateau.observe(0.5)
            lrs.append(plateau.lr)
        assert lrs == [1e-3, 1e-3, 5e-4]

    def test_floors_at_min_lr(self):
        plateau = Plateau(TrainConfig(lr0=1e-3, min_lr=1e-6))
        plateau.observe(0.9)
        for _ in range(40):
            plateau.observe(0.9)
        assert plateau.lr == 1e-6

    def test_lr_sequence_non_increasing(self):
        rng = np.random.default_rng(0)
        plateau = Plateau(TrainConfig(lr0=1e-3))
        last = 1e-3
        for f1 in rng.random(50):
            plateau.observe(f1)
            assert plateau.lr <= last
            last = plateau.lr

    # early stopping and the best epoch
    def test_monotone_never_stops(self):
        plateau = Plateau(TrainConfig())
        for f1 in np.linspace(0.1, 0.9, 60):
            assert not plateau.observe(f1)

    def test_single_peak_then_flat_stops_at_seven(self):
        plateau = Plateau(TrainConfig())
        flags = [plateau.observe(f1) for f1 in [0.9] + [0.85] * 6]
        assert flags == [False] * 6 + [True]
        assert plateau.best_epoch == 1

    def test_tie_keeps_earliest(self):
        plateau = Plateau(TrainConfig())
        for f1 in (0.5, 0.8, 0.6, 0.7, 0.8):
            plateau.observe(f1)
        assert plateau.best_epoch == 2

    def test_cuts_and_stop_share_the_stall_count(self):
        """A gain resets the count both rules read; the LR is cut at every
        second stalled epoch and the run stops at the fifth."""
        plateau = Plateau(TrainConfig(lr0=1e-3, plateau_patience=2, early_stop_patience=5))
        lrs, stops = [], []
        for f1 in (0.5, 0.5, 0.5, 0.6, 0.60005, 0.6, 0.6, 0.6, 0.6):
            stops.append(plateau.observe(f1))
            lrs.append(plateau.lr)
        assert lrs == [1e-3, 1e-3, 5e-4, 5e-4, 5e-4, 2.5e-4, 2.5e-4, 1.25e-4, 1.25e-4]
        assert stops == [False] * 8 + [True]
        assert plateau.best_epoch == 5  # 0.60005 is the argmax, though no 1e-4 gain


class TestTrainLoop:
    def _setup(self, n=240, seed=3):
        features, labels = make_synthetic(n=n, seed=seed)
        features = (features - features.mean(axis=0)) / features.std(axis=0)
        splits = stratified_split(labels, seed=0)
        return features, labels, splits

    def _config(self, **kw):
        base = dict(batch_size=32, max_epochs=2, seed=1)
        base.update(kw)
        return TrainConfig(**base)

    def test_determinism_bitwise(self, tmp_path):
        features, labels, splits = self._setup()
        outs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            model = build_papernet(seed=5)
            train(model, features, labels, splits, self._config(), outdir=outdir)
            outs.append(outdir)
        assert (outs[0] / "weights_best").read_bytes() == (outs[1] / "weights_best").read_bytes()
        assert (outs[0] / "weights_final").read_bytes() == (outs[1] / "weights_final").read_bytes()
        assert history_rows_without_seconds(outs[0] / "history.csv") == \
            history_rows_without_seconds(outs[1] / "history.csv")

    def test_zero_lr_leaves_parameters_bitwise_unchanged(self):
        features, labels, splits = self._setup()
        model = build_papernet(seed=6)
        before = {k: v.data.copy() for k, v in model.trainable().items()}
        config = self._config(lr0=0.0, min_lr=1e-30, dropout=0.0,
                              class_weighting=False, max_epochs=1)
        train(model, features, labels, splits, config)
        for name, arr in before.items():
            np.testing.assert_array_equal(arr, model.params[name].data)

    def test_one_adam_step_per_batch(self, monkeypatch):
        features, labels, splits = self._setup()
        calls = []
        real = training_mod.adam_step

        def counting(params, state, lr):
            calls.append(lr)
            return real(params, state, lr)

        monkeypatch.setattr(training_mod, "adam_step", counting)
        config = self._config(max_epochs=3, batch_size=32)
        # 168 = 5 * 32 + 8 rows make six batches; in 161 = 5 * 32 + 1 the
        # lone last row joins the fifth batch (batch norm needs two rows)
        for n_train, batches in ((168, 6), (161, 5)):
            calls.clear()
            subset = dataclasses.replace(splits, train=splits.train[:n_train])
            train(build_papernet(seed=7), features, labels, subset, config)
            assert len(calls) == 3 * batches

    def test_best_checkpoint_at_least_final(self):
        features, labels, splits = self._setup()
        model = build_papernet(seed=8)
        best, final, history = train(
            model, features, labels, splits, self._config(max_epochs=4)
        )

        def val_f1(m):
            from papernet.metrics import confusion, prf_metrics

            probs = predict_probs(m, features[splits.val])
            return prf_metrics(
                confusion(labels[splits.val], probs.argmax(axis=1), 4)
            ).macro_f1

        assert val_f1(best) >= val_f1(final) - 1e-12
        assert history.best_val_macro_f1() == pytest.approx(val_f1(best), abs=1e-12)

    def test_history_lr_column_non_increasing(self):
        features, labels, splits = self._setup()
        _, _, history = train(
            build_papernet(seed=9), features, labels, splits, self._config(max_epochs=3)
        )
        lrs = [r.lr for r in history.records]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert all(r.epoch == i + 1 for i, r in enumerate(history.records))

    def test_trained_models_round_trip_through_their_weight_files(self, tmp_path):
        """``train`` changes nothing on a model that its weight file does not
        hold: loading weights_best and weights_final gives back the best and
        the trained model, field for field, at a non-default dropout."""
        features, labels, splits = self._setup()
        finals = []
        for dropout in (0.3, 0.5):
            model = build_papernet(seed=4)
            best, _, _ = train(model, features, labels, splits, self._config(dropout=dropout),
                               outdir=tmp_path / str(dropout))
            finals.append(model.flat.data.tobytes())
        for trained, name in ((best, "weights_best"), (model, "weights_final")):
            loaded = load_weights(tmp_path / "0.5" / name)
            for field in dataclasses.fields(ModelGraph):
                a, b = getattr(trained, field.name), getattr(loaded, field.name)
                if field.name == "params":
                    a, b = ({k: (t.data.tobytes(), t.requires_grad) for k, t in m.items()}
                            for m in (a, b))
                elif field.name == "flat":
                    a, b = a.data.tobytes(), b.data.tobytes()
                assert a == b, field.name
        # the rate reached the train-mode forward
        assert finals[0] != finals[1]

    def test_non_finite_loss_aborts_with_context(self):
        features, labels, splits = self._setup()
        model = build_papernet(seed=10)
        config = self._config(lr0=1e18, max_epochs=2)  # blows up immediately
        with pytest.raises(TrainingError, match="epoch 1 batch 1"):
            train(model, features, labels, splits, config)
        # one batch per epoch: the first non-finite output is in validation
        config = self._config(lr0=1e18, max_epochs=2, batch_size=512)
        with pytest.raises(TrainingError, match="epoch 1 validation"):
            train(build_papernet(seed=10), features, labels, splits, config)
        # 268 validation rows: the error comes from both inference threads
        features, labels, splits = self._setup(n=1800)
        assert len(splits.val) > training_mod.INFER_BATCH
        config = self._config(lr0=1e18, max_epochs=2, batch_size=len(splits.train))
        with pytest.raises(TrainingError, match="^epoch 1 validation: non-finite values"):
            train(build_papernet(seed=10), features, labels, splits, config)

    def test_learns_separable_data(self):
        features, labels, splits = self._setup(n=400, seed=11)
        config = self._config(max_epochs=8, batch_size=64)
        _, _, history = train(
            build_papernet(seed=12), features, labels, splits, config
        )
        assert history.best_val_macro_f1() > 0.8

    def test_config_validation(self):
        for batch_size in (0, 1):  # batch norm needs two rows
            with pytest.raises(ConfigError):
                TrainConfig(batch_size=batch_size).validate()
        with pytest.raises(ConfigError):
            TrainConfig(plateau_factor=1.5).validate()
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1).validate()


class TestSoftmaxIntoLoss:
    def test_gradient_direction_reduces_loss(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.normal(size=(16, 4)), requires_grad=True, dtype=np.float64)
        onehot = np.eye(4)[rng.integers(0, 4, size=16)]
        with ComputationTape() as tape:
            loss = weighted_cross_entropy(logits, onehot)
            backward(tape, loss)
        stepped = Tensor(logits.data - 0.1 * logits.grad, dtype=np.float64)
        new_loss = weighted_cross_entropy(stepped, onehot)
        assert new_loss.item() < loss.item()


class TestInferErrors:
    """A call of more than INFER_BATCH rows fails as one of at most
    INFER_BATCH rows does, whichever thread ran the failing rows."""

    def test_overflow_raises_non_finite_error_and_no_warning(self):
        model = build_papernet(seed=5)
        model.params["conv1.bias"].data[...] = 3e38
        rows = np.zeros((600, 16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns outside the infer loop
            with pytest.raises(RuntimeWarning, match="overflow encountered in matmul"):
                forward(model, rows[:1, :, None])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteError,
                               match="^non-finite values produced by conv1d_same$"):
                predict_probs(model, rows)
        assert caught == []

    def test_nan_weight_same_message_at_any_length(self):
        model = build_papernet(seed=5)
        model.params["dense2.weight"].data[0, 0] = np.nan
        rows = np.zeros((600, 16))
        messages = []
        for n in (1, 600):
            with pytest.raises(NonFiniteError) as info:
                predict_probs(model, rows[:n])
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "non-finite values produced by dense"

    @pytest.mark.parametrize("bad, layer", [
        # one window: the worker's rows fail at an earlier layer
        ({5: 3e38, 200: np.inf}, "conv1d_same"),
        # the worker's failure lies in the earlier window
        ({200: np.inf, 300: 3e38}, "conv1d_same"),
        # the caller's failure lies in the earlier window
        ({5: 3e38, 400: np.inf}, "se_residual_attention"),
    ])
    def test_error_is_the_serial_loops(self, bad, layer):
        model = build_papernet(seed=5)
        rows = np.zeros((600, 16))
        for row, value in bad.items():
            rows[row] = value  # 3e38 fails at a later layer than inf does
        step = training_mod.INFER_BATCH
        with training_mod._quiet_fp():
            with pytest.raises(NonFiniteError) as serial:
                for start in range(0, len(rows), step):
                    forward(model, rows[start : start + step, :, None])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteError) as got:
                predict_probs(model, rows)
        assert str(got.value) == str(serial.value) == f"non-finite values produced by {layer}"
        assert caught == []  # neither thread let numpy warn


class TestInferBatches:
    @pytest.mark.parametrize("attention", [False, True])
    def test_batches_fill_one_array(self, attention):
        """Bit for bit the serial INFER_BATCH-row forwards, on either side
        of the inline path's limit."""
        step = training_mod.INFER_BATCH
        all_rows = np.random.default_rng(6).standard_normal((2048, 16))
        for dtype in (np.float32, np.float64):
            model = build_papernet(seed=5, dtype=dtype)
            for n in (1, 255, 256, 257, 600, 2048):
                rows = all_rows[:n]
                got = training_mod.infer_batches(model, rows, return_attention=attention)
                parts = [
                    forward(model, rows[start : start + step, :, None],
                            return_attention=attention)
                    for start in range(0, n, step)
                ]
                expected = np.concatenate(
                    [p[1].data if attention else training_mod._softmax(p.data) for p in parts]
                )
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, expected, err_msg=f"{dtype.__name__}, n={n}")

    def test_concurrent_callers_get_the_serial_bits(self):
        model = build_papernet(seed=5)
        rows = np.random.default_rng(6).standard_normal((4, 600, 16))
        expected = [training_mod.infer_batches(model, r) for r in rows]
        got = {}

        def call(k):
            got[k] = training_mod.infer_batches(model, rows[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for k in range(4):
            np.testing.assert_array_equal(got[k], expected[k])

    @pytest.mark.parametrize("n, sizes", [
        (1, [1]),
        (256, [256]),
        (257, [128, 128, 1]),
        (600, [128, 128, 128, 128, 88]),
    ])
    def test_long_calls_run_half_batches_on_two_threads(self, monkeypatch, n, sizes):
        seen = []

        def spy(model, batch, *args, **kwargs):
            seen.append((len(batch), threading.current_thread(), threading.active_count()))
            return forward(model, batch, *args, **kwargs)

        monkeypatch.setattr(training_mod, "forward", spy)
        before = threading.active_count()
        training_mod.infer_batches(build_papernet(seed=5), np.zeros((n, 16)))
        assert sorted(size for size, _, _ in seen) == sorted(sizes)
        threads = {thread for _, thread, _ in seen}
        if len(sizes) == 1:  # inline: no thread is started
            assert threads == {threading.current_thread()}
            assert [count for _, _, count in seen] == [before]
            assert threading.active_count() == before
        else:
            (worker,) = threads - {threading.current_thread()}
            assert worker.name == "papernet-infer" and worker.daemon

    def test_one_worker_serves_every_long_call(self):
        model = build_papernet(seed=5)
        rows = np.zeros((600, 16), dtype=np.float32)
        training_mod.infer_batches(model, rows)
        workers = [t for t in threading.enumerate() if t.name == "papernet-infer"]
        count = threading.active_count()
        for _ in range(3):
            training_mod.infer_batches(model, rows)
        assert len(workers) == 1
        assert [t for t in threading.enumerate() if t.name == "papernet-infer"] == workers
        assert threading.active_count() == count
        # and it keeps nothing of a finished call
        ref = weakref.ref(rows)
        del rows
        assert ref() is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_worker(self):
        model = build_papernet(seed=5)
        rows = np.random.default_rng(6).standard_normal((600, 16))
        expected = training_mod.infer_batches(model, rows)  # the parent's worker runs
        pid = os.fork()
        if pid == 0:  # the child: report through the exit code, never return
            code = 2
            try:
                code = int(not np.array_equal(training_mod.infer_batches(model, rows), expected))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's long infer call did not return")
        assert os.waitstatus_to_exitcode(status[1]) == 0

    @pytest.mark.parametrize("attention, width", [(False, 4), (True, 128)])
    def test_no_rows_give_empty_array(self, attention, width):
        got = training_mod.infer_batches(build_papernet(seed=5), np.zeros((0, 16)),
                                         return_attention=attention)
        assert got.shape == (0, width) and got.dtype == np.float32
