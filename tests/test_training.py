import dataclasses

import numpy as np
import pytest

import papernet.training as training_mod
from papernet.data import load_weights, save_weights, stratified_split
from papernet.errors import ConfigError, TrainingError
from papernet.model import build_papernet, forward
from papernet.tensor import ComputationTape, ParamBuffer, Tensor, backward, softmax_lastaxis
from papernet.training import (
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


class TestWeightedCrossEntropy:
    def test_perfect_predictions_zero_loss(self):
        onehot = np.eye(4)[[0, 1, 2, 3]]
        loss = weighted_cross_entropy(Tensor(onehot.astype(np.float64)), onehot)
        assert loss.item() == 0.0

    def test_uniform_probs_log_k(self):
        probs = Tensor(np.full((8, 4), 0.25))
        onehot = np.eye(4)[np.arange(8) % 4]
        loss = weighted_cross_entropy(probs, onehot)
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-6)

    def test_weight_scales_linearly(self):
        probs = Tensor(np.full((6, 4), 0.25))
        onehot = np.eye(4)[np.zeros(6, dtype=int)]
        loss = weighted_cross_entropy(probs, onehot, class_w=[2.0, 1.0, 1.0, 1.0])
        assert loss.item() == pytest.approx(2.0 * np.log(4.0), rel=1e-6)

    def test_l2_penalty_added(self):
        model = build_papernet(seed=0, dtype=np.float64)
        probs = Tensor(np.full((4, 4), 0.25))
        onehot = np.eye(4)
        plain = weighted_cross_entropy(probs, onehot).item()
        with_l2 = weighted_cross_entropy(probs, onehot, model=model, l2=1e-3).item()
        expected_penalty = 1e-3 * sum(
            float(np.sum(w.data**2)) for w in model.weight_matrices()
        )
        assert with_l2 - plain == pytest.approx(expected_penalty, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_cross_entropy(Tensor(np.full((2, 4), 0.25)), np.eye(4))

    def test_floor_and_gradient_above_it(self):
        # powers of two keep -w_y / (B * p_y) exact
        probs = Tensor(np.array([[1e-13, 1 - 1e-13], [0.5, 0.5], [0.25, 0.75], [0.875, 0.125]]),
                       requires_grad=True)
        w = np.array([2.0, 0.5])
        y = np.array([0, 1, 0, 1])
        with ComputationTape() as tape:
            loss = weighted_cross_entropy(probs, np.eye(2)[y], w)
            backward(tape, loss)
        p_y = np.array([1e-12, 0.5, 0.25, 0.125])  # the first row is floored
        assert loss.item() == pytest.approx(np.sum(-w[y] * np.log(p_y)) / 4, rel=1e-12)
        expected = np.zeros((4, 2))
        expected[[1, 2, 3], y[1:]] = -w[y[1:]] / (4 * p_y[1:])
        np.testing.assert_array_equal(probs.grad, expected)

    def test_penalty_gradient_is_two_l2_w(self):
        model = build_papernet(seed=0, dtype=np.float64)
        probs = Tensor(np.full((4, 4), 0.25))
        with ComputationTape() as tape:
            backward(tape, weighted_cross_entropy(probs, np.eye(4), model=model, l2=1e-3))
        matrices = {id(w) for w in model.weight_matrices()}
        for name, p in model.params.items():
            if id(p) in matrices:
                np.testing.assert_array_equal(p.grad, 2 * 1e-3 * p.data, err_msg=name)
            else:
                assert p.grad is None, name

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    def test_one_tape_node(self, l2):
        model = build_papernet(seed=0)
        probs = Tensor(np.full((4, 4), 0.25, dtype=np.float32), requires_grad=True)
        with ComputationTape() as tape:
            weighted_cross_entropy(probs, np.eye(4), [1.0, 2.0, 1.0, 0.5], model, l2)
        assert [node.name for node in tape.nodes] == ["weighted_cross_entropy"]


def test_b64_train_step_records_nineteen_tape_nodes():
    model = build_papernet(seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16, 1)).astype(np.float32)
    with ComputationTape() as tape:
        probs = forward(model, x, mode="train", rng=rng)
        backward(tape, weighted_cross_entropy(probs, np.eye(4)[np.arange(64) % 4], None,
                                              model, 1e-4))
    block = ["conv1d_same", "relu", "batchnorm"]
    assert [node.name for node in tape.nodes] == [
        *block, *block, "maxpool1d", *block, "se_residual_attention", "bilstm",
        "global_max_pool_time", "dense", "relu", "dropout", "dense", "softmax_lastaxis",
        "weighted_cross_entropy",
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
        probs = forward(model, x, mode="train", rng=rng)
        backward(tape, weighted_cross_entropy(probs, np.eye(4)[np.arange(16) % 4], None,
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
    ParamBuffer(p.values())
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
        from papernet.tensor import ComputationTape, backward

        with ComputationTape() as tape:
            loss = weighted_cross_entropy(softmax_lastaxis(logits), onehot)
            backward(tape, loss)
        stepped = Tensor(logits.data - 0.1 * logits.grad, dtype=np.float64)
        new_loss = weighted_cross_entropy(softmax_lastaxis(stepped), onehot)
        assert new_loss.item() < loss.item()


class TestInferBatches:
    @pytest.mark.parametrize("attention", [False, True])
    def test_batches_fill_one_array(self, attention):
        model = build_papernet(seed=5)
        rows = np.random.default_rng(6).standard_normal((training_mod.INFER_BATCH + 3, 16))
        got = training_mod.infer_batches(model, rows, return_attention=attention)
        parts = [
            forward(model, rows[start : start + training_mod.INFER_BATCH, :, None],
                    return_attention=attention)
            for start in (0, training_mod.INFER_BATCH)
        ]
        expected = np.concatenate([(p[1] if attention else p).data for p in parts])
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("attention, width", [(False, 4), (True, 128)])
    def test_no_rows_give_empty_array(self, attention, width):
        got = training_mod.infer_batches(build_papernet(seed=5), np.zeros((0, 16)),
                                         return_attention=attention)
        assert got.shape == (0, width) and got.dtype == np.float32
