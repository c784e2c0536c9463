import numpy as np
import pytest

from papernet import checks
from papernet.errors import ShapeError
from papernet.model import (
    VARIANTS,
    build_papernet,
    count_non_trainable,
    count_parameters,
    forward,
)
from papernet.tensor import ComputationTape
from papernet.training import predict_probs, weighted_cross_entropy

EXPECTED_SHAPE_CHAIN = [
    ("conv_block1", (16, 32)),
    ("conv_block2", (16, 64)),
    ("maxpool", (8, 64)),
    ("conv_block3", (8, 128)),
    ("attention", (8, 128)),
    ("bilstm", (8, 128)),
    ("pool", (128,)),
    ("dense1", (128,)),
    ("output", (4,)),
]

# layer-by-layer arithmetic, frozen:
#   conv1 5*1*32+32, bn1 2*32, conv2 5*32*64+64, bn2 2*64,
#   conv3 3*64*128+128, bn3 2*128, se 128*32+32+32*128+128,
#   bilstm 2*(4*64*(128+64)+4*64), dense1 128*128+128, dense2 128*4+4
FULL_PARAM_COUNT = 159_844
SE_PARAM_COUNT = 8_352
LSTM_PARAM_COUNT = 98_816


def batch(n=4, t=16, seed=0):
    return np.random.default_rng(seed).standard_normal((n, t, 1)).astype(np.float32)


class TestBuild:
    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            build_papernet(variant="no_dropout")

    def test_too_small_dimensions(self):
        with pytest.raises(ValueError):
            build_papernet(num_classes=1)
        with pytest.raises(ValueError):
            build_papernet(input_length=1)

    def test_lstm_forget_bias_is_one(self):
        m = build_papernet()
        for direction in ("fw", "bw"):
            bias = m.params[f"lstm_{direction}.bias"].data
            np.testing.assert_array_equal(bias[64:128], 1.0)
            np.testing.assert_array_equal(bias[:64], 0.0)

    def test_same_seed_same_weights(self):
        a = build_papernet(seed=5)
        b = build_papernet(seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_class_count_and_dtype_read_from_the_parameters(self, dtype):
        m = build_papernet(num_classes=3, dtype=dtype)
        for model in (m, m.copy()):
            assert model.num_classes == 3 and model.params["dense2.bias"].shape == (3,)
            assert model.dtype == dtype and model.flat.data.dtype == dtype


class TestShapes:
    def test_shape_chain_for_t16(self):
        trace = []
        forward(build_papernet(), batch(), trace=trace)
        assert trace == EXPECTED_SHAPE_CHAIN

    def test_no_lstm_chain(self):
        trace = []
        forward(build_papernet(variant="no_lstm"), batch(), trace=trace)
        names = [name for name, _ in trace]
        assert "bilstm" not in names
        assert trace[-3] == ("pool", (128,))

    def test_rows_sum_to_one(self):
        probs = predict_probs(build_papernet(), batch(32))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_wrong_input_shape(self):
        m = build_papernet()
        with pytest.raises(ShapeError):
            forward(m, np.zeros((4, 16)))
        with pytest.raises(ShapeError):
            forward(m, np.zeros((4, 12, 1)))


class TestForwardDeterminism:
    def test_duplicated_sample_identical_rows(self):
        m = build_papernet(seed=1)
        x = batch(1, seed=2)
        dup = np.concatenate([x, x, x], axis=0)
        logits = forward(m, dup).data
        np.testing.assert_array_equal(logits[0], logits[1])
        np.testing.assert_array_equal(logits[0], logits[2])

    def test_infer_is_pure(self):
        m = build_papernet(seed=1)
        x = batch(6, seed=3)
        np.testing.assert_array_equal(forward(m, x).data, forward(m, x).data)

    def test_batch_vs_single_equivalence(self):
        m = build_papernet(seed=4)
        x = batch(8, seed=5)
        batched = forward(m, x).data
        singles = np.concatenate([forward(m, x[i : i + 1]).data for i in range(8)])
        np.testing.assert_allclose(batched, singles, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_outside_a_tape_matches_recorded_forward(self, variant, dtype):
        # outside a tape the layers skip backward-only state and work in
        # place; inside one they keep it: the outputs must agree bitwise
        m = build_papernet(variant=variant, seed=12, dtype=dtype)
        rng = np.random.default_rng(13)
        for i in (1, 2, 3):
            for name in ("gamma", "beta", "running_mean", "running_var"):
                p = m.params[f"bn{i}.{name}"]
                p.data[...] = rng.uniform(0.5, 2.0, size=p.shape)
        x = batch(37, seed=14).astype(dtype)
        with_attention = variant != "no_attention"
        untaped = forward(m, x, return_attention=with_attention)
        with ComputationTape() as tape:
            taped = forward(m, x, return_attention=with_attention)
        assert tape.nodes
        if with_attention:
            np.testing.assert_array_equal(untaped[1].data, taped[1].data)
            untaped, taped = untaped[0], taped[0]
        np.testing.assert_array_equal(untaped.data, taped.data)


class TestParameterCounts:
    def test_full_count_frozen(self):
        m = build_papernet()
        assert count_parameters(m) == FULL_PARAM_COUNT
        assert count_non_trainable(m) == 448  # running stats of 3 BN layers

    def test_se_block_arithmetic(self):
        m = build_papernet()
        se = sum(v.size for k, v in m.params.items() if k.startswith("se."))
        assert se == SE_PARAM_COUNT == 128 * 32 + 32 + 32 * 128 + 128

    def test_dense_head_arithmetic(self):
        m = build_papernet()
        head = m.params["dense2.weight"].size + m.params["dense2.bias"].size
        assert head == 516 == 128 * 4 + 4

    def test_variant_deltas(self):
        full = count_parameters(build_papernet())
        assert full - count_parameters(build_papernet(variant="no_attention")) == SE_PARAM_COUNT
        assert full - count_parameters(build_papernet(variant="no_lstm")) == LSTM_PARAM_COUNT
        assert full == count_parameters(build_papernet(variant="no_residual"))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dense1_input_width_follows_the_aggregator(self, variant, monkeypatch):
        # the BiLSTM's 2 * LSTM_HIDDEN outputs, 64 here, unlike conv3's 128 channels
        monkeypatch.setattr("papernet.model.LSTM_HIDDEN", 32)
        m = build_papernet(variant=variant)
        width = 128 if variant == "no_lstm" else 64
        assert m.params["dense1.weight"].shape == (width, 128)
        assert forward(m, batch(2)).shape == (2, 4)

    def test_no_lstm_has_no_recurrent_parameters(self):
        m = build_papernet(variant="no_lstm")
        assert not [k for k in m.params if k.startswith("lstm")]

    def test_no_attention_has_no_se_parameters(self):
        m = build_papernet(variant="no_attention")
        assert not [k for k in m.params if k.startswith("se.")]


class TestAttention:
    def test_capture_shape_and_range(self):
        m = build_papernet(seed=6)
        _, attn = forward(m, batch(5, seed=7), return_attention=True)
        assert attn.shape == (5, 128)
        assert np.all(attn.data > 0) and np.all(attn.data < 1)

    def test_no_attention_variant_rejects_capture(self):
        m = build_papernet(variant="no_attention")
        with pytest.raises(ValueError):
            forward(m, batch(2), return_attention=True)


class TestVariantsForward:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_all_variants_produce_probabilities(self, variant):
        m = build_papernet(variant=variant, seed=8)
        assert forward(m, batch(4, seed=9)).shape == (4, 4)
        probs = predict_probs(m, batch(4, seed=9))
        assert probs.shape == (4, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_train_mode_needs_rng_for_dropout(self):
        m = build_papernet(seed=10)
        with pytest.raises(ValueError):
            forward(m, batch(4), mode="train")
        logits = forward(m, batch(4), mode="train", rng=np.random.default_rng(0))
        assert logits.shape == (4, 4)


def test_every_node_of_a_train_step_is_gradchecked(monkeypatch):
    """Each node name a train step records, in every variant, is also
    recorded by some layer-level finite-difference check."""
    checked = set()
    record = ComputationTape.record

    def spy(self, name, *args):
        checked.add(name)
        record(self, name, *args)

    monkeypatch.setattr(ComputationTape, "record", spy)
    for name, check in checks.SUITE.items():
        if not name.startswith("model_"):
            check()
    monkeypatch.undo()
    for variant in VARIANTS:
        model = build_papernet(variant=variant, seed=0)
        rng = np.random.default_rng(0)
        with ComputationTape() as tape:
            logits = forward(model, batch(8), mode="train", rng=rng)
            weighted_cross_entropy(logits, np.eye(4)[np.arange(8) % 4], None, model, 1e-4)
        unchecked = {node.name for node in tape.nodes} - checked
        assert not unchecked, f"{variant} records nodes no check covers: {sorted(unchecked)}"
