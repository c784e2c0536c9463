import math

import numpy as np
import pytest

from conftest import traced
from papernet import layers
from papernet.errors import NonFiniteError, ShapeError
from papernet.tensor import ComputationTape, Tensor, _make_output, backward, gradcheck


def t(data, dtype=np.float64):
    return Tensor(np.asarray(data, dtype=dtype))


@pytest.mark.parametrize(
    "layer",
    [
        lambda x: layers.conv1d_same(x, t(np.zeros((3, 2, 4))), t(np.zeros(4))),
        layers.maxpool1d,
        lambda x: layers.se_residual_attention(
            x, t(np.zeros((2, 1))), t(np.zeros(1)), t(np.zeros((1, 2))), t(np.zeros(2))
        ),
        lambda x: layers.bilstm(x, *[t(np.zeros((4, 3))), t(np.zeros(4))] * 2),
        layers.global_avg_pool_time,
        layers.global_max_pool_time,
    ],
    ids=["conv1d_same", "maxpool1d", "se_residual_attention", "bilstm",
         "global_avg_pool_time", "global_max_pool_time"],
)
def test_unbatched_input_rejected(layer):
    with pytest.raises(ShapeError):
        layer(t(np.zeros((6, 2))))


def _se(residual):
    def layer(x):
        weights = t(np.ones((3, 2))), t(np.ones(2)), t(np.ones((2, 3))), t(np.ones(3))
        return layers.se_residual_attention(x, *weights, residual=residual)[0]

    return layer


@pytest.mark.parametrize(
    "layer, name",
    [
        (lambda x: layers.bilstm(x, *[t(np.zeros((8, 5))), t(np.zeros(8))] * 2), "bilstm"),
        (lambda x: layers.batchnorm(x, *[t(np.ones(3))] * 4, mode="train"), "batchnorm"),
        (lambda x: layers.batchnorm(x, *[t(np.ones(3))] * 4, mode="infer"), "batchnorm"),
        (_se(residual=True), "se_residual_attention"),
        (_se(residual=False), "se_residual_attention"),
        # dense acts on [B, F]: the first time step of x
        (lambda x: layers.dense(Tensor(x.data[:, 0], requires_grad=True), t(np.ones((3, 5))),
                                t(np.ones(5)), relu=True), "dense"),
        (lambda x: layers.dropout(x, 0.5, "train", np.random.default_rng(0)), "dropout"),
        (layers.global_avg_pool_time, "global_avg_pool_time"),
        (layers.global_max_pool_time, "global_max_pool_time"),
    ],
    ids=["bilstm", "batchnorm_train", "batchnorm_infer", "se_residual", "se_no_residual",
         "dense", "dropout_train", "global_avg_pool_time", "global_max_pool_time"],
)
def test_fused_layer_records_one_tape_node(layer, name):
    x = Tensor(np.ones((2, 4, 3)), requires_grad=True)
    with ComputationTape() as tape:
        layer(x)
    assert [node.name for node in tape.nodes] == [name]


class TestFusedRuleGradcheck:
    """The hand-written rules at ten random float64 points each."""

    def _se_rule(residual):
        return lambda rng: (
            lambda *a: layers.se_residual_attention(*a, residual=residual)[0],
            [rng.normal(size=s) for s in ((2, 5, 6), (6, 3), (3,), (3, 6), (6,))],
        )

    RULES = {
        "se_residual": _se_rule(True),
        "se_no_residual": _se_rule(False),
        "dense": lambda rng: (
            lambda *a: layers.dense(*a, relu=False),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)],
        ),
        "dropout": lambda rng: (
            # a fresh rng per call keeps the mask fixed across evaluations
            lambda a: layers.dropout(a, 0.4, "train", np.random.default_rng(7)),
            [rng.normal(size=(5, 6))],
        ),
        "global_avg_pool_time": lambda rng: (layers.global_avg_pool_time,
                                             [rng.normal(size=(3, 5, 4))]),
        # values 0.1 apart: no maximum within the finite-difference step of another
        "global_max_pool_time": lambda rng: (layers.global_max_pool_time,
                                             [rng.permutation(60).reshape(3, 5, 4) / 10.0]),
    }

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_rule_at_ten_random_points(self, name):
        for seed in range(10):
            rng = np.random.default_rng([seed, len(name)])
            fn, arrays = self.RULES[name](rng)
            points = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
            err = gradcheck(fn, points, seed=seed)
            assert err < 1e-5, f"{name} at seed {seed}: {err}"


class TestConv1dSame:
    def test_delta_kernel_is_identity(self):
        # up to the ReLU the layer ends in
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(1, 9, 3)))
        kernel = np.zeros((5, 3, 3))
        kernel[2] = np.eye(3)  # centre tap, identity channel map
        out = layers.conv1d_same(x, t(kernel), t(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0), atol=1e-12)

    def test_hand_oracle(self):
        # brute force: out[t] = sum_i in [t-1, t+1] of x[i], zeros outside
        x, k = [1.0, 2.0, 3.0], [1.0, 1.0, 1.0]
        expected = []
        for i in range(3):
            acc = 0.0
            for j in (i - 1, i, i + 1):
                acc += x[j] if 0 <= j < 3 else 0.0
            expected.append(acc)
        assert expected == [3.0, 6.0, 5.0]
        out = layers.conv1d_same(
            t(np.array(x)[None, :, None]), t(np.array(k)[:, None, None]), t([0.0])
        )
        np.testing.assert_array_equal(out.data[0, :, 0], expected)

    def test_zero_kernel_bias_seven(self):
        x = t(np.random.default_rng(1).normal(size=(1, 6, 2)))
        out = layers.conv1d_same(x, t(np.zeros((3, 2, 4))), t(np.full(4, 7.0)))
        np.testing.assert_array_equal(out.data, np.full((1, 6, 4), 7.0))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            layers.conv1d_same(t(np.zeros((1, 5, 2))), t(np.zeros((3, 4, 8))), t(np.zeros(8)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            layers.conv1d_same(t(np.zeros((1, 5, 2))), t(np.zeros((4, 2, 8))), t(np.zeros(8)))

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(3, 7, 2))
        kernel, bias = t(rng.normal(size=(5, 2, 4))), t(rng.normal(size=4))
        batched = layers.conv1d_same(t(xs), kernel, bias)
        for i in range(3):
            single = layers.conv1d_same(t(xs[i : i + 1]), kernel, bias)
            np.testing.assert_array_equal(batched.data[i], single.data[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_pad_and_stack_im2col_bitwise(self, k, dtype):
        rng = np.random.default_rng(k)
        for _ in range(5):
            batch, length, c_in, c_out = rng.integers(1, 9, size=4)
            x = rng.normal(size=(batch, length, c_in)).astype(dtype)
            kernel = rng.normal(size=(k, c_in, c_out)).astype(dtype)
            bias = rng.normal(size=c_out).astype(dtype)
            g = rng.normal(size=(batch, length, c_out)).astype(dtype)
            with ComputationTape() as tape:
                out = layers.conv1d_same(Tensor(x, requires_grad=True),
                                         Tensor(kernel, requires_grad=True), Tensor(bias))
            got = (out.data, *tape.nodes[0].rule(g))
            for actual, expected in zip(got, _conv_pad_and_stack(x, kernel, bias, g)):
                assert actual.dtype == expected.dtype and actual.shape == expected.shape
                assert actual.tobytes() == expected.tobytes()

    def test_no_input_gradient_for_an_input_without_grad(self):
        rng = np.random.default_rng(4)
        x, g = rng.normal(size=(2, 3, 6, 2))
        kernel, bias = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True), t(np.zeros(2))
        rules = []
        for needs_grad in (True, False):
            with ComputationTape() as tape:
                layers.conv1d_same(Tensor(x, requires_grad=needs_grad), kernel, bias)
            rules.append(tape.nodes[0].rule(g))
        (_, *want), (d_x, *got) = rules
        assert d_x is None
        for actual, expected in zip(got, want):
            assert actual.tobytes() == expected.tobytes()


def _conv_pad_and_stack(x, kernel, bias, g):
    """Output and (dx, dkernel, dbias) of a same-padded convolution built
    with ``np.pad`` and an ``np.stack`` of the k shifted slices, then ReLU."""
    k, c_in, c_out = kernel.shape
    batch, length, _ = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    flat = np.stack([xp[:, i : i + length] for i in range(k)], axis=2).reshape(-1, k * c_in)
    w2d = kernel.reshape(k * c_in, c_out)
    out = flat @ w2d
    out += bias
    out = np.maximum(out, 0)
    gb = (g * (out > 0).reshape(g.shape)).reshape(-1, c_out)
    d_patches = (gb @ w2d.T).reshape(batch, length, k, c_in)
    d_xp = np.zeros_like(xp)
    for i in range(k):
        d_xp[:, i : i + length] += d_patches[:, :, i]
    return (out.reshape(batch, length, c_out), d_xp[:, pad : pad + length],
            (flat.T @ gb).reshape(kernel.shape), gb.sum(axis=0))


def relu_reference(a):
    """The generic ReLU tape op that conv1d_same and dense(relu=True) absorbed."""
    data = np.maximum(a.data, 0)

    def rule(g):
        return (g * (a.data > 0),)

    return _make_output(data, (a,), "relu", rule)


def _with_zero_channel(rng, x_shape, w_shape, dtype):
    """Layer input, weight and bias whose output channel 1 is exactly 0
    before the ReLU."""
    x, w = rng.normal(size=x_shape).astype(dtype), rng.normal(size=w_shape).astype(dtype)
    w[..., 1] = 0
    bias = np.array([0.5, 0.0, -0.5, 0.0], dtype=dtype)
    return x, w, bias


class TestFusedRelu:
    """The ReLU inside conv1d_same and dense against the layer followed by
    ReLU, bitwise: outputs and all three gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_matches_conv_then_maximum(self, dtype):
        rng = np.random.default_rng(9)
        x, kernel, bias = _with_zero_channel(rng, (3, 6, 2), (3, 2, 4), dtype)
        g = rng.normal(size=(3, 6, 4)).astype(dtype)
        g[:, ::2] = -0.0
        with ComputationTape() as tape:
            out = layers.conv1d_same(Tensor(x, requires_grad=True),
                                     Tensor(kernel, requires_grad=True), Tensor(bias))
        assert not out.data[..., 1].any()
        got = (out.data, *tape.nodes[0].rule(g))
        for actual, expected in zip(got, _conv_pad_and_stack(x, kernel, bias, g)):
            assert actual.dtype == expected.dtype and actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_matches_dense_then_relu_node(self, dtype):
        rng = np.random.default_rng(10)
        arrays = _with_zero_channel(rng, (5, 3), (3, 4), dtype)
        g = rng.normal(size=(5, 4)).astype(dtype)
        g[::2] = -0.0
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            with ComputationTape() as tape:
                if fused:
                    out = layers.dense(x, w, b, relu=True)
                else:
                    out = relu_reference(layers.dense(x, w, b, relu=False))
                # a projection node hands g, bit for bit, to the output
                loss = _make_output(np.asarray((out.data * g).sum()), (out,), "project",
                                    lambda ones: (ones * g,))
                backward(tape, loss)
            results.append([out.data, x.grad, w.grad, b.grad])
        assert not results[0][0][:, 1].any()
        for actual, expected in zip(*results):
            assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer", ["conv1d_same", "dense"])
    def test_non_finite_pre_activation_names_the_layer(self, layer, dtype):
        # ReLU would turn the -inf into 0: the check runs before it
        with pytest.raises(NonFiniteError, match=layer):
            if layer == "conv1d_same":
                layers.conv1d_same(t([[[1.0], [-np.inf], [2.0]]], dtype),
                                   t(np.ones((3, 1, 1)), dtype), t([0.0], dtype))
            else:
                layers.dense(t([[1.0, -np.inf]], dtype), t(np.ones((2, 1)), dtype),
                             t([0.0], dtype), relu=True)


class TestMaxPool:
    def test_definition(self):
        out = layers.maxpool1d(t(np.array([1.0, 3.0, 2.0, 5.0])[None, :, None]))
        np.testing.assert_array_equal(out.data[0, :, 0], [3.0, 5.0])

    def test_halves_sixteen_to_eight(self):
        out = layers.maxpool1d(t(np.random.default_rng(0).normal(size=(1, 16, 64))))
        assert out.shape == (1, 8, 64)

    def test_constant_invariance(self):
        out = layers.maxpool1d(t(np.full((1, 6, 3), 2.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 2.5))

    def test_odd_trailing_dropped(self):
        out = layers.maxpool1d(t(np.array([1.0, 2.0, 9.0])[None, :, None]))
        np.testing.assert_array_equal(out.data[0, :, 0], [2.0])

    def test_too_short(self):
        with pytest.raises(ShapeError):
            layers.maxpool1d(t(np.zeros((1, 1, 3))))

    @pytest.mark.parametrize("pool", [0, -1])
    def test_pool_below_one_rejected(self, pool):
        with pytest.raises(ShapeError, match="pool"):
            layers.maxpool1d(t(np.zeros((1, 4, 3))), pool=pool)

    def test_tied_maxima_send_gradient_to_first_index(self):
        # windows of 3 steps; channel 0 ties in both windows, channel 1 in
        # the second only; the 7th step is dropped
        x = Tensor(
            np.array([[[2.0, 1.0], [2.0, 5.0], [0.0, 3.0],
                       [4.0, 6.0], [1.0, 0.0], [4.0, 6.0], [9.0, 9.0]]]),
            requires_grad=True,
        )
        with ComputationTape() as tape:
            out = layers.maxpool1d(x, pool=3)
        np.testing.assert_array_equal(out.data, [[[2.0, 5.0], [4.0, 6.0]]])
        (d_x,) = tape.nodes[0].rule(np.array([[[10.0, 20.0], [30.0, 40.0]]]))
        expected = np.zeros((1, 7, 2))
        expected[0, 0, 0], expected[0, 1, 1] = 10.0, 20.0
        expected[0, 3, 0], expected[0, 3, 1] = 30.0, 40.0
        np.testing.assert_array_equal(d_x, expected)


def _masked_copy_window_max_rule(x, pool, g):
    """Oracle: the first-max rule as one masked copy of g per window step
    into zeros, the form the layer used before it wrote whole steps."""
    batch, length, channels = x.shape
    t_out = length // pool
    windows = x[:, : t_out * pool].reshape(batch, t_out, pool, channels)
    out = windows.max(axis=2)
    d_x = np.zeros_like(x)
    d_win = d_x[:, : t_out * pool].reshape(windows.shape)
    free = np.ones(out.shape, dtype=bool)
    for i in range(pool):
        hit = windows[:, :, i] == out
        hit &= free
        np.copyto(d_win[:, :, i], g, where=hit)
        free &= ~hit
    return d_x


class TestWindowMaxRuleOracle:
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pool", ["2", "T", "global"])
    def test_matches_masked_copy_bytewise(self, pool, dtype, batch):
        rng = np.random.default_rng(batch + len(pool))
        x = rng.integers(-2, 3, size=(batch, 17, 9)).astype(dtype)  # ties everywhere
        x[:, :, ::3] = rng.standard_normal(x[:, :, ::3].shape)
        width = 17 if pool != "2" else 2
        g = rng.standard_normal((batch, 17 // width, 9)).astype(dtype)
        g[rng.random(g.shape) < 0.3] = -0.0
        g[rng.random(g.shape) < 0.1] = 0.0
        g[:, :, 1] = -0.0
        xt = Tensor(x, requires_grad=True)
        with ComputationTape() as tape:
            if pool == "global":
                layers.global_max_pool_time(xt)
            else:
                layers.maxpool1d(xt, pool=width)
        (d_x,) = tape.nodes[0].rule(g[:, 0] if pool == "global" else g)
        want = _masked_copy_window_max_rule(x, width, g)
        assert (d_x.dtype, d_x.shape, d_x.strides) == (want.dtype, want.shape, want.strides)
        assert d_x.tobytes() == want.tobytes()
        assert (np.signbit(d_x) & (d_x == 0)).any()  # a -0.0 reached a maximum


class TestBatchNorm:
    def _params(self, c):
        return (
            Tensor(np.ones(c), requires_grad=True, dtype=np.float64),
            Tensor(np.zeros(c), requires_grad=True, dtype=np.float64),
            Tensor(np.zeros(c), dtype=np.float64),
            Tensor(np.ones(c), dtype=np.float64),
        )

    def test_two_point_channel(self):
        gamma, beta, rm, rv = self._params(1)
        x = t(np.array([0.0, 2.0]).reshape(2, 1, 1))
        out = layers.batchnorm(x, gamma, beta, rm, rv, "train")
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-3)

    def test_affine_law(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(8, 10, 2))
        raw = (raw - raw.mean(axis=(0, 1))) / raw.std(axis=(0, 1))
        gamma = Tensor(np.full(2, 3.0), dtype=np.float64)
        beta = Tensor(np.full(2, 5.0), dtype=np.float64)
        _, _, rm, rv = self._params(2)
        out = layers.batchnorm(t(raw), gamma, beta, rm, rv, "train")
        np.testing.assert_allclose(out.data.mean(axis=(0, 1)), 5.0, atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=(0, 1)), 3.0, atol=5e-3)

    def test_infer_identity(self):
        gamma, beta, rm, rv = self._params(3)
        x = t(np.random.default_rng(4).normal(size=(2, 5, 3)))
        out = layers.batchnorm(x, gamma, beta, rm, rv, "infer")
        np.testing.assert_allclose(out.data, x.data, atol=2e-3)

    def test_batch_of_one_rejected_in_train(self):
        gamma, beta, rm, rv = self._params(2)
        with pytest.raises(ShapeError):
            layers.batchnorm(t(np.zeros((1, 4, 2))), gamma, beta, rm, rv, "train")

    def test_running_stats_updated_with_momentum(self):
        gamma, beta, rm, rv = self._params(1)
        x = t(np.array([0.0, 4.0]).reshape(2, 1, 1))  # batch mean 2, var 4
        layers.batchnorm(x, gamma, beta, rm, rv, "train")
        np.testing.assert_allclose(rm.data, [0.9 * 0.0 + 0.1 * 2.0])
        np.testing.assert_allclose(rv.data, [0.9 * 1.0 + 0.1 * 4.0])

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("shape", [(2, 3, 3), (5, 7, 4), (64, 16, 32)])
    def test_matches_mean_reduction_oracle(self, shape, mode):
        rng = np.random.default_rng(shape)
        x = rng.normal(1.5, 2.0, size=shape)
        g = rng.normal(size=shape)
        gamma, beta = rng.normal(size=(2, shape[2]))
        stats = rng.normal(size=shape[2]), rng.uniform(0.5, 2.0, size=shape[2])
        rm, rv = (Tensor(s.copy()) for s in stats)
        with ComputationTape() as tape:
            out = layers.batchnorm(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                                   Tensor(beta, requires_grad=True), rm, rv, mode)
        got = (out.data, *tape.nodes[0].rule(g), rm.data, rv.data)
        for actual, expected in zip(got, _batchnorm_mean_oracle(x, gamma, beta, *stats, g, mode)):
            np.testing.assert_allclose(actual, expected, rtol=1e-12,
                                       atol=1e-12 * np.abs(expected).max())


def _batchnorm_mean_oracle(x, gamma, beta, running_mean, running_var, g, mode,
                           eps=1e-3, momentum=0.9):
    """Output, (d_x, d_gamma, d_beta) and the new running statistics of
    batch norm by the textbook formula, with numpy means over (batch, time):
    d_x = inv_std * (d_xhat - mean(d_xhat) - x_hat * mean(d_xhat * x_hat))."""
    if mode == "train":
        mean = x.mean(axis=(0, 1))
        centered = x - mean
        var = (centered * centered).mean(axis=(0, 1))
        running_mean = momentum * running_mean + (1.0 - momentum) * mean
        running_var = momentum * running_var + (1.0 - momentum) * var
    else:
        centered = x - running_mean
        var = running_var
    inv_std = (var + eps) ** -0.5
    x_hat = centered * inv_std
    d_xhat = g * gamma
    if mode == "train":
        d_xhat = (d_xhat - d_xhat.mean(axis=(0, 1))
                  - x_hat * (d_xhat * x_hat).mean(axis=(0, 1)))
    return (x_hat * gamma + beta, d_xhat * inv_std, (g * x_hat).sum(axis=(0, 1)),
            g.sum(axis=(0, 1)), running_mean, running_var)


def _x_hat_keeping_batchnorm(xd, gamma, beta, running_mean, running_var, mode):
    """Oracle: batch norm as the layer ran a recorded call while it kept
    x_hat from its forward for the rule. Updates the running statistics in
    place, as the layer does; returns the output and the rule."""
    n = xd.size // xd.shape[2]
    if mode == "train":
        mean = layers._colsum(xd) / n
        centered = xd - mean
        var = layers._colsum(centered * centered) / n
        running_mean[...] = layers.BN_MOMENTUM * running_mean + (1.0 - layers.BN_MOMENTUM) * mean
        running_var[...] = layers.BN_MOMENTUM * running_var + (1.0 - layers.BN_MOMENTUM) * var
    else:
        centered = xd - running_mean
        var = running_var
    inv_std = (var + layers.BN_EPS) ** -0.5
    x_hat = centered * inv_std
    out = x_hat * gamma + beta

    def rule(g):
        d_beta = layers._colsum(g)
        d_gamma = layers._colsum(g * x_hat)
        if mode == "infer":
            return g * (gamma * inv_std), d_gamma, d_beta
        d_x = x_hat * (d_gamma / n)
        np.subtract(g, d_x, out=d_x)
        d_x -= d_beta / n
        d_x *= gamma * inv_std
        return d_x, d_gamma, d_beta

    return out, rule


def _batchnorm_case(batch, steps, channels, dtype, seed):
    """Input, upstream gradient, gamma, beta and running statistics at a
    batch-norm shape of the model: half the channels ReLU outputs, channel 0
    constant (zero batch variance), and g holding 0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.5, 2.0, size=(batch, steps, channels))
    x[..., 1::2] = np.maximum(x[..., 1::2], 0.0)
    x[..., 0] = 0.75
    g = rng.standard_normal((batch, steps, channels))
    g[rng.random(g.shape) < 0.2] = -0.0
    g[rng.random(g.shape) < 0.1] = 0.0
    g[..., 1] = -0.0
    params = (rng.normal(1.0, 0.3, channels), rng.normal(size=channels),
              rng.normal(size=channels), rng.uniform(0.5, 2.0, channels))
    return [a.astype(dtype) for a in (x, g, *params)]


# the model's three batch-norm inputs per sample: conv1, conv2 and, after
# the pooling, conv3 outputs
BN_SHAPES = [(16, 32), (16, 64), (8, 128)]


class TestBatchNormRecomputedXHat:
    """The rule recomputes x_hat from the input instead of keeping it; the
    output, the gradients and the running statistics keep the bits of the
    layer that kept it, and a recorded call keeps about one [B, T, C] array."""

    @pytest.mark.parametrize("shape", BN_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("batch", [2, 3, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_matches_x_hat_keeping_layer_bytewise(self, mode, dtype, batch, shape):
        x, g, gamma, beta, rm, rv = _batchnorm_case(batch, *shape, dtype, seed=batch + shape[1])
        stats = Tensor(rm.copy()), Tensor(rv.copy())
        with ComputationTape() as tape:
            out = layers.batchnorm(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                                   Tensor(beta, requires_grad=True), *stats, mode)
        got = [out.data, *tape.nodes[0].rule(g), stats[0].data, stats[1].data]
        want_out, want_rule = _x_hat_keeping_batchnorm(x, gamma, beta, rm, rv, mode)
        want = [want_out, *want_rule(g), rm, rv]
        for actual, expected in zip(got, want):
            assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
            assert actual.tobytes() == expected.tobytes()
        if mode == "train":  # the constant channel normalizes to beta
            assert (got[0][..., 0] == beta[0]).all()

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_recorded_call_keeps_one_array(self, mode):
        x, g, gamma, beta, rm, rv = _batchnorm_case(64, *BN_SHAPES[2], np.float32, seed=1)
        args = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        args += [Tensor(rm), Tensor(rv)]
        with ComputationTape() as tape:
            # the output and C-sized arrays: 1.01 with numpy 2.4; the layer that
            # kept x_hat read 2.01
            kept, _ = traced(lambda: layers.batchnorm(*args, mode), x.nbytes)
        assert kept <= 1.25
        # the recomputed x_hat and g * x_hat: 2.02 with numpy 2.4; x_hat then
        # becomes d_x. The layer that kept x_hat read 1.14
        _, peak = traced(lambda: tape.nodes[0].rule(g), x.nbytes)
        assert peak <= 2.25

    def test_rule_reads_the_mean_its_infer_forward_used(self):
        x, g, gamma, beta, rm, rv = _batchnorm_case(3, *BN_SHAPES[0], np.float64, seed=2)

        def grads(train_call_between):
            stats = Tensor(rm.copy()), Tensor(rv.copy())
            params = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
            with ComputationTape() as tape:
                layers.batchnorm(Tensor(x, requires_grad=True), *params, *stats, "infer")
            if train_call_between:  # writes the running statistics in place
                layers.batchnorm(Tensor(x + 3.0), *params, *stats, "train")
                assert not (stats[0].data == rm).any()
            return tape.nodes[0].rule(g)

        for actual, expected in zip(grads(True), grads(False)):
            assert actual.tobytes() == expected.tobytes()


class TestColumnSum:
    @pytest.mark.parametrize("shape", [(6,), (1, 4), (64, 10), (3, 5, 7), (64, 16, 32),
                                       (2, 3, 4, 5)])
    def test_matches_sum_over_leading_axes(self, shape):
        a = np.random.default_rng(shape).normal(size=shape)
        leading = tuple(range(a.ndim - 1))
        np.testing.assert_allclose(layers._colsum(a), a.sum(axis=leading), rtol=1e-12,
                                   atol=1e-12 * np.abs(a).sum())

    def test_strided_input(self):
        a = np.random.default_rng(1).normal(size=(9, 12, 6))[:, 2:10:2, ::-1]
        np.testing.assert_allclose(layers._colsum(a), a.sum(axis=(0, 1)), rtol=1e-12)


class TestSeResidualAttention:
    def _weights(self, c=8, hidden=3, fill=0.0):
        return (
            t(np.full((c, hidden), fill)),
            t(np.zeros(hidden)),
            t(np.full((hidden, c), fill)),
            t(np.zeros(c)),
        )

    def test_zero_weights_give_half_attention(self):
        rng = np.random.default_rng(5)
        feats = t(rng.normal(size=(1, 4, 8)))
        out, attn = layers.se_residual_attention(feats, *self._weights())
        np.testing.assert_array_equal(attn.data, np.full((1, 8), 0.5))
        np.testing.assert_allclose(out.data, 1.5 * feats.data, rtol=1e-12)

    def test_attention_near_zero_keeps_features(self):
        rng = np.random.default_rng(6)
        feats = t(rng.normal(size=(1, 4, 8)))
        w1, b1, w2, _ = self._weights()
        b2 = t(np.full(8, -40.0))  # sigmoid(-40) ~ 4e-18
        out, attn = layers.se_residual_attention(feats, w1, b1, w2, b2)
        assert np.all(attn.data < 1e-15)
        np.testing.assert_allclose(out.data, feats.data, rtol=1e-12)

    def test_attention_near_one_doubles_features(self):
        rng = np.random.default_rng(7)
        feats = t(rng.normal(size=(1, 4, 8)))
        w1, b1, w2, _ = self._weights()
        b2 = t(np.full(8, 40.0))
        out, attn = layers.se_residual_attention(feats, w1, b1, w2, b2)
        assert np.all(attn.data > 1.0 - 1e-15)
        np.testing.assert_allclose(out.data, 2.0 * feats.data, rtol=1e-9)

    def test_no_residual_scales_only(self):
        rng = np.random.default_rng(8)
        feats = t(rng.normal(size=(1, 4, 8)))
        out, attn = layers.se_residual_attention(
            feats, *self._weights(), residual=False
        )
        np.testing.assert_allclose(out.data, 0.5 * feats.data, rtol=1e-12)

    def test_residual_sandwich_bounds(self):
        rng = np.random.default_rng(9)
        feats = t(rng.normal(size=(2, 6, 8)))
        w1 = t(rng.normal(size=(8, 3)))
        b1 = t(rng.normal(size=3))
        w2 = t(rng.normal(size=(3, 8)))
        b2 = t(rng.normal(size=8))
        out, attn = layers.se_residual_attention(feats, w1, b1, w2, b2)
        assert np.all(attn.data > 0) and np.all(attn.data < 1)
        assert np.all(np.sign(out.data) == np.sign(feats.data))
        mag_in, mag_out = np.abs(feats.data), np.abs(out.data)
        assert np.all(mag_out >= mag_in) and np.all(mag_out <= 2 * mag_in)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            layers.se_residual_attention(t(np.zeros((1, 4, 8))), *self._weights(c=6))

    @pytest.mark.parametrize("arg, shape", [
        (0, (8,)), (1, (4,)), (1, (3, 1)), (2, (4, 8)), (2, (3, 6)), (3, (1, 8)), (3, (6,)),
    ], ids=["w1_1d", "b1_width", "b1_2d", "bottleneck", "w2_width", "b2_2d", "b2_width"])
    def test_argument_shape_checked(self, arg, shape):
        weights = list(self._weights())
        weights[arg] = t(np.zeros(shape))
        with pytest.raises(ShapeError, match="SE " + "w1 b1 w2 b2".split()[arg]):
            layers.se_residual_attention(t(np.zeros((2, 4, 8))), *weights)

    def test_attention_finite_at_extreme_preactivations(self):
        w1, b1, w2, _ = self._weights()
        b2 = t(np.array([-500.0, 500.0] * 4))
        _, attn = layers.se_residual_attention(t(np.ones((1, 4, 8))), w1, b1, w2, b2)
        np.testing.assert_array_equal(attn.data, [[0.0, 1.0] * 4])

    def test_attention_is_outside_the_tape(self):
        feats = Tensor(np.ones((2, 4, 8)), requires_grad=True)
        with ComputationTape() as tape:
            _, attn = layers.se_residual_attention(feats, *self._weights(fill=0.1))
        assert not attn.requires_grad
        assert len(tape.nodes) == 1 and tape.nodes[0].output is not attn

    @pytest.mark.parametrize("residual", [True, False])
    def test_rule_by_hand(self, residual):
        # B=1, T=2, C=1, H=1: desc = mean(F) = 2, z1 = 0.5 * 2 + 0.25 = 1.25
        # (ReLU active), z2 = 2 * 1.25 - 1.5 = 1, a = sigmoid(1), out = F * a (+ F)
        feats = Tensor(np.array([[[1.0], [3.0]]]), requires_grad=True)
        with ComputationTape() as tape:
            layers.se_residual_attention(
                feats, t([[0.5]]), t([0.25]), t([[2.0]]), t([-1.5]), residual=residual
            )
        g = np.array([[[2.0], [1.0]]])
        d_feats, d_w1, d_b1, d_w2, d_b2 = tape.nodes[0].rule(g)
        a = 1.0 / (1.0 + np.exp(-1.0))
        d_z2 = (2.0 * 1.0 + 1.0 * 3.0) * a * (1.0 - a)  # sum_t g * F through the sigmoid
        d_desc = d_z2 * 2.0 * 0.5  # back through w2, the active ReLU and w1
        # skip term, scale term, then the descriptor term spread over T = 2
        np.testing.assert_allclose(d_feats, g * (a + residual) + d_desc / 2.0, rtol=1e-14)
        np.testing.assert_allclose(d_b2, [d_z2], rtol=1e-14)
        np.testing.assert_allclose(d_w2, [[1.25 * d_z2]], rtol=1e-14)
        np.testing.assert_allclose(d_b1, [2.0 * d_z2], rtol=1e-14)
        np.testing.assert_allclose(d_w1, [[2.0 * 2.0 * d_z2]], rtol=1e-14)


class TestBiLstm:
    def test_zero_weights_give_zero_output(self):
        rng = np.random.default_rng(10)
        x = t(rng.normal(size=(2, 5, 4)))
        w = t(np.zeros((12, 7)))
        b = t(np.zeros(12))
        out = layers.bilstm(x, w, b, w, b)
        np.testing.assert_array_equal(out.data, np.zeros((2, 5, 6)))

    def test_scalar_hand_oracle(self):
        # single step, H=1, D=1: gate order (i, f, g, o) over [x, h]
        wx = {"i": 0.4, "f": -0.3, "g": 1.1, "o": 0.7}
        bias = {"i": 0.1, "f": 1.0, "g": -0.2, "o": 0.05}
        x_val = 0.7

        def sigmoid(v):
            return 1.0 / (1.0 + math.exp(-v))

        i = sigmoid(wx["i"] * x_val + bias["i"])
        f = sigmoid(wx["f"] * x_val + bias["f"])
        g = math.tanh(wx["g"] * x_val + bias["g"])
        o = sigmoid(wx["o"] * x_val + bias["o"])
        c = f * 0.0 + i * g
        h_expected = o * math.tanh(c)

        weight = np.array(
            [[wx["i"], 0.9], [wx["f"], -0.8], [wx["g"], 0.2], [wx["o"], -0.5]]
        )
        b = np.array([bias["i"], bias["f"], bias["g"], bias["o"]])
        out = layers.bilstm(t([[[x_val]]]), t(weight), t(b), t(weight), t(b))
        # both directions see the single step with zero initial state
        np.testing.assert_allclose(out.data, [[[h_expected, h_expected]]], rtol=1e-12)

    @staticmethod
    def _numpy_direction(x, weight, bias, reverse):
        """Plain per-step LSTM: gates (i, f, g, o) = [x_t, h] @ W.T + b."""
        batch, steps, _ = x.shape
        hidden = weight.shape[0] // 4
        h, c = np.zeros((batch, hidden)), np.zeros((batch, hidden))
        out = np.zeros((batch, steps, hidden))
        for step in reversed(range(steps)) if reverse else range(steps):
            z = np.concatenate([x[:, step], h], axis=1) @ weight.T + bias
            i, f, g, o = np.split(z, 4, axis=1)
            c = c / (1 + np.exp(-f)) + np.tanh(g) / (1 + np.exp(-i))
            h = np.tanh(c) / (1 + np.exp(-o))
            out[:, step] = h
        return out

    def test_matches_numpy_multistep_loop(self):
        rng = np.random.default_rng(15)
        batch, steps, width, hidden = 3, 6, 4, 5
        x = rng.normal(size=(batch, steps, width))
        w_f, w_b = rng.normal(size=(2, 4 * hidden, width + hidden))
        b_f, b_b = rng.normal(size=(2, 4 * hidden))
        expected = np.concatenate(
            [self._numpy_direction(x, w_f, b_f, False), self._numpy_direction(x, w_b, b_b, True)],
            axis=2,
        )
        weights = [Tensor(a, requires_grad=True) for a in (w_f, b_f, w_b, b_b)]
        untaped = layers.bilstm(t(x), *weights)
        # a recorded call keeps the gates and cells for backward: another path
        with ComputationTape() as tape:
            taped = layers.bilstm(t(x), *weights)
        assert len(tape.nodes) == 1
        np.testing.assert_allclose(untaped.data, expected, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(taped.data, untaped.data)

    def test_time_reversal_direction_swap_symmetry(self):
        rng = np.random.default_rng(11)
        hidden, width = 3, 4
        x = rng.normal(size=(2, 5, width))
        w_f, b_f = rng.normal(size=(12, 7)), rng.normal(size=12)
        w_b, b_b = rng.normal(size=(12, 7)), rng.normal(size=12)
        out = layers.bilstm(t(x), t(w_f), t(b_f), t(w_b), t(b_b))
        swapped = layers.bilstm(t(x[:, ::-1, :].copy()), t(w_b), t(b_b), t(w_f), t(b_f))
        reassembled = np.concatenate(
            [swapped.data[:, ::-1, hidden:], swapped.data[:, ::-1, :hidden]], axis=2
        )
        np.testing.assert_array_equal(out.data, reassembled)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            layers.bilstm(
                t(np.zeros((2, 5, 4))), t(np.zeros((12, 9))), t(np.zeros(12)),
                t(np.zeros((12, 9))), t(np.zeros(12)),
            )

    def test_bias_shape_checked(self):
        w = t(np.zeros((12, 7)))  # H = 3 for D = 4
        with pytest.raises(ShapeError, match="bias"):
            layers.bilstm(t(np.zeros((2, 5, 4))), w, t(np.zeros(8)), w, t(np.zeros(12)))


def _allocating_lstm_backward(g_h, x2d, weight, h_seq, acts, cells, reverse):
    """Oracle: one direction's BPTT as the layer ran it before it worked in
    the forward's gate buffer, with fresh [B, T, 4H] arrays for the gate
    derivatives, the coefficients and d(loss)/dz. Returns the [B*T, D]
    input gradient, the weight gradient and the bias gradient."""
    batch, steps, hidden = h_seq.shape
    width = x2d.shape[1]
    h_prev, c_prev = np.zeros_like(h_seq), np.zeros_like(cells)
    if reverse:
        h_prev[:, :-1], c_prev[:, :-1] = h_seq[:, 1:], cells[:, 1:]
    else:
        h_prev[:, 1:], c_prev[:, 1:] = h_seq[:, :-1], cells[:, :-1]
    i, f, g, o = (acts[..., k * hidden : (k + 1) * hidden] for k in range(4))
    tanh_c = np.tanh(cells)
    deriv = acts * (1.0 - acts)
    deriv[..., 2 * hidden : 3 * hidden] = 1.0 - g * g
    coef = np.concatenate((g, c_prev, i, tanh_c), axis=2) * deriv
    dh_dc = o * (1.0 - tanh_c * tanh_c)
    w_rec = weight[:, width:]
    d_z = np.empty_like(acts)
    dh = np.zeros((batch, hidden), dtype=acts.dtype)
    dc = np.zeros((batch, hidden), dtype=acts.dtype)
    order = range(steps) if reverse else range(steps - 1, -1, -1)
    for t in order:
        dh = g_h[:, t] + dh
        dc = dc + dh * dh_dc[:, t]
        dz = np.concatenate((dc, dc, dc, dh), axis=1) * coef[:, t]
        d_z[:, t] = dz
        if t != order[-1]:
            dh = dz @ w_rec
            dc = dc * f[:, t]
    d_z = d_z.reshape(batch * steps, 4 * hidden)
    d_weight = np.concatenate(
        (d_z.T @ x2d, d_z.T @ h_prev.reshape(batch * steps, hidden)), axis=1
    )
    return d_z @ weight[:, :width], d_weight, layers._colsum(d_z)


class TestBiLstmRuleInPlace:
    """The rule overwrites the forward's gate buffers; its outputs keep the
    bits of the allocating rule, and its memory stays within a few of them."""

    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_allocating_rule_bytewise(self, dtype, batch):
        steps, width, hidden = 7, 6, 5
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, steps, width)).astype(dtype)
        weights = rng.standard_normal((2, 4 * hidden, width + hidden))
        # units 0 and 1 of every gate saturate: i, f, o exactly 0 or 1 and
        # g exactly -1 or 1, so their derivatives are exactly 0
        weights.reshape(2, 4, hidden, -1)[:, :, :2] *= 60.0
        weights = weights.astype(dtype)
        biases = rng.standard_normal((2, 4 * hidden)).astype(dtype)
        g = rng.standard_normal((batch, steps, 2 * hidden)).astype(dtype)
        g[rng.random(g.shape) < 0.2] = -0.0
        g[rng.random(g.shape) < 0.1] = 0.0
        x2d = x.reshape(batch * steps, width)
        dxs, want = [], []
        for k in range(2):
            h_seq = np.empty((batch, steps, hidden), dtype=dtype)
            acts, cells = layers._lstm_forward(x2d, weights[k], biases[k], h_seq,
                                               reverse=bool(k), keep=True)
            gates = acts.reshape(-1, 4, hidden)
            assert {0.0, 1.0} <= set(gates[:, [0, 1, 3]].ravel())
            assert {-1.0, 1.0} <= set(gates[:, 2].ravel())
            d_x, d_w, d_b = _allocating_lstm_backward(
                g[..., k * hidden : (k + 1) * hidden], x2d, weights[k], h_seq, acts, cells,
                reverse=bool(k),
            )
            dxs.append(d_x.reshape(x.shape))
            want += [d_w, d_b]
        params = [Tensor(a, requires_grad=True) for a in (weights[0], biases[0], weights[1],
                                                           biases[1])]
        with ComputationTape() as tape:
            layers.bilstm(Tensor(x, requires_grad=True), *params)
        got = tape.nodes[0].rule(g)
        for actual, expected in zip(got, [dxs[0] + dxs[1], *want]):
            assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
            assert actual.tobytes() == expected.tobytes()

    def test_peak_memory_in_gate_buffers(self):
        # the model's shape at B=64: one gate buffer [B, T, 4H] float32 is 0.5 MiB
        batch, steps, width, hidden = 64, 8, 128, 64
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(s).astype(np.float32) * 0.1
                  for s in ((batch, steps, width), (4 * hidden, width + hidden), (4 * hidden,),
                            (4 * hidden, width + hidden), (4 * hidden,))]
        with ComputationTape() as tape:
            layers.bilstm(*[Tensor(a, requires_grad=True) for a in arrays])
        g = rng.standard_normal((batch, steps, 2 * hidden)).astype(np.float32)
        _, peak = traced(lambda: tape.nodes[0].rule(g), batch * steps * 4 * hidden * 4)
        # 1.88 with numpy 2.4, of which the two input gradients and the two
        # weight gradients are 1.75; the allocating rule read 5.95
        assert peak <= 2.25


class TestDropout:
    def test_infer_is_identity(self):
        x = t(np.random.default_rng(12).normal(size=(4, 5)))
        assert layers.dropout(x, p=0.3, mode="infer") is x

    def test_p_zero_is_identity_in_train(self):
        x = t(np.ones((3, 3)))
        assert layers.dropout(x, p=0.0, mode="train") is x

    def test_monte_carlo_mean(self):
        x = t(np.ones(100_000))
        out = layers.dropout(x, p=0.3, mode="train", rng=np.random.default_rng(13))
        assert abs(out.data.mean() - 1.0) < 0.01
        survivors = out.data[out.data != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.7)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            layers.dropout(t(np.ones(3)), p=1.0, mode="train", rng=np.random.default_rng(0))

    def test_train_requires_rng(self):
        with pytest.raises(ValueError):
            layers.dropout(t(np.ones(3)), p=0.5, mode="train")


class TestDense:
    def _zero(self, n):
        return Tensor(np.zeros(n))

    def test_identity(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        out = layers.dense(Tensor(np.eye(2)), Tensor(a), self._zero(2), relu=False)
        np.testing.assert_array_equal(out.data, a)

    def test_zero(self):
        out = layers.dense(Tensor([[1.0, 2.0]]), Tensor([[0.0], [0.0]]), Tensor([0.5]), relu=False)
        np.testing.assert_array_equal(out.data, [[0.5]])

    def test_hand_oracle(self):
        # [[1,2],[3,4]] @ [[5],[6]] + 1 tallied by hand: [1*5+2*6+1, 3*5+4*6+1]
        out = layers.dense(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]), Tensor([1.0]),
                           relu=False)
        np.testing.assert_array_equal(out.data, [[18.0], [40.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="inner"):
            layers.dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), self._zero(3),
                         relu=True)
        with pytest.raises(ShapeError, match="2-D"):
            layers.dense(Tensor(np.zeros((2, 3, 1))), Tensor(np.zeros((1, 3))), self._zero(3),
                         relu=True)

    @pytest.mark.parametrize("shape", [(2,), (1, 3), ()])
    def test_bias_shape_checked(self, shape):
        with pytest.raises(ShapeError, match="bias"):
            layers.dense(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(shape)),
                         relu=False)


def _reduce_mean(x, g):
    """Forward and rule of the axis-general mean reduction the average pool
    replaced, over axis 1."""
    kept = (x.shape[0], 1, x.shape[2])
    d_x = np.broadcast_to(g.reshape(kept) / x.shape[1], x.shape).astype(g.dtype, copy=True)
    return x.mean(axis=(1,)), d_x


def _reduce_max(x, g):
    """Forward and argmax rule of the axis-general max reduction the max pool
    replaced, over axis 1."""
    d_x = np.zeros(x.shape, dtype=g.dtype)
    argmax = np.argmax(x, axis=1)
    np.put_along_axis(d_x, np.expand_dims(argmax, 1), np.expand_dims(g, 1), axis=1)
    return x.max(axis=1), d_x


class TestPooling:
    def test_global_max_pool_dominates(self):
        rng = np.random.default_rng(14)
        x = t(rng.normal(size=(3, 6, 5)))
        pooled = layers.global_max_pool_time(x)
        assert np.all(pooled.data[:, None, :] >= x.data)
        assert np.all((pooled.data[:, None, :] == x.data).any(axis=1))

    def test_global_max_pool_ties_send_gradient_to_first_index(self):
        x = Tensor(
            np.array([[[3.0, 1.0], [7.0, 1.0], [7.0, 0.5]],
                      [[2.0, 8.0], [2.0, 8.0], [2.0, 8.0]]]),
            requires_grad=True,
        )
        with ComputationTape() as tape:
            out = layers.global_max_pool_time(x)
        np.testing.assert_array_equal(out.data, [[7.0, 1.0], [2.0, 8.0]])
        (d_x,) = tape.nodes[0].rule(np.array([[1.0, 2.0], [3.0, 4.0]]))
        expected = np.zeros((2, 3, 2))
        expected[0, 1, 0], expected[0, 0, 1] = 1.0, 2.0
        expected[1, 0, 0], expected[1, 0, 1] = 3.0, 4.0
        np.testing.assert_array_equal(d_x, expected)

    def test_global_avg_pool(self):
        x = t(np.arange(12, dtype=np.float64).reshape(1, 4, 3))
        np.testing.assert_allclose(
            layers.global_avg_pool_time(x).data, x.data.mean(axis=1)
        )

    @pytest.mark.parametrize("pool", [layers.global_avg_pool_time, layers.global_max_pool_time],
                             ids=["global_avg_pool_time", "global_max_pool_time"])
    def test_empty_time_axis_rejected(self, pool):
        with pytest.raises(ShapeError, match="empty time axis"):
            pool(t(np.zeros((2, 0, 3))))

    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "pool, oracle",
        [(layers.global_avg_pool_time, _reduce_mean), (layers.global_max_pool_time, _reduce_max)],
        ids=["avg", "max"],
    )
    def test_matches_reduction_oracle_bitwise(self, pool, oracle, dtype, batch):
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, 23, 7)).astype(dtype)
        # small integers in half the channels: many tied maxima
        x[:, :, ::2] = rng.integers(-2, 3, size=x[:, :, ::2].shape)
        g = rng.standard_normal((batch, 7)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        with ComputationTape() as tape:
            out = pool(xt)
        (d_x,) = tape.nodes[0].rule(g)
        want_out, want_dx = oracle(x, g)
        for got, want in ((out.data, want_out), (d_x, want_dx)):
            # the memory layout too: the next node's sums follow it
            assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
            assert got.tobytes() == want.tobytes()

