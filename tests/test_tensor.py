import warnings
import zlib

import numpy as np
import pytest

from papernet.errors import NonFiniteError, ShapeError, TapeError
from papernet.layers import dense, global_avg_pool_time, global_max_pool_time
from papernet.tensor import (
    ComputationTape,
    Tensor,
    backward,
    gradcheck,
    relu,
    softmax_lastaxis,
)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestTensorBasics:
    def test_shape_size_dtype(self):
        x = Tensor(np.zeros((2, 3), dtype=np.float32))
        assert x.shape == (2, 3)
        assert x.size == 6
        assert x.dtype == np.float32

    def test_integer_input_becomes_float32(self):
        assert Tensor([[1, 2], [3, 4]]).dtype == np.float32

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_grad_shape_guard(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            x.accumulate_grad(np.zeros((3,)))


class TestActivations:
    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("c", [-3.0, 0.0, 7.5])
    def test_softmax_symmetry(self, c):
        out = softmax_lastaxis(Tensor([c, c, c, c]))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-7)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            out = softmax_lastaxis(Tensor(rng.normal(0, 3, size=(5, 7))))
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            relu(Tensor(np.array([np.nan])))

    def test_large_finite_float64_accepted_without_warning(self):
        # the float64 sum of these overflows, though every value is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = relu(t64([1e308, 1e308]))
        np.testing.assert_array_equal(out.data, [1e308, 1e308])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_output_rejected(self, dtype, value):
        x = Tensor(np.array([[1.0, value]], dtype=dtype))
        ones, zero = Tensor(np.ones((2, 1), dtype=dtype)), Tensor(np.zeros(1, dtype=dtype))
        with pytest.raises(NonFiniteError, match="dense"):
            dense(x, ones, zero)


class TestReductions:
    """The time reductions of the model head, run end to end through backward."""

    def test_mean_axis0(self):
        # [1, T=2, C=2]: the mean runs over the time axis
        out = global_avg_pool_time(t64([[[1.0, 3.0], [5.0, 7.0]]]))
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_max_first_tie_gets_gradient(self):
        x = t64([[[1.0], [9.0], [9.0], [2.0]]], requires_grad=True)
        with ComputationTape() as tape:
            out = global_max_pool_time(x)
            backward(tape, out)
        assert out.item() == 9.0
        np.testing.assert_array_equal(x.grad, [[[0.0], [1.0], [0.0], [0.0]]])

    def test_mean_empty_axis_errors(self):
        with pytest.raises(ShapeError):
            global_avg_pool_time(Tensor(np.zeros((1, 0, 1))))


def dense_sum(x):
    """Sum of a [1, n] row as one dense node: x @ ones + 0, shape [1, 1]."""
    n = x.shape[1]
    return dense(x, t64(np.ones((n, 1))), t64([0.0]))


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64([[1.0, 2.0, 3.0]], requires_grad=True)
        with ComputationTape() as tape:
            loss = dense_sum(x)
            backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0]])

    def test_square_sum_analytic(self):
        # x as both the input and the weight of one dense node: loss = x^2
        x = t64([[3.0]], requires_grad=True)
        with ComputationTape() as tape:
            loss = dense(x, x, t64([0.0]))
            backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[6.0]])

    def test_double_backward_raises(self):
        x = t64([[1.0]], requires_grad=True)
        with ComputationTape() as tape:
            loss = dense_sum(x)
            backward(tape, loss)
            with pytest.raises(TapeError):
                backward(tape, loss)

    def test_backward_releases_each_node(self):
        x = t64([[1.0, -2.0]], requires_grad=True)
        with ComputationTape() as tape:
            loss = dense_sum(relu(x))
            backward(tape, loss)
        assert [node.name for node in tape.nodes] == ["relu", "dense"]
        assert all(node.rule is None and node.inputs == () for node in tape.nodes)
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])
        with pytest.raises(TapeError):
            backward(tape, loss)

    def test_loss_must_be_scalar(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with ComputationTape() as tape:
            y = relu(x)
            with pytest.raises(ShapeError):
                backward(tape, y)

    def test_loss_must_be_on_tape(self):
        x = t64([1.0], requires_grad=True)
        with ComputationTape() as tape:
            with pytest.raises(TapeError):
                backward(tape, x)

    def test_reuse_accumulates_within_one_pass(self):
        # one weight in two dense calls: loss = x W W u with u = ones, so
        # dW = x^T (W u)^T + (x W)^T u^T, one term from each node
        x = t64([[1.0, 2.0]])
        w = t64([[1.0, -1.0], [2.0, 3.0]], requires_grad=True)
        zero = t64([0.0, 0.0])
        with ComputationTape() as tape:
            loss = dense_sum(dense(dense(x, w, zero), w, zero))
            backward(tape, loss)
        assert [node.name for node in tape.nodes] == ["dense"] * 3
        u = np.ones((2, 1))
        expected = x.data.T @ (w.data @ u).T + (x.data @ w.data).T @ u.T
        np.testing.assert_array_equal(w.grad, expected)

    def test_overflow_raises_non_finite(self):
        big = Tensor(np.array([[3e38]], dtype=np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                dense(big, big, Tensor(np.zeros(1, dtype=np.float32)))


class TestGradcheck:
    def test_linear_op_is_exact(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
        b = Tensor(rng.normal(size=3), dtype=np.float64)
        point = Tensor(rng.normal(size=(2, 4)), requires_grad=True, dtype=np.float64)
        err = gradcheck(lambda x: dense(x, w, b), point)
        assert err < 1e-10

    def test_softmax_at_point(self):
        err = gradcheck(softmax_lastaxis, t64([0.3, -0.2], requires_grad=True))
        assert err < 1e-7

    def test_requires_float64(self):
        with pytest.raises(ShapeError):
            gradcheck(relu, Tensor([0.3], dtype=np.float32))

    OPS = {
        "relu": lambda rng: (relu,
                             [np.sign(rng.normal(size=(4, 3))) * rng.uniform(0.1, 1.0, size=(4, 3))]),
        "softmax": lambda rng: (softmax_lastaxis, [rng.normal(size=(3, 5))]),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_every_op_at_ten_random_points(self, name):
        for seed in range(10):
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            fn, arrays = self.OPS[name](rng)
            points = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
            err = gradcheck(fn, points, seed=seed)
            assert err < 1e-5, f"{name} at seed {seed}: {err}"


class TestTapeScoping:
    def test_no_recording_without_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = relu(x)
        assert y.requires_grad
        tape = ComputationTape()
        assert tape.nodes == []

    def test_nested_tapes_record_to_innermost(self):
        x = t64([[2.0]], requires_grad=True)
        with ComputationTape() as outer:
            with ComputationTape() as inner:
                loss = dense_sum(dense(x, x, t64([0.0])))
            assert len(inner.nodes) == 2
            assert len(outer.nodes) == 0
        backward(inner, loss)
        np.testing.assert_array_equal(x.grad, [[4.0]])
