import threading
import warnings
import zlib

import numpy as np
import pytest

from papernet.errors import NonFiniteError, ShapeError, TapeError
from papernet.layers import dense, global_avg_pool_time, global_max_pool_time
from papernet.model import build_papernet, forward
from papernet.tensor import ComputationTape, Tensor, _make_output, backward, gradcheck
from papernet.training import weighted_cross_entropy


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def relu(x):
    """ReLU as a dense layer with the identity weight and a zero bias."""
    n = x.shape[-1]
    return dense(x, Tensor(np.eye(n, dtype=x.dtype)), Tensor(np.zeros(n, dtype=x.dtype)),
                 relu=True)


def loss_on_logits(z, labels=0):
    """The unweighted training loss of [B, K] logits, every row of one label."""
    return weighted_cross_entropy(z, np.eye(z.shape[1])[np.broadcast_to(labels, z.shape[:1])])


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
    """ReLU inside the dense layer and the softmax inside the loss."""

    def test_relu_definition(self):
        out = relu(Tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    @pytest.mark.parametrize("c", [-3.0, 0.0, 7.5])
    def test_softmax_symmetry(self, c):
        # equal logits: p = 1/4 each, so the loss is log 4 and d/dz = p - onehot
        z = t64([[c, c, c, c]], requires_grad=True)
        with ComputationTape() as tape:
            loss = loss_on_logits(z)
            backward(tape, loss)
        assert loss.item() == pytest.approx(np.log(4.0), rel=1e-12)
        np.testing.assert_allclose(z.grad, [[-0.75, 0.25, 0.25, 0.25]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        # above the floor the logit gradient is (p - onehot) / B: recover p
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = t64(rng.normal(0, 3, size=(5, 7)), requires_grad=True)
            with ComputationTape() as tape:
                backward(tape, loss_on_logits(z, labels=2))
            p = len(z.data) * z.grad + np.eye(7)[2]
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(p > 0) and np.all(p < 1)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NonFiniteError):
            relu(Tensor(np.array([[np.nan]])))

    def test_large_finite_float64_accepted_without_warning(self):
        # the float64 sum of these overflows, though every value is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = relu(t64([[1e308, 1e308]]))
        np.testing.assert_array_equal(out.data, [[1e308, 1e308]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_output_rejected(self, dtype, value):
        # -inf is checked before ReLU would turn it into 0
        x = Tensor(np.array([[1.0, value]], dtype=dtype))
        ones, zero = Tensor(np.ones((2, 1), dtype=dtype)), Tensor(np.zeros(1, dtype=dtype))
        with pytest.raises(NonFiniteError, match="dense"):
            dense(x, ones, zero, relu=True)


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
    return dense(x, t64(np.ones((n, 1))), t64([0.0]), relu=False)


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
            loss = dense(x, x, t64([0.0]), relu=False)
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
        assert [node.name for node in tape.nodes] == ["dense", "dense"]
        assert all(node.rule is None and node.inputs == () for node in tape.nodes)
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])
        with pytest.raises(TapeError):
            backward(tape, loss)

    def test_loss_must_be_scalar(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
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
            loss = dense_sum(dense(dense(x, w, zero, relu=False), w, zero, relu=False))
            backward(tape, loss)
        assert [node.name for node in tape.nodes] == ["dense"] * 3
        u = np.ones((2, 1))
        expected = x.data.T @ (w.data @ u).T + (x.data @ w.data).T @ u.T
        np.testing.assert_array_equal(w.grad, expected)

    def test_overflow_raises_non_finite(self):
        big = Tensor(np.array([[3e38]], dtype=np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                dense(big, big, Tensor(np.zeros(1, dtype=np.float32)), relu=False)


class TestGradcheck:
    def test_linear_op_is_exact(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(4, 3)), dtype=np.float64)
        b = Tensor(rng.normal(size=3), dtype=np.float64)
        point = Tensor(rng.normal(size=(2, 4)), requires_grad=True, dtype=np.float64)
        err = gradcheck(lambda x: dense(x, w, b, relu=False), point)
        assert err < 1e-10

    def test_softmax_at_point(self):
        err = gradcheck(loss_on_logits, t64([[0.3, -0.2]], requires_grad=True))
        assert err < 1e-7

    def test_requires_float64(self):
        with pytest.raises(ShapeError):
            gradcheck(relu, Tensor([[0.3]], dtype=np.float32))

    # ReLU inputs at least 0.1 from the kink; the loss on random logits and labels
    OPS = {
        "relu": lambda rng: (relu,
                             [np.sign(rng.normal(size=(4, 3))) * rng.uniform(0.1, 1.0, size=(4, 3))]),
        "softmax": lambda rng: (
            lambda z, labels=rng.integers(0, 5, size=3): loss_on_logits(z, labels),
            [rng.normal(size=(3, 5))],
        ),
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
        x = Tensor([[1.0]], requires_grad=True)
        y = relu(x)
        assert y.requires_grad
        tape = ComputationTape()
        assert tape.nodes == []

    def test_nested_tapes_record_to_innermost(self):
        x = t64([[2.0]], requires_grad=True)
        with ComputationTape() as outer:
            with ComputationTape() as inner:
                loss = dense_sum(dense(x, x, t64([0.0]), relu=False))
            assert len(inner.nodes) == 2
            assert len(outer.nodes) == 0
        backward(inner, loss)
        np.testing.assert_array_equal(x.grad, [[4.0]])

    def test_other_threads_record_onto_their_own_tapes(self):
        model = build_papernet(seed=0)
        batch = np.random.default_rng(0).standard_normal((4, 16, 1))
        theirs = []

        def other_thread():
            forward(model, batch)
            with ComputationTape() as tape:
                forward(model, batch)
            theirs.append(tape)

        with ComputationTape() as mine:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert mine.nodes == []
        assert len(theirs) == 1 and theirs[0].nodes
        with ComputationTape() as mine:
            forward(model, batch)
        assert len(mine.nodes) == len(theirs[0].nodes)


class TestGradOwnership:
    """A rule's fresh output becomes the gradient as is; nothing else does."""

    def test_fresh_rule_output_is_kept(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
        made = []

        def rule(g):
            made.append(g * 3.0)
            return (made[-1],)

        with ComputationTape() as tape:
            loss = dense_sum(_make_output(x.data * 3.0, (x,), "triple", rule))
            backward(tape, loss)
        assert x.grad is made[0]
        np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])

    def test_no_two_tensors_share_a_gradient(self):
        a, b, c, d = (t64([[1.0, 2.0]], requires_grad=True) for _ in range(4))
        held = t64([[5.0, 6.0]])
        fresh = np.array([[7.0, 8.0]])
        with ComputationTape() as tape:
            # its own g to both inputs
            y = _make_output(a.data + b.data, (a, b), "both", lambda g: (g, g))
            # one fresh array to both inputs
            w = _make_output(c.data + d.data, (c, d), "same", lambda g: (fresh, fresh))
            # a view of an array another tensor holds, and a view of g
            z = _make_output(y.data + w.data, (y, w), "views",
                             lambda g: (held.data[:, ::1], g.reshape(1, 2)))
            loss = dense_sum(z)
            backward(tape, loss)
        grads = {"a": a.grad, "b": b.grad, "c": c.grad, "d": d.grad,
                 "y": y.grad, "w": w.grad, "z": z.grad}
        arrays = {**grads, "held": held.data}
        for i, (n1, g1) in enumerate(arrays.items()):
            for n2, g2 in list(arrays.items())[i + 1 :]:
                assert not np.shares_memory(g1, g2), (n1, n2)
        assert c.grad is fresh
        for name in "aby":
            np.testing.assert_array_equal(grads[name], [[5.0, 6.0]], err_msg=name)
        for name in "cd":
            np.testing.assert_array_equal(grads[name], [[7.0, 8.0]], err_msg=name)
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0]])
