"""Finite-difference verification suite.

Every layer, the loss with its L2 penalty, and the whole model (all four
variants) are checked in float64 against central differences: 13 checks.
The suite is a name -> callable registry so single checks can be run,
replaced, or corrupted from tests; each callable returns its max relative
error.
"""

from __future__ import annotations

import functools

import numpy as np

from . import layers
from .model import VARIANTS, build_papernet, forward
from .tensor import Tensor, gradcheck
from .training import weighted_cross_entropy

TOLERANCE = 1e-5
MODEL_COORDS_PER_TENSOR = 4


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _off_kink(rng, x_shape, w_shape) -> list[Tensor]:
    """Input, weight and bias of a ReLU layer whose pre-activations are all
    0.25 or more from the kink: |x @ w| <= 0.75 (x in [-1, 1], w in
    [-0.05, 0.05], at most 15 terms) and a bias of +1 or -1 by channel."""
    bias = np.where(np.arange(w_shape[-1]) % 2 == 0, 1.0, -1.0)
    arrays = rng.uniform(-1.0, 1.0, x_shape), rng.uniform(-0.05, 0.05, w_shape), bias
    return [Tensor(a, requires_grad=True) for a in arrays]


def check_conv1d() -> float:
    rng = np.random.default_rng(19)
    return gradcheck(layers.conv1d_same, _off_kink(rng, (2, 7, 3), (5, 3, 4)))


def check_maxpool() -> float:
    rng = np.random.default_rng(20)
    return gradcheck(lambda x: layers.maxpool1d(x, 2), _t(rng, 2, 6, 3))


def check_global_pools() -> float:
    rng = np.random.default_rng(18)
    # values 0.1 apart: no maximum within the finite-difference step of another
    x = Tensor(rng.permutation(30).reshape(3, 5, 2) / 10.0, requires_grad=True)
    return max(gradcheck(layers.global_avg_pool_time, x), gradcheck(layers.global_max_pool_time, x))


def check_batchnorm() -> float:
    rng = np.random.default_rng(21)
    x, gamma, beta = _t(rng, 3, 5, 4), _t(rng, 4), _t(rng, 4)
    errs = []
    for mode in ("train", "infer"):
        rmean = Tensor(rng.standard_normal(4), dtype=np.float64)
        rvar = Tensor(rng.uniform(0.5, 2.0, size=4), dtype=np.float64)
        errs.append(
            gradcheck(
                lambda xx, g, bb: layers.batchnorm(xx, g, bb, rmean, rvar, mode=mode),
                [x, gamma, beta],
            )
        )
    return max(errs)


def check_se_attention() -> float:
    rng = np.random.default_rng(22)
    feats = _t(rng, 2, 4, 8)
    w1, b1 = _t(rng, 8, 3), _t(rng, 3)
    w2, b2 = _t(rng, 3, 8), _t(rng, 8)
    errs = []
    for residual in (True, False):
        errs.append(
            gradcheck(
                lambda f, a, b, c, d: layers.se_residual_attention(
                    f, a, b, c, d, residual=residual
                )[0],
                [feats, w1, b1, w2, b2],
            )
        )
    return max(errs)


def check_bilstm() -> float:
    rng = np.random.default_rng(23)
    hidden, width = 3, 4
    x = _t(rng, 2, 5, width)
    w_f, b_f = _t(rng, 4 * hidden, width + hidden), _t(rng, 4 * hidden)
    w_b, b_b = _t(rng, 4 * hidden, width + hidden), _t(rng, 4 * hidden)
    return gradcheck(layers.bilstm, [x, w_f, b_f, w_b, b_b])


def check_dense() -> float:
    rng = np.random.default_rng(24)
    return max(
        gradcheck(functools.partial(layers.dense, relu=relu), _off_kink(rng, (3, 5), (5, 2)))
        for relu in (True, False)
    )


def check_dropout_fixed_mask() -> float:
    rng = np.random.default_rng(25)
    x = _t(rng, 6, 7)

    def fn(xx):
        # identical mask on every evaluation so the loss stays deterministic
        return layers.dropout(xx, p=0.4, mode="train", rng=np.random.default_rng(99))

    return gradcheck(fn, x)


def check_cross_entropy() -> float:
    rng = np.random.default_rng(26)
    logits = _t(rng, 5, 4)
    onehot = np.eye(4)[rng.integers(0, 4, size=5)]
    model = build_papernet(num_classes=4, seed=8, dtype=np.float64)
    return max(
        *(gradcheck(lambda z: weighted_cross_entropy(z, onehot, w), logits)
          for w in (rng.uniform(0.5, 2.0, size=4), None)),
        # the L2 term, perturbing the model's weight matrices through it
        gradcheck(lambda z, *_: weighted_cross_entropy(z, onehot, None, model, l2=0.1),
                  [logits, *model.weight_matrices()], max_coords=MODEL_COORDS_PER_TENSOR),
    )


def _check_model(variant: str) -> float:
    model = build_papernet(num_classes=4, variant=variant, seed=7, dtype=np.float64)
    rng = np.random.default_rng(27)
    x = Tensor(rng.standard_normal((4, 16, 1)), requires_grad=True, dtype=np.float64)
    onehot = np.eye(4)[rng.integers(0, 4, size=4)]
    weights = np.array([1.0, 0.8, 1.3, 0.9])
    targets = [x] + list(model.trainable().values())

    def loss_fn(*_):
        logits = forward(model, x, mode="train", rng=np.random.default_rng(5))
        return weighted_cross_entropy(logits, onehot, weights, model, l2=1e-4)

    # eps below the layer default: the deep composition of piecewise-linear
    # units (ReLU, max pooling) otherwise risks a kink inside the window.
    # Probing each tensor's largest-gradient coordinates keeps the finite
    # difference well above float64 round-off.
    return gradcheck(
        loss_fn,
        targets,
        eps=1e-5,
        max_coords=MODEL_COORDS_PER_TENSOR,
        seed=3,
    )


SUITE = {
    "conv1d_same": check_conv1d,
    "maxpool1d": check_maxpool,
    "global_pools": check_global_pools,
    "batchnorm": check_batchnorm,
    "se_attention": check_se_attention,
    "bilstm": check_bilstm,
    "dense": check_dense,
    "dropout": check_dropout_fixed_mask,
    "cross_entropy": check_cross_entropy,
    **{f"model_{variant}": functools.partial(_check_model, variant) for variant in VARIANTS},
}
