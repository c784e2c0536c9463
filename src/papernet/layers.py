"""Network layers: 1-D convolution, batch norm, pooling, channel attention,
bidirectional LSTM, dropout, and dense projections.

Sequence layers take batched [B, T, C] tensors only; dense and dropout
act on [B, F]. Every layer is differentiable through the tape in
:mod:`papernet.tensor`; hand-written backward rules exist only where a fused
forward is worth it (convolution, max pooling), and those are covered by
gradient checks.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    _make_output,
    add,
    concat,
    matmul,
    mul,
    pow_scalar,
    reduce_max,
    reduce_mean,
    relu,
    reshape,
    sigmoid,
    slice_axis,
    sub,
    tanh,
    transpose,
)

MODES = ("train", "infer")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _require_btc(x: Tensor, layer: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{layer} expects [B, T, C], got shape {x.shape}")


def conv1d_same(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-length 1-D cross-correlation with zero padding.

    ``x`` is [B, T, Cin]; ``kernel`` is [k, Cin, Cout] with odd k;
    ``bias`` is [Cout].
    """
    if kernel.ndim != 3:
        raise ShapeError(f"kernel must be [k, Cin, Cout], got shape {kernel.shape}")
    k, c_in, c_out = kernel.shape
    if k % 2 != 1:
        raise ShapeError(f"kernel length must be odd, got {k}")
    if bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} does not match Cout={c_out}")
    xd = x.data
    if xd.ndim != 3 or xd.shape[2] != c_in:
        raise ShapeError(
            f"input shape {x.shape} does not match kernel channels Cin={c_in}"
        )
    batch, length, _ = xd.shape
    pad = k // 2
    xp = np.pad(xd, ((0, 0), (pad, pad), (0, 0)))
    # patches[b, t, i, c] = padded input at time t + i - pad
    patches = np.stack([xp[:, i : i + length, :] for i in range(k)], axis=2)
    flat = patches.reshape(batch * length, k * c_in)
    w2d = kernel.data.reshape(k * c_in, c_out)
    out = (flat @ w2d + bias.data).reshape(batch, length, c_out)

    def rule(g):
        gb = g.reshape(batch * length, c_out)
        d_bias = gb.sum(axis=0)
        d_kernel = (flat.T @ gb).reshape(k, c_in, c_out)
        d_patches = (gb @ w2d.T).reshape(batch, length, k, c_in)
        d_xp = np.zeros_like(xp)
        for i in range(k):
            d_xp[:, i : i + length, :] += d_patches[:, :, i, :]
        return d_xp[:, pad : pad + length, :], d_kernel, d_bias

    return _make_output(out, (x, kernel, bias), "conv1d_same", rule)


def maxpool1d(x: Tensor, pool: int = 2) -> Tensor:
    """Per-channel maximum over non-overlapping windows of ``pool`` steps of
    a [B, T, C] tensor; a trailing window shorter than ``pool`` is dropped."""
    _require_btc(x, "maxpool1d")
    xd = x.data
    batch, length, channels = xd.shape
    if length < pool:
        raise ShapeError(f"input length {length} shorter than pool {pool}")
    t_out = length // pool
    windows = xd[:, : t_out * pool, :].reshape(batch, t_out, pool, channels)
    out = windows.max(axis=2)
    argmax = windows.argmax(axis=2)  # first index on ties

    def rule(g):
        d_win = np.zeros_like(windows)
        np.put_along_axis(d_win, argmax[:, :, None, :], g[:, :, None, :], axis=2)
        d_x = np.zeros_like(xd)
        d_x[:, : t_out * pool, :] = d_win.reshape(batch, t_out * pool, channels)
        return (d_x,)

    return _make_output(out, (x,), "maxpool1d", rule)


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    mode: str,
    eps: float = 1e-3,
    momentum: float = 0.9,
) -> Tensor:
    """Per-channel batch normalization of [B, T, C] over (batch, time).

    Train mode normalizes with batch statistics and updates the running
    stats in place as new = momentum * old + (1 - momentum) * batch;
    infer mode normalizes with the running stats. The default momentum is
    0.9, not the common 0.99: 0.99 would need several hundred updates before
    the running stats shed their 0/1 initialization; desk-scale runs (tens
    of batches) never get there and infer-mode metrics stay garbage.
    """
    _check_mode(mode)
    _require_btc(x, "batchnorm")
    channels = x.shape[2]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError("gamma/beta width does not match channel count")
    if mode == "train":
        if x.shape[0] < 2:
            raise ShapeError("batchnorm in train mode needs batch size >= 2")
        mean = reduce_mean(x, axis=(0, 1))
        centered = sub(x, mean)
        var = reduce_mean(mul(centered, centered), axis=(0, 1))
        running_mean.data = momentum * running_mean.data + (1.0 - momentum) * mean.data
        running_var.data = momentum * running_var.data + (1.0 - momentum) * var.data
    else:
        mean = running_mean
        centered = sub(x, mean)
        var = running_var
    inv_std = pow_scalar(add(var, eps), -0.5)
    return add(mul(mul(centered, inv_std), gamma), beta)


def se_residual_attention(
    feats: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    residual: bool = True,
) -> tuple[Tensor, Tensor]:
    """Squeeze-and-excitation over the feature axis.

    ``feats`` is [B, T, C]. The time-mean descriptor goes through the
    two-layer bottleneck given by w1/w2 (ReLU then sigmoid); with
    ``residual`` the output is (1 + a) * F, otherwise a * F.
    Returns (output [B, T, C], attention [B, C]).
    """
    _require_btc(feats, "se_residual_attention")
    batch, _, channels = feats.shape
    if w1.shape[0] != channels or w2.shape[1] != channels:
        raise ShapeError(
            f"bottleneck shapes {w1.shape}/{w2.shape} do not match width {channels}"
        )
    desc = reduce_mean(feats, axis=1)
    hidden = relu(add(matmul(desc, w1), b1))
    attn = sigmoid(add(matmul(hidden, w2), b2))
    scaled = mul(feats, reshape(attn, (batch, 1, channels)))
    out = add(scaled, feats) if residual else scaled
    return out, attn


def _lstm_direction(
    x: Tensor, weight: Tensor, bias: Tensor, hidden: int, reverse: bool
) -> Tensor:
    batch, steps, width = x.shape
    h4 = 4 * hidden
    if weight.shape != (h4, width + hidden):
        raise ShapeError(
            f"LSTM weight shape {weight.shape} does not match [4H, D+H]="
            f"[{h4}, {width + hidden}]"
        )
    if bias.shape != (h4,):
        raise ShapeError(f"LSTM bias shape {bias.shape} does not match [4H]=[{h4}]")
    w_in = transpose(slice_axis(weight, 1, 0, width))  # [D, 4H]
    w_rec = transpose(slice_axis(weight, 1, width, width + hidden))  # [H, 4H]
    # Input projections for all steps at once.
    proj = reshape(matmul(reshape(x, (batch * steps, width)), w_in), (batch, steps, h4))
    h = Tensor(np.zeros((batch, hidden), dtype=x.dtype))
    c = Tensor(np.zeros((batch, hidden), dtype=x.dtype))
    outputs: list[Tensor | None] = [None] * steps
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        gates = add(add(reshape(slice_axis(proj, 1, t, t + 1), (batch, h4)),
                        matmul(h, w_rec)), bias)
        i_gate = sigmoid(slice_axis(gates, 1, 0, hidden))
        f_gate = sigmoid(slice_axis(gates, 1, hidden, 2 * hidden))
        g_gate = tanh(slice_axis(gates, 1, 2 * hidden, 3 * hidden))
        o_gate = sigmoid(slice_axis(gates, 1, 3 * hidden, 4 * hidden))
        c = add(mul(f_gate, c), mul(i_gate, g_gate))
        h = mul(o_gate, tanh(c))
        outputs[t] = reshape(h, (batch, 1, hidden))
    return concat(outputs, axis=1)


def bilstm(
    x: Tensor,
    w_forward: Tensor,
    b_forward: Tensor,
    w_backward: Tensor,
    b_backward: Tensor,
) -> Tensor:
    """Single-layer bidirectional LSTM with zero initial state.

    ``x`` is [B, T, D]. The hidden width H is read from the weights: both
    directions take a [4H, D+H] weight (gate rows i, f, g, o) and a [4H]
    bias. The output concatenates the two directions per time step to
    [B, T, 2H].
    """
    _require_btc(x, "bilstm")
    hidden = w_forward.shape[0] // 4
    fwd = _lstm_direction(x, w_forward, b_forward, hidden, reverse=False)
    bwd = _lstm_direction(x, w_backward, b_backward, hidden, reverse=True)
    return concat([fwd, bwd], axis=2)


def dropout(x: Tensor, p: float, mode: str = "infer", rng=None) -> Tensor:
    """Inverted dropout: train mode zeroes with probability p and rescales
    survivors by 1/(1-p); infer mode is the identity."""
    _check_mode(mode)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode == "infer" or p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, Tensor(keep))


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine projection x @ W + b for [B, in] inputs."""
    return add(matmul(x, weight), bias)


def global_avg_pool_time(x: Tensor) -> Tensor:
    """Mean over the time axis of [B, T, C] features."""
    return reduce_mean(x, axis=1)


def global_max_pool_time(x: Tensor) -> Tensor:
    """Max over the time axis of [B, T, C] features."""
    return reduce_max(x, axis=1)
