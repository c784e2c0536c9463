"""Network layers: 1-D convolution with ReLU, batch norm, pooling, channel
attention, bidirectional LSTM, dropout, and dense projections.

Sequence layers take batched [B, T, C] tensors only; dense and dropout
act on [B, F]. The convolution is one GEMM over im2col patches, each the
k consecutive rows of a zero-padded copy of the input, then ReLU, which
every convolution of the model is followed by; :func:`dense` applies ReLU
when asked. ReLU runs in place after the finiteness check, which it would
defeat by turning -inf into 0, and its rule masks ``g`` by ``out > 0``.
Sums over the leading axes (batch norm's statistics and its γ and β
gradients, the dense and BiLSTM bias gradients) are one GEMV with a vector
of ones each, several times faster than numpy's axis reductions at these
shapes. Every layer records one tape node per call (infer-mode dropout,
the identity, records none), so its backward rule is written by hand and
covered by the gradient checks: convolution, max pooling, batch norm, the
squeeze-and-excitation block, the BiLSTM (both directions in one node,
with backpropagation through time in numpy), dropout, dense and the two
global pools over time. Global max pooling is max pooling with one window of all T steps:
both run one private window-max forward and first-max rule.

State only a backward pass reads is built only when a tape will record the
call (:func:`papernet.tensor._recording`): max pooling, global or not,
finds each window's first maximal step in the rule, batch norm outside a
tape scales and shifts its normalized input in place instead of keeping
``x_hat``, and the BiLSTM keeps its gate activations and cell states only
for a recorded call. In-place steps write only into arrays the layer
allocated itself, never into an input, since another node's rule may read
it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _make_output, _recording

MODES = ("train", "infer")
BN_EPS = 1e-3
# 0.9, not the common 0.99, which needs several hundred updates to shed the 0/1
# initialization: desk-scale runs (tens of batches) never get there
BN_MOMENTUM = 0.9


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _require_btc(x: Tensor, layer: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{layer} expects [B, T, C], got shape {x.shape}")


def _colsum(a: np.ndarray) -> np.ndarray:
    """Sum of an array over all its leading axes, one value per column of
    the last axis, as one GEMV: several times faster than ``a.sum`` over
    the leading axes of a C-contiguous array at the model's shapes."""
    n = a.size // a.shape[-1]
    return np.ones(n, dtype=a.dtype) @ a.reshape(n, a.shape[-1])


def conv1d_same(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Same-length 1-D cross-correlation with zero padding, then ReLU.

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
    xp = np.zeros((batch, length + 2 * pad, c_in), dtype=xd.dtype)
    xp[:, pad : pad + length] = xd
    # the im2col matrix: row (b, t), column i * Cin + c holds the padded
    # input at time t + i - pad. Rows t .. t + k - 1 of xp are k * Cin
    # contiguous values, so each row is one run of a strided view with xp's
    # own strides (built directly, not through as_strided's Python shim),
    # copied into a contiguous matrix (matmul would sum the overlapping view
    # itself in another order at B = 1)
    windows = np.ndarray((batch, length, k * c_in), xp.dtype, buffer=xp, strides=xp.strides)
    flat = np.ascontiguousarray(windows).reshape(batch * length, k * c_in)
    w2d = kernel.data.reshape(k * c_in, c_out)
    out = flat @ w2d
    out += bias.data
    out = out.reshape(batch, length, c_out)

    def rule(g):
        g = g * (out > 0)
        gb = g.reshape(batch * length, c_out)
        d_bias = gb.sum(axis=0)
        d_kernel = (flat.T @ gb).reshape(k, c_in, c_out)
        if not x.requires_grad:  # e.g. the data batch
            return None, d_kernel, d_bias
        d_patches = (gb @ w2d.T).reshape(batch, length, k, c_in)
        d_x = np.zeros_like(xd)
        for i in range(k):
            # tap i of output step t reads input step t + i - pad
            lo, hi = max(0, pad - i), min(length, length + pad - i)
            d_x[:, lo + i - pad : hi + i - pad] += d_patches[:, lo:hi, i]
        return d_x, d_kernel, d_bias

    result = _make_output(out, (x, kernel, bias), "conv1d_same", rule)
    np.maximum(out, 0, out=out)  # after the finiteness check
    return result


def _window_max(xd: np.ndarray, pool: int):
    """Per-channel maximum over non-overlapping windows of ``pool`` steps of
    [B, T, C] data, [B, T // pool, C], and its backward rule."""
    batch, length, channels = xd.shape
    t_out = length // pool
    windows = xd[:, : t_out * pool, :].reshape(batch, t_out, pool, channels)
    out = windows.max(axis=2)

    def rule(g):
        # the first step equal to its window's max takes the gradient, as
        # argmax would pick it on ties. Each step is written whole, as the
        # bits of g ANDed with an all-ones or all-zeros mask: +0.0 where the
        # step lost, g's exact bits (-0.0 included) where it won
        ints = np.dtype(f"i{xd.itemsize}")
        d_x = np.empty(xd.shape, dtype=xd.dtype)
        d_x[:, t_out * pool :] = 0  # steps past the last whole window
        d_win = d_x[:, : t_out * pool].reshape(windows.shape).view(ints)  # a view
        g_bits = g.view(ints)
        free = np.ones(out.shape, dtype=bool)
        for i in range(pool):
            hit = windows[:, :, i] == out
            hit &= free
            free ^= hit
            np.bitwise_and(g_bits, np.negative(hit.view(np.int8)), out=d_win[:, :, i])
        return (d_x,)

    return out, rule


def maxpool1d(x: Tensor, pool: int = 2) -> Tensor:
    """Per-channel maximum over non-overlapping windows of ``pool`` steps of
    a [B, T, C] tensor; a trailing window shorter than ``pool`` is dropped."""
    _require_btc(x, "maxpool1d")
    if pool < 1:
        raise ShapeError(f"pool must be >= 1, got {pool}")
    if x.shape[1] < pool:
        raise ShapeError(f"input length {x.shape[1]} shorter than pool {pool}")
    out, rule = _window_max(x.data, pool)
    return _make_output(out, (x,), "maxpool1d", rule)


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    mode: str,
) -> Tensor:
    """Per-channel batch normalization of [B, T, C] over (batch, time).

    Train mode normalizes with batch statistics and updates the running
    stats in place as new = m * old + (1 - m) * batch, m = ``BN_MOMENTUM``;
    infer mode normalizes with the running stats.
    """
    _check_mode(mode)
    _require_btc(x, "batchnorm")
    channels = x.shape[2]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError("gamma/beta width does not match channel count")
    xd = x.data
    n = xd.size // channels
    if mode == "train":
        if x.shape[0] < 2:
            raise ShapeError("batchnorm in train mode needs batch size >= 2")
        mean = _colsum(xd) / n
        centered = xd - mean
        var = _colsum(centered * centered) / n
        # written into the arrays, which are views of the model's buffer
        running_mean.data[...] = BN_MOMENTUM * running_mean.data + (1.0 - BN_MOMENTUM) * mean
        running_var.data[...] = BN_MOMENTUM * running_var.data + (1.0 - BN_MOMENTUM) * var
    else:
        centered = xd - running_mean.data
        var = running_var.data
    inv_std = (var + BN_EPS) ** -0.5
    if _recording((x, gamma, beta)):
        x_hat = centered * inv_std
        out = x_hat * gamma.data + beta.data
    else:
        # no rule will read x_hat: normalize, scale and shift the centred
        # copy in place, in the same order as the recorded path
        out = centered
        out *= inv_std
        out *= gamma.data
        out += beta.data

    def rule(g):
        d_beta = _colsum(g)
        d_gamma = _colsum(g * x_hat)
        if mode == "infer":
            return g * (gamma.data * inv_std), d_gamma, d_beta
        # the batch statistics depend on x as well: the input gradient is
        # gamma * inv_std * (g - d_beta / n - x_hat * d_gamma / n)
        d_x = x_hat * (d_gamma / n)
        np.subtract(g, d_x, out=d_x)
        d_x -= d_beta / n
        d_x *= gamma.data * inv_std
        return d_x, d_gamma, d_beta

    return _make_output(out, (x, gamma, beta), "batchnorm", rule)


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
    two-layer bottleneck given by w1 [C, H] / w2 [H, C] (ReLU then
    sigmoid); with ``residual`` the output is (1 + a) * F, otherwise a * F.
    Returns (output [B, T, C], attention [B, C]); the attention is a plain
    tensor outside the tape.
    """
    _require_btc(feats, "se_residual_attention")
    steps, channels = feats.shape[1:]
    if w1.ndim != 2 or w1.shape[0] != channels:
        raise ShapeError(f"SE w1 shape {w1.shape} does not match [C, H] with C={channels}")
    hidden = w1.shape[1]
    if w2.shape != (hidden, channels):
        raise ShapeError(f"SE w2 shape {w2.shape} does not match [H, C]=[{hidden}, {channels}]")
    if b1.shape != (hidden,):
        raise ShapeError(f"SE b1 shape {b1.shape} does not match [H]=[{hidden}]")
    if b2.shape != (channels,):
        raise ShapeError(f"SE b2 shape {b2.shape} does not match [C]=[{channels}]")
    fd = feats.data
    desc = fd.mean(axis=1)
    z1 = desc @ w1.data + b1.data
    h = np.maximum(z1, 0)
    # overflow-free sigmoid
    attn = 0.5 * np.tanh(0.5 * (h @ w2.data + b2.data)) + 0.5
    scale = attn[:, None, :]
    out = fd * scale
    if residual:
        out += fd

    def rule(g):
        # gradient of the pre-sigmoid activations, then back through the
        # bottleneck to the descriptor
        d_z2 = (g * fd).sum(axis=1) * attn * (1.0 - attn)
        d_z1 = (d_z2 @ w2.data.T) * (z1 > 0)
        d_desc = d_z1 @ w1.data.T
        d_feats = g + g * scale if residual else g * scale
        d_feats += d_desc[:, None, :] / steps
        return d_feats, desc.T @ d_z1, d_z1.sum(axis=0), h.T @ d_z2, d_z2.sum(axis=0)

    out = _make_output(out, (feats, w1, b1, w2, b2), "se_residual_attention", rule)
    return out, Tensor(attn)


def _lstm_forward(x2d, weight, bias, out, reverse, keep):
    """Run one direction over the [B*T, D] rows of a [B, T, D] input and
    write its hidden states into ``out`` ([B, T, H], a view of the bilstm
    output). With ``keep``, returns the gate activations [B, T, 4H] and cell
    states [B, T, H] of every step for the backward pass; otherwise None."""
    batch, steps, hidden = out.shape
    width = x2d.shape[1]
    w_rec = weight[:, width:].T  # [H, 4H]
    # one GEMM for the input projections of all steps; with ``keep`` the
    # buffer is overwritten step by step with the activations it produces
    acts = x2d @ weight[:, :width].T
    acts += bias
    acts = acts.reshape(batch, steps, 4 * hidden)
    cells = np.empty((batch, steps, hidden), dtype=acts.dtype) if keep else None
    # one tanh serves all four gates [i, f, g, o]: sigmoid(z) is the
    # overflow-free 0.5 * tanh(0.5 * z) + 0.5, and g is tanh(z) itself
    scale = np.full(4 * hidden, 0.5, dtype=acts.dtype)
    scale[2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - scale
    # step buffers, reused: gates, cell state and the input-times-gate term
    a = np.empty((batch, 4 * hidden), dtype=acts.dtype)
    c = np.zeros((batch, hidden), dtype=acts.dtype)
    ig = np.empty_like(c)
    i, f, g, o = (a[:, k * hidden : (k + 1) * hidden] for k in range(4))
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    for t in order:
        if t == order[0]:
            # the zero initial state adds nothing: no recurrent GEMM. A -0.0
            # copied here, which the GEMM's 0 + -0.0 would have made +0.0,
            # still ends as +0.0 after ``a += shift``: the same bits
            a[...] = acts[:, t]
        else:
            np.matmul(h, w_rec, out=a)
            a += acts[:, t]
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c *= f
        c += np.multiply(i, g, out=ig)
        # the hidden state is written into the output and read from there
        h = out[:, t]
        np.tanh(c, out=h)
        h *= o
        if keep:
            acts[:, t], cells[:, t] = a, c
    return (acts, cells) if keep else None


def _previous_states(seq, reverse, out):
    """Write into ``out`` each step's previous state in one direction's time
    order: ``seq`` [B, T, H] shifted by one step, zero before the first."""
    if reverse:
        out[:, :-1], out[:, -1] = seq[:, 1:], 0.0
    else:
        out[:, 1:], out[:, 0] = seq[:, :-1], 0.0
    return out


def _lstm_backward(g_h, x2d, weight, h_seq, acts, cells, reverse):
    """Backpropagation through time for one direction. ``g_h`` is the
    gradient of its hidden states ``h_seq`` [B, T, H]; returns the
    gradients of the [B, T, D] input, the weight and the bias.

    The forward's gate activations ``acts`` [B, T, 4H] are overwritten,
    first with each gate's coefficient and then, step by step, with
    d(loss)/dz, so the backward allocates no gate-sized array. That is safe
    because a tape runs each rule at most once: ``backward`` drops the rule
    after calling it, and a second ``backward`` on the tape raises
    ``TapeError``."""
    batch, steps, hidden = h_seq.shape
    width = x2d.shape[1]
    i, f, g, o = (acts[..., k * hidden : (k + 1) * hidden] for k in range(4))
    # d(loss)/dz = [dc, dc, dc, dh] * coef, where coef is each gate's partner
    # in the cell/hidden update times the gate's own derivative:
    # [g i(1-i), c_prev f(1-f), i (1-g^2), tanh(c) o(1-o)], built in place
    f_gate = f.copy()  # the time loop still reads the forget gate
    scratch = _previous_states(cells, reverse, np.empty_like(cells))  # c_prev
    np.subtract(1.0, f, out=f)
    f *= f_gate
    f *= scratch
    dh_dc = np.tanh(cells)  # tanh(c) until the o coefficient is built
    np.subtract(1.0, o, out=scratch)
    scratch *= o
    scratch *= dh_dc
    # then dh/dc = o (1 - tanh(c)^2) in place
    dh_dc *= dh_dc
    np.subtract(1.0, dh_dc, out=dh_dc)
    dh_dc *= o
    o[...] = scratch
    np.subtract(1.0, i, out=scratch)
    scratch *= i
    scratch *= g
    g *= g
    np.subtract(1.0, g, out=g)
    g *= i
    i[...] = scratch
    w_rec = weight[:, width:]  # [4H, H]
    # each step's row of acts becomes d(loss)/dz: dc times the i, f and g
    # coefficients, dh times the o coefficient
    gates = acts.reshape(batch, steps, 4, hidden)
    dh = np.zeros((batch, hidden), dtype=acts.dtype)
    dc = np.zeros((batch, hidden), dtype=acts.dtype)
    order = range(steps) if reverse else range(steps - 1, -1, -1)
    for t in order:
        dh = g_h[:, t] + dh
        dc = dc + dh * dh_dc[:, t]
        np.multiply(dc[:, None], gates[:, t, :3], out=gates[:, t, :3])
        np.multiply(dh, gates[:, t, 3], out=gates[:, t, 3])
        if t != order[-1]:  # nothing reads the gradient of the zero initial state
            dh = acts[:, t] @ w_rec
            dc = dc * f_gate[:, t]
    del f_gate, dh_dc  # freed before the closing GEMMs allocate their results
    h_prev = _previous_states(h_seq, reverse, scratch)
    d_z = acts.reshape(batch * steps, 4 * hidden)
    d_weight = np.empty_like(weight)
    np.matmul(d_z.T, x2d, out=d_weight[:, :width])
    np.matmul(d_z.T, h_prev.reshape(batch * steps, hidden), out=d_weight[:, width:])
    del scratch, h_prev  # and h_prev before d_x
    d_x = np.empty((batch, steps, width), dtype=acts.dtype)
    np.matmul(d_z, weight[:, :width], out=d_x.reshape(batch * steps, width))
    return d_x, d_weight, _colsum(d_z)


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
    batch, steps, width = x.shape
    hidden = w_forward.shape[0] // 4
    h4 = 4 * hidden
    for weight, bias in ((w_forward, b_forward), (w_backward, b_backward)):
        if weight.shape != (h4, width + hidden):
            raise ShapeError(
                f"LSTM weight shape {weight.shape} does not match [4H, D+H]="
                f"[{h4}, {width + hidden}]"
            )
        if bias.shape != (h4,):
            raise ShapeError(f"LSTM bias shape {bias.shape} does not match [4H]=[{h4}]")
    x2d = x.data.reshape(batch * steps, width)
    out = np.empty((batch, steps, 2 * hidden), dtype=x.dtype)
    halves = (out[..., :hidden], out[..., hidden:])
    weights = (w_forward.data, w_backward.data)
    inputs = (x, w_forward, b_forward, w_backward, b_backward)
    keep = _recording(inputs)
    saved = [
        _lstm_forward(x2d, weights[k], bias.data, halves[k], reverse=bool(k), keep=keep)
        for k, bias in enumerate((b_forward, b_backward))
    ]

    def rule(g):
        (d_x, dw_f, db_f), (dx_b, dw_b, db_b) = (
            _lstm_backward(g[..., k * hidden : (k + 1) * hidden], x2d, weights[k],
                           halves[k], *saved[k], reverse=bool(k))
            for k in range(2)
        )
        d_x += dx_b
        return d_x, dw_f, db_f, dw_b, db_b

    return _make_output(out, inputs, "bilstm", rule)


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
    return _make_output(x.data * keep, (x,), "dropout", lambda g: (g * keep,))


def dense(x: Tensor, weight: Tensor, bias: Tensor, *, relu: bool) -> Tensor:
    """Affine projection x @ W + b for [B, in] inputs, then ReLU with ``relu``."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"dense needs 2-D operands, got {x.shape} @ {weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(f"dense inner extents disagree: {x.shape} @ {weight.shape}")
    if bias.shape != weight.shape[1:]:
        raise ShapeError(f"dense bias shape {bias.shape} does not match [out]={weight.shape[1:]}")
    xd, wd = x.data, weight.data
    out = xd @ wd + bias.data

    def rule(g):
        g = g * (out > 0) if relu else g
        return g @ wd.T, xd.T @ g, _colsum(g)

    result = _make_output(out, (x, weight, bias), "dense", rule)
    if relu:
        np.maximum(out, 0, out=out)
    return result


def _require_steps(x: Tensor, layer: str) -> None:
    _require_btc(x, layer)
    if x.shape[1] == 0:
        raise ShapeError(f"{layer} over an empty time axis, shape {x.shape}")


def global_avg_pool_time(x: Tensor) -> Tensor:
    """Mean over the time axis of [B, T, C] features."""
    _require_steps(x, "global_avg_pool_time")
    xd = x.data
    length = xd.shape[1]

    def rule(g):
        # keeps the broadcast's time-innermost layout: a C-order copy makes
        # the convolution and batch-norm gradients below differ in the last bits
        return (np.broadcast_to(g[:, None, :] / length, xd.shape).astype(g.dtype, copy=True),)

    return _make_output(xd.mean(axis=1), (x,), "global_avg_pool_time", rule)


def global_max_pool_time(x: Tensor) -> Tensor:
    """Max over the time axis of [B, T, C] features: max pooling with one
    window of all T steps, the time axis dropped."""
    _require_steps(x, "global_max_pool_time")
    out, rule = _window_max(x.data, x.shape[1])
    return _make_output(out[:, 0], (x,), "global_max_pool_time", lambda g: rule(g[:, None]))
