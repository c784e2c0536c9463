"""Model assembly: the full architecture and its three ablation variants.

The full variant chains Conv(32,k5)+ReLU+BN -> Conv(64,k5)+ReLU+BN ->
MaxPool2 -> Conv(128,k3)+ReLU+BN -> SE residual attention -> BiLSTM ->
global max pool -> Dense(128)+ReLU -> Dropout -> Dense(K)+Softmax. The
ReLUs run inside the conv and dense layers; :func:`forward` returns logits,
and the softmax runs in the loss and the inference loop of
:mod:`papernet.training`. Variants: no_attention drops the SE block, no_lstm
swaps the recurrent aggregator for global average pooling, no_residual
scales without the skip.

The parameters, running statistics included, live in one
:class:`~papernet.tensor.ParamBuffer` in ``params`` order, which is also
the order of a ``PNW1`` weight file's body: copying a model, saving or
loading its weights and an Adam step each act on that one array. A model
gets a gradient array only once it receives a gradient, so copies and
loaded models carry none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import NUM_CHANNELS
from .errors import ShapeError
from . import layers
from .tensor import ParamBuffer, Tensor

VARIANTS = ("full", "no_attention", "no_lstm", "no_residual")

CONV_WIDTHS = (32, 64, 128)
CONV_KERNELS = (5, 5, 3)
SE_BOTTLENECK = 32
LSTM_HIDDEN = 64
DENSE_WIDTH = 128
DROPOUT = 0.3  # the default rate; TrainConfig.dropout sets it for a run


@dataclass
class ModelGraph:
    """Assembled network: variant tag plus named parameter tensors, which
    are views of ``flat``. The class count and dtype are read from them.
    It holds what a weight file holds and nothing more: the dropout rate
    is an argument of :func:`forward`."""

    variant: str
    input_length: int
    params: dict[str, Tensor]
    flat: ParamBuffer

    @property
    def num_classes(self) -> int:
        return self.params["dense2.bias"].size

    @property
    def dtype(self) -> np.dtype:
        return self.flat.data.dtype

    def trainable(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if v.requires_grad}

    def weight_matrices(self) -> list[Tensor]:
        """Multi-dimensional weights subject to the L2 penalty (no biases,
        no batch-norm parameters)."""
        return [
            v
            for k, v in self.params.items()
            if v.requires_grad and v.ndim >= 2
        ]

    def zero_grad(self) -> None:
        """One fill of the gradient array; every ``grad`` becomes None."""
        if self.flat.grad is not None:
            self.flat.grad.fill(0)
        for p in self.params.values():
            p.grad = None

    def copy(self) -> "ModelGraph":
        """A detached copy: one copy of the buffer, no gradients."""
        self.flat.check_views(self.params)
        params = {k: Tensor(p.data, requires_grad=p.requires_grad) for k, p in self.params.items()}
        return ModelGraph(
            variant=self.variant,
            input_length=self.input_length,
            params=params,
            flat=ParamBuffer(params.values(), self.flat.data.copy()),
        )


def _fill(value: float):
    return lambda rng, shape: np.full(shape, value)


def _glorot(fan_in: int, fan_out: int):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return lambda rng, shape: rng.uniform(-limit, limit, size=shape)


def _lstm_bias(rng, shape):
    bias = np.zeros(shape)
    bias[shape[0] // 4 : shape[0] // 2] = 1.0  # forget gate opens at init
    return bias


def _layout(variant: str, num_classes: int) -> list:
    """Every tensor of a model in ``params`` order, the ``PNW1`` body order,
    as (name, shape, initializer). An initializer maps (rng, shape) to the
    starting values; only the Glorot ones draw from the rng."""
    layout = []
    c_in = 1
    for i, (width, k) in enumerate(zip(CONV_WIDTHS, CONV_KERNELS), start=1):
        layout += [
            (f"conv{i}.kernel", (k, c_in, width), _glorot(k * c_in, k * width)),
            (f"conv{i}.bias", (width,), _fill(0.0)),
            (f"bn{i}.gamma", (width,), _fill(1.0)),
            (f"bn{i}.beta", (width,), _fill(0.0)),
            (f"bn{i}.running_mean", (width,), _fill(0.0)),
            (f"bn{i}.running_var", (width,), _fill(1.0)),
        ]
        c_in = width
    feat = CONV_WIDTHS[-1]
    if variant != "no_attention":
        layout += [
            ("se.w1", (feat, SE_BOTTLENECK), _glorot(feat, SE_BOTTLENECK)),
            ("se.b1", (SE_BOTTLENECK,), _fill(0.0)),
            ("se.w2", (SE_BOTTLENECK, feat), _glorot(SE_BOTTLENECK, feat)),
            ("se.b2", (feat,), _fill(0.0)),
        ]
    if variant != "no_lstm":
        h = LSTM_HIDDEN
        for direction in ("fw", "bw"):
            layout += [
                (f"lstm_{direction}.weight", (4 * h, feat + h), _glorot(feat + h, 4 * h)),
                (f"lstm_{direction}.bias", (4 * h,), _lstm_bias),
            ]
    return layout + [
        ("dense1.weight", (feat, DENSE_WIDTH), _glorot(feat, DENSE_WIDTH)),
        ("dense1.bias", (DENSE_WIDTH,), _fill(0.0)),
        ("dense2.weight", (DENSE_WIDTH, num_classes), _glorot(DENSE_WIDTH, num_classes)),
        ("dense2.bias", (num_classes,), _fill(0.0)),
    ]


def _allocate_papernet(num_classes: int, input_length: int, variant: str, dtype) -> ModelGraph:
    """A model whose parameters are views of one uninitialized buffer, for
    a caller that writes every value: :func:`build_papernet` or a weight
    load."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if input_length < 2:
        raise ValueError(f"input_length must be >= 2, got {input_length}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    # every tensor but the batch-norm running statistics is trained
    params = {
        name: Tensor(np.empty(shape, dtype=dtype), requires_grad=".running_" not in name)
        for name, shape, _ in _layout(variant, num_classes)
    }
    size = sum(t.size for t in params.values())
    return ModelGraph(
        variant=variant,
        input_length=input_length,
        params=params,
        flat=ParamBuffer(params.values(), np.empty(size, dtype=dtype)),
    )


def build_papernet(
    num_classes: int = 4,
    input_length: int = NUM_CHANNELS,
    variant: str = "full",
    seed: int = 0,
    dtype=np.float32,
) -> ModelGraph:
    """Construct a model with freshly initialized parameters.

    Conv and dense weights use Glorot-uniform init; LSTM forget-gate biases
    start at 1, all other biases at 0; batch-norm starts as the identity.
    """
    model = _allocate_papernet(num_classes, input_length, variant, dtype)
    rng = np.random.default_rng(seed)
    for name, shape, init in _layout(variant, num_classes):
        model.params[name].data[...] = init(rng, shape)
    return model


def forward(
    model: ModelGraph,
    batch,
    mode: str = "infer",
    rng=None,
    dropout: float = DROPOUT,
    return_attention: bool = False,
    trace: list | None = None,
):
    """Run the network on a [B, T, 1] batch and return [B, K] logits.

    In train mode the dropout layer zeroes units at rate ``dropout``,
    drawing from ``rng``; infer mode ignores both.
    ``trace``, when a list, collects (stage, per_sample_shape) pairs.
    With ``return_attention`` the per-sample attention vector is returned
    alongside the logits (errors on the no_attention variant).
    """
    if return_attention and model.variant == "no_attention":
        raise ValueError("the no_attention variant has no attention weights")
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=model.dtype))
    if x.ndim != 3 or x.shape[2] != 1:
        raise ShapeError(f"expected a [B, T, 1] batch, got shape {x.shape}")
    if x.shape[1] != model.input_length:
        raise ShapeError(
            f"batch length {x.shape[1]} does not match model input_length "
            f"{model.input_length}"
        )
    p = model.params

    def record(stage, tensor):
        if trace is not None:
            trace.append((stage, tensor.shape[1:]))

    for i in (1, 2, 3):
        x = layers.conv1d_same(x, p[f"conv{i}.kernel"], p[f"conv{i}.bias"])
        x = layers.batchnorm(
            x,
            p[f"bn{i}.gamma"],
            p[f"bn{i}.beta"],
            p[f"bn{i}.running_mean"],
            p[f"bn{i}.running_var"],
            mode,
        )
        record(f"conv_block{i}", x)
        if i == 2:
            x = layers.maxpool1d(x, pool=2)
            record("maxpool", x)

    attn = None
    if model.variant != "no_attention":
        x, attn = layers.se_residual_attention(
            x,
            p["se.w1"],
            p["se.b1"],
            p["se.w2"],
            p["se.b2"],
            residual=(model.variant != "no_residual"),
        )
        record("attention", x)

    if model.variant == "no_lstm":
        x = layers.global_avg_pool_time(x)
        record("pool", x)
    else:
        x = layers.bilstm(
            x,
            p["lstm_fw.weight"],
            p["lstm_fw.bias"],
            p["lstm_bw.weight"],
            p["lstm_bw.bias"],
        )
        record("bilstm", x)
        x = layers.global_max_pool_time(x)
        record("pool", x)

    x = layers.dense(x, p["dense1.weight"], p["dense1.bias"], relu=True)
    record("dense1", x)
    x = layers.dropout(x, p=dropout, mode=mode, rng=rng)
    logits = layers.dense(x, p["dense2.weight"], p["dense2.bias"], relu=False)
    record("output", logits)
    if return_attention:
        return logits, attn
    return logits


def count_parameters(model: ModelGraph) -> int:
    """Number of trainable parameters (running statistics excluded)."""
    return sum(t.size for t in model.params.values() if t.requires_grad)


def count_non_trainable(model: ModelGraph) -> int:
    """Size of the running statistics buffers."""
    return sum(t.size for t in model.params.values() if not t.requires_grad)
