"""Model assembly: the full architecture and its three ablation variants.

The full variant chains Conv(32,k5)+ReLU+BN -> Conv(64,k5)+ReLU+BN ->
MaxPool2 -> Conv(128,k3)+ReLU+BN -> SE residual attention -> BiLSTM ->
global max pool -> Dense(128)+ReLU -> Dropout -> Dense(K)+Softmax.
Variants: no_attention drops the SE block, no_lstm swaps the recurrent
aggregator for global average pooling, no_residual scales without the skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dsp import NUM_CHANNELS
from .errors import ShapeError
from . import layers
from .tensor import Tensor, relu, softmax_lastaxis

VARIANTS = ("full", "no_attention", "no_lstm", "no_residual")

CONV_WIDTHS = (32, 64, 128)
CONV_KERNELS = (5, 5, 3)
SE_BOTTLENECK = 32
LSTM_HIDDEN = 64
DENSE_WIDTH = 128


@dataclass
class ModelGraph:
    """Assembled network: variant tag plus named parameter tensors."""

    variant: str
    num_classes: int
    input_length: int
    dropout_p: float = 0.3
    dtype: np.dtype = np.float32
    params: dict[str, Tensor] = field(default_factory=dict)

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
        for p in self.params.values():
            p.zero_grad()

    def copy(self) -> "ModelGraph":
        clone = ModelGraph(
            variant=self.variant,
            num_classes=self.num_classes,
            input_length=self.input_length,
            dropout_p=self.dropout_p,
            dtype=self.dtype,
        )
        for name, p in self.params.items():
            clone.params[name] = Tensor(p.data.copy(), requires_grad=p.requires_grad)
        return clone


def _glorot(rng, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


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
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if input_length < 2:
        raise ValueError(f"input_length must be >= 2, got {input_length}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    model = ModelGraph(
        variant=variant,
        num_classes=num_classes,
        input_length=input_length,
        dtype=dtype,
    )
    p = model.params

    def param(name, data, trainable=True):
        p[name] = Tensor(np.asarray(data, dtype=dtype), requires_grad=trainable)

    c_in = 1
    for i, (width, k) in enumerate(zip(CONV_WIDTHS, CONV_KERNELS), start=1):
        param(
            f"conv{i}.kernel",
            _glorot(rng, (k, c_in, width), fan_in=k * c_in, fan_out=k * width, dtype=dtype),
        )
        param(f"conv{i}.bias", np.zeros(width))
        param(f"bn{i}.gamma", np.ones(width))
        param(f"bn{i}.beta", np.zeros(width))
        param(f"bn{i}.running_mean", np.zeros(width), trainable=False)
        param(f"bn{i}.running_var", np.ones(width), trainable=False)
        c_in = width

    feat = CONV_WIDTHS[-1]
    if variant != "no_attention":
        param(
            "se.w1",
            _glorot(rng, (feat, SE_BOTTLENECK), fan_in=feat, fan_out=SE_BOTTLENECK, dtype=dtype),
        )
        param("se.b1", np.zeros(SE_BOTTLENECK))
        param(
            "se.w2",
            _glorot(rng, (SE_BOTTLENECK, feat), fan_in=SE_BOTTLENECK, fan_out=feat, dtype=dtype),
        )
        param("se.b2", np.zeros(feat))

    if variant != "no_lstm":
        h = LSTM_HIDDEN
        for direction in ("fw", "bw"):
            param(
                f"lstm_{direction}.weight",
                _glorot(rng, (4 * h, feat + h), fan_in=feat + h, fan_out=4 * h, dtype=dtype),
            )
            bias = np.zeros(4 * h)
            bias[h : 2 * h] = 1.0  # forget gate opens at init
            param(f"lstm_{direction}.bias", bias)

    param(
        "dense1.weight",
        _glorot(rng, (feat, DENSE_WIDTH), fan_in=feat, fan_out=DENSE_WIDTH, dtype=dtype),
    )
    param("dense1.bias", np.zeros(DENSE_WIDTH))
    param(
        "dense2.weight",
        _glorot(rng, (DENSE_WIDTH, num_classes), fan_in=DENSE_WIDTH, fan_out=num_classes, dtype=dtype),
    )
    param("dense2.bias", np.zeros(num_classes))
    return model


def forward(
    model: ModelGraph,
    batch,
    mode: str = "infer",
    rng=None,
    return_attention: bool = False,
    trace: list | None = None,
):
    """Run the network on a [B, T, 1] batch and return [B, K] probabilities.

    ``trace``, when a list, collects (stage, per_sample_shape) pairs.
    With ``return_attention`` the per-sample attention vector is returned
    alongside the probabilities (errors on the no_attention variant).
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
        x = relu(x)
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

    x = relu(layers.dense(x, p["dense1.weight"], p["dense1.bias"]))
    record("dense1", x)
    x = layers.dropout(x, p=model.dropout_p, mode=mode, rng=rng)
    probs = softmax_lastaxis(layers.dense(x, p["dense2.weight"], p["dense2.bias"]))
    record("output", probs)
    if return_attention:
        return probs, attn
    return probs


def count_parameters(model: ModelGraph) -> int:
    """Number of trainable parameters (running statistics excluded)."""
    return sum(t.size for t in model.params.values() if t.requires_grad)


def count_non_trainable(model: ModelGraph) -> int:
    """Size of the running statistics buffers."""
    return sum(t.size for t in model.params.values() if not t.requires_grad)
