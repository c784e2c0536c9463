"""What the network looks like inside: shape flow, parameter accounting,
the ablation variants, and the attention read-out.

Run:  python3 demos/03_model_anatomy.py
"""

import numpy as np

from papernet.model import (
    VARIANTS,
    build_papernet,
    count_non_trainable,
    count_parameters,
    forward,
)
from papernet.training import predict_probs

model = build_papernet(num_classes=4, input_length=16, seed=0)
x = np.random.default_rng(0).standard_normal((2, 16, 1)).astype(np.float32)

trace = []
logits = forward(model, x, trace=trace)
print("shape flow through the full model (per sample):")
for stage, shape in trace:
    print(f"  {stage:12s} -> {shape}")
# forward returns logits; the softmax runs in the loss and in predict_probs
print("predict_probs rows sum to", *predict_probs(model, x).sum(axis=1).tolist())

print("\nparameters by layer:")
by_layer = {}
for name, tensor in model.params.items():
    if tensor.requires_grad:
        by_layer.setdefault(name.split(".")[0], 0)
        by_layer[name.split(".")[0]] += tensor.size
for layer, size in by_layer.items():
    print(f"  {layer:10s} {size:7d}")
print(f"  {'total':10s} {count_parameters(model):7d} "
      f"(+{count_non_trainable(model)} running stats)")

print("\nablation variants:")
full = count_parameters(model)
for variant in VARIANTS:
    m = build_papernet(variant=variant, seed=0)
    print(f"  {variant:13s} {count_parameters(m):7d} parameters "
          f"(delta {full - count_parameters(m):+d})")

# The squeeze-and-excitation block exposes its per-sample channel weights.
logits, attn = forward(model, x, return_attention=True)
print(f"\nattention vector shape {attn.shape}; "
      f"range [{attn.data.min():.3f}, {attn.data.max():.3f}]")
top = np.argsort(-attn.data.mean(axis=0))[:5]
print("most-weighted feature channels:", top.tolist())
