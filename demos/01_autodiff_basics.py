"""A tour of the tensor core: forward ops, the tape, and gradient checking.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from papernet.layers import dense
from papernet.tensor import (
    ComputationTape,
    Tensor,
    backward,
    gradcheck,
    relu,
    softmax_lastaxis,
)

# Tensors wrap numpy arrays; requires_grad marks leaves we differentiate.
w = Tensor(np.array([[0.4, -0.7], [1.2, 0.1]]), requires_grad=True, dtype=np.float64)
b = Tensor(np.array([0.1, -0.2]), requires_grad=True, dtype=np.float64)
x = Tensor(np.array([[1.0, 2.0]]), dtype=np.float64)

# Operations executed inside a tape context are recorded in order; each
# layer is one node with a hand-written backward rule. A dense node with a
# fixed averaging weight turns the hidden row into a scalar loss.
mean_w = Tensor(np.full((2, 1), 0.5), dtype=np.float64)
zero = Tensor(np.zeros(1), dtype=np.float64)
with ComputationTape() as tape:
    hidden = relu(dense(x, w, b))
    loss = dense(hidden, mean_w, zero)
    backward(tape, loss)

print("tape nodes       :", [node.name for node in tape.nodes])
print("loss             :", loss.item())
print("d loss / d w     :\n", w.grad)

# The tape is single-use: a second backward pass raises.
try:
    backward(tape, loss)
except Exception as exc:
    print("second backward  :", type(exc).__name__, "-", exc)

# Every backward rule is verified against central finite differences.
rng = np.random.default_rng(0)
x64 = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
w64 = Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
b64 = Tensor(rng.normal(size=2), requires_grad=True, dtype=np.float64)
# a non-scalar output is reduced by a fixed random projection
err = gradcheck(lambda *t: relu(dense(*t)), [x64, w64, b64])
print(f"gradcheck dense-relu chain: max relative error {err:.2e}")

# Softmax rows always sum to one; the checker works on any composite.
logits = Tensor(np.random.default_rng(1).normal(size=(2, 5)), requires_grad=True, dtype=np.float64)
probs = softmax_lastaxis(logits)
print("softmax row sums :", probs.data.sum(axis=1))
err = gradcheck(softmax_lastaxis, logits)
print(f"gradcheck softmax: max relative error {err:.2e}")
