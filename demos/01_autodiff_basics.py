"""A tour of the tensor core: layers on the tape, the loss on logits, and
gradient checking.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from papernet.layers import dense
from papernet.tensor import ComputationTape, Tensor, backward, gradcheck
from papernet.training import weighted_cross_entropy

# Tensors wrap numpy arrays; requires_grad marks leaves we differentiate.
w = Tensor(np.array([[0.4, -0.7], [1.2, 0.1]]), requires_grad=True, dtype=np.float64)
b = Tensor(np.array([0.1, -0.2]), requires_grad=True, dtype=np.float64)
w_out = Tensor(np.array([[0.5, -0.3, 0.2], [-0.1, 0.4, 0.6]]), requires_grad=True,
               dtype=np.float64)
b_out = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
x = Tensor(np.array([[1.0, 2.0]]), dtype=np.float64)
onehot = np.array([[0.0, 1.0, 0.0]])

# Operations executed inside a tape context are recorded in order; each
# layer is one node with a hand-written backward rule. The hidden layer
# applies its ReLU inside the node; the output layer gives logits, and the
# loss takes the softmax of them inside its own node.
with ComputationTape() as tape:
    hidden = dense(x, w, b, relu=True)
    logits = dense(hidden, w_out, b_out, relu=False)
    loss = weighted_cross_entropy(logits, onehot)
    backward(tape, loss)

print("tape nodes       :", [node.name for node in tape.nodes])
print("hidden (ReLU)    :", hidden.data)
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
err = gradcheck(lambda *t: dense(*t, relu=True), [x64, w64, b64])
print(f"gradcheck dense with ReLU: max relative error {err:.2e}")

# The loss differentiates through the softmax to the logits.
z = Tensor(np.random.default_rng(1).normal(size=(2, 5)), requires_grad=True, dtype=np.float64)
labels = np.eye(5)[[1, 3]]
err = gradcheck(lambda t: weighted_cross_entropy(t, labels), z)
print(f"gradcheck softmax cross-entropy on logits: max relative error {err:.2e}")
