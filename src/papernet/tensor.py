"""Minimal dense tensor with tape-based reverse-mode differentiation, and
the flat buffer a model's parameters live in.

Training runs in float32; gradient checks run in float64. The tape holds no
math of its own: each layer in :mod:`papernet.layers` (ReLU included, inside
the convolution and dense layers) and the training loss (softmax and L2
penalty included) record their one node through :func:`_make_output` with a
hand-written rule. :func:`_make_output` validates that the output is finite
(one ``np.isfinite(...).all()``, exact for large finite float64 values).

State that only a backward pass reads (a ReLU mask, the position of a
pooled maximum, batch norm's normalized input) is computed inside the
rule, and a layer that must keep such state from its forward asks
:func:`_recording` first, so a forward outside a tape builds none of it.
:func:`backward` drops each node's rule and inputs once it has used them,
which frees the state the rules saved; a consumed tape still holds each
node's output tensor and its gradient until the tape itself is dropped.

A :class:`ParamBuffer` holds parameter tensors back to back in one array,
with a matching gradient array made at the first gradient, so the optimizer
updates them all at once. A parameter that has received no gradient keeps
``grad is None``, and its slot of the gradient array holds zeros.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, TapeError


class Tensor:
    """Dense array with an optional gradient. ``home`` is the
    (:class:`ParamBuffer`, start) a parameter's data lives at, else None."""

    __slots__ = ("data", "grad", "requires_grad", "home")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.home: tuple[ParamBuffer, int] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.home is not None and self.grad is not None:
            self.grad.fill(0)  # the buffer's slot holds zeros while grad is None
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to the gradient. A parameter's first gradient is copied
        into its buffer slot. Any other tensor keeps a first ``g`` that owns
        its memory (``g.base is None``) and has its dtype, uncopied, and
        copies a view; :func:`backward` passes as a view whatever a rule
        returns that a tensor already holds: its own ``g``, or an array it
        returned for an earlier input."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match data shape {self.shape}")
        if self.grad is not None:
            self.grad += g
        elif self.home is not None:
            self.grad = self._grad_slot()
            np.copyto(self.grad, g)
        elif g.base is None and g.dtype == self.data.dtype:
            self.grad = g
        else:
            self.grad = g.astype(self.data.dtype, copy=True)

    def accumulate_scaled_data(self, scale) -> None:
        """Add ``data * scale``, an L2 penalty's gradient; in one pass into
        the buffer slot of a parameter with no gradient yet."""
        if self.grad is None and self.home is not None:
            self.grad = self._grad_slot()
            np.multiply(self.data, scale, out=self.grad)
        else:
            self.accumulate_grad(self.data * scale)

    def _grad_slot(self) -> np.ndarray:
        buffer, start = self.home
        return buffer.grad_array()[start : start + self.size].reshape(self.shape)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class ParamBuffer:
    """Parameter tensors stored back to back in one contiguous array.

    ``data`` is the whole array; ``grad`` is the matching gradient array,
    None until a tensor receives a gradient. A tensor's ``grad`` is then its
    view of ``grad``, so gradients reach the buffer only through
    :meth:`Tensor.accumulate_grad` and :meth:`Tensor.accumulate_scaled_data`,
    never by assigning ``grad``. The buffer
    keeps no reference to its tensors: without a cycle, a dropped model's
    arrays are freed at once rather than at the next garbage collection.
    """

    __slots__ = ("data", "grad")

    def __init__(self, tensors: Sequence[Tensor], data: np.ndarray):
        """Rebind each tensor's ``data`` to its view of ``data``, in order;
        the tensors' current values are dropped."""
        self.data, self.grad = data, None
        start = 0
        for t in tensors:
            t.data, t.home = data[start : start + t.size].reshape(t.shape), (self, start)
            start += t.size

    def grad_array(self) -> np.ndarray:
        """The gradient array, allocated as zeros on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def check_views(self, tensors: dict[str, Tensor]) -> None:
        """Raise ValueError naming the first tensor whose ``data`` or ``grad``
        was assigned rather than written in place, so the buffer misses it."""
        for name, t in tensors.items():
            for slot, arr, whole in (("data", t.data, self.data), ("grad", t.grad, self.grad)):
                if arr is not None and (whole is None or arr.base is not whole):
                    raise ValueError(f"{name}.{slot} is not its view of the parameter buffer")


class _TapeNode:
    __slots__ = ("name", "inputs", "output", "rule")

    def __init__(self, name, inputs, output, rule):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.rule = rule


class ComputationTape:
    """Ordered record of executed operations for one backward sweep.

    A tape is active inside its ``with`` block, for the thread that entered
    it; operations that thread executes there append themselves in
    topological (execution) order. One call to :func:`backward` consumes
    the tape; a second call raises.
    """

    def __init__(self):
        self.nodes: list[_TapeNode] = []
        self.consumed = False

    def __enter__(self) -> "ComputationTape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _TAPES.stack
        if not stack or stack[-1] is not self:
            raise TapeError("tape context exited out of order")
        stack.pop()

    def record(
        self,
        name: str,
        inputs: Sequence[Tensor],
        output: Tensor,
        rule: Callable[[np.ndarray], tuple],
    ) -> None:
        """Append an operation. ``rule`` maps the output gradient to one
        gradient array (or None) per input, in input order."""
        self.nodes.append(_TapeNode(name, tuple(inputs), output, rule))


class _ThreadTapes(threading.local):
    """The calling thread's active tapes, innermost last: a forward run in
    another thread records nothing onto them."""

    def __init__(self):
        self.stack: list[ComputationTape] = []


_TAPES = _ThreadTapes()


def _active_tape() -> ComputationTape | None:
    stack = _TAPES.stack
    return stack[-1] if stack else None


def backward(tape: ComputationTape, loss: Tensor) -> None:
    """Populate ``grad`` on every tensor that contributed to ``loss``."""
    if loss.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if not any(node.output is loss for node in tape.nodes):
        raise TapeError("loss tensor was not recorded on this tape")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g_out = node.output.grad
        if g_out is not None:
            held = [g_out]
            for inp, g in zip(node.inputs, node.rule(g_out)):
                if g is not None and inp.requires_grad:
                    # an array some tensor already holds goes in as a view: copied
                    inp.accumulate_grad(g.view() if any(g is h for h in held) else g)
                    held.append(g)
        # the rule's closure holds the node's saved state
        node.rule, node.inputs = None, ()


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over ``inputs`` will be recorded: a tape is active and
    some input requires grad. Only then is backward-only state needed."""
    return bool(_TAPES.stack) and any(t.requires_grad for t in inputs)


def _make_output(data: np.ndarray, inputs: Sequence[Tensor], name: str, rule) -> Tensor:
    # elementwise: no float64 copy of float32 data, and no sum that large
    # finite float64 values could overflow
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values produced by {name}")
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if _recording(inputs):
        _active_tape().record(name, inputs, out, rule)
    return out


# ---------------------------------------------------------------------------
# gradient checking


def gradcheck(
    fn: Callable[..., Tensor],
    point,
    eps: float = 1e-4,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of ``fn`` against central differences.

    ``fn`` maps the given tensors to an output tensor; non-scalar outputs are
    reduced with a fixed random projection so both gradient routes see the
    same scalar. Inputs must be float64. Returns the max relative error
    |a - n| / max(1e-8, |a| + |n|) over the probed coordinates. With
    ``max_coords`` set, only that many coordinates per input are probed
    (needed to keep whole-model checks fast): the ones with the biggest
    |gradient|, where the finite difference is well conditioned.
    """
    tensors = [point] if isinstance(point, Tensor) else list(point)
    for t in tensors:
        if t.dtype != np.float64:
            raise ShapeError("gradcheck requires float64 tensors")
        t.requires_grad = True
        t.zero_grad()

    probe = fn(*tensors)
    projection = None
    if probe.size != 1:
        proj_rng = np.random.default_rng(seed)
        projection = proj_rng.uniform(0.5, 1.5, size=probe.shape)

    def scalar_eval() -> Tensor:
        out = fn(*tensors)
        if projection is None:
            return out
        return _make_output(
            np.asarray((out.data * projection).sum()), (out,), "projection",
            lambda g: (g * projection,),
        )

    with ComputationTape() as tape:
        loss = scalar_eval()
        backward(tape, loss)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros(t.shape, dtype=np.float64)
        for t in tensors
    ]

    max_err = 0.0
    for t, a_grad in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        idx = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            idx = np.argsort(-np.abs(a_grad.reshape(-1)))[:max_coords]
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = scalar_eval().item()
            flat[i] = orig - eps
            f_minus = scalar_eval().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            analytic_i = a_grad.reshape(-1)[i]
            denom = max(1e-8, abs(analytic_i) + abs(numeric))
            max_err = max(max_err, abs(analytic_i - numeric) / denom)
    return max_err
