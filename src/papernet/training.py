"""Optimization protocol and the inference loop.

Training: weighted cross-entropy on the model's logits, with the softmax
and an L2 penalty inside its one tape node (:func:`weighted_cross_entropy`),
Adam, checkpointing, and per-epoch history logging. Adam updates the
model's whole parameter buffer with a fixed run of numpy calls, over flat
moments and scratch space kept between steps. One stall counter
(:class:`Plateau`) on validation macro-F1 drives both reduce-on-plateau and
early stopping. Inference: :func:`infer_batches` runs the infer-mode
forward and the same softmax as the loss, for :func:`predict_probs` and
:func:`export_attention`. A call of up to ``INFER_BATCH`` rows is one
forward in the caller's thread; a longer one runs half-size forwards on the
caller's thread and one worker thread, with the same output bits.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import SplitIndices, class_weights, save_weights, write_csv
from .dsp import NUM_CHANNELS
from .errors import ConfigError, DataError, NonFiniteError, TrainingError
from .metrics import confusion, prf_metrics
from .model import CONV_WIDTHS, DROPOUT, ModelGraph, forward
from .tensor import ComputationTape, ParamBuffer, Tensor, _make_output, backward

IMPROVEMENT_DELTA = 1e-4
LOG_FLOOR = 1e-12
INFER_BATCH = 256  # rows per infer-mode forward
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7


def _quiet_fp() -> np.errstate:
    # every op output is checked for NaN/Inf, so numpy's own warnings add nothing
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


@dataclass
class TrainConfig:
    lr0: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 100
    plateau_patience: int = 3
    plateau_factor: float = 0.5
    min_lr: float = 1e-6
    early_stop_patience: int = 6
    l2: float = 1e-4
    dropout: float = DROPOUT
    seed: int = 0
    class_weighting: bool = True

    def validate(self) -> None:
        rates = (self.lr0, self.min_lr, self.l2)
        if not (all(0 <= v < math.inf for v in rates) and self.min_lr > 0):  # NaN fails too
            raise ConfigError("learning rates and l2 must be finite and non-negative (min_lr > 0)")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be at least 2 (batch norm), got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be positive")
        if self.plateau_patience < 1 or self.early_stop_patience < 1:
            raise ConfigError("patience values must be positive")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError("plateau_factor must lie in (0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class AdamState:
    """Adam's moments for every slot of one :class:`ParamBuffer`, flat like
    it, plus the scratch space the update reuses from step to step: two rows
    of half the buffer's length, as the update runs in two chunks."""

    flat: ParamBuffer
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        """State for the one buffer every tensor in ``params`` lives in."""
        homes = {p.home[0] if p.home else None for p in params.values()}
        if len(homes) != 1 or None in homes:
            raise ValueError("Adam needs parameters that all live in one ParamBuffer")
        flat = homes.pop()
        half = -(-flat.data.size // 2)
        return cls(
            flat,
            np.zeros_like(flat.data),
            np.zeros_like(flat.data),
            np.empty((2, half), dtype=flat.data.dtype),
        )


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update, m and v moments with bias correction, of the whole
    buffer ``params`` live in.

    Slots that received no gradient read as a zero gradient: their moments
    decay, and where both are still 0 (the running statistics) the update
    is exactly 0. A non-finite gradient, or a parameter off the buffer,
    aborts before any state changes and names the first such parameter.
    """
    flat = state.flat
    flat.check_views(params)
    grad = flat.grad_array()
    if not np.isfinite(grad).all():
        name = next(
            (n for n, p in params.items() if p.grad is not None and not np.isfinite(p.grad).all()),
            "a slot outside params",
        )
        raise TrainingError(f"non-finite gradient for {name}")
    state.t += 1
    correct1 = 1.0 - ADAM_BETA1**state.t
    correct2 = 1.0 - ADAM_BETA2**state.t
    chunk = state.scratch.shape[1]
    # chunk by chunk, so the scratch rows span one chunk and a chunk's
    # arrays stay in cache across the passes; the per-element operations
    # and their order are those of p -= lr * (m / c1) / (sqrt(v / c2) + eps)
    for lo in range(0, grad.size, chunk):
        g, m, v, p = (arr[lo : lo + chunk] for arr in (grad, state.m, state.v, flat.data))
        tmp, step = state.scratch[:, : len(g)]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        denom = np.divide(v, correct2, out=tmp)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, correct1, out=step)
        step *= lr
        step /= denom
        p -= step


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-stable softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def weighted_cross_entropy(logits: Tensor, onehot, class_w=None,
                           model: ModelGraph | None = None, l2: float = 0.0) -> Tensor:
    """Mean of -w_y * log(p_y) over the batch, p = softmax(logits), log
    floored at 1e-12, plus l2 * sum of squared weight-matrix entries.

    One tape node over ``logits``, recorded when they require grad, as a
    model's do. The gradient of p, -w_y / (B * p_y) where p_y > 1e-12 and 0
    at or below the floor, goes back through the softmax; with ``l2 > 0``
    and a model, 2 * l2 * W goes into each weight matrix's gradient slot.
    """
    onehot = np.asarray(onehot)
    if onehot.shape != logits.shape:
        raise ValueError(f"one-hot shape {onehot.shape} does not match logits {logits.shape}")
    weights = np.ones(logits.shape[1]) if class_w is None else np.asarray(class_w)
    picked = (onehot * weights).astype(logits.dtype)
    p = _softmax(logits.data)
    floored = np.maximum(p, p.dtype.type(LOG_FLOOR))
    loss = -(picked * np.log(floored)).sum(axis=1).mean(axis=0)
    matrices = model.weight_matrices() if l2 > 0.0 and model is not None else []
    l2 = p.dtype.type(l2)
    if matrices:
        loss = loss + sum((w.data * w.data).sum() for w in matrices) * l2

    def rule(g):
        for w in matrices:
            w.accumulate_scaled_data(g * l2 * 2)
        d_p = (-g / len(p)) * picked / floored * (p > LOG_FLOOR)
        dot = (d_p * p).sum(axis=-1, keepdims=True)
        return ((d_p - dot) * p,)

    return _make_output(loss, (logits,), "weighted_cross_entropy", rule)


class Plateau:
    """Reduce-on-plateau and early stopping on one counter.

    ``stall`` counts the epochs since the metric last rose by more than
    1e-4. Each time it reaches a multiple of ``plateau_patience`` the
    learning rate is multiplied by ``plateau_factor`` (never below
    ``min_lr``); at ``early_stop_patience`` the run stops. ``best_epoch`` is
    the strict argmax of the metric (earliest on ties).
    """

    def __init__(self, config: TrainConfig):
        self.config = config
        self.lr = config.lr0
        self.stall = 0
        self.epoch = 0
        self.best_epoch = 0
        self._best = -np.inf  # the argmax value
        self._level = -np.inf  # the value a gain must beat by IMPROVEMENT_DELTA

    def observe(self, metric: float) -> bool:
        """Record one epoch's metric; True when the run should stop."""
        self.epoch += 1
        if metric > self._best:
            self._best, self.best_epoch = metric, self.epoch
        if metric > self._level + IMPROVEMENT_DELTA:
            self._level, self.stall = metric, 0
            return False
        self.stall += 1
        if self.stall % self.config.plateau_patience == 0:
            self.lr = max(self.config.min_lr, self.lr * self.config.plateau_factor)
        return self.stall >= self.config.early_stop_patience


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    val_macro_f1: float
    lr: float
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        """One row per epoch, columns in EpochRecord field order."""
        write_csv(path, [f.name for f in fields(EpochRecord)], map(astuple, self.records))

    def best_val_macro_f1(self) -> float:
        return max(r.val_macro_f1 for r in self.records)


class _InferWorker:
    """The one thread that runs the worker's share of long infer calls, in
    the order they are handed to it. It starts at the first long call and
    lives as long as the process, so its heap arena is reused from call to
    call. A forked child inherits neither the thread nor usable locks, and
    starts afresh."""

    def __init__(self):
        self._jobs: deque = deque()
        self._pending = threading.Semaphore(0)
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

    def submit(self, job) -> threading.Event:
        """Queue ``job``; the event is set once it has returned."""
        done = threading.Event()
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(target=self._serve, name="papernet-infer",
                                                daemon=True)
                self._thread.start()
        self._jobs.append((job, done))
        self._pending.release()
        return done

    def _serve(self) -> None:
        while True:
            self._pending.acquire()
            job, done = self._jobs.popleft()
            try:
                job()
            finally:
                done.set()
                job = done = None  # hold nothing of a finished call while idle


_WORKER = _InferWorker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_WORKER.__init__)


def _infer_into(out: np.ndarray, model: ModelGraph, rows: np.ndarray,
                return_attention: bool) -> None:
    result = forward(model, rows, mode="infer", return_attention=return_attention)
    out[...] = result[1].data if return_attention else _softmax(result.data)


def infer_batches(model: ModelGraph, rows, return_attention: bool = False) -> np.ndarray:
    """Infer-mode forward over [n, T] or [n, T, 1] rows: the [n, K] class
    probabilities, or with ``return_attention`` the [n, 128] attention
    vectors.

    Up to ``INFER_BATCH`` rows run as one forward in the calling thread.
    A longer call runs forwards of ``INFER_BATCH // 2`` rows, the
    even-numbered ones in the calling thread and the odd-numbered ones in
    one worker thread, each writing its own rows of the one result. So at
    most ``INFER_BATCH`` rows are in flight, and since no infer-mode op
    mixes rows, the bits are those of ``INFER_BATCH``-row forwards run in
    order. The call returns or raises only once the worker is done, and
    raises what those forwards would: the error of the first window of
    ``INFER_BATCH`` rows that fails.
    """
    rows = np.asarray(rows, dtype=model.dtype)
    if rows.ndim == 2:
        rows = rows[:, :, None]
    width = CONV_WIDTHS[-1] if return_attention else model.num_classes
    out = np.empty((len(rows), width), dtype=model.dtype)
    if len(rows) <= INFER_BATCH:
        if len(rows):
            with _quiet_fp():
                _infer_into(out, model, rows, return_attention)
        return out

    half = INFER_BATCH // 2
    count = -(-len(rows) // half)
    failed_at = [count, count]  # per thread: the number of the forward that raised
    errors: list[BaseException | None] = [None, None]

    def run(side: int) -> None:
        with _quiet_fp():  # numpy's error state is per thread
            for i in range(side, count, 2):
                if i > min(failed_at):  # a stale read costs one forward, no more
                    return  # the serial loop stops at the earlier failure
                part = slice(i * half, (i + 1) * half)
                try:
                    _infer_into(out[part], model, rows[part], return_attention)
                except BaseException as exc:
                    failed_at[side], errors[side] = i, exc
                    return

    worker_done = _WORKER.submit(lambda: run(1))
    try:
        run(0)
    finally:
        worker_done.wait()
    first = min(failed_at)
    if first == count:
        return out
    if isinstance(errors[first % 2], NonFiniteError):
        # a whole window's forward names the first layer any of its rows
        # overflowed in, which may be in the half that did not fail first
        window = slice(first // 2 * INFER_BATCH, (first // 2 + 1) * INFER_BATCH)
        with _quiet_fp():
            _infer_into(out[window], model, rows[window], return_attention)
    raise errors[first % 2]


def predict_probs(model: ModelGraph, rows) -> np.ndarray:
    """Infer-mode class probabilities for [n, T] or [n, T, 1] rows."""
    return infer_batches(model, rows)


def export_attention(model: ModelGraph, rows) -> np.ndarray:
    """Infer-mode attention weights per sample: [n, 128] for [n, 16]
    standardized feature ``rows``."""
    if model.variant == "no_attention":
        raise DataError("the no_attention variant has no attention weights to export")
    rows = np.asarray(rows, dtype=model.dtype)
    if rows.ndim != 2:
        raise DataError(f"expected [n, {NUM_CHANNELS}] rows, got shape {rows.shape}")
    return infer_batches(model, rows, return_attention=True)


def train(
    model: ModelGraph,
    features,
    labels,
    splits: SplitIndices,
    config: TrainConfig,
    outdir=None,
) -> tuple[ModelGraph, ModelGraph, TrainHistory]:
    """Run the full protocol and return (best model, final model, history).

    ``features`` are standardized [N, 16] rows; batches are reshaped to
    [B, 16, 1]. ``model`` is trained in place: its parameters and running
    statistics change, nothing else; ``config.dropout`` goes to each
    train-mode :func:`~papernet.model.forward`. With ``outdir`` set,
    weights_best / weights_final / the history CSV are written there.
    """
    config.validate()
    features = np.asarray(features, dtype=model.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    k = model.num_classes
    x_train = features[splits.train][:, :, None]
    y_train = labels[splits.train]
    x_val = features[splits.val][:, :, None]
    y_val = labels[splits.val]
    eye = np.eye(k, dtype=model.dtype)
    weights = class_weights(y_train, k) if config.class_weighting else None

    trainable = model.trainable()
    adam = AdamState.for_params(trainable)
    plateau = Plateau(config)
    history = TrainHistory()
    n_train = len(y_train)
    bounds = list(range(0, n_train, config.batch_size)) + [n_train]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # a lone last row joins the batch before: batch norm needs two

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        lr_used = plateau.lr
        perm = np.random.default_rng([config.seed, epoch]).permutation(n_train)
        loss_sum = 0.0
        correct = 0
        with _quiet_fp():
            for batch_no, (start, end) in enumerate(zip(bounds, bounds[1:])):
                idx = perm[start:end]
                drop_rng = np.random.default_rng([config.seed, epoch, batch_no])
                try:
                    with ComputationTape() as tape:
                        logits = forward(model, x_train[idx], mode="train", rng=drop_rng,
                                         dropout=config.dropout)
                        loss = weighted_cross_entropy(
                            logits, eye[y_train[idx]], weights, model, config.l2
                        )
                        backward(tape, loss)
                except NonFiniteError as exc:
                    raise TrainingError(f"epoch {epoch} batch {batch_no}: {exc}") from exc
                adam_step(trainable, adam, lr_used)
                model.zero_grad()
                loss_sum += loss.item() * len(idx)
                # argmax of p, as evaluation takes it: close logits can round to equal p
                correct += int(np.sum(_softmax(logits.data).argmax(axis=1) == y_train[idx]))
        try:
            val_probs = predict_probs(model, x_val)
        except NonFiniteError as exc:
            raise TrainingError(f"epoch {epoch} validation: {exc}") from exc

        val_prf = prf_metrics(confusion(y_val, val_probs.argmax(axis=1), k))
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n_train,
            train_acc=correct / n_train,
            val_acc=val_prf.accuracy,
            val_macro_f1=val_prf.macro_f1,
            lr=lr_used,
            seconds=time.perf_counter() - t0,
        )
        history.records.append(record)
        stop = plateau.observe(val_prf.macro_f1)
        if plateau.best_epoch == epoch:  # true at epoch 1: macro-F1 is never NaN
            best_model = model.copy()
        if stop:
            break

    final_model = model.copy()
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        save_weights(best_model, outdir / "weights_best")
        save_weights(final_model, outdir / "weights_final")
        history.to_csv(outdir / "history.csv")
    return best_model, final_model, history
