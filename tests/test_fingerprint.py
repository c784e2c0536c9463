"""Pinned fingerprints of what the model computes.

Two sets of pins, both float64 and per variant:

- ``weights_final_fingerprint.json``: every tensor of the final weights,
  running statistics included, after five train steps on a small
  generated dataset. These move when a layer's forward, the wiring of the
  model or the optimizer changes.
- ``batch_fingerprint.json``: on one fixed batch, every parameter gradient
  of the weighted loss (with its L2 term) from one train-mode forward with
  a fixed dropout seed, then the infer-mode probabilities and attention
  vector of the same model, whose running statistics that forward has
  updated once. These pin the forward and the backward rules without the
  optimizer in between.

Each array is reduced to its sum, its sum of squares and one fixed random
projection, and these are compared with the committed values at 1e-9
relative. A gradient check only proves that gradients match whatever
forward runs; these pins also move when what runs changes. Float64
differences from BLAS summation order are ~1e-15, far below the tolerance.

A change that alters the model's function on purpose regenerates the pins
and says so:

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from papernet.data import class_weights, stratified_split
from papernet.model import VARIANTS, build_papernet, forward
from papernet.tensor import ComputationTape, backward
from papernet.training import TrainConfig, predict_probs, train, weighted_cross_entropy

from conftest import make_synthetic

PINS = Path(__file__).with_name("weights_final_fingerprint.json")
BATCH_PINS = Path(__file__).with_name("batch_fingerprint.json")
REL_TOL = 1e-9
BATCH_ROWS = 24


def summarize(arr: np.ndarray) -> list[float]:
    flat = arr.reshape(-1)
    projection = np.random.default_rng(flat.size).uniform(-1.0, 1.0, flat.size)
    return [float(flat.sum()), float(flat @ flat), float(flat @ projection)]


def _dataset():
    features, labels = make_synthetic(n=96, seed=11)
    return (features - features.mean(axis=0)) / features.std(axis=0), labels


def fingerprint(variant: str) -> dict[str, list[float]]:
    features, labels = _dataset()
    splits = stratified_split(labels, seed=0)
    model = build_papernet(variant=variant, seed=7, dtype=np.float64)
    # 67 training rows in batches of 16: five Adam steps
    _, final, _ = train(model, features, labels, splits,
                        TrainConfig(batch_size=16, max_epochs=1, seed=4))
    return {name: summarize(p.data) for name, p in final.params.items()}


def batch_fingerprint(variant: str) -> dict[str, list[float]]:
    features, labels = _dataset()
    rows, y = features[:BATCH_ROWS, :, None], labels[:BATCH_ROWS]
    model = build_papernet(variant=variant, seed=7, dtype=np.float64)
    with ComputationTape() as tape:
        logits = forward(model, rows, mode="train", rng=np.random.default_rng(5))
        loss = weighted_cross_entropy(logits, np.eye(4)[y], class_weights(y, 4), model, l2=1e-4)
        backward(tape, loss)
    pins = {f"grad {name}": summarize(p.grad) for name, p in model.trainable().items()}
    if variant != "no_attention":
        _, attention = forward(model, rows, mode="infer", return_attention=True)
        pins["infer attention"] = summarize(attention.data)
    pins["infer probs"] = summarize(predict_probs(model, rows))
    return pins


def _assert_matches(got, want):
    assert list(got) == list(want)
    for name, values in got.items():
        for label, g, w in zip(("sum", "sum of squares", "projection"), values, want[name]):
            assert math.isclose(g, w, rel_tol=REL_TOL, abs_tol=1e-12), (name, label, g, w)


@pytest.mark.parametrize("variant", VARIANTS)
def test_final_weights_match_pinned_fingerprint(variant):
    _assert_matches(fingerprint(variant), json.loads(PINS.read_text())[variant])


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_gradients_and_infer_outputs_match_pinned_fingerprint(variant):
    _assert_matches(batch_fingerprint(variant), json.loads(BATCH_PINS.read_text())[variant])


if __name__ == "__main__":
    for path, pins in ((PINS, fingerprint), (BATCH_PINS, batch_fingerprint)):
        blocks = []
        for variant in VARIANTS:
            rows = ",\n".join(f"  {json.dumps(n)}: {json.dumps(v)}" for n, v in pins(variant).items())
            blocks.append(f" {json.dumps(variant)}: {{\n{rows}\n }}")
        path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
