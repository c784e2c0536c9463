"""Pinned fingerprint of what seeded training computes.

Each variant takes five float64 train steps on a small generated dataset.
Every tensor of its final weights, running statistics included, is reduced
to its sum, its sum of squares and one fixed random projection, and these
are compared with the committed values at 1e-9 relative. A gradient check
only proves that gradients match whatever forward runs; these pins also
move when a layer's forward, the wiring of the model or the optimizer
changes. Float64 differences from BLAS summation order are ~1e-15, far
below the tolerance.

A change that alters the model's function on purpose regenerates the pins
and says so:

    PYTHONPATH=src python tests/test_fingerprint.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from papernet.data import stratified_split
from papernet.model import VARIANTS, build_papernet
from papernet.training import TrainConfig, train

from conftest import make_synthetic

PINS = Path(__file__).with_name("weights_final_fingerprint.json")
REL_TOL = 1e-9


def summarize(arr: np.ndarray) -> list[float]:
    flat = arr.reshape(-1)
    projection = np.random.default_rng(flat.size).uniform(-1.0, 1.0, flat.size)
    return [float(flat.sum()), float(flat @ flat), float(flat @ projection)]


def fingerprint(variant: str) -> dict[str, list[float]]:
    features, labels = make_synthetic(n=96, seed=11)
    features = (features - features.mean(axis=0)) / features.std(axis=0)
    splits = stratified_split(labels, seed=0)
    model = build_papernet(variant=variant, seed=7, dtype=np.float64)
    # 67 training rows in batches of 16: five Adam steps
    _, final, _ = train(model, features, labels, splits,
                        TrainConfig(batch_size=16, max_epochs=1, seed=4))
    return {name: summarize(p.data) for name, p in final.params.items()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_final_weights_match_pinned_fingerprint(variant):
    want = json.loads(PINS.read_text())[variant]
    got = fingerprint(variant)
    assert list(got) == list(want)
    for name, values in got.items():
        for label, g, w in zip(("sum", "sum of squares", "projection"), values, want[name]):
            assert math.isclose(g, w, rel_tol=REL_TOL, abs_tol=1e-12), (name, label, g, w)


if __name__ == "__main__":
    blocks = []
    for variant in VARIANTS:
        rows = ",\n".join(f"  {json.dumps(n)}: {json.dumps(v)}" for n, v in fingerprint(variant).items())
        blocks.append(f" {json.dumps(variant)}: {{\n{rows}\n }}")
    PINS.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
