"""Benchmark inputs: a seeded Gaussian-blob dataset written as the input CSV
and a freshly initialized weight file.

The blob recipe is a copy of the one the test suite uses, kept here so the
benchmark does not depend on the tests directory. Same seed, same bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from papernet import data
from papernet.model import build_papernet

N_ROWS = 8000
NUM_CLASSES = 4
NUM_CHANNELS = 16
NOISE = 0.5
CSV_NAME = "dataset.csv"
WEIGHTS_NAME = "weights_init"


@dataclass
class Inputs:
    csv_path: Path
    weights_path: Path
    n_rows: int


def make_blobs(n: int, seed: int, num_classes: int = NUM_CLASSES,
               n_features: int = NUM_CHANNELS, noise: float = NOISE):
    """Gaussian blobs with class-dependent means: balanced and seeded."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(num_classes, n_features))
    labels = rng.permutation(np.arange(n) % num_classes)
    features = means[labels] + rng.normal(0.0, noise, size=(n, n_features))
    return features, labels.astype(np.int64)


def write_csv(path, features, labels) -> None:
    """Input CSV format: header X1..X16 and y, one row per sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"X{i + 1}" for i in range(features.shape[1])] + ["y"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def inputs_in(workdir, n_rows: int) -> Inputs:
    """The inputs make_inputs wrote to ``workdir``."""
    workdir = Path(workdir)
    return Inputs(workdir / CSV_NAME, workdir / WEIGHTS_NAME, n_rows)


def make_inputs(workdir, seed: int, n_rows: int) -> Inputs:
    made = inputs_in(workdir, n_rows)
    write_csv(made.csv_path, *make_blobs(n_rows, seed))
    data.save_weights(build_papernet(num_classes=NUM_CLASSES, seed=seed), made.weights_path)
    return made
