import csv
import json
import struct

import numpy as np
import pytest

from papernet.data import WEIGHT_MAGIC, crc64


def make_synthetic(n=2000, num_classes=4, n_features=16, seed=0, noise=0.5):
    """Gaussian blobs with class-dependent means: easy, seeded, balanced."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(num_classes, n_features))
    labels = np.arange(n) % num_classes
    labels = rng.permutation(labels)
    features = means[labels] + rng.normal(0.0, noise, size=(n, n_features))
    return features, labels.astype(np.int64)


def write_csv(path, features, labels):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"X{i + 1}" for i in range(features.shape[1])] + ["y"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def repeat_weight_entry(path, name):
    """Rewrite a weight file so its header lists ``name`` a second time,
    pointing at offset 0, under a valid CRC-64."""
    blob = path.read_bytes()
    header_end = 12 + struct.unpack("<Q", blob[4:12])[0]
    header = json.loads(blob[12:header_end])
    entry = next(e for e in header["tensors"] if e["name"] == name)
    header["tensors"].append({**entry, "offset": 0})
    raw = json.dumps(header).encode("utf-8")
    body = WEIGHT_MAGIC + struct.pack("<Q", len(raw)) + raw + blob[header_end:-8]
    path.write_bytes(body + struct.pack("<Q", crc64(body)))
    return path


@pytest.fixture
def synthetic_small():
    return make_synthetic(n=240, seed=3)


@pytest.fixture
def synthetic_csv(tmp_path, synthetic_small):
    features, labels = synthetic_small
    path = tmp_path / "synthetic.csv"
    write_csv(path, features, labels)
    return path
