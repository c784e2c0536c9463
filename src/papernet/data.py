"""Dataset ingestion, stratified splitting, class weighting, the binary
weight-file format, and the atomic CSV and JSON writers every artifact goes
through.

Weight files: magic "PNW1", an 8-byte little-endian header length, a UTF-8
JSON header {"version": 1, "variant": ..., "tensors": [{"name", "shape",
"offset", "len"}, ...]}, the raw little-endian float32 tensor data packed
contiguously in header order, and a trailing 8-byte CRC-64 of everything
before it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, WeightFormatError
from .dsp import NUM_CHANNELS
from .model import VARIANTS, ModelGraph, build_papernet

WEIGHT_MAGIC = b"PNW1"
WEIGHT_VERSION = 1
DEFAULT_RATIOS = (0.70, 0.15, 0.15)


@dataclass
class RawDataset:
    """Ingested rows: [N, 16] channel features and integer labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def load_csv(path) -> RawDataset:
    """Parse a header CSV with 16 numeric feature columns and an integer
    label column named "y" (falling back to the last column)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            features, labels, line_nos = _read_rows(path, reader)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None
    array = np.asarray(features, dtype=np.float64).reshape(len(labels), NUM_CHANNELS)
    bad = np.flatnonzero(~np.isfinite(array).all(axis=1))
    if len(bad):
        raise DataError(f"{path}:{line_nos[bad[0]]}: non-finite feature cell")
    return RawDataset(features=array, labels=np.asarray(labels, dtype=np.int64))


def _read_rows(path, reader):
    """Feature rows, labels and the line number of each row; every bad cell
    is a DataError naming its line."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    header = [h.strip() for h in header]
    if "y" in header:
        label_col = header.index("y")
    else:
        label_col = len(header) - 1
    feature_cols = [i for i in range(len(header)) if i != label_col]
    if len(feature_cols) != NUM_CHANNELS:
        raise DataError(
            f"{path}: expected {NUM_CHANNELS} feature columns plus a label, "
            f"got {len(feature_cols)} feature columns"
        )
    features: list[list[float]] = []
    labels: list[int] = []
    line_nos: list[int] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
            )
        try:
            values = [float(row[i]) for i in feature_cols]
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: non-numeric feature cell ({exc})") from None
        try:
            raw_label = float(row[label_col])
        except ValueError:
            raise DataError(
                f"{path}:{line_no}: non-numeric label {row[label_col]!r}"
            ) from None
        if not raw_label.is_integer() or not 0 <= raw_label < 2.0**63:
            raise DataError(
                f"{path}:{line_no}: label must be a non-negative 64-bit integer, "
                f"got {row[label_col]!r}"
            )
        features.append(values)
        labels.append(int(raw_label))
        line_nos.append(line_no)
    return features, labels, line_nos


@dataclass
class SplitIndices:
    """Disjoint, exhaustive train/val/test index partition."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int
    ratios: tuple = DEFAULT_RATIOS

    def hash(self) -> str:
        h = hashlib.sha256()
        for part in (self.train, self.val, self.test):
            h.update(np.asarray(part, dtype=np.int64).tobytes())
            h.update(b"|")
        return h.hexdigest()[:16]


def stratified_split(labels, ratios=DEFAULT_RATIOS, seed: int = 0) -> SplitIndices:
    """Per class: shuffle with a generator seeded from (seed, class), cut at
    floor(r_train * n) and floor((r_train + r_val) * n), remainder to test."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise DataError(f"need three non-negative ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {ratios}")
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 3:
            raise DataError(f"class {cls} has only {len(idx)} samples; need >= 3")
        rng = np.random.default_rng([seed, int(cls)])
        perm = rng.permutation(idx)
        n = len(perm)
        cut1 = math.floor(ratios[0] * n + 1e-9)
        cut2 = math.floor((ratios[0] + ratios[1]) * n + 1e-9)
        train.append(perm[:cut1])
        val.append(perm[cut1:cut2])
        test.append(perm[cut2:])
    return SplitIndices(
        train=np.sort(np.concatenate(train)),
        val=np.sort(np.concatenate(val)),
        test=np.sort(np.concatenate(test)),
        seed=seed,
        ratios=tuple(ratios),
    )


class SingleUse:
    """Hands out a value exactly once; guards the test split against reuse."""

    def __init__(self, value, label: str = "test split"):
        self._value = value
        self._label = label
        self.taken = False

    def take(self):
        if self.taken:
            raise DataError(f"{self._label} already consumed once")
        self.taken = True
        return self._value


def absent_classes(labels, num_classes: int) -> tuple[int, list[int]]:
    """How many of the classes 0..num_classes-1 no label names, and the
    first five of them. Works from ``np.unique``, so a huge class id costs
    no memory."""
    present = np.unique(np.asarray(labels, dtype=np.int64))
    present = present[present < num_classes].tolist()
    first: list[int] = []
    expected = 0
    for label in present + [num_classes]:
        first.extend(range(expected, label)[: 5 - len(first)])
        expected = label + 1
    return num_classes - len(present), first


def class_weights(labels, num_classes: int | None = None) -> np.ndarray:
    """Inverse-frequency weights w_k = N / (K * count_k); the expected weight
    of a training sample is exactly 1."""
    labels = np.asarray(labels, dtype=np.int64)
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    missing, first = absent_classes(labels, k)
    if missing:
        raise DataError(
            f"{missing} class(es) absent from the training labels, first {first}"
        )
    counts = np.bincount(labels, minlength=k)
    return len(labels) / (k * counts.astype(np.float64))


# ---------------------------------------------------------------------------
# artifact writers


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a sibling temp file for writing; when the block ends without an
    error, one ``os.replace`` moves it onto ``path``, so ``path`` never holds
    a partial file. On any error the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """A header row and then ``rows``, through :func:`atomic_open`."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    """``obj`` as two-space indented JSON and a newline, through
    :func:`atomic_open`."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def attention_to_csv(path, per_sample: np.ndarray, mean: np.ndarray) -> None:
    """CSV with a sample column, a_000..a_127, and a final MEAN row."""
    width = per_sample.shape[1] if per_sample.size else len(mean)
    rows = [[idx] + [repr(float(v)) for v in row] for idx, row in enumerate(per_sample)]
    rows.append(["MEAN"] + [repr(float(v)) for v in mean])
    write_csv(path, ["sample"] + [f"a_{i:03d}" for i in range(width)], rows)


# ---------------------------------------------------------------------------
# weight serialization


_CRC64_POLY = 0xC96C5795D7870F42  # CRC-64/XZ, reflected
_CRC64_TABLE: list[int] = []


def _crc64_table() -> list[int]:
    if not _CRC64_TABLE:
        for byte in range(256):
            crc = byte
            for _ in range(8):
                crc = (crc >> 1) ^ _CRC64_POLY if crc & 1 else crc >> 1
            _CRC64_TABLE.append(crc)
    return _CRC64_TABLE


def crc64(data: bytes) -> int:
    table = _crc64_table()
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


def save_weights(model: ModelGraph, path) -> None:
    """Serialize all parameters (running stats included) as float32,
    through :func:`atomic_open`."""
    entries = []
    blobs = []
    offset = 0
    for name, tensor in model.params.items():
        raw = np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
        entries.append(
            {"name": name, "shape": list(tensor.shape), "offset": offset, "len": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps(
        {"version": WEIGHT_VERSION, "variant": model.variant, "tensors": entries}
    ).encode("utf-8")
    body = WEIGHT_MAGIC + struct.pack("<Q", len(header)) + header + b"".join(blobs)
    blob = body + struct.pack("<Q", crc64(body))
    with atomic_open(path, "wb") as fh:
        fh.write(blob)


def _parse_weight_file(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(WEIGHT_MAGIC) + 16:
        raise WeightFormatError(f"{path}: truncated weight file")
    if blob[:4] != WEIGHT_MAGIC:
        raise WeightFormatError(f"{path}: bad magic {blob[:4]!r}")
    stored = struct.unpack("<Q", blob[-8:])[0]
    if crc64(blob[:-8]) != stored:
        raise WeightFormatError(f"{path}: checksum mismatch (file corrupt or truncated)")
    header_len = struct.unpack("<Q", blob[4:12])[0]
    header_end = 12 + header_len
    if header_end > len(blob) - 8:
        raise WeightFormatError(f"{path}: header extends past end of file")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise WeightFormatError(f"{path}: header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict) or header.get("version") != WEIGHT_VERSION:
        raise WeightFormatError(f"{path}: not a version {WEIGHT_VERSION} header object")
    if not isinstance(header.get("variant"), str) or not isinstance(header.get("tensors"), list):
        raise WeightFormatError(f"{path}: header needs a variant string and a tensors list")
    data = blob[header_end:-8]
    tensors = {}
    for entry in header["tensors"]:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and len(entry["shape"]) <= 32  # numpy's dimension limit
            and all(_is_count(v) for v in [entry.get("offset"), entry.get("len"), *entry["shape"]])
        ):
            raise WeightFormatError(f"{path}: malformed tensor entry {entry!r}")
        name, start, length = entry["name"], entry["offset"], entry["len"]
        if length != 4 * math.prod(entry["shape"]):
            raise WeightFormatError(f"{path}: tensor {name!r} length disagrees with its shape")
        if start + length > len(data):
            raise WeightFormatError(f"{path}: tensor {name!r} extends past data block")
        arr = np.frombuffer(data, dtype="<f4", count=length // 4, offset=start)
        tensors[name] = arr.reshape(entry["shape"])
    return header, tensors


def _is_count(value) -> bool:
    """A non-negative JSON integer (booleans excluded)."""
    return type(value) is int and value >= 0


def load_weights(path, model: ModelGraph | None = None,
                 input_length: int = NUM_CHANNELS) -> ModelGraph:
    """Restore parameters from a weight file.

    With ``model``, the file must match it tensor for tensor (the first
    offending name is reported). Without one, a fresh graph is built from
    the stored variant and the dense head width.
    """
    header, tensors = _parse_weight_file(path)
    if model is None:
        head = tensors.get("dense2.bias")
        if head is None or head.ndim != 1 or len(head) < 2 or header["variant"] not in VARIANTS:
            raise WeightFormatError(
                f"{path}: cannot size a model from variant {header['variant']!r} "
                "and the dense2.bias tensor"
            )
        model = build_papernet(
            num_classes=len(head),
            input_length=input_length,
            variant=header["variant"],
        )
    for name in tensors:
        if name not in model.params:
            raise WeightFormatError(f"{path}: unexpected tensor {name!r} for this model")
    for name, param in model.params.items():
        if name not in tensors:
            raise WeightFormatError(f"{path}: missing tensor {name!r}")
        stored = tensors[name]
        if tuple(stored.shape) != param.shape:
            raise WeightFormatError(
                f"{path}: shape mismatch for {name!r}: file {tuple(stored.shape)}, "
                f"model {param.shape}"
            )
    if header["variant"] != model.variant:
        raise WeightFormatError(
            f"{path}: variant mismatch: file {header['variant']!r}, model {model.variant!r}"
        )
    for name, param in model.params.items():
        stored = tensors[name]
        if not np.all(np.isfinite(stored)):
            raise WeightFormatError(f"{path}: non-finite values in tensor {name!r}")
        param.data = stored.astype(model.dtype)
    return model
