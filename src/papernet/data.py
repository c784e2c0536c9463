"""Dataset ingestion, stratified splitting, class weighting, the binary
weight-file format, and the atomic CSV and JSON writers every artifact goes
through.

CSV ingest reads the header with the csv module and the body with one
``numpy.loadtxt`` call, checked as a whole for finite features and integer
labels. Anything that call or its checks refuse goes to the row scanner,
which reads the file cell by cell and names the line of the first bad row;
the scanner is the reference the fast path is tested against.

Weight files: magic "PNW1", an 8-byte little-endian header length, a UTF-8
JSON header {"version": 1, "variant": ..., "tensors": [{"name", "shape",
"offset", "len"}, ...]}, the raw little-endian float32 tensor data packed
contiguously in header order, and a trailing 8-byte CRC-64/XZ of everything
before it.

The CRC is computed in numpy: the bytes are cut into 4096 equal lanes
(after a short prefix run byte by byte) that take the table step together,
one numpy step per byte column, and the lane registers are then folded
pairwise with cached "append n zero bytes" operators. The value is the
plain byte-at-a-time CRC-64/XZ.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, WeightFormatError
from .dsp import NUM_CHANNELS
from .model import VARIANTS, ModelGraph, _allocate_papernet

WEIGHT_MAGIC = b"PNW1"
WEIGHT_VERSION = 1
DEFAULT_RATIOS = (0.70, 0.15, 0.15)


@dataclass
class RawDataset:
    """Ingested rows: [N, 16] channel features and integer labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def load_csv(path) -> RawDataset:
    """Parse a header CSV with 16 numeric feature columns and an integer
    label column named "y" (falling back to the last column). A leading
    UTF-8 byte-order mark is skipped.

    The body is parsed by one :func:`numpy.loadtxt` call. When that call
    fails or warns, or its result fails a check, the row scanner
    :func:`_read_rows` reads the file again and raises its line-numbered
    :class:`DataError`. The scanner is also the reference the fast path is
    tested against: both return the same arrays for every file they accept.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    reader = csv.reader(text)
    try:
        width, label_col = _read_header(path, reader)
        dataset = _parse_body(raw, text, width, label_col)
        if dataset is None:
            text.seek(0)
            reader = csv.reader(text)
            dataset = _read_rows(path, reader)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from None
    return dataset


def _read_header(path, reader) -> tuple[int, int]:
    """The header's cell count and its label column: "y" if present, else
    the last one. The other columns must be the 16 features."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    header = [h.strip() for h in header]
    label_col = header.index("y") if "y" in header else len(header) - 1
    n_features = max(len(header) - 1, 0)
    if n_features != NUM_CHANNELS:
        raise DataError(
            f"{path}: expected {NUM_CHANNELS} feature columns plus a label, "
            f"got {n_features} feature columns"
        )
    return len(header), label_col


# float() does not strip these around a number, and loadtxt does
_LOADTXT_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_body(raw: bytes, text, width: int, label_col: int) -> RawDataset | None:
    """The rows left in ``text`` after the header, parsed by one
    ``np.loadtxt`` call; None when the scanner must decide instead. That is
    when loadtxt raises or warns (a header-only file warns), a row is not
    ``width`` cells, a feature is not finite, a label is not an integer in
    [0, 2**63), or ``raw`` holds text that loadtxt and the scanner could
    read differently: a byte from ``_LOADTXT_ONLY_SPACE``, or a cell the
    csv module would refuse as longer than its field limit."""
    if any(space in raw for space in _LOADTXT_ONLY_SPACE) or _may_hold_long_cell(raw):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(text, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if table.shape[1] != width:
        return None
    labels = table[:, label_col]
    features = np.delete(table, label_col, axis=1)
    if not (np.isfinite(features).all() and (labels == np.floor(labels)).all()
            and ((labels >= 0) & (labels < 2.0**63)).all()):
        return None
    return RawDataset(features=features, labels=labels.astype(np.int64))


def _may_hold_long_cell(raw: bytes) -> bool:
    """Whether ``raw`` may hold a cell longer than the csv field limit that
    parses as a number. Such a cell has no comma, and a comma-free stretch
    longer than the limit covers a whole aligned block of half the limit,
    so one ``find`` per block, each stopping at its first comma, decides."""
    block = max(csv.field_size_limit() // 2, 1)
    return any(raw.find(b",", i, i + block) < 0 for i in range(0, len(raw) - block + 1, block))


def _read_rows(path, reader) -> RawDataset:
    """The row scanner: the header and then every row cell by cell. Each
    bad cell is a DataError naming the physical line its row ends on."""
    width, label_col = _read_header(path, reader)
    feature_cols = [i for i in range(width) if i != label_col]
    features: list[list[float]] = []
    labels: list[int] = []
    line_nos: list[int] = []
    for row in reader:
        if not row:
            continue
        line_no = reader.line_num
        if len(row) != width:
            raise DataError(f"{path}:{line_no}: expected {width} cells, got {len(row)}")
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
    array = np.asarray(features, dtype=np.float64).reshape(len(labels), NUM_CHANNELS)
    bad = np.flatnonzero(~np.isfinite(array).all(axis=1))
    if len(bad):
        raise DataError(f"{path}:{line_nos[bad[0]]}: non-finite feature cell")
    return RawDataset(features=array, labels=np.asarray(labels, dtype=np.int64))


@dataclass
class SplitIndices:
    """Disjoint, exhaustive train/val/test index partition."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def hash(self) -> str:
        h = hashlib.sha256()
        for part in (self.train, self.val, self.test):
            h.update(np.asarray(part, dtype=np.int64).tobytes())
            h.update(b"|")
        return h.hexdigest()[:16]


def stratified_split(labels, seed: int = 0) -> SplitIndices:
    """Per class: shuffle with a generator seeded from (seed, class), cut at
    floor(r_train * n) and floor((r_train + r_val) * n) of ``DEFAULT_RATIOS``."""
    labels = np.asarray(labels, dtype=np.int64)
    r_train, r_val, _ = DEFAULT_RATIOS
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < 3:
            raise DataError(f"class {cls} has only {len(idx)} samples; need >= 3")
        rng = np.random.default_rng([seed, int(cls)])
        perm = rng.permutation(idx)
        n = len(perm)
        cut1 = math.floor(r_train * n + 1e-9)
        cut2 = math.floor((r_train + r_val) * n + 1e-9)
        train.append(perm[:cut1])
        val.append(perm[cut1:cut2])
        test.append(perm[cut2:])
    return SplitIndices(
        train=np.sort(np.concatenate(train)),
        val=np.sort(np.concatenate(val)),
        test=np.sort(np.concatenate(test)),
    )


class SingleUse:
    """Hands out a value exactly once; guards the test split against reuse."""

    def __init__(self, value):
        self._value = value
        self.taken = False

    def take(self):
        if self.taken:
            raise DataError("test split already consumed once")
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
_CRC64_MASK = 0xFFFFFFFFFFFFFFFF
_CRC64_LANES = 4096  # a power of two, so the lanes fold in log2 levels
_CRC64_MIN_LANE = 16  # bytes per lane; shorter inputs take the scalar loop and cache no operators


@functools.cache
def _crc64_tables() -> tuple[list[int], np.ndarray]:
    """The byte-step table of the reflected CRC-64/XZ register, as a list
    for the scalar loop and as a uint64 array for the lanes. Built on first
    use, not at import."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC64_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table, np.array(table, dtype=np.uint64)


def _crc64_scalar(crc: int, data) -> int:
    """Run the raw register ``crc`` over ``data`` one byte at a time."""
    table = _crc64_tables()[0]
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


def _apply_shift(op: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``op`` (an [8, 256] operator from :func:`_zero_shift`) applied to
    each uint64 register in ``states``. Built from the take, shift and XOR
    calls the lane step already makes, because each numpy loop a process
    runs for the first time maps about 64 KB more of numpy's code."""
    out = np.zeros_like(states)
    octet = np.empty(states.shape, dtype=np.uint8)
    for k in range(8):
        np.copyto(octet, np.right_shift(states, 8 * k), casting="unsafe")
        np.bitwise_xor(out, np.take(op[k], octet), out=out)
    return out


@functools.lru_cache(maxsize=64)
def _zero_shift(span: int) -> np.ndarray:
    """The GF(2)-linear map that feeds ``span`` zero bytes through a raw
    register, as 8 x 256 uint64 tables: the new register is the XOR over k
    of ``op[k][byte k of the old register]``. The operator for 2n is the
    square of the one for n (zlib's ``crc32_combine``)."""
    if span == 1:  # one table step from each register b << 8k
        table = _crc64_tables()[0]
        rows = [[b << 8 * k for b in range(256)] for k in range(8)]
        return np.array([[table[r & 0xFF] ^ (r >> 8) for r in row] for row in rows], dtype=np.uint64)
    half = _zero_shift(span // 2)
    op = _apply_shift(half, half)
    return _apply_shift(_zero_shift(1), op) if span % 2 else op


def crc64(data) -> int:
    """CRC-64/XZ of a bytes-like object.

    Inputs of at least 16 bytes per lane are cut into a prefix of fewer
    than ``_CRC64_LANES`` bytes, run by the scalar table loop, and that many
    equal lanes, which all take the same table step at once, one numpy step
    per byte column; lane 0 starts from the prefix's register, the rest
    from 0. Neighbouring lane registers then fold pairwise, the left one
    shifted over the right one's span of zero bytes, with the span doubling
    at each level. The value is that of the byte-at-a-time loop.
    """
    view = memoryview(data).cast("B")
    lane_len = len(view) // _CRC64_LANES
    if lane_len < _CRC64_MIN_LANE:
        return _crc64_scalar(_CRC64_MASK, view) ^ _CRC64_MASK
    prefix = len(view) - _CRC64_LANES * lane_len
    table = _crc64_tables()[1]
    lanes = np.frombuffer(view, dtype=np.uint8, offset=prefix).reshape(_CRC64_LANES, lane_len)
    states = np.zeros(_CRC64_LANES, dtype=np.uint64)
    states[0] = _crc64_scalar(_CRC64_MASK, view[:prefix])
    index = np.empty(_CRC64_LANES, dtype=np.uint8)
    step = np.empty(_CRC64_LANES, dtype=np.uint64)
    for j in range(lane_len):
        np.bitwise_xor(states, lanes[:, j], out=states)
        np.copyto(index, states, casting="unsafe")  # the low byte of each register
        np.take(table, index, out=step)
        np.right_shift(states, 8, out=states)
        np.bitwise_xor(states, step, out=states)
    span = lane_len
    while len(states) > 1:
        states = np.bitwise_xor(_apply_shift(_zero_shift(span), states[0::2]), states[1::2])
        span *= 2
    return int(states[0]) ^ _CRC64_MASK


def save_weights(model: ModelGraph, path) -> None:
    """Serialize all parameters (running stats included) as float32: the
    body is the model's buffer, written through :func:`atomic_open`."""
    model.flat.check_views(model.params)
    entries = []
    for name, tensor in model.params.items():
        start = tensor.home[1]
        entries.append(
            {"name": name, "shape": list(tensor.shape), "offset": 4 * start, "len": 4 * tensor.size}
        )
    header = json.dumps(
        {"version": WEIGHT_VERSION, "variant": model.variant, "tensors": entries}
    ).encode("utf-8")
    raw = np.ascontiguousarray(model.flat.data, dtype="<f4").tobytes()
    body = WEIGHT_MAGIC + struct.pack("<Q", len(header)) + header + raw
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
    body = memoryview(blob)[:-8]  # no copy of the tensor data
    if crc64(body) != stored:
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
    data = body[header_end:]
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
        if name in tensors:
            raise WeightFormatError(f"{path}: tensor {name!r} listed twice in the header")
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
    """Restore parameters from a weight file, copied into the model's
    buffer in one call once every tensor has passed its checks.

    With ``model``, the file must match it tensor for tensor (the first
    offending name is reported). Without one, a graph is sized from the
    stored variant and the dense head width; no initial values are drawn,
    since the file's overwrite them all.
    """
    header, tensors = _parse_weight_file(path)
    if model is None:
        head = tensors.get("dense2.bias")
        if head is None or head.ndim != 1 or len(head) < 2 or header["variant"] not in VARIANTS:
            raise WeightFormatError(
                f"{path}: cannot size a model from variant {header['variant']!r} "
                "and the dense2.bias tensor"
            )
        model = _allocate_papernet(len(head), input_length, header["variant"], np.float32)
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
    stacked = np.concatenate([tensors[name].reshape(-1) for name in model.params])
    if not np.isfinite(stacked).all():
        name = next(n for n in model.params if not np.isfinite(tensors[n]).all())
        raise WeightFormatError(f"{path}: non-finite values in tensor {name!r}")
    np.copyto(model.flat.data, stacked)
    return model
