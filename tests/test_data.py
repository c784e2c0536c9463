import ast
import csv
import errno
import hashlib
import json
import os
import struct
import threading
import warnings
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from papernet import data
from papernet.data import (
    WEIGHT_MAGIC,
    RawDataset,
    SingleUse,
    _parse_weight_file,
    absent_classes,
    attention_to_csv,
    class_weights,
    crc64,
    load_csv,
    load_weights,
    save_weights,
    stratified_split,
    write_csv as write_csv_artifact,
    write_json,
)
from papernet.errors import DataError, WeightFormatError
from papernet.metrics import evaluate_probs, report_to_json
from papernet.model import build_papernet, forward
from papernet.training import export_attention

from conftest import make_synthetic, repeat_weight_entry, traced, write_csv


class TestLoadCsv:
    def test_three_row_synthetic(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(3, 16))
        write_csv(path, feats, np.array([0, 1, 2]))
        ds = load_csv(path)
        assert len(ds.labels) == 3
        assert ds.num_classes == 3
        np.testing.assert_allclose(ds.features, feats)

    def test_text_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        good = ",".join(["0.5"] * 16 + ["1"])
        bad = ",".join(["0.5"] * 15 + ["oops", "1"])
        path.write_text(f"{header}\n{good}\n{bad}\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("X1,X2,y\n1.0,2.0,0\n")
        with pytest.raises(DataError, match="feature columns"):
            load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        good = ",".join(["0.5"] * 16 + ["1"])
        short = ",".join(["0.5"] * 10 + ["1"])
        path.write_text(f"{header}\n{good}\n{short}\n")
        with pytest.raises(DataError, match=":3"):
            load_csv(path)

    def test_label_column_not_last(self, tmp_path):
        path = tmp_path / "ycol.csv"
        header = ",".join(["y"] + [f"X{i+1}" for i in range(16)])
        row = ",".join(["2"] + ["0.25"] * 16)
        path.write_text(f"{header}\n{row}\n")
        ds = load_csv(path)
        assert ds.labels.tolist() == [2]
        np.testing.assert_array_equal(ds.features, np.full((1, 16), 0.25))

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        row = ",".join(["0.5"] * 16 + ["1.5"])
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(DataError, match="label"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        good = ",".join(["0.5"] * 16 + ["1"])
        bad = ",".join(["0.5"] * 7 + [cell] + ["0.5"] * 8 + ["1"])
        path.write_text(f"{header}\n{good}\n\n{bad}\n{bad}\n")
        with pytest.raises(DataError, match=":4: non-finite"):
            load_csv(path)

    def test_non_finite_label_rejected(self, tmp_path):
        path = tmp_path / "nanlabel.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        path.write_text(header + "\n" + ",".join(["0.5"] * 16 + ["nan"]) + "\n")
        with pytest.raises(DataError, match=":2: label"):
            load_csv(path)

    def test_row_error_names_its_physical_line(self, tmp_path):
        # the quoted cell spans lines 2-3, so the bad row is on line 4
        path = tmp_path / "multiline.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        good = ",".join(['"0.5\n"'] + ["0.5"] * 15 + ["1"])
        bad = ",".join(["0.5"] * 15 + ["oops", "1"])
        path.write_text(f"{header}\n{good}\n{bad}\n")
        with pytest.raises(DataError, match=r"multiline\.csv:4: non-numeric"):
            load_csv(path)

    @pytest.mark.parametrize("scanner_only", [False, True], ids=["fast", "scanner"])
    def test_byte_order_mark_skipped(self, tmp_path, scanner_only):
        path = tmp_path / "bom.csv"
        header = ",".join(["y"] + [f"X{i+1}" for i in range(16)])
        row = ",".join(["2"] + ["0.25"] * 16)
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}\r\n{row}\r\n".encode())
        ds = _load(path, scanner_only)
        assert ds.labels.tolist() == [2]
        np.testing.assert_array_equal(ds.features, np.full((1, 16), 0.25))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_clean_file_skips_the_scanner(self, tmp_path, newline, bom):
        path = tmp_path / "clean.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        rows = [",".join([repr(0.1 * i)] * 15 + ['"-2.5"', str(i % 3)]) for i in range(6)]
        path.write_bytes(bom + newline.join([header, *rows, ""]).encode())
        with mock.patch.object(data, "_read_rows", side_effect=AssertionError("scanner ran")):
            ds = load_csv(path)
        assert ds.labels.tolist() == [0, 1, 2, 0, 1, 2]
        assert ds.features.flags["C_CONTIGUOUS"] and ds.features.shape == (6, 16)

    def test_header_only_file_loads_empty_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join([f"X{i+1}" for i in range(16)] + ["y"]) + "\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = load_csv(path)
        assert caught == []
        assert ds.features.shape == (0, 16) and ds.labels.shape == (0,)

    @pytest.mark.parametrize("scanner_only", [False, True], ids=["fast", "scanner"])
    def test_cell_over_field_limit_refused(self, tmp_path, scanner_only):
        # a number loadtxt reads, in a cell the csv module refuses
        path = tmp_path / "long.csv"
        header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
        row = ",".join(["0" * csv.field_size_limit() + "1"] + ["0.5"] * 15 + ["1"])
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(DataError, match=r":2: malformed CSV \(field larger than field limit"):
            _load(path, scanner_only)

    def test_peak_below_one_file(self, tmp_path):
        # the bytes are checked block by block, never held whole
        path = tmp_path / "rows8000.csv"
        write_csv(path, *make_synthetic(n=8000, seed=9))
        _, peak = traced(lambda: load_csv(path), path.stat().st_size)
        assert peak < 1.0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_read(self, tmp_path, synthetic_csv):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=(synthetic_csv.read_bytes(),), daemon=True
        )
        writer.start()
        ds = load_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        want = load_csv(synthetic_csv)
        assert ds.features.tobytes() == want.features.tobytes()
        assert ds.labels.tobytes() == want.labels.tobytes()


FIELD_LIMIT = 32  # byte checks in blocks of 16


@pytest.fixture
def small_field_limit():
    old = csv.field_size_limit(FIELD_LIMIT)
    yield
    csv.field_size_limit(old)


def _shifted_rows(shift):
    """The header and one clean row, ``shift`` bytes longer than the
    shortest: its first ``shift`` cells are "0.50" rather than "0.5"."""
    header = ",".join([f"X{i+1}" for i in range(16)] + ["y"])
    row = ",".join(["0.50"] * shift + ["0.5"] * (16 - shift) + ["1"])
    return f"{header}\n{row}\n"


@pytest.mark.usefixtures("small_field_limit")
class TestStreamedByteChecks:
    """The byte checks run over aligned blocks of half the field limit; a
    shift of 0..15 bytes puts what they look for at every offset in a
    block."""

    @pytest.mark.parametrize("shift", range(FIELD_LIMIT // 2))
    def test_loadtxt_space_as_last_byte_goes_to_the_scanner(self, tmp_path, shift):
        path = tmp_path / "tail.csv"
        path.write_bytes(_shifted_rows(shift).encode() + b"\x1c")
        with mock.patch.object(data, "_read_rows", wraps=data._read_rows) as scanner:
            outcome = _outcome(path, scanner_only=False)
        assert scanner.called
        assert outcome == _outcome(path, scanner_only=True) == (
            f"{path}:3: expected 17 cells, got 1"
        )

    @pytest.mark.parametrize("shift", range(FIELD_LIMIT // 2))
    @pytest.mark.parametrize("scanner_only", [False, True], ids=["fast", "scanner"])
    def test_long_cell_across_blocks_refused(self, tmp_path, shift, scanner_only):
        path = tmp_path / "long.csv"
        row = ",".join(["0" * FIELD_LIMIT + "1"] + ["0.5"] * 15 + ["1"])
        path.write_text(_shifted_rows(shift) + row + "\n")
        with pytest.raises(DataError, match=r":3: malformed CSV \(field larger than field limit"):
            _load(path, scanner_only)


def _load(path, scanner_only=False):
    """load_csv; with ``scanner_only``, the row scanner reads every file."""
    with mock.patch.object(data, "_parse_body", return_value=None) if scanner_only else nullcontext():
        return load_csv(path)


CSV_HEADER = (",".join([f"X{i+1}" for i in range(16)] + ["y"]) + "\n").encode()
_cell = st.sampled_from(["0.5", "-3", "1", "2.5", "1e19", "1e400", "nan", "", "x", '"', '"1,2"'])
_rows = st.lists(
    st.lists(_cell | st.text(max_size=4), min_size=15, max_size=18).map(",".join), max_size=4
).map(lambda rows: "\n".join(rows).encode())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=st.binary(max_size=96) | _rows | st.tuples(_rows, st.binary(max_size=16)).map(b"".join))
def test_csv_loader_raises_only_data_errors(tmp_path, body):
    """Arbitrary bytes after a valid 17-column header either load or raise
    DataError."""
    path = tmp_path / "fuzz.csv"
    path.write_bytes(CSV_HEADER + body)
    try:
        assert isinstance(load_csv(path), RawDataset)
    except DataError:
        pass


def _outcome(path, scanner_only):
    """The arrays load_csv returns, bytes and all, or its DataError text."""
    try:
        ds = _load(path, scanner_only)
    except DataError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (ds.features, ds.labels)]


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(-9, 9).map(str)
# cells that float() and loadtxt may read differently, or that must fail
_ODD_CELL = st.sampled_from([
    "nan", "-inf", "Infinity", "1e400", "", " 7 ", "x", "1_0", "\u0661\u0662", "1\x00", "\x1c1",
    "2\x1f", "0x10", '"0.25"', '" 3"', '"1,2"', '"0.5\n"', '"0.5\r\n"', '"1"2', '1"2"', '""',
])
_ODD_LABEL = st.sampled_from([
    "1.0", "2e0", " 1", '"3"', "1.5", "-1", "-0", "-0.0", "nan", "inf", "2e18",
    "9223372036854775807", "9223372036854775808", "1e19", "x", "", "1_0",
])


@st.composite
def _csv_files(draw):
    label_first = draw(st.booleans())
    names = [f"X{i+1}" for i in range(16)]
    header = ["y", *names] if label_first else [*names, draw(st.sampled_from(["y", "label"]))]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        # mostly clean rows, so that many files load and take the fast path
        kind = draw(st.sampled_from(["row"] * 8 + ["odd", "odd_label", "blank", "space", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            cells = draw(st.lists(_NUMBER, min_size=16, max_size=16))
            if kind == "odd":
                cells[draw(st.integers(0, 15))] = draw(_ODD_CELL)
            if kind == "ragged":
                cells = cells[: draw(st.integers(0, 17))]
            label = draw(_ODD_LABEL if kind == "odd_label" else st.integers(0, 3).map(str))
            lines.append(",".join([label, *cells] if label_first else [*cells, label]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8") + draw(st.sampled_from([b""] * 4 + [b"\xff\n"]))


def _one_row(cell, label="1"):
    return (CSV_HEADER.decode() + ",".join([cell] + ["0.5"] * 15 + [label]) + "\n").encode()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_csv_files())
@example(body=_one_row("\x1c1"))
@example(body=_one_row("1_0"))
@example(body=_one_row("\u0661"))
@example(body=_one_row("0.5", "9223372036854775808"))
@example(body=b"\xef\xbb\xbf" + _one_row('"0.5\r\n"').replace(b"\n", b"\r"))
def test_fast_ingest_matches_the_scanner(tmp_path, body):
    """load_csv returns the scanner's arrays bit for bit, or raises the
    scanner's DataError text."""
    path = tmp_path / "gen.csv"
    path.write_bytes(body)
    assert _outcome(path, scanner_only=False) == _outcome(path, scanner_only=True)


class TestStratifiedSplit:
    def test_balanced_4x2000(self):
        labels = np.repeat(np.arange(4), 2000)
        splits = stratified_split(labels, seed=0)
        assert (len(splits.train), len(splits.val), len(splits.test)) == (5600, 1200, 1200)
        for part, per_class in ((splits.train, 1400), (splits.val, 300), (splits.test, 300)):
            counts = np.bincount(labels[part], minlength=4)
            np.testing.assert_array_equal(counts, per_class)

    def test_determinism(self):
        labels = np.random.default_rng(1).integers(0, 4, size=400)
        a = stratified_split(labels, seed=7)
        b = stratified_split(labels, seed=7)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.test, b.test)
        assert a.hash() == b.hash()

    def test_different_seed_differs(self):
        labels = np.repeat(np.arange(4), 100)
        assert stratified_split(labels, seed=0).hash() != stratified_split(labels, seed=1).hash()

    def test_ten_per_class_floor_rule(self):
        labels = np.repeat(np.arange(3), 10)
        splits = stratified_split(labels, seed=2)
        for part, expected in ((splits.train, 7), (splits.val, 1), (splits.test, 2)):
            np.testing.assert_array_equal(np.bincount(labels[part], minlength=3), expected)

    def test_disjoint_and_exhaustive(self):
        labels = np.random.default_rng(3).integers(0, 5, size=303)
        # guarantee every class has >= 3 samples
        labels[:15] = np.repeat(np.arange(5), 3)
        splits = stratified_split(labels, seed=4)
        merged = np.concatenate([splits.train, splits.val, splits.test])
        assert len(merged) == len(labels)
        np.testing.assert_array_equal(np.sort(merged), np.arange(len(labels)))

    def test_stratification_tolerance(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            labels = rng.integers(0, 4, size=rng.integers(40, 400))
            counts = np.bincount(labels, minlength=4)
            if counts.min() < 3:
                continue
            splits = stratified_split(labels, seed=trial)
            for part, ratio in ((splits.train, 0.70), (splits.val, 0.15), (splits.test, 0.15)):
                part_counts = np.bincount(labels[part], minlength=4)
                for k in range(4):
                    frac = part_counts[k] / counts[k]
                    assert abs(frac - ratio) <= 1.0 / counts[k] + 1e-12

    def test_class_too_small(self):
        with pytest.raises(DataError):
            stratified_split(np.array([0, 0, 0, 1, 1]))


class TestClassWeights:
    def test_balanced_gives_ones(self):
        np.testing.assert_array_equal(
            class_weights(np.repeat(np.arange(4), 25), 4), np.ones(4)
        )

    def test_worked_example(self):
        labels = np.repeat([0, 1, 2, 3], [100, 50, 25, 25])
        np.testing.assert_allclose(class_weights(labels, 4), [0.5, 1.0, 2.0, 2.0])

    def test_scale_invariance(self):
        labels = np.repeat([0, 1, 2], [30, 20, 10])
        doubled = np.repeat([0, 1, 2], [60, 40, 20])
        np.testing.assert_allclose(class_weights(labels, 3), class_weights(doubled, 3))

    def test_expected_sample_weight_is_one(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            labels = rng.integers(0, 5, size=rng.integers(50, 500))
            if np.bincount(labels, minlength=5).min() == 0:
                continue
            w = class_weights(labels, 5)
            assert abs(w[labels].mean() - 1.0) < 1e-12

    def test_empty_class(self):
        with pytest.raises(DataError):
            class_weights(np.array([0, 0, 2, 2]), num_classes=3)

    def test_absent_class_list_capped(self):
        with pytest.raises(DataError, match=r"^4998 class\(es\) absent .*first \[2, 3, 4, 5, 6\]$"):
            class_weights(np.array([0, 1, 5000]), 5001)


class TestAbsentClasses:
    @pytest.mark.parametrize(
        "labels, k, expected",
        [
            ([0, 1, 2], 3, (0, [])),
            ([1, 3], 4, (2, [0, 2])),
            ([0, 1, 2, 9], 10, (6, [3, 4, 5, 6, 7])),
            ([0, 1, 10**12], 10**12 + 1, (10**12 - 2, [2, 3, 4, 5, 6])),
            ([7, 8], 3, (3, [0, 1, 2])),
        ],
    )
    def test_count_and_first_few(self, labels, k, expected):
        assert absent_classes(labels, k) == expected


def _reference_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xC96C5795D7870F42 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_REFERENCE_TABLE = _reference_table()


def crc64_reference(blob: bytes) -> int:
    """CRC-64/XZ one byte at a time in plain Python: the oracle for the
    lane-parallel ``crc64``."""
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in blob:
        crc = _REFERENCE_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


LANES = data._CRC64_LANES

# save_weights output for build_papernet(variant=v, seed=9), pinned from
# the byte-at-a-time CRC implementation
PINNED_WEIGHT_SHA256 = {
    "full": "1a545971e326490a5189c4b9104b454f1298ab1318f4f5c93b8001fc0133910b",
    "no_attention": "af2efff4d8a5032a8c52a6410176ffcae441dd68c1b3a9844889fe11e49f47ae",
    "no_lstm": "ec124c97fc4e62322758bebda0eac00f1955a73469c795e24e3e73feeb6f638c",
    "no_residual": "14fd3d0cc6c549aa39c94f25a30ee11372c062e8ec62d94a101265b8efb79094",
}


class TestCrc64:
    def test_known_check_value(self):
        # CRC-64/XZ check value for the nine ASCII digits
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty_input(self):
        assert crc64(b"") == 0

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=5000))
    def test_matches_reference_on_random_bytes(self, blob):
        assert crc64(blob) == crc64_reference(blob)

    @pytest.mark.parametrize(
        "length",
        [LANES * 16 - 1, LANES * 16, LANES * 16 + 1, LANES * 17 + LANES - 1, LANES * 40 + 7],
        ids=["below_lanes", "lanes_no_prefix", "prefix_1", "prefix_lanes_minus_1", "40_per_lane"],
    )
    def test_matches_reference_around_lane_thresholds(self, length):
        blob = np.random.default_rng(length).integers(0, 256, length, dtype=np.uint8).tobytes()
        assert crc64(blob) == crc64_reference(blob)

    def test_repeated_pattern(self):
        blob = b"123456789" * 4096
        assert crc64(blob) == crc64_reference(blob)

    @pytest.mark.parametrize("length", [1000, LANES * 16 + 3])
    def test_bytes_bytearray_memoryview_agree(self, length):
        blob = np.random.default_rng(7).integers(0, 256, length + 5, dtype=np.uint8).tobytes()
        values = {
            crc64(blob[5:]),
            crc64(bytearray(blob[5:])),
            crc64(memoryview(blob)[5:]),
        }
        assert values == {crc64_reference(blob[5:])}

    @pytest.mark.parametrize("variant", sorted(PINNED_WEIGHT_SHA256))
    def test_saved_weight_files_match_reference(self, tmp_path, variant):
        path = tmp_path / "w"
        save_weights(build_papernet(variant=variant, seed=9), path)
        blob = path.read_bytes()
        assert struct.unpack("<Q", blob[-8:])[0] == crc64_reference(blob[:-8])

    @pytest.mark.parametrize("variant", sorted(PINNED_WEIGHT_SHA256))
    def test_saved_weight_files_are_byte_identical(self, tmp_path, variant):
        path = tmp_path / "w"
        save_weights(build_papernet(variant=variant, seed=9), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_WEIGHT_SHA256[variant]

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_flipped_tensor_bit_fails_checksum(self, tmp_path, where):
        path = tmp_path / "w"
        save_weights(build_papernet(seed=4), path)
        blob = bytearray(path.read_bytes())
        data_start = 12 + struct.unpack("<Q", blob[4:12])[0]
        at = {"first": data_start, "middle": (data_start + len(blob)) // 2,
              "last": len(blob) - 9}[where]
        blob[at] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="checksum mismatch"):
            load_weights(path)


class TestWeightFiles:
    def test_round_trip_is_bitwise(self, tmp_path):
        model = build_papernet(seed=11)
        path = tmp_path / "weights_best"
        save_weights(model, path)
        restored = load_weights(path)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, restored.params[name].data)
        x = np.random.default_rng(12).standard_normal((5, 16, 1)).astype(np.float32)
        np.testing.assert_array_equal(
            forward(model, x).data, forward(restored, x).data
        )

    def test_round_trip_into_existing_graph(self, tmp_path):
        model = build_papernet(seed=13)
        path = tmp_path / "w"
        save_weights(model, path)
        target = build_papernet(seed=99)  # different init, same structure
        load_weights(path, target)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, target.params[name].data)

    def test_wrong_variant_names_offending_tensor(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(variant="full", seed=1), path)
        with pytest.raises(WeightFormatError, match="se\\."):
            load_weights(path, build_papernet(variant="no_attention", seed=1))

    def test_missing_tensor_named(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(variant="no_lstm", seed=1), path)
        with pytest.raises(WeightFormatError, match="lstm"):
            load_weights(path, build_papernet(variant="full", seed=1))

    def test_same_structure_wrong_variant_tag(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(variant="full", seed=1), path)
        with pytest.raises(WeightFormatError, match="variant"):
            load_weights(path, build_papernet(variant="no_residual", seed=1))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(seed=2), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(WeightFormatError):
            load_weights(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(seed=3), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(seed=4), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFormatError, match="checksum"):
            load_weights(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(seed=6), path)
        repeat_weight_entry(path, "conv1.bias")
        with pytest.raises(WeightFormatError, match="'conv1.bias' listed twice"):
            load_weights(path)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        path = tmp_path / "w"
        save_weights(build_papernet(num_classes=4, seed=5), path)
        with pytest.raises(WeightFormatError, match="dense2"):
            load_weights(path, build_papernet(num_classes=3, seed=5))


def _weight_blob(header: bytes, body: bytes = b"", header_len=None) -> bytes:
    """A weight file around ``header`` and ``body`` with a valid CRC-64."""
    size = len(header) if header_len is None else header_len
    blob = WEIGHT_MAGIC + struct.pack("<Q", size) + header + body
    return blob + struct.pack("<Q", crc64(blob))


class _HalfWriter:
    """A file opened for writing that keeps half of what it is given, then
    fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, blob):
        self.fh.write(blob[: len(blob) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicSave:
    @staticmethod
    def _fail_on(failing, monkeypatch):
        if failing == "write":
            monkeypatch.setattr(
                data, "open", lambda *a, **kw: _HalfWriter(open(*a, **kw)), raising=False
            )
        else:
            def fail(src, dst):
                raise OSError(errno.EXDEV, "Invalid cross-device link")

            monkeypatch.setattr(os, "replace", fail)

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failure_keeps_earlier_file(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "weights"
        save_weights(build_papernet(seed=0), path)
        before = path.read_bytes()
        self._fail_on(failing, monkeypatch)
        with pytest.raises(OSError):
            save_weights(build_papernet(seed=1), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_report_failure_keeps_earlier_file(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "report.json"
        labels = np.array([0, 1, 1, 0])
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.7, 0.3]])
        report_to_json(evaluate_probs(labels, probs), path)
        before = path.read_bytes()
        self._fail_on(failing, monkeypatch)
        with pytest.raises(OSError):
            report_to_json(evaluate_probs(labels, probs[:, ::-1]), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("failing", ["write", "replace"])
    @pytest.mark.parametrize(
        "writer, earlier, later",
        [
            (write_csv_artifact, (["a", "b"], [[1, 2.5]]), (["a", "b"], [[3, 4.5]] * 500)),
            (write_json, ({"a": [1, 2.5]},), ({"a": list(range(500))},)),
        ],
        ids=["write_csv", "write_json"],
    )
    def test_text_writer_failure_keeps_earlier_file(self, tmp_path, monkeypatch, failing,
                                                    writer, earlier, later):
        path = tmp_path / "artifact"
        writer(path, *earlier)
        before = path.read_bytes()
        self._fail_on(failing, monkeypatch)
        with pytest.raises(OSError):
            writer(path, *later)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def test_data_never_imports_training():
    """``data`` sits below ``training``: neither it nor any module it
    imports, at the top or inside a function, imports ``training``."""
    package = Path(data.__file__).parent
    seen, todo = set(), ["data"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from .x import y" names module x; "from . import x" names x
                todo += [node.module] if node.module else [a.name for a in node.names]
    assert "data" in seen and "model" in seen
    assert "training" not in seen, sorted(seen)


class TestWeightHeader:
    @pytest.mark.parametrize(
        "header, body",
        [
            (b'{"version": 1, "variant": "full"}', b""),
            (b"\xff\xfe{}", b""),
            (b"[1, 2]", b""),
            (json.dumps({"version": 1, "variant": "full", "tensors": [
                {"name": "a", "shape": [3], "offset": 0, "len": 8}]}).encode(), bytes(8)),
            (json.dumps({"version": 1, "variant": "full", "tensors": [
                {"name": "a", "shape": [2], "offset": -4, "len": 8}]}).encode(), bytes(8)),
            (json.dumps({"version": 1, "variant": "full", "tensors": [
                {"name": "a", "shape": [2], "offset": 4, "len": 8}]}).encode(), bytes(8)),
            (json.dumps({"version": 1, "variant": "full", "tensors": [
                {"name": "a", "shape": [2], "offset": 0, "len": 8},
                {"name": "a", "shape": [1], "offset": 0, "len": 4}]}).encode(), bytes(8)),
        ],
        ids=["no_tensors", "not_utf8", "not_object", "shape_vs_len", "negative_offset",
             "past_end", "repeated_name"],
    )
    def test_bad_header_is_format_error(self, tmp_path, header, body):
        path = tmp_path / "w"
        path.write_bytes(_weight_blob(header, body))
        with pytest.raises(WeightFormatError):
            _parse_weight_file(path)

    def test_valid_header_parses(self, tmp_path):
        header = {"version": 1, "variant": "full", "tensors": [
            {"name": "a", "shape": [2, 1], "offset": 0, "len": 8}]}
        path = tmp_path / "w"
        path.write_bytes(_weight_blob(json.dumps(header).encode(), np.ones(2, "<f4").tobytes()))
        _, tensors = _parse_weight_file(path)
        np.testing.assert_array_equal(tensors["a"], [[1.0], [1.0]])


_json_leaf = (
    st.none() | st.booleans() | st.integers(-8, 64)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
)
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["version", "variant", "tensors", "name", "shape", "offset", "len"]),
        inner, max_size=7,
    ),
    max_leaves=20,
)
_entry = st.fixed_dictionaries({
    "name": st.sampled_from(["dense2.bias", "conv1.bias"]) | _json,
    "shape": st.lists(st.integers(-2, 5), max_size=3) | _json,
    "offset": st.integers(-4, 40) | _json,
    "len": st.integers(-4, 40) | _json,
})
_header = st.fixed_dictionaries({
    "version": st.just(1) | _json,
    "variant": st.sampled_from(["full", "no_lstm"]) | _json,
    "tensors": st.lists(_entry, max_size=3) | _json,
})
_header_bytes = st.binary(max_size=64) | (_json | _header).map(lambda v: json.dumps(v).encode())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=_header_bytes, body=st.binary(max_size=48),
       header_len=st.none() | st.integers(0, 2**64 - 1))
def test_weight_parser_raises_only_format_errors(tmp_path, header, body, header_len):
    """Arbitrary header and body bytes behind a valid CRC-64 either parse or
    raise WeightFormatError, in the parser and in load_weights."""
    path = tmp_path / "w"
    path.write_bytes(_weight_blob(header, body, header_len))
    for parse in (_parse_weight_file, load_weights):
        try:
            parse(path)
        except WeightFormatError:
            pass


class TestSingleUse:
    def test_take_once(self):
        guard = SingleUse([1, 2, 3])
        assert guard.take() == [1, 2, 3]
        with pytest.raises(DataError, match="already consumed"):
            guard.take()


def read_attention_csv(path):
    """(header, [n, 128] per-sample rows, MEAN row) of an attention.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert [r[0] for r in rows] == [str(i) for i in range(len(rows) - 1)] + ["MEAN"]
    values = np.array([r[1:] for r in rows], dtype=np.float64)
    return header, values[:-1], values[-1]


class TestAttentionExport:
    def test_shapes_and_range(self, tmp_path):
        model = build_papernet(seed=20)
        rows = np.random.default_rng(21).normal(size=(10, 16))
        per_sample = export_attention(model, rows)
        assert per_sample.shape == (10, 128)
        attention_to_csv(tmp_path / "attention.csv", per_sample)
        _, _, mean = read_attention_csv(tmp_path / "attention.csv")
        assert mean.shape == (128,)
        assert np.all(mean > 0) and np.all(mean < 1)

    def test_duplicates_identical(self):
        model = build_papernet(seed=22)
        row = np.random.default_rng(23).normal(size=(1, 16))
        per_sample = export_attention(model, np.repeat(row, 4, axis=0))
        for i in range(1, 4):
            np.testing.assert_array_equal(per_sample[0], per_sample[i])

    def test_no_attention_variant_rejected(self):
        model = build_papernet(variant="no_attention")
        with pytest.raises(DataError):
            export_attention(model, np.zeros((2, 16)))

    def test_csv_layout(self, tmp_path):
        model = build_papernet(seed=24)
        rows = np.random.default_rng(25).normal(size=(3, 16))
        per_sample = export_attention(model, rows)
        path = tmp_path / "attention.csv"
        attention_to_csv(path, per_sample)
        header, written, mean = read_attention_csv(path)
        assert header == ["sample"] + [f"a_{i:03d}" for i in range(128)]
        # float32 values written as Python floats read back exactly
        np.testing.assert_array_equal(written, per_sample)
        np.testing.assert_array_equal(mean, per_sample.mean(axis=0))
