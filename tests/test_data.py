import ast
import errno
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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

from conftest import write_csv


class TestLoadCsv:
    def test_three_row_synthetic(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(3, 16))
        write_csv(path, feats, np.array([0, 1, 2]))
        ds = load_csv(path)
        assert ds.num_samples == 3
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

    def test_bad_ratios(self):
        with pytest.raises(DataError):
            stratified_split(np.zeros(10, dtype=int) , ratios=(0.5, 0.3, 0.3))

    def test_class_too_small(self):
        with pytest.raises(DataError):
            stratified_split(np.array([0, 0, 0, 1, 1]))


class TestClassWeights:
    def test_balanced_gives_ones(self):
        np.testing.assert_array_equal(
            class_weights(np.repeat(np.arange(4), 25)), np.ones(4)
        )

    def test_worked_example(self):
        labels = np.repeat([0, 1, 2, 3], [100, 50, 25, 25])
        np.testing.assert_allclose(class_weights(labels), [0.5, 1.0, 2.0, 2.0])

    def test_scale_invariance(self):
        labels = np.repeat([0, 1, 2], [30, 20, 10])
        doubled = np.repeat([0, 1, 2], [60, 40, 20])
        np.testing.assert_allclose(class_weights(labels), class_weights(doubled))

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
            class_weights(np.array([0, 1, 5000]))


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


class TestCrc64:
    def test_known_check_value(self):
        # CRC-64/XZ check value for the nine ASCII digits
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty_input(self):
        assert crc64(b"") == 0


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
        report_to_json(evaluate_probs(labels, probs, 2), path)
        before = path.read_bytes()
        self._fail_on(failing, monkeypatch)
        with pytest.raises(OSError):
            report_to_json(evaluate_probs(labels, probs[:, ::-1], 2), path)
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
        ],
        ids=["no_tensors", "not_utf8", "not_object", "shape_vs_len", "negative_offset",
             "past_end"],
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


class TestAttentionExport:
    def test_shapes_and_range(self):
        model = build_papernet(seed=20)
        rows = np.random.default_rng(21).normal(size=(10, 16))
        per_sample, mean = export_attention(model, rows)
        assert per_sample.shape == (10, 128)
        assert mean.shape == (128,)
        assert np.all(mean > 0) and np.all(mean < 1)

    def test_duplicates_identical(self):
        model = build_papernet(seed=22)
        row = np.random.default_rng(23).normal(size=(1, 16))
        per_sample, _ = export_attention(model, np.repeat(row, 4, axis=0))
        for i in range(1, 4):
            np.testing.assert_array_equal(per_sample[0], per_sample[i])

    def test_no_attention_variant_rejected(self):
        model = build_papernet(variant="no_attention")
        with pytest.raises(DataError):
            export_attention(model, np.zeros((2, 16)))

    def test_csv_layout(self, tmp_path):
        model = build_papernet(seed=24)
        rows = np.random.default_rng(25).normal(size=(3, 16))
        per_sample, mean = export_attention(model, rows)
        path = tmp_path / "attention.csv"
        attention_to_csv(path, per_sample, mean)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1
        header = lines[0].split(",")
        assert header[0] == "sample"
        assert header[1] == "a_000" and header[-1] == "a_127"
        assert lines[-1].startswith("MEAN,")
