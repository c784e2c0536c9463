import argparse
import json
import math
import os
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import papernet.checks as checks_mod
import papernet.tensor as tensor_mod
from papernet.cli import SUBCOMMANDS, RunConfig, build_parser, main
from papernet.data import load_weights, save_weights
from papernet.model import build_papernet, count_parameters
from papernet.tensor import Tensor, gradcheck

from conftest import make_synthetic, repeat_weight_entry, write_csv

REPO = Path(__file__).resolve().parents[1]

def run(argv):
    return main(argv)


@pytest.fixture
def fast_args(synthetic_csv, tmp_path):
    outdir = tmp_path / "out"
    return [
        "--data", str(synthetic_csv),
        "--outdir", str(outdir),
        "--max-epochs", "2",
        "--batch-size", "32",
        "--seed", "0",
    ], outdir


class TestTrainCommand:
    def test_artifacts_written(self, fast_args, capsys):
        args, outdir = fast_args
        assert run(["train", *args]) == 0
        for name in (
            "weights_best", "weights_final", "history.csv",
            "report.json", "roc.csv", "attention.csv", "config_resolved.json",
        ):
            assert (outdir / name).exists(), name
        report = json.loads((outdir / "report.json").read_text())
        assert report["variant"] == "full"
        out = capsys.readouterr().out
        assert "parameters=159844" in out

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        outdir = tmp_path / "never_created"
        code = run(["train", "--data", str(tmp_path / "nope.csv"), "--outdir", str(outdir)])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err
        assert not outdir.exists()  # validation precedes any writes

    def test_variant_recorded(self, fast_args):
        args, outdir = fast_args
        assert run(["train", "--variant", "no_lstm", *args]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["variant"] == "no_lstm"
        # no_lstm keeps the SE block, so attention is still exported
        assert (outdir / "attention.csv").exists()

    def test_no_attention_skips_attention_csv(self, fast_args):
        args, outdir = fast_args
        assert run(["train", "--variant", "no_attention", *args]) == 0
        assert not (outdir / "attention.csv").exists()

    def test_config_file_with_flag_override(self, synthetic_csv, tmp_path):
        config = {
            "data": str(synthetic_csv),
            "outdir": str(tmp_path / "fromfile"),
            "max_epochs": 2,
            "batch_size": 32,
            "variant": "no_lstm",
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        outdir = tmp_path / "overridden"
        assert run(["train", "--config", str(config_path), "--outdir", str(outdir)]) == 0
        resolved = json.loads((outdir / "config_resolved.json").read_text())
        assert resolved["variant"] == "no_lstm"
        assert resolved["outdir"] == str(outdir)

    def test_unknown_config_key_exit_2(self, synthetic_csv, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"data": str(synthetic_csv), "learning": 1}))
        assert run(["train", "--config", str(config_path)]) == 2
        assert "learning" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_saved_weights(self, fast_args, tmp_path, capsys):
        args, outdir = fast_args
        assert run(["train", *args]) == 0
        eval_dir = tmp_path / "eval"
        code = run([
            "evaluate", *args[:2], "--outdir", str(eval_dir), "--seed", "0",
            "--weights", str(outdir / "weights_best"), "--split", "test",
        ])
        assert code == 0
        assert (eval_dir / "report.json").exists()
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("command, variant", [
        ("evaluate", "no_attention"), ("export-attention", "no_lstm")])
    def test_variant_taken_from_weight_file(self, synthetic_csv, tmp_path, command, variant):
        weights = tmp_path / "w"
        save_weights(build_papernet(variant=variant, seed=3), weights)
        outdir = tmp_path / "o"
        assert run([command, "--data", str(synthetic_csv), "--outdir", str(outdir),
                    "--weights", str(weights), "--split", "all"]) == 0
        resolved = json.loads((outdir / "config_resolved.json").read_text())
        assert resolved["variant"] == variant
        if command == "evaluate":
            assert json.loads((outdir / "report.json").read_text())["variant"] == variant

    def test_matching_explicit_variant_accepted(self, synthetic_csv, tmp_path):
        weights = tmp_path / "w"
        save_weights(build_papernet(variant="no_residual", seed=3), weights)
        assert run(["evaluate", "--data", str(synthetic_csv), "--outdir", str(tmp_path / "o"),
                    "--weights", str(weights), "--variant", "no_residual"]) == 0


class TestAblateCommand:
    def test_four_variants_one_table(self, synthetic_csv, tmp_path):
        outdir = tmp_path / "ablation"
        code = run([
            "ablate", "--data", str(synthetic_csv), "--outdir", str(outdir),
            "--max-epochs", "1", "--batch-size", "32", "--seed", "0",
        ])
        assert code == 0
        rows = (outdir / "ablation.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,accuracy,macro_f1,macro_roc_auc"
        assert [r.split(",")[0] for r in rows[1:]] == [
            "full", "no_attention", "no_lstm", "no_residual",
        ]
        payload = json.loads((outdir / "ablation.json").read_text())
        assert "split_hash" in payload and len(payload["results"]) == 4


class TestBenchCommand:
    def test_reports_latency_and_parameters(self, tmp_path, capsys):
        from papernet.data import save_weights

        weights = tmp_path / "w"
        model = build_papernet(seed=0)
        save_weights(model, weights)
        assert run(["bench", "--weights", str(weights), "--n-samples", "10"]) == 0
        out = capsys.readouterr().out
        assert f"parameters: {count_parameters(model)}" in out
        assert "p50" in out

    def test_zero_samples_usage_error(self, tmp_path, capsys):
        from papernet.data import save_weights

        weights = tmp_path / "w"
        save_weights(build_papernet(seed=0), weights)
        assert run(["bench", "--weights", str(weights), "--n-samples", "0"]) == 2


class TestGradcheckCommand:
    def test_passing_subset_exit_0(self, monkeypatch, capsys):
        monkeypatch.setattr(
            checks_mod, "SUITE", {"relu": checks_mod.check_relu}
        )
        assert run(["gradcheck"]) == 0
        assert "PASS relu" in capsys.readouterr().out

    def test_corrupted_backward_rule_exit_1(self, monkeypatch, capsys):
        def bad_tanh(x):
            data = np.tanh(x.data)
            out = Tensor(data, requires_grad=x.requires_grad)
            tape = tensor_mod._active_tape()
            if tape is not None and out.requires_grad:
                # deliberately doubled gradient
                tape.record("bad_tanh", (x,), out, lambda g: (2.0 * g * (1 - data * data),))
            return out

        def corrupted_check():
            point = Tensor(
                np.random.default_rng(0).normal(size=(4,)),
                requires_grad=True, dtype=np.float64,
            )
            return gradcheck(bad_tanh, point)

        monkeypatch.setattr(
            checks_mod, "SUITE",
            {"relu": checks_mod.check_relu, "tanh": corrupted_check},
        )
        assert run(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL tanh" in out


class TestPreprocessCommand:
    def test_filtered_rows_written(self, synthetic_csv, tmp_path):
        outdir = tmp_path / "pre"
        assert run(["preprocess", "--data", str(synthetic_csv), "--outdir", str(outdir)]) == 0
        lines = (outdir / "filtered.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == [f"X{i+1}" for i in range(16)] + ["y"]
        assert len(lines) == 241


class TestExportAttentionCommand:
    def test_writes_csv(self, fast_args, tmp_path):
        args, outdir = fast_args
        assert run(["train", *args]) == 0
        export_dir = tmp_path / "attn"
        code = run([
            "export-attention", *args[:2], "--outdir", str(export_dir), "--seed", "0",
            "--weights", str(outdir / "weights_best"), "--split", "all",
        ])
        assert code == 0
        lines = (export_dir / "attention.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 240 + 1
        assert lines[-1].startswith("MEAN,")


class TestWeightsInterchange:
    def test_cli_weights_loadable_via_api(self, fast_args):
        args, outdir = fast_args
        assert run(["train", *args]) == 0
        model = load_weights(outdir / "weights_best")
        assert model.variant == "full"
        assert count_parameters(model) == 159_844


def _const_csv(path, labels, value=0.0):
    """A CSV whose feature cells all hold ``value``, with the given labels."""
    write_csv(path, np.full((len(labels), 16), value), np.asarray(labels, dtype=np.int64))
    return path


def _bytes_csv(path, blob):
    path.write_bytes(blob)
    return path


def _json(path, obj):
    path.write_text(json.dumps(obj))
    return path


def _weights(path, conv1_kernel=None, **build):
    """A valid weight file of ``build_papernet(seed=0, **build)``;
    ``conv1_kernel`` fills the first conv kernel."""
    model = build_papernet(seed=0, **build)
    if conv1_kernel is not None:
        model.params["conv1.kernel"].data[...] = conv1_kernel
    save_weights(model, path)
    return path


BAD_INPUTS = {
    "evaluate_missing_weights": (3, lambda d, t: [
        "evaluate", "--data", str(d), "--outdir", str(t / "o"),
        "--weights", str(t / "missing")]),
    "bench_missing_weights": (3, lambda d, t: ["bench", "--weights", str(t / "missing")]),
    "data_is_directory": (3, lambda d, t: ["train", "--data", str(t), "--outdir", str(t / "o")]),
    "outdir_is_file": (3, lambda d, t: ["train", "--data", str(d), "--outdir", str(d)]),
    "single_class": (3, lambda d, t: [
        "train", "--data", str(_const_csv(t / "one.csv", [0] * 40)), "--outdir", str(t / "o")]),
    "header_only": (3, lambda d, t: [
        "train", "--data", str(_const_csv(t / "empty.csv", [])), "--outdir", str(t / "o")]),
    "non_finite_cell": (3, lambda d, t: [
        "train", "--data", str(_const_csv(t / "nan.csv", [0, 1] * 20, np.nan)),
        "--outdir", str(t / "o")]),
    "not_utf8": (3, lambda d, t: [
        "preprocess", "--data", str(_bytes_csv(t / "ff.csv", d.read_bytes() + b"\xff\n")),
        "--outdir", str(t / "o")]),
    "oversized_cell": (3, lambda d, t: [
        "preprocess", "--data",
        str(_bytes_csv(t / "big.csv", d.read_bytes() + b'"' + b"1" * 131_073 + b'"\n')),
        "--outdir", str(t / "o")]),
    "unknown_variant": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--variant", "tiny"]),
    "num_classes_0": (2, lambda d, t: [
        "preprocess", "--data", str(d), "--outdir", str(t / "o"), "--num-classes", "0"]),
    "nan_learning_rate": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--lr0", "nan"]),
    "infinite_lr0": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--lr0", "inf"]),
    "infinite_l2": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--l2", "inf"]),
    "infinite_min_lr": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--min-lr", "inf"]),
    "bench_input_length_1": (2, lambda d, t: [
        "bench", "--weights", str(t / "missing"), "--input-length", "1"]),
    "infinite_sample_rate": (2, lambda d, t: [
        "preprocess", "--data", str(d), "--outdir", str(t / "o"), "--sample-rate-hz", "inf"]),
    # stable designs whose rounded poles make the block filter's I - A singular
    "tiny_band_low": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--band-low-hz", "1e-7"]),
    "huge_sample_rate": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--sample-rate-hz", "1e10"]),
    "sparse_labels": (3, lambda d, t: [
        "train", "--data", str(_const_csv(t / "sparse.csv", [0, 1, 5000] * 10)),
        "--outdir", str(t / "o")]),
    "huge_label": (3, lambda d, t: [
        "train", "--data", str(_const_csv(t / "huge.csv", [0, 1, 10**12] * 10)),
        "--outdir", str(t / "o")]),
    "batch_size_1": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--batch-size", "1"]),
    "huge_num_classes": (2, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--num-classes", str(10**12)]),
    "diverging_lr": (1, lambda d, t: [
        "train", "--data", str(d), "--outdir", str(t / "o"), "--lr0", "1e30",
        "--batch-size", "32"]),
    "huge_weights": (1, lambda d, t: [
        "evaluate", "--data", str(d), "--outdir", str(t / "o"),
        "--weights", str(_weights(t / "w", conv1_kernel=3e38))]),  # overflows float32
    "repeated_weight_entry": (3, lambda d, t: [
        "evaluate", "--data", str(d), "--outdir", str(t / "o"),
        "--weights", str(repeat_weight_entry(_weights(t / "w"), "conv1.bias"))]),
    "variant_flag_disagrees_with_weights": (3, lambda d, t: [
        "evaluate", "--data", str(d), "--outdir", str(t / "o"), "--variant", "full",
        "--weights", str(_weights(t / "w", variant="no_residual"))]),
    "variant_key_disagrees_with_weights": (3, lambda d, t: [
        "export-attention", "--config", str(_json(t / "c.json", {"variant": "no_lstm"})),
        "--data", str(d), "--outdir", str(t / "o"), "--weights", str(_weights(t / "w"))]),
    "head_width_disagrees_with_data": (3, lambda d, t: [
        "evaluate", "--data", str(d), "--outdir", str(t / "o"),
        "--weights", str(_weights(t / "w", num_classes=3))]),
    "bench_huge_n_samples": (2, lambda d, t: [
        "bench", "--weights", str(_weights(t / "w")), "--n-samples", str(10**30)]),
    "bench_huge_input_length": (2, lambda d, t: [
        "bench", "--weights", str(_weights(t / "w")), "--input-length", str(10**30)]),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", BAD_INPUTS, ids=list(BAD_INPUTS))
    def test_bad_input_exit_code_and_one_line(self, case, synthetic_csv, tmp_path, capsys,
                                              recwarn):
        code, make_argv = BAD_INPUTS[case]
        assert run(make_argv(synthetic_csv, tmp_path)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(err) < 500, err[:500]
        # pytest records warnings instead of printing them to stderr
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("value", ['"0"', "true", "1.5", "null"])
    def test_config_value_of_wrong_type_exit_2(self, synthetic_csv, tmp_path, capsys, value):
        config_path = tmp_path / "typed.json"
        config_path.write_text(f'{{"data": "{synthetic_csv}", "seed": {value}}}')
        assert run(["train", "--config", str(config_path)]) == 2
        assert "seed" in capsys.readouterr().err


_HUGE = 2**1100  # beyond the largest float
_ANY = (
    st.none()
    | st.booleans()
    | st.integers(-_HUGE, _HUGE)
    | st.floats()  # NaN and +-inf included
    | st.text(max_size=8)
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
)
_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 1e-300, 1e300, _HUGE, -_HUGE])
_OF_TYPE = {
    float: st.floats() | st.integers(-_HUGE, _HUGE) | _EDGES,
    int: st.integers(-_HUGE, _HUGE) | st.integers(-3, 300) | _EDGES,
    bool: st.booleans(),
    str: st.text(max_size=8),
    type(None): st.none(),
}


def _config_value(key, hint):
    # The dataset and output paths stay fixed: only values of a wrong type
    # are generated for them, so no example writes outside tmp_path.
    if key in ("data", "outdir"):
        return _ANY.filter(lambda v: not isinstance(v, str))
    return st.one_of(*(_OF_TYPE[k] for k in typing.get_args(hint) or (hint,))) | _ANY


# A few keys per example, so most examples get past the type checks.
_CONFIGS = st.lists(
    st.one_of(*(
        st.tuples(st.just(key), _config_value(key, hint))
        for key, hint in typing.get_type_hints(RunConfig).items()
    )),
    max_size=3,
).map(dict)


@example(values={"sample_rate_hz": math.inf})
@example(values={"sample_rate_hz": _HUGE})
@example(values={"sample_rate_hz": 1394040342756744.0})  # a singular block filter
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_CONFIGS)
def test_generated_config_never_ends_in_traceback(values, tmp_path, capsys):
    """Any JSON config object over RunConfig's keys runs, or ends in exit 2
    or 3 with one ``error:`` line."""
    dataset = tmp_path / "small.csv"
    if not dataset.exists():
        write_csv(dataset, *make_synthetic(n=32))
    config = tmp_path / "generated.json"
    config.write_text(json.dumps(
        {"data": str(dataset), "outdir": str(tmp_path / "o"), **values}
    ))
    code = run(["preprocess", "--config", str(config)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def _train_inputs(draw):
    """(features, labels, batch_size): 8-80 rows over 2-4 classes with
    imbalanced, sometimes absent classes and constant or duplicated columns."""
    n = draw(st.integers(8, 80))
    shares = draw(st.lists(st.sampled_from([1.0, 0.3, 0.1, 0.0]), min_size=2, max_size=4)
                  .filter(any))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.choice(len(shares), size=n, p=np.array(shares) / sum(shares))
    features = rng.normal(size=(n, 16)) + labels[:, None]
    for col in draw(st.lists(st.integers(0, 15), max_size=3)):
        features[:, col] = 1.5
    for src, dst in draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=3)):
        features[:, dst] = features[:, src]
    return features, labels, draw(st.integers(1, n))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_train_inputs())
def test_generated_dataset_trains_or_fails_cleanly(inputs, tmp_path, capsys):
    """One epoch of ``papernet train`` on a generated CSV exits 0, 2 or 3,
    or 1 for a diverged run, with one ``error:`` line and no RuntimeWarning."""
    features, labels, batch_size = inputs
    dataset = tmp_path / "generated.csv"
    write_csv(dataset, features, labels)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["train", "--data", str(dataset), "--outdir", str(tmp_path / "o"),
                    "--batch-size", str(batch_size), "--max-epochs", "1"])
    err = capsys.readouterr().err
    # a TrainingError names the epoch it stopped in
    assert code in (0, 2, 3) or err.startswith("error: epoch "), err
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, papernet.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_preprocess_runs_without_scipy(synthetic_csv, tmp_path):
    """With scipy made unimportable, ``papernet preprocess`` and
    ``cli.prepare_dataset`` still band-pass and split a recording."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from papernet import cli\n"
        "data, outdir = sys.argv[1:]\n"
        "code = cli.main(['preprocess', '--data', data, '--outdir', outdir])\n"
        "prepared = cli.prepare_dataset(cli.RunConfig(data=data))\n"
        "print(code, prepared.features.shape)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(synthetic_csv), str(tmp_path / "pre")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 (240, 16)"


CONFIG_FLAGS = [
    "--band-high-hz", "--band-low-hz", "--batch-size", "--config", "--data", "--dropout",
    "--early-stop-patience", "--help", "--l2", "--lr0", "--max-epochs", "--min-lr",
    "--no-class-weighting", "--num-classes", "--outdir", "--plateau-factor",
    "--plateau-patience", "--sample-rate-hz", "--seed", "--variant", "-h",
]


class TestCliSurface:
    def _subcommands(self):
        parser = build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return subs.choices

    def test_option_strings_per_subcommand(self):
        expected = {
            "train": CONFIG_FLAGS,
            "evaluate": sorted(CONFIG_FLAGS + ["--split", "--weights"]),
            "ablate": CONFIG_FLAGS,
            "bench": ["--help", "--input-length", "--n-samples", "--weights", "-h"],
            "gradcheck": ["--help", "-h"],
            "export-attention": sorted(CONFIG_FLAGS + ["--split", "--weights"]),
            "preprocess": CONFIG_FLAGS,
        }
        surface = {
            name: sorted(o for a in sub._actions for o in a.option_strings)
            for name, sub in self._subcommands().items()
        }
        assert surface == expected

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_main_parses_like_the_whole_parser(self, name, capsys):
        # main adds the RunConfig flags to the chosen subcommand only: its
        # --help text, and a usage error's message and exit code, are those
        # of the parser with every flag of every subcommand
        for argv, code in (([name, "--help"], 0), ([name, "--no-such-flag"], 2)):
            outcomes = []
            for parse in (build_parser().parse_args, main):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                outcomes.append((exc.value.code, *capsys.readouterr()))
            assert outcomes[0] == outcomes[1]
            assert outcomes[1][0] == code
            if code == 0:
                assert ("--lr0" in outcomes[1][1]) == SUBCOMMANDS[name][2]

    def test_no_class_weighting_flag(self):
        for sub in self._subcommands().values():
            for action in sub._actions:
                if "--no-class-weighting" in action.option_strings:
                    assert (action.dest, action.const, action.default) == (
                        "class_weighting", False, None,
                    )

    def test_resolved_config_keys_and_defaults(self, synthetic_csv, tmp_path):
        outdir = tmp_path / "pre"
        assert run(["preprocess", "--data", str(synthetic_csv), "--outdir", str(outdir)]) == 0
        resolved = json.loads((outdir / "config_resolved.json").read_text())
        assert resolved == {
            "lr0": 0.001, "batch_size": 64, "max_epochs": 100,
            "plateau_patience": 3, "plateau_factor": 0.5, "min_lr": 1e-06,
            "early_stop_patience": 6, "l2": 0.0001, "dropout": 0.3,
            "seed": 0, "class_weighting": True,
            "data": str(synthetic_csv), "outdir": str(outdir),
            "sample_rate_hz": 256.0, "band_low_hz": 0.5, "band_high_hz": 45.0,
            "variant": "full", "num_classes": None,
        }


# Each demo and a stable prefix of its last line.
DEMOS = {
    "01_autodiff_basics": "gradcheck softmax",
    "02_bandpass_filter": "cross-correlation peak lag: 0 samples",
    "03_model_anatomy": "most-weighted feature channels",
    "04_train_synthetic": "McNemar vs random baseline",
    "05_metrics_tour": "six samples cannot reach significance",
    "06_cli_walkthrough": "all outputs under",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert DEMOS[demo] in result.stdout.splitlines()[-1]
