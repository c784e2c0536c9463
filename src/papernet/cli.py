"""Command-line surface: preprocess, train, evaluate, ablate, bench,
gradcheck, and export-attention.

Exit codes: 0 success, 1 check/test failure, 2 usage or configuration
error, 3 data error. Every flag overrides the matching key of the JSON
config file; the resolved configuration is written next to the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks, data, dsp, metrics
from .errors import ConfigError, DataError, FilterDesignError, PapernetError, WeightFormatError
from .model import VARIANTS, build_papernet, count_non_trainable, count_parameters
from .training import TrainConfig, export_attention, predict_probs, train

BENCH_MAX_SAMPLES = 1_000_000
BENCH_MAX_INPUT_LENGTH = 4096


@dataclass
class RunConfig(TrainConfig):
    """Everything one run needs. JSON config keys and command-line flags
    are generated from the field names (``--no-<name>`` for a bool)."""

    data: str | None = None
    outdir: str = "papernet_out"
    sample_rate_hz: float = dsp.DEFAULT_SAMPLE_RATE
    band_low_hz: float = dsp.DEFAULT_BAND[0]
    band_high_hz: float = dsp.DEFAULT_BAND[1]
    variant: str = "full"
    num_classes: int | None = None

    def validate(self) -> None:
        for name, kinds in _field_types().items():
            kinds += (int,) if float in kinds else ()
            value = getattr(self, name)
            # bool is an int subclass: accept it for bool fields only
            if not isinstance(value, kinds) or isinstance(value, bool) != (bool in kinds):
                names = " or ".join(k.__name__ for k in kinds)
                raise ConfigError(f"{name} must be {names}, got {value!r}")
            if float in kinds and isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ConfigError(f"{name} is an integer too large for a float")
        super().validate()
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.num_classes is not None and self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")


@functools.cache
def _field_types() -> dict[str, tuple[type, ...]]:
    """The value types each RunConfig field accepts, e.g. (int, NoneType)
    for ``int | None``, in field order. Cached: callers only read it."""
    hints = typing.get_type_hints(RunConfig)
    return {name: typing.get_args(hint) or (hint,) for name, hint in hints.items()}


def _given_values(args: argparse.Namespace) -> dict:
    """The config file's keys, overridden by every flag given on the command
    line; keys set by neither are absent."""
    names = _field_types()
    values = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(names)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    values.update({n: getattr(args, n) for n in names if getattr(args, n) is not None})
    return values


@dataclass
class PreparedData:
    features: np.ndarray  # filtered + standardized [N, 16]
    labels: np.ndarray
    splits: data.SplitIndices
    test_guard: data.SingleUse
    num_classes: int


def _load_filtered(config: RunConfig, min_classes: int = 1):
    """Ingest the CSV, check that it holds ``min_classes`` distinct labels,
    and band-pass its rows. Returns (raw dataset, filtered features)."""
    raw = data.load_csv(config.data)
    distinct = len(np.unique(raw.labels))
    if distinct < min_classes:
        raise DataError(f"{config.data}: need {min_classes} distinct labels, found {distinct}")
    filtered = dsp.preprocess_recording(
        raw.features, config.sample_rate_hz, config.band_low_hz, config.band_high_hz
    )
    return raw, filtered


def prepare_dataset(config: RunConfig) -> PreparedData:
    """Ingest, band-pass, split, and standardize. The test indices are
    wrapped so they can be consumed exactly once, after training."""
    raw, filtered = _load_filtered(config, min_classes=2)
    if config.num_classes is None:
        missing, first = data.absent_classes(raw.labels, raw.num_classes)
        if missing:
            raise DataError(
                f"{config.data}: labels must cover 0..{raw.num_classes - 1} when "
                f"num_classes is not set; {missing} missing, first {first}"
            )
    elif config.num_classes > len(raw.labels):
        raise ConfigError(
            f"num_classes={config.num_classes} exceeds the {len(raw.labels)} rows of {config.data}"
        )
    num_classes = config.num_classes or raw.num_classes
    if raw.labels.max() >= num_classes:
        raise DataError(
            f"labels go up to {raw.labels.max()} but num_classes={num_classes}"
        )
    splits = data.stratified_split(raw.labels, seed=config.seed)
    standardizer = dsp.fit_standardizer(filtered, splits.train)
    features = dsp.apply_standardizer(standardizer, filtered)
    return PreparedData(
        features=features,
        labels=raw.labels,
        splits=splits,
        test_guard=data.SingleUse(splits.test),
        num_classes=num_classes,
    )


def _begin_run(args, prepare, weights=None):
    """Resolve the config, check the dataset path before anything is
    written, write ``config_resolved.json``, and run ``prepare`` on the
    config. Returns (config, outdir, prepared, model).

    With ``weights``, ``model`` is loaded from that file and its stored
    variant is the configured one unless ``--variant`` or the config key
    sets it; a variant set to another value, or a head width other than
    the dataset's class count, is a WeightFormatError. Without, ``model``
    is None."""
    given = _given_values(args)
    config = RunConfig(**given)
    config.validate()
    if not config.data:
        raise ConfigError("no dataset path configured (set --data or the config key)")
    if not Path(config.data).exists():
        raise ConfigError(f"dataset path does not exist: {config.data}")
    model = None
    if weights is not None:
        model = data.load_weights(weights)
        if "variant" not in given:
            config = dataclasses.replace(config, variant=model.variant)
        elif config.variant != model.variant:
            raise WeightFormatError(
                f"{weights}: variant mismatch: file {model.variant!r}, "
                f"configured {config.variant!r}"
            )
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    data.write_json(outdir / "config_resolved.json", dataclasses.asdict(config))
    prepared = prepare(config)
    if model is not None and model.num_classes != prepared.num_classes:
        raise WeightFormatError(
            f"{weights}: the stored head has {model.num_classes} classes, "
            f"the dataset {prepared.num_classes}"
        )
    return config, outdir, prepared, model


def _build_model(prepared: PreparedData, config: RunConfig, variant=None):
    """A freshly initialised model sized for ``prepared``."""
    return build_papernet(
        num_classes=prepared.num_classes,
        input_length=prepared.features.shape[1],
        variant=variant or config.variant,
        seed=config.seed,
    )


def _evaluate_split(model, prepared: PreparedData, indices, config: RunConfig, outdir=None):
    """Score ``model`` on ``indices``; with ``outdir``, write report.json and roc.csv."""
    probs = predict_probs(model, prepared.features[indices])
    report = metrics.evaluate_probs(prepared.labels[indices], probs, baseline_seed=config.seed)
    report.extra = {
        "variant": model.variant,
        "split_hash": prepared.splits.hash(),
        "n_samples": int(len(indices)),
        "parameters": count_parameters(model),
    }
    if outdir is not None:
        metrics.report_to_json(report, outdir / "report.json")
        metrics.roc_to_csv(report, outdir / "roc.csv")
    return report


def _summary(report) -> str:
    auc = report.macro_auc if report.macro_auc is None else round(report.macro_auc, 4)
    return f"accuracy {report.accuracy:.4f} macro-F1 {report.macro_f1:.4f} macro ROC-AUC {auc}"


def _export_attention_csv(model, prepared: PreparedData, indices, outdir: Path) -> None:
    per_sample = export_attention(model, prepared.features[indices])
    data.attention_to_csv(outdir / "attention.csv", per_sample)


def cmd_train(args) -> int:
    config, outdir, prepared, _ = _begin_run(args, prepare_dataset)
    model = _build_model(prepared, config)
    print(
        f"training variant={config.variant} seed={config.seed} "
        f"parameters={count_parameters(model)}"
    )
    best, _, history = train(
        model, prepared.features, prepared.labels, prepared.splits, config, outdir=outdir
    )
    print(
        f"finished after {history.records[-1].epoch} epochs: "
        f"best val macro-F1 {history.best_val_macro_f1():.4f}"
    )
    test_idx = prepared.test_guard.take()
    report = _evaluate_split(best, prepared, test_idx, config, outdir)
    if config.variant != "no_attention":
        _export_attention_csv(best, prepared, test_idx, outdir)
    print(f"test {_summary(report)}")
    return 0


def cmd_evaluate(args) -> int:
    config, outdir, prepared, model = _begin_run(args, prepare_dataset, args.weights)
    indices = {
        "train": prepared.splits.train,
        "val": prepared.splits.val,
        "test": prepared.splits.test,
        "all": np.arange(len(prepared.labels)),
    }[args.split]
    report = _evaluate_split(model, prepared, indices, config, outdir)
    print(f"{args.split}: {_summary(report)}")
    return 0


def cmd_ablate(args) -> int:
    config, outdir, prepared, _ = _begin_run(args, prepare_dataset)
    print(f"ablation over {VARIANTS} with split hash {prepared.splits.hash()}")
    rows = []
    for variant in VARIANTS:
        best, _, history = train(
            _build_model(prepared, config, variant), prepared.features, prepared.labels,
            prepared.splits, config, outdir=outdir / variant,
        )
        report = _evaluate_split(best, prepared, prepared.splits.test, config)
        rows.append(
            {
                "variant": variant,
                "accuracy": report.accuracy,
                "macro_f1": report.macro_f1,
                "macro_roc_auc": report.macro_auc,
            }
        )
        print(
            f"  {variant}: accuracy {report.accuracy:.4f} "
            f"macro-F1 {report.macro_f1:.4f} epochs {len(history.records)}"
        )
    data.write_csv(outdir / "ablation.csv", list(rows[0]), [list(r.values()) for r in rows])
    data.write_json(outdir / "ablation.json", {"split_hash": prepared.splits.hash(), "results": rows})
    return 0


def cmd_bench(args) -> int:
    if not 1 <= args.n_samples <= BENCH_MAX_SAMPLES:
        raise ConfigError(
            f"--n-samples must lie in 1..{BENCH_MAX_SAMPLES}, got {args.n_samples}"
        )
    if not 2 <= args.input_length <= BENCH_MAX_INPUT_LENGTH:
        raise ConfigError(
            f"--input-length must lie in 2..{BENCH_MAX_INPUT_LENGTH}, got {args.input_length}"
        )
    model = data.load_weights(args.weights, input_length=args.input_length)
    rng = np.random.default_rng(0)
    sample = rng.standard_normal((1, model.input_length, 1)).astype(model.dtype)
    for _ in range(20):  # warmup
        predict_probs(model, sample)
    times = np.empty(args.n_samples)
    for i in range(args.n_samples):
        t0 = time.perf_counter()
        predict_probs(model, sample)
        times[i] = (time.perf_counter() - t0) * 1e3
    print(f"parameters: {count_parameters(model)}")
    print(f"non-trainable: {count_non_trainable(model)}")
    print(
        f"single-sample latency over {args.n_samples} runs: "
        f"mean {times.mean():.3f} ms, p50 {np.percentile(times, 50):.3f} ms, "
        f"p95 {np.percentile(times, 95):.3f} ms"
    )
    return 0


def cmd_gradcheck(args) -> int:
    failures = 0
    for name, fn in checks.SUITE.items():
        err = fn()
        ok = err < checks.TOLERANCE
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: max relative error {err:.3e}")
    if failures:
        print(f"{failures} gradient check(s) failed")
        return 1
    print(f"all {len(checks.SUITE)} gradient checks passed")
    return 0


def cmd_export_attention(args) -> int:
    _, outdir, prepared, model = _begin_run(args, prepare_dataset, args.weights)
    indices = prepared.splits.test if args.split == "test" else np.arange(len(prepared.labels))
    _export_attention_csv(model, prepared, indices, outdir)
    print(f"wrote attention weights for {len(indices)} samples to {outdir / 'attention.csv'}")
    return 0


def cmd_preprocess(args) -> int:
    _, outdir, (raw, filtered), _ = _begin_run(args, _load_filtered)
    out_path = outdir / "filtered.csv"
    data.write_csv(
        out_path,
        [f"X{i + 1}" for i in range(filtered.shape[1])] + ["y"],
        (row + [label] for row, label in zip(filtered.tolist(), raw.labels.tolist())),
    )
    print(f"wrote {len(raw.labels)} filtered rows to {out_path}")
    return 0


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per RunConfig field."""
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    for name, kinds in _field_types().items():
        flag = name.replace("_", "-")
        if kinds == (bool,):
            sub.add_argument(f"--no-{flag}", dest=name, action="store_const", const=False)
        else:
            sub.add_argument(f"--{flag}", dest=name, type=kinds[0])


_WEIGHTS = (("--weights",), {"required": True})

# name: (help, handler, takes the RunConfig flags, its own arguments), in
# the order ``papernet --help`` lists them
SUBCOMMANDS = {
    "train": ("train one variant and evaluate on the test split", cmd_train, True, ()),
    "evaluate": ("evaluate saved weights on a split", cmd_evaluate, True, (
        _WEIGHTS,
        (("--split",), {"choices": ("train", "val", "test", "all"), "default": "test"}),
    )),
    "ablate": ("train all four variants under identical splits", cmd_ablate, True, ()),
    "bench": ("single-sample inference latency", cmd_bench, False, (
        _WEIGHTS,
        (("--n-samples",), {"dest": "n_samples", "type": int, "default": 200}),
        (("--input-length",), {"dest": "input_length", "type": int,
                               "default": dsp.NUM_CHANNELS}),
    )),
    "gradcheck": ("finite-difference checks for every layer", cmd_gradcheck, False, ()),
    "export-attention": ("per-sample attention weights to CSV", cmd_export_attention, True, (
        _WEIGHTS,
        (("--split",), {"choices": ("test", "all"), "default": "test"}),
    )),
    "preprocess": ("band-pass the dataset and write filtered rows", cmd_preprocess, True, ()),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: every subcommand with all of its flags."""
    parser = argparse.ArgumentParser(
        prog="papernet",
        description="EEG classification pipeline: DSP preprocessing, training, "
        "evaluation, ablations, and verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, configurable, arguments) in SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if configurable:
            _add_config_flags(sub)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) with :func:`build_parser`,
    run the chosen subcommand and return its exit code. A usage error exits
    2 from argparse; a papernet error prints one line and returns 1, 2 or 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FilterDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, WeightFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PapernetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
