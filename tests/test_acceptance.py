"""Acceptance suite: one test per criterion, one pass/fail line each.

Hard criteria must always pass. The two soft criteria are the dataset
reproduction (skipped unless the BEED CSV is provided via the BEED_CSV
environment variable) and single-sample latency.
"""

import os
import time

import numpy as np
import pytest

from papernet import checks
from papernet.data import load_csv, save_weights, stratified_split
from papernet.dsp import (
    apply_standardizer,
    butter_bandpass_design,
    filtfilt,
    fit_standardizer,
    frequency_response,
    preprocess_recording,
)
from papernet.metrics import confusion, evaluate_probs, prf_metrics, roc_auc
from papernet.model import build_papernet, count_parameters, forward
from papernet.training import TrainConfig, predict_probs, train

from conftest import make_synthetic


def announce(criterion, message):
    print(f"ACCEPTANCE PASS criterion {criterion}: {message}")


def standardized_synthetic(n, seed, split_seed=0):
    features, labels = make_synthetic(n=n, seed=seed)
    splits = stratified_split(labels, seed=split_seed)
    standardizer = fit_standardizer(features, splits.train)
    return apply_standardizer(standardizer, features), labels, splits


class TestCriterion1Gradients:
    def test_every_layer_and_model_under_1e5(self):
        t0 = time.perf_counter()
        results = checks.run_all()
        elapsed = time.perf_counter() - t0
        failures = [(n, e) for n, e in results if e >= 1e-5]
        assert not failures, f"gradient checks failed: {failures}"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
        worst = max(e for _, e in results)
        announce(1, f"{len(results)} gradient checks < 1e-5 (worst {worst:.2e}, {elapsed:.1f}s)")


class TestCriterion2Filter:
    @pytest.mark.parametrize("fs", (128.0, 256.0, 512.0))
    def test_response_properties(self, fs):
        cascade = butter_bandpass_design(4, 0.5, 45.0, fs)
        half_power = 1.0 / np.sqrt(2.0)
        assert frequency_response(cascade, 0.5) == pytest.approx(half_power, rel=0.02)
        assert frequency_response(cascade, 45.0) == pytest.approx(half_power, rel=0.02)
        assert frequency_response(cascade, 0.0) < 1e-6
        centre = np.sqrt(0.5 * 45.0)
        assert frequency_response(cascade, centre) == pytest.approx(1.0, rel=0.01)
        assert np.all(np.abs(cascade.poles()) < 1.0)

    def test_zero_phase(self):
        fs = 256.0
        cascade = butter_bandpass_design(4, 0.5, 45.0, fs)
        for f in (5.0, 10.0, 20.0):
            t = np.arange(4096) / fs
            x = np.sin(2 * np.pi * f * t)
            y = filtfilt(cascade, x)
            lo, hi = 400, 3696
            lags = range(-20, 21)
            scores = [np.dot(y[lo:hi], x[lo + lag : hi + lag]) for lag in lags]
            assert list(lags)[int(np.argmax(scores))] == 0
        announce(2, "corner/centre/DC gains, stability (fs 128/256/512), zero phase")


class TestCriterion3MetricOracles:
    def test_thousand_random_instances(self):
        rng = np.random.default_rng(2024)
        checked_auc = 0
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(2, 6))
            y_true = rng.integers(0, k, size=n)
            y_pred = rng.integers(0, k, size=n)

            cm = confusion(y_true, y_pred, k)
            brute = np.zeros((k, k), dtype=np.int64)
            for t_lbl, p_lbl in zip(y_true, y_pred):
                brute[t_lbl][p_lbl] += 1
            np.testing.assert_array_equal(cm, brute)

            m = prf_metrics(cm)
            for cls in range(k):
                tp = int(np.sum((y_true == cls) & (y_pred == cls)))
                fp = int(np.sum((y_true != cls) & (y_pred == cls)))
                fn = int(np.sum((y_true == cls) & (y_pred != cls)))
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1_pr = 2 * p * r / (p + r) if p + r else 0.0
                f1_counts = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
                assert abs(f1_pr - f1_counts) <= 1e-12
                assert m.per_class[cls].precision == p
                assert m.per_class[cls].recall == r
                assert abs(m.per_class[cls].f1 - f1_pr) <= 1e-12

            scores = np.round(rng.random((n, k)), 1) + 1e-3
            scores /= scores.sum(axis=1, keepdims=True)
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                curves, _ = roc_auc(scores, y_true, k)
            for cls in range(k):
                positive = y_true == cls
                if positive.all() or not positive.any():
                    continue
                pos, neg = scores[positive, cls], scores[~positive, cls]
                wins = (pos[:, None] > neg[None, :]).sum()
                ties = (pos[:, None] == neg[None, :]).sum()
                rank_oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
                assert abs(curves[cls].auc - rank_oracle) <= 1e-9
                checked_auc += 1
        announce(3, f"1000 instances exact; {checked_auc} AUCs within 1e-9 of rank oracle")


class TestCriterion4Capacity:
    def test_overfits_64_samples(self):
        t0 = time.perf_counter()
        features, labels = make_synthetic(n=64, seed=42)
        features = (features - features.mean(axis=0)) / features.std(axis=0)
        # validation points at the same 64 rows, so val_acc doubles as an
        # infer-mode read-out of the memorized training set
        splits = stratified_split(labels, seed=0)
        idx = np.arange(64)
        splits.train = idx
        splits.val = idx
        splits.test = idx
        config = TrainConfig(
            max_epochs=200, early_stop_patience=200, batch_size=64, seed=0
        )
        model = build_papernet(seed=0)
        _, _, history = train(model, features, labels, splits, config)
        top_train = max(r.train_acc for r in history.records)
        top_infer = max(r.val_acc for r in history.records)
        elapsed = time.perf_counter() - t0
        assert top_train == 1.0, f"never reached 100% train accuracy (best {top_train})"
        assert elapsed < 300.0, f"overfit run took {elapsed:.0f}s"
        first = next(r.epoch for r in history.records if r.train_acc == 1.0)
        announce(
            4,
            f"100% train accuracy at epoch {first}; infer-mode accuracy on the "
            f"same rows peaked at {top_infer:.3f} ({elapsed:.0f}s)",
        )


class TestCriterion5SyntheticLearning:
    def test_val_macro_f1_095_within_30_epochs(self):
        features, labels, splits = standardized_synthetic(n=2000, seed=7)
        config = TrainConfig(max_epochs=30, seed=1)
        model = build_papernet(seed=1)
        _, _, history = train(model, features, labels, splits, config)
        best = history.best_val_macro_f1()
        assert best >= 0.95, f"val macro-F1 {best:.4f} < 0.95"
        announce(
            5,
            f"val macro-F1 {best:.4f} within {len(history.records)} epochs",
        )


class TestCriterion6Determinism:
    def test_two_runs_bitwise(self, tmp_path):
        features, labels, splits = standardized_synthetic(n=240, seed=3)
        config = TrainConfig(max_epochs=3, batch_size=32, seed=5)
        dirs = []
        for name in ("one", "two"):
            outdir = tmp_path / name
            train(build_papernet(seed=5), features, labels, splits, config, outdir=outdir)
            dirs.append(outdir)
        for fname in ("weights_best", "weights_final"):
            assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
        # the wall-time column cannot reproduce; all numeric columns must
        rows = []
        for d in dirs:
            lines = (d / "history.csv").read_text().strip().splitlines()
            rows.append([",".join(line.split(",")[:-1]) for line in lines])
        assert rows[0] == rows[1]
        announce(6, "weight files byte-identical; history identical up to wall-time")


class TestCriterion7Structure:
    def test_shape_chain_and_parameter_accounting(self):
        model = build_papernet(num_classes=4, input_length=16)
        trace = []
        forward(model, np.zeros((2, 16, 1), dtype=np.float32), trace=trace)
        assert trace == [
            ("conv_block1", (16, 32)),
            ("conv_block2", (16, 64)),
            ("maxpool", (8, 64)),
            ("conv_block3", (8, 128)),
            ("attention", (8, 128)),
            ("bilstm", (8, 128)),
            ("pool", (128,)),
            ("dense1", (128,)),
            ("output", (4,)),
        ]
        exact = count_parameters(model)
        assert exact == 159_844
        for variant, delta in (
            ("no_attention", 8_352), ("no_lstm", 98_816), ("no_residual", 0)
        ):
            assert exact - count_parameters(build_papernet(variant=variant)) == delta
        quoted = 600_000
        assert exact != quoted  # the ~0.6M figure is not what the layers sum to
        announce(
            7,
            f"shape chain exact; {exact} trainable parameters "
            f"(commonly quoted ~0.6M figure is {quoted - exact} higher; "
            "documented, not forced)",
        )


BEED_PATH = os.environ.get("BEED_CSV", "")


class TestCriterion8DatasetReproduction:
    @pytest.mark.skipif(
        not BEED_PATH or not os.path.exists(BEED_PATH),
        reason="soft criterion: set BEED_CSV to the dataset file to enable",
    )
    def test_reproduction_over_three_seeds(self, tmp_path):
        raw = load_csv(BEED_PATH)
        assert len(raw.labels) == 8000
        filtered = preprocess_recording(raw.features, 256.0)
        results = {}
        t0 = time.perf_counter()
        for seed in (0, 1, 2):
            splits = stratified_split(raw.labels, seed=seed)
            standardizer = fit_standardizer(filtered, splits.train)
            features = apply_standardizer(standardizer, filtered)
            per_variant = {}
            for variant in ("full", "no_attention", "no_lstm", "no_residual"):
                config = TrainConfig(seed=seed)
                model = build_papernet(
                    num_classes=raw.num_classes, variant=variant, seed=seed
                )
                best, _, _ = train(model, features, raw.labels, splits, config)
                probs = predict_probs(best, features[splits.test])
                report = evaluate_probs(
                    raw.labels[splits.test], probs, raw.num_classes
                )
                per_variant[variant] = report
            results[seed] = per_variant
        elapsed = time.perf_counter() - t0

        accs = [results[s]["full"].accuracy for s in results]
        f1s = [results[s]["full"].macro_f1 for s in results]
        aucs = [results[s]["full"].macro_auc for s in results]
        assert np.median(accs) >= 0.93, f"median accuracy {np.median(accs):.4f}"
        assert np.median(f1s) >= 0.93, f"median macro-F1 {np.median(f1s):.4f}"
        assert np.median(aucs) >= 0.98, f"median macro AUC {np.median(aucs):.4f}"
        for variant in ("no_attention", "no_lstm", "no_residual"):
            wins = sum(
                results[s]["full"].macro_f1 >= results[s][variant].macro_f1
                for s in results
            )
            assert wins >= 2, f"full beat {variant} in only {wins}/3 seeds"
        announce(
            8,
            f"median acc {np.median(accs):.4f}, macro-F1 {np.median(f1s):.4f}, "
            f"AUC {np.median(aucs):.4f} over 3 seeds ({elapsed / 60:.1f} min)",
        )


class TestCriterion9Latency:
    def test_single_sample_p50_under_5ms(self, tmp_path):
        model = build_papernet(seed=0)
        save_weights(model, tmp_path / "w")  # exercise the bench-style path
        sample = np.random.default_rng(0).standard_normal((1, 16, 1)).astype(np.float32)
        for _ in range(20):
            forward(model, sample)
        times = []
        for _ in range(200):
            t0 = time.perf_counter()
            forward(model, sample)
            times.append((time.perf_counter() - t0) * 1e3)
        p50 = float(np.percentile(times, 50))
        assert p50 < 5.0, f"p50 latency {p50:.2f} ms"
        announce(9, f"single-sample p50 latency {p50:.2f} ms")
