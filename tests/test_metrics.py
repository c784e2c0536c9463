import csv
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from papernet.errors import DataError, ShapeError
from papernet.metrics import (
    RocCurve,
    confusion,
    evaluate_probs,
    mcnemar,
    prf_metrics,
    random_baseline,
    roc_auc,
    roc_to_csv,
)


def brute_confusion(y_true, y_pred, k):
    cm = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        cm[t][p] += 1
    return cm


def pairwise_auc(scores, positive):
    """Independent rank oracle: count concordant pairs, half credit on ties."""
    pos = scores[positive]
    neg = scores[~positive]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_is_diagonal(self):
        y = np.array([0, 1, 2, 2, 1, 0])
        np.testing.assert_array_equal(confusion(y, y, 3), np.diag([2, 2, 2]))

    def test_hand_tally(self):
        cm = confusion([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0], 3)
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 2, 0], [1, 0, 1]])

    def test_empty_input(self):
        np.testing.assert_array_equal(confusion([], [], 3), np.zeros((3, 3)))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([0, 1], [0], 2)

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            confusion([0, 3], [0, 1], 3)


class TestPrfMetrics:
    def test_hand_tallied_example(self):
        cm = confusion([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0], 3)
        m = prf_metrics(cm)
        np.testing.assert_allclose(
            [c.f1 for c in m.per_class], [0.5, 0.8, 2.0 / 3.0], atol=1e-12
        )
        assert m.macro_f1 == pytest.approx(0.65556, abs=1e-5)
        assert m.accuracy == pytest.approx(4.0 / 6.0)

    def test_diagonal_is_perfect(self):
        m = prf_metrics(np.diag([5, 3, 2]))
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0

    def test_absent_class_zero_convention(self):
        # class 2 never appears in truth or prediction
        cm = confusion([0, 1], [0, 1], 3)
        m = prf_metrics(cm)
        c = m.per_class[2]
        assert (c.precision, c.recall, c.f1) == (0.0, 0.0, 0.0)

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cm = rng.integers(0, 10, size=(4, 4))
            m = prf_metrics(cm)
            assert m.accuracy == pytest.approx(np.trace(cm) / cm.sum())

    def test_brute_force_oracle_small_instances(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = rng.integers(1, 51)
            k = rng.integers(2, 6)
            y_true = rng.integers(0, k, size=n)
            y_pred = rng.integers(0, k, size=n)
            cm = confusion(y_true, y_pred, k)
            np.testing.assert_array_equal(cm, brute_confusion(y_true, y_pred, k))
            m = prf_metrics(cm)
            # independent per-class tally
            for cls in range(k):
                tp = int(np.sum((y_true == cls) & (y_pred == cls)))
                fp = int(np.sum((y_true != cls) & (y_pred == cls)))
                fn = int(np.sum((y_true == cls) & (y_pred != cls)))
                expected_p = tp / (tp + fp) if tp + fp else 0.0
                expected_r = tp / (tp + fn) if tp + fn else 0.0
                expected_f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
                assert m.per_class[cls].precision == expected_p
                assert m.per_class[cls].recall == expected_r
                assert abs(m.per_class[cls].f1 - expected_f1) <= 1e-12


class TestRocAuc:
    def test_perfectly_ordered(self):
        y = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        curves, macro = roc_auc(scores, y)
        assert curves[0].auc == 1.0 and curves[1].auc == 1.0 and macro == 1.0

    def test_concordant_pair_counting(self):
        # concordant pairs: (0.35 vs 0.1 yes), (0.35 vs 0.4 no),
        # (0.8 vs 0.1 yes), (0.8 vs 0.4 yes) -> 3/4
        s1 = np.array([0.1, 0.4, 0.35, 0.8])
        scores = np.stack([1 - s1, s1], axis=1)
        curves, _ = roc_auc(scores, np.array([0, 0, 1, 1]))
        assert curves[1].auc == pytest.approx(0.75)

    def test_all_tied_scores_give_half(self):
        scores = np.full((10, 2), 0.5)
        curves, macro = roc_auc(scores, np.array([0, 1] * 5))
        assert curves[0].auc == pytest.approx(0.5)
        assert curves[1].auc == pytest.approx(0.5)
        assert macro == pytest.approx(0.5)

    def test_missing_class_excluded_with_warning(self):
        y = np.array([0, 0, 1, 1])
        scores = np.full((4, 3), 1 / 3)
        with pytest.warns(UserWarning, match="class 2"):
            curves, macro = roc_auc(scores, y, 3)
        assert curves[2].auc is None
        assert macro == pytest.approx(0.5)

    def test_curve_monotone_with_endpoints(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = rng.integers(4, 60)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                continue
            p1 = rng.random(n)
            curves, _ = roc_auc(np.stack([1 - p1, p1], axis=1), y)
            for c in curves:
                assert np.all(np.diff(c.fpr) >= 0)
                assert np.all(np.diff(c.tpr) >= 0)
                assert (c.fpr[0], c.tpr[0]) == (0.0, 0.0)
                assert (c.fpr[-1], c.tpr[-1]) == (1.0, 1.0)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(4, 50)
            k = rng.integers(2, 6)
            y = rng.integers(0, k, size=n)
            raw = rng.random((n, k))
            # quantized scores force plenty of ties
            raw = np.round(raw, 1)
            scores = raw / raw.sum(axis=1, keepdims=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # some classes may be absent
                curves, _ = roc_auc(scores, y, k)
            for cls in range(k):
                positive = y == cls
                if positive.all() or not positive.any():
                    continue
                expected = pairwise_auc(scores[:, cls], positive)
                assert curves[cls].auc == pytest.approx(expected, abs=1e-9)


# (positive?, score) rows with both classes present; scores from a small
# set tie often, free floats almost never
_SCORED_ROWS = st.lists(
    st.tuples(st.booleans(), st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(-1e6, 1e6)),
    min_size=2, max_size=60,
).filter(lambda rows: 0 < sum(pos for pos, _ in rows) < len(rows))


@settings(max_examples=300, deadline=None)
@given(rows=_SCORED_ROWS)
def test_auc_matches_pairwise_oracle_on_tied_and_untied_scores(rows):
    positive = np.array([pos for pos, _ in rows])
    scores = np.array([score for _, score in rows])
    curves, _ = roc_auc(np.stack([-scores, scores], axis=1), positive.astype(np.int64))
    assert curves[1].auc == pytest.approx(pairwise_auc(scores, positive), abs=1e-9)


# K x K counts; small counts and a sparse mask make empty rows (a class
# never true), empty columns (never predicted) and all-zero matrices common
_CONFUSIONS = st.integers(1, 6).flatmap(
    lambda k: st.lists(
        st.integers(0, 3) | st.just(0) | st.integers(0, 10**6), min_size=k * k, max_size=k * k
    ).map(lambda cells: np.array(cells, dtype=np.int64).reshape(k, k))
)


@settings(max_examples=300, deadline=None)
@given(cm=_CONFUSIONS)
def test_f1_matches_count_form(cm):
    """The reported 2PR/(P+R) equals 2TP/(2TP+FP+FN), 0 where undefined."""
    for k, c in enumerate(prf_metrics(cm).per_class):
        tp = cm[k, k]
        fp = cm[:, k].sum() - tp
        fn = cm[k, :].sum() - tp
        counts_form = 2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
        assert c.f1 == pytest.approx(counts_form, rel=0, abs=1e-12)


class TestMcNemar:
    def test_fifteen_five_disagreement(self):
        a = np.zeros(40, dtype=bool)
        b = np.zeros(40, dtype=bool)
        a[:15] = True          # b = 15 (a right, b wrong)
        b[15:20] = True        # c = 5  (a wrong, b right)
        result = mcnemar(a, b)
        assert result.chi2 == pytest.approx(81.0 / 20.0)
        assert result.significant

    def test_symmetric_disagreement_not_significant(self):
        for n in (1, 3, 10):
            a = np.array([True] * n + [False] * n + [True] * 4)
            b = np.array([False] * n + [True] * n + [True] * 4)
            result = mcnemar(a, b)
            assert result.chi2 == pytest.approx(1.0 / (2 * n))
            assert not result.significant

    def test_no_disagreement(self):
        flags = np.array([True, False, True])
        result = mcnemar(flags, flags)
        assert result.chi2 == 0.0
        assert not result.significant

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mcnemar([True], [True, False])


class TestRandomBaseline:
    def test_deterministic(self):
        labels = np.zeros(100)
        np.testing.assert_array_equal(
            random_baseline(labels, 4, seed=9), random_baseline(labels, 4, seed=9)
        )

    def test_uniform_frequencies(self):
        preds = random_baseline(np.zeros(100_000), 4, seed=10)
        freqs = np.bincount(preds, minlength=4) / 100_000
        np.testing.assert_allclose(freqs, 0.25, atol=0.01)

    def test_accuracy_near_one_over_k(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 4, size=50_000)
        preds = random_baseline(labels, 4, seed=12)
        assert abs(np.mean(preds == labels) - 0.25) < 0.01


class TestEvaluateProbs:
    def _case(self, seed=13, n=60, k=4):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, k, size=n)
        logits = rng.normal(size=(n, k)) + 2.0 * np.eye(k)[y]
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        return y, probs

    def test_report_fields(self):
        y, probs = self._case()
        report = evaluate_probs(y, probs, 4)
        d = report.to_dict()
        for key in (
            "confusion_matrix", "accuracy", "per_class", "macro_precision",
            "macro_recall", "macro_f1", "macro_roc_auc", "mcnemar_vs_random",
        ):
            assert key in d
        assert report.confusion.sum() == 60
        assert 0.0 <= report.accuracy <= 1.0

    def test_sample_order_invariance(self):
        y, probs = self._case(seed=14)
        report_a = evaluate_probs(y, probs, 4)
        perm = np.random.default_rng(15).permutation(len(y))
        report_b = evaluate_probs(y[perm], probs[perm], 4)
        np.testing.assert_array_equal(report_a.confusion, report_b.confusion)
        assert report_a.macro_f1 == report_b.macro_f1
        assert report_a.macro_auc == pytest.approx(report_b.macro_auc, abs=1e-12)


def _roc_csv_per_value(report, path):
    """roc.csv with every value formatted on its own, as one generator."""
    rows = (
        [curve.class_id, repr(float(thr)), repr(float(fpr)), repr(float(tpr))]
        for curve in report.roc
        if curve.auc is not None
        for thr, fpr, tpr in zip(curve.thresholds, curve.fpr, curve.tpr)
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "threshold", "fpr", "tpr"])
        writer.writerows(rows)


@pytest.mark.parametrize("seed", range(6))
def test_roc_csv_bytes_match_per_value_formatting(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 400)), int(rng.integers(2, 6))
    y = rng.integers(0, k, size=n)
    # few distinct scores, so thresholds tie and fpr and tpr repeat
    probs = rng.integers(0, 6, size=(n, k)) / 5 + rng.random((n, k)) * (seed % 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a class absent from y has no AUC
        report = evaluate_probs(y, probs, k)
    roc_to_csv(report, tmp_path / "roc.csv")
    _roc_csv_per_value(report, tmp_path / "reference.csv")
    assert (tmp_path / "roc.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_roc_csv_keeps_signed_zero_and_skips_undefined_curves(tmp_path):
    values = np.array([np.inf, 0.0, -0.0, 0.5, -0.0, 0.0])
    curves = [RocCurve(0, values, values[::-1].copy(), values, 0.5),
              RocCurve(1, np.array([np.inf]), np.zeros(1), np.zeros(1), None)]
    report = SimpleNamespace(roc=curves)
    roc_to_csv(report, tmp_path / "roc.csv")
    _roc_csv_per_value(report, tmp_path / "reference.csv")
    assert (tmp_path / "roc.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert "-0.0" in (tmp_path / "roc.csv").read_text()
