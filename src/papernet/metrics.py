"""Evaluation statistics: confusion matrix, per-class and macro P/R/F1,
one-vs-rest ROC/AUC, and McNemar's paired significance test."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import write_csv, write_json
from .errors import DataError, ShapeError

CHI2_CRITICAL_05 = 3.841459  # chi-square, 1 dof, alpha = 0.05


def confusion(y_true, y_pred, num_classes: int) -> np.ndarray:
    """counts[i, j] = how often true class i was predicted as class j."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ShapeError(
            f"label lengths differ: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size and (
        y_true.min() < 0
        or y_pred.min() < 0
        or y_true.max() >= num_classes
        or y_pred.max() >= num_classes
    ):
        raise DataError(f"labels outside 0..{num_classes - 1}")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


@dataclass
class ClassReport:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float


@dataclass
class PrfMetrics:
    accuracy: float
    per_class: list[ClassReport]
    macro_precision: float
    macro_recall: float
    macro_f1: float


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def prf_metrics(cm: np.ndarray) -> PrfMetrics:
    """One-vs-rest precision/recall/F1 per class plus unweighted macro means.

    Zero denominators yield 0.
    """
    cm = np.asarray(cm, dtype=np.int64)
    total = int(cm.sum())
    per_class = []
    for k in range(cm.shape[0]):
        tp = int(cm[k, k])
        fp = int(cm[:, k].sum()) - tp
        fn = int(cm[k, :].sum()) - tp
        tn = total - tp - fp - fn
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        per_class.append(ClassReport(tp, fp, fn, tn, precision, recall, f1))
    return PrfMetrics(
        accuracy=_safe_div(float(np.trace(cm)), total),
        per_class=per_class,
        macro_precision=float(np.mean([c.precision for c in per_class])),
        macro_recall=float(np.mean([c.recall for c in per_class])),
        macro_f1=float(np.mean([c.f1 for c in per_class])),
    )


@dataclass
class RocCurve:
    class_id: int
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float | None


def _one_vs_rest_curve(scores: np.ndarray, positive: np.ndarray, class_id: int) -> RocCurve:
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    if n_pos == 0 or n_neg == 0:
        warnings.warn(
            f"class {class_id}: AUC undefined ({n_pos} positives, {n_neg} negatives)",
            stacklevel=3,
        )
        return RocCurve(class_id, np.array([np.inf]), np.zeros(1), np.zeros(1), None)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    tps = np.cumsum(positive[order])
    fps = np.cumsum(~positive[order])
    # keep the last index of every tie group: one point per distinct score
    distinct = np.r_[np.flatnonzero(np.diff(sorted_scores)), len(sorted_scores) - 1]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    thresholds = np.r_[np.inf, sorted_scores[distinct]]
    return RocCurve(class_id, thresholds, fpr, tpr, float(np.trapezoid(tpr, fpr)))


def roc_auc(scores, y_true) -> tuple[list[RocCurve], float | None]:
    """Per-class one-vs-rest ROC curves with trapezoidal AUCs and their
    unweighted macro mean (undefined classes are excluded with a warning).
    ``scores`` is [n, K]: one column, and one curve, per class."""
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != len(y_true):
        raise ShapeError(f"scores shape {scores.shape} does not match {len(y_true)} labels")
    curves = [
        _one_vs_rest_curve(scores[:, cls], y_true == cls, cls) for cls in range(scores.shape[1])
    ]
    defined = [c.auc for c in curves if c.auc is not None]
    macro = float(np.mean(defined)) if defined else None
    return curves, macro


@dataclass
class McNemarResult:
    chi2: float
    significant: bool
    b: int
    c: int


def mcnemar(correct_a, correct_b) -> McNemarResult:
    """Continuity-corrected McNemar statistic on paired correctness flags,
    significant at alpha = 0.05."""
    a = np.asarray(correct_a, dtype=bool)
    b_flags = np.asarray(correct_b, dtype=bool)
    if a.shape != b_flags.shape:
        raise ShapeError(f"correctness lengths differ: {a.shape} vs {b_flags.shape}")
    b = int(np.sum(a & ~b_flags))
    c = int(np.sum(~a & b_flags))
    if b + c == 0:
        return McNemarResult(chi2=0.0, significant=False, b=b, c=c)
    chi2 = (abs(b - c) - 1.0) ** 2 / (b + c)
    return McNemarResult(chi2=chi2, significant=chi2 > CHI2_CRITICAL_05, b=b, c=c)


def random_baseline(labels, num_classes: int, seed: int = 0) -> np.ndarray:
    """Uniform independent class draws from a seeded generator."""
    n = len(np.asarray(labels))
    rng = np.random.default_rng([seed, num_classes])
    return rng.integers(0, num_classes, size=n, dtype=np.int64)


@dataclass
class EvalReport(PrfMetrics):
    """Everything reported for one classifier on one split: the P/R/F1
    metrics of its confusion matrix, ROC/AUC and McNemar's test."""

    confusion: np.ndarray
    roc: list[RocCurve]
    macro_auc: float | None
    mcnemar_vs_random: McNemarResult
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            **self.extra,
            "num_classes": len(self.confusion),
            "confusion_matrix": self.confusion.tolist(),
            "accuracy": self.accuracy,
            "per_class": [
                {
                    "class": k,
                    "tp": c.tp,
                    "fp": c.fp,
                    "fn": c.fn,
                    "tn": c.tn,
                    "precision": c.precision,
                    "recall": c.recall,
                    "f1": c.f1,
                    "roc_auc": self.roc[k].auc,
                }
                for k, c in enumerate(self.per_class)
            ],
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "macro_roc_auc": self.macro_auc,
            "mcnemar_vs_random": {
                "chi2": self.mcnemar_vs_random.chi2,
                "significant_at_0.05": self.mcnemar_vs_random.significant,
                "b": self.mcnemar_vs_random.b,
                "c": self.mcnemar_vs_random.c,
            },
        }


def evaluate_probs(y_true, probs, *, baseline_seed: int = 0) -> EvalReport:
    """Full report for [n, K] predicted probabilities, K being the class
    count: argmax metrics, ROC/AUC, and McNemar against a uniform random
    baseline seeded with ``baseline_seed``."""
    probs = np.asarray(probs, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    k = probs.shape[1]
    y_pred = probs.argmax(axis=1)
    cm = confusion(y_true, y_pred, k)
    prf = prf_metrics(cm)
    curves, macro_auc = roc_auc(probs, y_true)
    baseline = random_baseline(y_true, k, seed=baseline_seed)
    mc = mcnemar(y_pred == y_true, baseline == y_true)
    return EvalReport(
        **vars(prf),
        confusion=cm,
        roc=curves,
        macro_auc=macro_auc,
        mcnemar_vs_random=mc,
    )


def report_to_json(report: EvalReport, path) -> None:
    """report.json. A named function because perfbench times it by name
    (``metrics.report_to_json.ms``)."""
    write_json(path, report.to_dict())


def roc_to_csv(report: EvalReport, path) -> None:
    """Plot-ready ROC points: class, threshold, fpr, tpr."""
    curves = [curve for curve in report.roc if curve.auc is not None]
    class_ids = [curve.class_id for curve in curves for _ in curve.fpr]
    columns = (
        _repr_each([getattr(curve, name) for curve in curves])
        for name in ("thresholds", "fpr", "tpr")
    )
    write_csv(path, ["class", "threshold", "fpr", "tpr"], zip(class_ids, *columns))


def _repr_each(arrays: list[np.ndarray]) -> list[str]:
    """``repr(float(v))`` for each value of ``arrays`` in turn, formatting
    each distinct bit pattern once: fpr and tpr repeat most of their
    values, within a curve and across curves. Bits, not values, are
    compared, so -0.0 keeps its sign."""
    bits = np.concatenate([np.empty(0), *arrays]).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = [repr(v) for v in distinct.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]
