"""End-to-end training on a synthetic 4-class problem: stratified split,
train-statistics standardization, the full optimization protocol, and the
evaluation report.

Run:  python3 demos/04_train_synthetic.py
"""

import numpy as np

from papernet.data import stratified_split
from papernet.dsp import apply_standardizer, fit_standardizer
from papernet.metrics import evaluate_probs
from papernet.model import build_papernet
from papernet.training import TrainConfig, predict_probs, train

rng = np.random.default_rng(7)
N, K = 2000, 4
means = rng.normal(0.0, 1.0, size=(K, 16))
labels = rng.permutation(np.arange(N) % K)
features = means[labels] + rng.normal(0.0, 0.5, size=(N, 16))

splits = stratified_split(labels, seed=0)
print(f"split sizes: train {len(splits.train)}, val {len(splits.val)}, "
      f"test {len(splits.test)} (hash {splits.hash()})")

standardizer = fit_standardizer(features, splits.train)
features = apply_standardizer(standardizer, features)

config = TrainConfig(max_epochs=15, seed=1)
model = build_papernet(num_classes=K, seed=1)
best, final, history = train(model, features, labels, splits, config)

print("\nepoch  train_loss  train_acc  val_acc  val_f1      lr")
for r in history.records:
    print(f"{r.epoch:5d}  {r.train_loss:10.4f}  {r.train_acc:9.3f}  "
          f"{r.val_acc:7.3f}  {r.val_macro_f1:6.3f}  {r.lr:.1e}")

probs = predict_probs(best, features[splits.test])
report = evaluate_probs(labels[splits.test], probs)
print(f"\ntest accuracy {report.accuracy:.4f}, macro-F1 {report.macro_f1:.4f}, "
      f"macro ROC-AUC {report.macro_auc:.4f}")
print("confusion matrix:")
print(report.confusion)
mc = report.mcnemar_vs_random
print(f"McNemar vs random baseline: chi2 {mc.chi2:.1f} "
      f"(significant: {mc.significant})")
