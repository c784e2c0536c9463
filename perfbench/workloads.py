"""The three closed-loop workloads, one caller each.

Each workload has ``setup()`` (the one-time preparation a user pays before
the first operation; the harness times it several times for setup_s) and
``run(seconds, tally, tracer)`` (the timed phase). Every operation's output
is checked; a failed check or an exception counts as a failed operation.
"""

from __future__ import annotations

import io
import json
import math
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from papernet import cli, data, training
from papernet.model import build_papernet

CHANCE_F1 = 0.25
# one epoch on the blobs reaches a val macro-F1 near 0.55-0.6; an untrained
# or broken model stays near chance
F1_MARGIN = 0.10
EPOCHS_PER_CALL = 1
PROB_TOL = 1e-5
BATCH_ROWS = 2048
WARMUP_CALLS = 20
SWITCH_S = 1.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, why: str = "check failed") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(why)


@dataclass
class Phase:
    """Seconds of each latency op, and (rows, seconds) of each throughput op,
    both in the order they ran."""

    op_s: list[float] = field(default_factory=list)
    batches: list[tuple[int, float]] = field(default_factory=list)


def _ops(seconds: float, tally: Tally):
    """Yield until ``seconds`` have passed and at least one op was tallied.
    No op starts that would, lasting as long as the one before, end more
    than half its length past the deadline."""
    deadline = time.perf_counter() + seconds
    start = tally.attempted
    last = 0.0
    while True:
        now = time.perf_counter()
        if tally.attempted > start and now + last / 2 >= deadline:
            return
        yield
        last = time.perf_counter() - now


def _op(tracer, kind):
    return tracer.op(kind) if tracer is not None else nullcontext()


def _error() -> str:
    text = traceback.format_exc()
    print(text, file=sys.stderr)
    return text.strip().splitlines()[-1]


def probs_ok(probs, reference) -> bool:
    """Finite rows that sum to 1 and match the reference within 1e-5."""
    probs = np.asarray(probs)
    return bool(
        probs.shape == reference.shape
        and np.all(np.isfinite(probs))
        and np.all(np.abs(probs.sum(axis=1) - 1.0) <= PROB_TOL)
        and np.all(np.abs(probs - reference) <= PROB_TOL)
    )


class Train:
    """training.train on the full variant, default config, one epoch per
    call, each call from the same initial weights."""

    name = "train"
    primary_op = "train_step"
    names = {"samples_per_s": "train_samples_per_s", "p50_ms": "train_call_p50_ms"}

    def __init__(self, inputs, workdir, seed: int):
        self.config = cli.RunConfig(data=str(inputs.csv_path), seed=seed)
        self.outdir = workdir / "train_out"
        self.seed = seed
        self.first_history = None

    def setup(self) -> None:
        self.prepared = cli.prepare_dataset(self.config)
        self.initial = build_papernet(
            num_classes=self.prepared.num_classes,
            input_length=self.prepared.features.shape[1],
            seed=self.seed,
        )

    def run(self, seconds: float, tally: Tally, tracer=None) -> Phase:
        p = self.prepared
        config = training.TrainConfig(max_epochs=EPOCHS_PER_CALL, seed=self.seed)
        rows = len(p.splits.train) * EPOCHS_PER_CALL
        phase = Phase()
        for _ in _ops(seconds, tally):
            model = self.initial.copy()
            t0 = time.perf_counter()
            try:
                best, _, history = training.train(
                    model, p.features, p.labels, p.splits, config, outdir=self.outdir
                )
            except Exception:
                tally.record(False, _error())
                continue
            dt = time.perf_counter() - t0
            phase.op_s.append(dt)
            phase.batches.append((rows, dt))
            tally.record(*self.check(best, history))
        return phase

    def check(self, best, history) -> tuple[bool, str]:
        values = [(r.train_loss, r.val_macro_f1) for r in history.records]
        if not all(math.isfinite(loss) for loss, _ in values):
            return False, "non-finite training loss"
        if history.best_val_macro_f1() < CHANCE_F1 + F1_MARGIN:
            return False, f"best val macro-F1 {history.best_val_macro_f1():.3f} near chance"
        if self.first_history is None:
            self.first_history = values
        elif values != self.first_history:
            return False, "history differs from the first call with the same seed"
        loaded = data.load_weights(self.outdir / "weights_best", self.initial.copy())
        for name, param in best.params.items():
            if loaded.params[name].data.tobytes() != param.data.tobytes():
                return False, f"weights_best tensor {name} did not load back bit-for-bit"
        return True, ""


class Serve:
    """B=1 predict_probs calls on one held-out row each, alternating every
    SWITCH_S seconds with batched calls over a fixed row count (default
    batch 256)."""

    name = "serve"
    primary_op = "serve_b1"
    names = {"samples_per_s": "serve_batch_samples_per_s", "p50_ms": "serve_b1_p50_ms"}

    def __init__(self, inputs, workdir, seed: int):
        prepared = cli.prepare_dataset(cli.RunConfig(data=str(inputs.csv_path), seed=seed))
        self.rows = prepared.features[prepared.splits.test]
        self.batch = np.resize(self.rows, (BATCH_ROWS, self.rows.shape[1]))
        self.weights_path = inputs.weights_path
        self.reference = None

    def setup(self) -> None:
        self.model = data.load_weights(self.weights_path)
        for row in self.rows[:WARMUP_CALLS]:
            training.predict_probs(self.model, row[None])
        training.predict_probs(self.model, self.batch[:256])

    def run(self, seconds: float, tally: Tally, tracer=None) -> Phase:
        if self.reference is None:
            self.reference = training.predict_probs(self.model, self.rows)
            self.batch_reference = np.resize(self.reference, (BATCH_ROWS, self.reference.shape[1]))
        phase = Phase()
        # alternate the two phases so that each sees the whole run's slow
        # and fast stretches of the shared machine
        calls = 0
        for _ in _ops(seconds, tally):
            calls = self._b1_phase(SWITCH_S, calls, phase, tally, tracer)
            self._batched_phase(SWITCH_S, phase, tally, tracer)
        return phase

    def _b1_phase(self, seconds, calls, phase, tally, tracer) -> int:
        for _ in _ops(seconds, tally):
            k = calls % len(self.rows)
            calls += 1
            try:
                with _op(tracer, "serve_b1"):
                    t0 = time.perf_counter()
                    probs = training.predict_probs(self.model, self.rows[k : k + 1])
                    phase.op_s.append(time.perf_counter() - t0)
            except Exception:
                tally.record(False, _error())
                continue
            tally.record(probs_ok(probs, self.reference[k : k + 1]), f"B=1 row {k} check failed")
        return calls

    def _batched_phase(self, seconds, phase, tally, tracer) -> None:
        for _ in _ops(seconds, tally):
            try:
                with _op(tracer, "serve_batch"):
                    t0 = time.perf_counter()
                    probs = training.predict_probs(self.model, self.batch)
                    dt = time.perf_counter() - t0
            except Exception:
                tally.record(False, _error())
                continue
            phase.batches.append((len(self.batch), dt))
            tally.record(probs_ok(probs, self.batch_reference), "batched check failed")


class Evaluate:
    """In-process ``papernet evaluate`` passes on the whole CSV."""

    name = "evaluate"
    primary_op = "evaluate_pass"
    names = {"samples_per_s": "evaluate_rows_per_s", "p50_ms": "evaluate_p50_ms"}

    def __init__(self, inputs, workdir, seed: int):
        self.outdir = workdir / "evaluate_out"
        self.argv = [
            "evaluate",
            "--data", str(inputs.csv_path),
            "--weights", str(inputs.weights_path),
            "--outdir", str(self.outdir),
            "--seed", str(seed),
        ]
        self.n_rows = inputs.n_rows
        self.expected = None

    def _pass(self) -> tuple[int, float]:
        with redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(self.argv)
            return code, time.perf_counter() - t0

    def _report(self):
        report = json.loads((self.outdir / "report.json").read_text(encoding="utf-8"))
        return report["accuracy"], report["split_hash"]

    def setup(self) -> None:
        code, _ = self._pass()
        self.expected = self._report() if code == 0 else None

    def run(self, seconds: float, tally: Tally, tracer=None) -> Phase:
        phase = Phase()
        for _ in _ops(seconds, tally):
            try:
                with _op(tracer, "evaluate_pass"):
                    code, dt = self._pass()
                ok = code == 0 and self.expected is not None and self._report() == self.expected
            except Exception:
                tally.record(False, _error())
                continue
            phase.op_s.append(dt)
            phase.batches.append((self.n_rows, dt))
            tally.record(ok, f"exit code {code} or report differs from the warm-up pass")
        return phase


WORKLOADS = {w.name: w for w in (Train, Serve, Evaluate)}
