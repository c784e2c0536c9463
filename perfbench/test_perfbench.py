"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import inputs  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from papernet import data, layers, training  # noqa: E402
from papernet.model import build_papernet  # noqa: E402
from papernet.tensor import ComputationTape  # noqa: E402


def papernet_functions():
    import papernet.cli
    import papernet.dsp
    import papernet.metrics

    modules = (layers, training, data, papernet.dsp, papernet.metrics, papernet.cli)
    return {
        (m.__name__, n): v
        for m in modules
        for n, v in vars(m).items()
        if inspect.isfunction(v)
    }


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    monkeypatch.setattr(inputs, "N_ROWS", 400)


def test_tracer_node_count_matches_tape():
    model = build_papernet(seed=0)
    x = np.random.default_rng(0).standard_normal((8, 16, 1)).astype(np.float32)
    onehot = np.eye(4, dtype=np.float32)[np.arange(8) % 4]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        with ComputationTape() as tape:
            probs = training.forward(model, x, mode="train", rng=np.random.default_rng(1))
            loss = training.weighted_cross_entropy(probs, onehot, None, model, 1e-4)
            direct = len(tape.nodes)
            training.backward(tape, loss)
        training.adam_step(model.trainable(), training.AdamState.for_params(model.trainable()), 1e-3)
    finally:
        tracer.uninstall()
    assert sum(tracer.tape_nodes[-1].values()) == direct
    owners = Counter(
        tag for name, tag in zip(tracer.names, tracer.tags)
        if name.startswith(tracer_mod.BACKWARD_PREFIX)
    )
    assert owners["layers.bilstm"] > 0 and owners["training.weighted_cross_entropy"] > 0
    summary = tracer.summarize("train_step")
    assert summary["op.count"] == 1
    assert summary["tensor.tape_nodes_per_step"] == direct
    assert summary["layers.bilstm.bwd_ms"] > 0


def test_uninstall_restores_every_function():
    before = papernet_functions()
    enter = ComputationTape.__enter__
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert papernet_functions() != before and ComputationTape.__enter__ is not enter
    tracer.uninstall()
    assert papernet_functions() == before and ComputationTape.__enter__ is enter


def test_same_seed_same_inputs(tmp_path):
    made = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        made.append(inputs.make_inputs(tmp_path / name, seed, 200))
    a, b, c = (m.csv_path.read_bytes() for m in made)
    assert a == b and a != c
    assert made[0].weights_path.read_bytes() == made[1].weights_path.read_bytes()
    header = a.decode().splitlines()[0]
    assert header == ",".join([f"X{i}" for i in range(1, 17)] + ["y"])


def test_forced_check_failure_raises_failed_ratio(quick, monkeypatch):
    monkeypatch.setattr(workloads, "probs_ok", lambda probs, reference: False)
    out = harness.run("serve", seed=1, seconds=0.5, trace=False)
    assert out["result"]["failed"] > 0
    assert out["result"]["correct"] is False
    assert out["summary"]["failed_op_ratio"] > 0


def test_untraced_run_installs_no_wrappers(quick, monkeypatch):
    before = papernet_functions()
    seen = []

    def refuse(self):
        raise AssertionError("the untraced run must not install wrappers")

    def checking(probs, reference, original=workloads.probs_ok):
        seen.append(papernet_functions() == before)
        return original(probs, reference)

    monkeypatch.setattr(tracer_mod.Tracer, "install", refuse)
    monkeypatch.setattr(workloads, "probs_ok", checking)
    out = harness.run("serve", seed=1, seconds=0.5, trace=False)
    assert out["result"]["correct"] is True
    assert seen and all(seen)


def test_metric_names_match_benchmark_json(quick, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # 2,000 rows give a 300-row validation split, so one full 256-row batch
    monkeypatch.setattr(inputs, "N_ROWS", 2000)
    measured = set()
    for workload in sorted(workloads.WORKLOADS):
        untraced = harness.run(workload, seed=2, seconds=0.5, trace=False)
        traced = harness.run(workload, seed=2, seconds=0.5, trace=True)
        for result, key in ((untraced, "end_to_end"), (traced, "per_layer")):
            metrics = result["result"]["metrics"]
            assert result["result"]["correct"] is True
            assert {m["name"]: m["unit"] for m in spec[key]} == {
                name: m["unit"] for name, m in metrics.items()
            }
            measured |= {name for name, m in metrics.items() if m["value"] > 0}
        for name, m in untraced["result"]["metrics"].items():
            assert m["value"] > 0, (workload, name)
    # every per-layer figure is measured by some workload; only a tape op
    # the model no longer records, and the tracing overhead, may read 0
    unmeasured = {m["name"] for m in spec["per_layer"]} - measured
    assert all(
        n.startswith(("tensor.tape_nodes.", "tensor.backward.")) or n == "trace.overhead_pct"
        for n in unmeasured
    ), unmeasured


def test_tail_and_blocks(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK_S", 1.0)
    assert tracer_mod.tail(list(range(19))) is None
    assert tracer_mod.tail(list(range(20))) == (9, 50.0, 20)
    assert harness.blocks([0.4, 0.4, 0.4, 0.4, 0.1], float) == [[0.4, 0.4, 0.4]]
    assert harness.best_p50_ms([0.5, 0.5, 0.25, 0.25, 0.25, 0.25]) == pytest.approx(250.0)
    assert harness.best_rate([(10, 0.5), (10, 0.5), (30, 1.0)]) == pytest.approx(30.0)
