"""One benchmark run: inputs, set-up, the timed phase, checks and the result.

With trace off the run installs no wrappers and reports the end-to-end
metrics. With trace on it runs half the time untraced, then installs the
tracer, sets up again and runs the other half traced; it reports the
per-layer metrics, the tracing overhead (traced minus untraced best_p50_ms) and
writes every span to a gzipped JSON file under .perfbench_out/. setup_s is
timed in fresh interpreters (coldsetup.py), so every set-up it counts is cold.
"""

from __future__ import annotations

import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import inputs as bench_inputs
from tracer import LAYERS, TAPE_OPS, Tracer, tail
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# cold set-ups per run, each in a fresh interpreter; setup_s is their median
SETUP_REPS = 5

# The shared machine has slow phases that slow every process alike (up to 2x
# on a 2-vCPU box); fast moments are often shorter than a second. A run is
# therefore cut into blocks of at least BLOCK_S seconds of consecutive ops,
# and the time figures are those of the best block: the program's speed when
# the machine is not contended. An op that outlasts BLOCK_S (a train call, an
# evaluate pass) is a block of its own, so there the best block is the
# fastest op.
BLOCK_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_samples_per_s": "samples/s",
    "best_p50_ms": "ms",
}


# Median per-call figures of wrapped functions, 0 on a workload that never
# calls the function.
PER_CALL = (
    "training.predict_probs.ms",
    "training.weighted_cross_entropy.ms",
    "training.adam_step.ms",
    "data.load_csv.ms",
    "dsp.preprocess_recording.ms",
    "data.stratified_split.ms",
    "cli.prepare_dataset.ms",
    "data.crc64.ms",
    "data.load_weights.ms",
    "data.save_weights.ms",
    "metrics.evaluate_probs.ms",
    "metrics.report_to_json.ms",
    "metrics.roc_to_csv.ms",
)


def per_layer_units() -> dict[str, str]:
    """The per-layer metrics every traced run reports, with their units. A
    metric of something the workload never runs (backward on serve, say)
    reads 0."""
    units = {}
    for fn in LAYERS:
        for suffix in ("fwd_ms", "bwd_ms", "total_ms", "fwd_b256_ms"):
            units[f"layers.{fn}.{suffix}"] = "ms"
    units.update(
        {
            "model.forward.self_ms": "ms",
            "op.p50_ms": "ms",
            "op.tail_ms": "ms",
            "op.layers_pct": "%",
            "trace.overhead_pct": "%",
            "process.import_s": "s",
            "machine.ref_kernel_ms": "ms",
            "tensor.backward.ms_per_step": "ms",
        }
    )
    for op in TAPE_OPS + ("other",):
        units[f"tensor.backward.{op}.ms_per_step"] = "ms"
    units["tensor.tape_nodes_per_step"] = "count"
    for op in TAPE_OPS + ("other",):
        units[f"tensor.tape_nodes.{op}"] = "count"
    units.update({name: "ms" for name in PER_CALL})
    units["data.crc64.bytes"] = "bytes"
    return units


def machine_block() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def ref_kernel_ms(reps: int = 15) -> float:
    """Median time of a fixed numpy kernel: a control that no change to
    papernet should move; it drifts when the shared machine slows."""
    a = np.random.default_rng(0).standard_normal((192, 192)).astype(np.float32) / 14.0
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        b = a
        for _ in range(8):
            b = np.tanh(b @ a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def cold_setup(workload_name: str, workdir: Path, seed: int, n_rows: int) -> dict:
    """Import and set-up seconds of one workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "coldsetup.py"),
         workload_name, str(workdir), str(seed), str(n_rows)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blocks(items, seconds_of) -> list[list]:
    """Consecutive items grouped into blocks lasting at least BLOCK_S; a
    shorter remainder is dropped unless it is the only block."""
    out, current, elapsed = [], [], 0.0
    for item in items:
        current.append(item)
        elapsed += seconds_of(item)
        if elapsed >= BLOCK_S:
            out.append(current)
            current, elapsed = [], 0.0
    if current and not out:
        out.append(current)
    return out


def best_p50_ms(op_s) -> float:
    """Lowest per-block median latency."""
    return min((statistics.median(b) for b in blocks(op_s, float)), default=0.0) * 1e3


def best_rate(batches) -> float:
    """Highest per-block rows per second."""
    return max(
        (sum(r for r, _ in b) / sum(s for _, s in b) for b in blocks(batches, lambda x: x[1])),
        default=0.0,
    )


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object plus a summary."""
    ref_start = ref_kernel_ms()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-s{seed}-", dir=OUT_DIR))
    tally = Tally()
    try:
        n_rows = bench_inputs.N_ROWS
        inputs = bench_inputs.make_inputs(workdir, seed, n_rows)
        colds = [cold_setup(workload_name, workdir, seed, n_rows) for _ in range(SETUP_REPS)]
        workload = WORKLOADS[workload_name](inputs, workdir, seed)
        workload.setup()
        if trace:
            untraced = workload.run(seconds / 2, tally)
            tracer = Tracer()
            tracer.install()
            try:
                workload.setup()
                traced = workload.run(seconds / 2, tally, tracer)
            finally:
                tracer.uninstall()
            detail = tracer.summarize(workload.primary_op)
            untraced_ms, traced_ms = best_p50_ms(untraced.op_s), best_p50_ms(traced.op_s)
            detail["trace.overhead_pct"] = (
                100.0 * (traced_ms - untraced_ms) / untraced_ms if untraced_ms else 0.0
            )
            detail["trace.untraced_p50_ms"] = untraced_ms
            detail["trace.traced_p50_ms"] = traced_ms
            phase = untraced
        else:
            phase = workload.run(seconds, tally)
            detail = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_end = ref_kernel_ms()
    detail["process.import_s"] = statistics.median(c["import_s"] for c in colds)
    detail["machine.ref_kernel_ms"] = (ref_start + ref_end) / 2

    e2e = {
        "setup_s": statistics.median(c["setup_s"] for c in colds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "best_samples_per_s": best_rate(phase.batches),
        "best_p50_ms": best_p50_ms(phase.op_s),
    }
    units = per_layer_units() if trace else END_TO_END
    values = detail if trace else e2e
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    summary = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_block(),
        "machine.ref_kernel_ms.start": ref_start,
        "machine.ref_kernel_ms.end": ref_end,
        "setup_s.samples": [c["setup_s"] for c in colds],
        "failed_op_ratio": tally.failed / tally.attempted,
        "errors": tally.errors,
        "end_to_end": e2e,
        "named": _named(workload, phase),
        "op_ms": [s * 1e3 for s in phase.op_s] if len(phase.op_s) <= 20 else [],
        "per_layer": detail,
    }
    if trace:
        path = OUT_DIR / f"trace-{workload_name}-s{seed}.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**summary, "spans": tracer.dump()}, fh)
        summary["trace_file"] = str(path.relative_to(ROOT))
    return {"result": result, "summary": summary}


def _named(workload, phase) -> dict:
    """Whole-phase figures, slow phases included, under the names this
    workload gives them."""
    rows = sum(r for r, _ in phase.batches)
    busy = sum(s for _, s in phase.batches)
    named = {
        workload.names["samples_per_s"]: (rows / busy if busy else 0.0, "samples/s"),
        workload.names["p50_ms"]: (
            statistics.median(phase.op_s) * 1e3 if phase.op_s else 0.0,
            f"ms (of {len(phase.op_s)})",
        ),
    }
    found = tail([s * 1e3 for s in phase.op_s])
    if found:
        value, pct, n = found
        key = workload.names["p50_ms"].replace("_p50_ms", "_tail_ms")
        named[key] = (value, f"ms (p{pct:.1f} of {n})")
    return named


def print_summary(summary: dict) -> None:
    print(
        f"perfbench {summary['workload']} seed={summary['seed']} "
        f"seconds={summary['seconds']} trace={int(summary['trace'])}"
    )
    print("machine: " + json.dumps(summary["machine"], sort_keys=True))
    print(
        "machine.ref_kernel_ms: start {:.4f} end {:.4f}".format(
            summary["machine.ref_kernel_ms.start"], summary["machine.ref_kernel_ms.end"]
        )
    )
    for name, value in summary["end_to_end"].items():
        print(f"  {name:<32} {value:>14.6g} {END_TO_END[name]}")
    for name, (value, unit) in summary["named"].items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'failed_op_ratio':<32} {summary['failed_op_ratio']:>14.6g} ratio")
    if summary["op_ms"]:
        print("  op_ms: " + " ".join(f"{v:.1f}" for v in summary["op_ms"]))
    for why in summary["errors"]:
        print(f"  failure: {why}")
    for name, value in sorted(summary["per_layer"].items()):
        print(f"  {name:<48} {value:>14.6g}")
    if "trace_file" in summary:
        print(f"spans: {summary['trace_file']}")
