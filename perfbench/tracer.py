"""Outside-in tracer: wraps papernet's public functions from the benchmark's
own code and records one span per call.

A span is (name, start, end, parent id, op id, tag). One op is one train
step, one predict_probs call or one evaluate pass; the workload opens serve
and evaluate ops, the tracer opens train steps (from the train-mode forward
to the end of adam_step) and validation predict_probs calls itself. For
backward time, each tape node's rule is wrapped before ``backward`` runs and
charged to the wrapped call that recorded the node. Spans stay in memory
until the run ends. The untraced run never constructs a Tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# papernet module -> names to wrap; None wraps every public function the
# module itself defines. Names a later version drops are skipped.
TARGETS = {
    "layers": None,
    "training": (
        "forward",
        "backward",
        "adam_step",
        "weighted_cross_entropy",
        "predict_probs",
        "save_weights",
    ),
    "data": ("load_csv", "crc64", "load_weights", "save_weights", "stratified_split"),
    "dsp": ("preprocess_recording",),
    "metrics": None,
    "cli": ("prepare_dataset", "predict_probs"),
}

LAYERS = (
    "conv1d_same",
    "batchnorm",
    "maxpool1d",
    "se_residual_attention",
    "bilstm",
    "global_max_pool_time",
    "dense",
    "dropout",
)

# Tape-op names recorded by the model at the time the benchmark was written.
# Any other name (a fused op, say) is counted under "other".
TAPE_OPS = (
    "add",
    "sub",
    "mul",
    "neg",
    "pow_scalar",
    "log",
    "clamp_min",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "slice_axis",
    "relu",
    "sigmoid",
    "tanh",
    "softmax_lastaxis",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "conv1d_same",
    "maxpool1d",
)

BACKWARD_PREFIX = "tensor.backward."


def tail(values) -> tuple[float, float, int] | None:
    """(value, percentile, count) of the highest percentile that has at
    least ten samples beyond it; None with fewer than twenty samples, where
    that percentile would fall below the median."""
    n = len(values)
    if n < 20:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.tags: list = []
        self.tape_nodes: list[Counter] = []  # node names per backward call
        self._stack: list[int] = []
        self._op = -1
        self._step = -1
        self._tapes: list = []  # active ComputationTapes, innermost last
        self._ranges: dict[int, list] = {}  # id(tape) -> [(first, end, owner)]
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, tag=None) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.tags.append(tag)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def open_op(self, kind: str) -> int:
        sid = self.open("op." + kind)
        self.ops[sid] = sid
        self._op = sid
        return sid

    def close_op(self, sid: int) -> None:
        self.close(sid)
        self._op = -1

    @contextmanager
    def op(self, kind: str):
        sid = self.open_op(kind)
        try:
            yield
        finally:
            self.close_op(sid)

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        tensor = importlib.import_module("papernet.tensor")
        tape_cls = getattr(tensor, "ComputationTape", None)
        if tape_cls is not None:
            self._track_tapes(tape_cls)
        for short, names in TARGETS.items():
            module = importlib.import_module("papernet." + short)
            if names is None:
                names = [
                    n
                    for n, v in vars(module).items()
                    if inspect.isfunction(v)
                    and v.__module__ == module.__name__
                    and not n.startswith("_")
                ]
            for attr in names:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn):
                    self._patch(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _track_tapes(self, tape_cls) -> None:
        enter, leave = tape_cls.__enter__, tape_cls.__exit__
        tapes, ranges = self._tapes, self._ranges

        def traced_enter(tape):
            result = enter(tape)
            tapes.append(tape)
            return result

        def traced_exit(tape, *exc):
            if tapes and tapes[-1] is tape:
                tapes.pop()
            ranges.pop(id(tape), None)
            return leave(tape, *exc)

        self._patch(tape_cls, "__enter__", traced_enter)
        self._patch(tape_cls, "__exit__", traced_exit)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        if name == "model.forward":
            wrapper = self._wrap_forward(fn, name)
        elif name == "tensor.backward":
            wrapper = self._wrap_backward(fn, name)
        elif name == "training.adam_step":
            wrapper = self._wrap_adam(fn, name)
        elif name == "training.predict_probs":
            wrapper = self._wrap_predict(fn, name)
        elif name == "data.crc64":
            wrapper = self._spanned(fn, name, lambda args, kwargs: len(args[0]))
        else:
            wrapper = self._spanned(fn, name)
        return functools.wraps(fn)(wrapper)

    def _spanned(self, fn, name, tag_of=None):
        """One span per call; tape nodes recorded during the call are
        charged to ``name`` in backward."""

        def wrapper(*args, **kwargs):
            tape = self._tapes[-1] if self._tapes else None
            first = len(tape.nodes) if tape is not None else 0
            sid = self.open(name, tag_of(args, kwargs) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
                if tape is not None and len(tape.nodes) > first:
                    self._ranges.setdefault(id(tape), []).append(
                        (first, len(tape.nodes), name)
                    )

        return wrapper

    def _wrap_forward(self, fn, name):
        def tag_of(args, kwargs):
            batch = kwargs.get("batch", args[1] if len(args) > 1 else None)
            mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
            return f"{mode}:{getattr(batch, 'shape', (0,))[0]}"

        spanned = self._spanned(fn, name, tag_of)

        def wrapper(*args, **kwargs):
            if self._op < 0 and tag_of(args, kwargs).startswith("train:"):
                self._step = self.open_op("train_step")
            try:
                return spanned(*args, **kwargs)
            except BaseException:
                self._end_step()
                raise

        return wrapper

    def _end_step(self) -> None:
        if self._step >= 0:
            self.close_op(self._step)
            self._step = -1

    def _wrap_adam(self, fn, name):
        spanned = self._spanned(fn, name)

        def wrapper(*args, **kwargs):
            try:
                return spanned(*args, **kwargs)
            finally:
                self._end_step()

        return wrapper

    def _wrap_predict(self, fn, name):
        spanned = self._spanned(fn, name)

        def wrapper(*args, **kwargs):
            if self._op >= 0:
                return spanned(*args, **kwargs)
            with self.op("predict_probs"):
                return spanned(*args, **kwargs)

        return wrapper

    def _wrap_backward(self, fn, name):
        spanned = self._spanned(fn, name)

        def wrapper(tape, *args, **kwargs):
            nodes = tape.nodes
            self.tape_nodes.append(Counter(node.name for node in nodes))
            owners = ["other"] * len(nodes)
            # ranges close innermost first; assign outermost first so the
            # innermost call that recorded a node owns it
            for first, end, owner in reversed(self._ranges.pop(id(tape), [])):
                owners[first:end] = [owner] * (end - first)
            for node, owner in zip(nodes, owners):
                node.rule = self._timed_rule(node.rule, BACKWARD_PREFIX + node.name, owner)
            return spanned(tape, *args, **kwargs)

        return wrapper

    def _timed_rule(self, rule, name, owner):
        def timed(g):
            sid = self.open(name, owner)
            try:
                return rule(g)
            finally:
                self.close(sid)

        return timed

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[float]]:
        """Duration and self time (duration less direct children) per span."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def summarize(self, primary: str) -> dict[str, float]:
        """Per-layer figures in ms. Per-op figures are medians over the ops
        of kind ``primary``; per-call figures are medians over calls."""
        dur, own = self.self_times()
        ms = 1e3
        op_ids = [i for i, n in enumerate(self.names) if n == "op." + primary]
        primary_ops = set(op_ids)
        per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        per_b256: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        b256 = set()
        calls: dict[str, list[float]] = defaultdict(list)
        crc_bytes = []
        for i, name in enumerate(self.names):
            tag = self.tags[i]
            if name == "model.forward" and tag == "infer:256":
                b256.add(i)
            if not name.startswith(("op.", BACKWARD_PREFIX)):
                calls[name].append(dur[i])
            if name == "data.crc64":
                crc_bytes.append(tag)
            op = self.ops[i]
            if name.startswith("layers.") and self.parents[i] in b256:
                per_b256[name][self.parents[i]] += own[i]
            if op not in primary_ops:
                continue
            # every span's self time lands in exactly one per-op component,
            # so the components of an op add up to its duration
            if name.startswith(BACKWARD_PREFIX):
                op_name = name[len(BACKWARD_PREFIX):]
                op_name = op_name if op_name in TAPE_OPS else "other"
                per_op[f"{BACKWARD_PREFIX}{op_name}.ms_per_step"][op] += own[i]
                per_op[f"{tag}.bwd_ms"][op] += own[i]
            elif name.startswith("layers."):
                per_op[name + ".fwd_ms"][op] += own[i]
            elif name.startswith("op."):
                per_op["op.unattributed_ms"][op] += own[i]
            else:
                per_op[name + ".self_ms"][op] += own[i]

        def per_op_ms(*keys):
            return _median([sum(per_op[k].get(o, 0.0) for k in keys) for o in op_ids]) * ms

        out: dict[str, float] = {key: per_op_ms(key) for key in per_op}
        layer_keys = []
        for fn in LAYERS:
            key = "layers." + fn
            layer_keys += [key + ".fwd_ms", key + ".bwd_ms"]
            out[key + ".fwd_ms"] = per_op_ms(key + ".fwd_ms")
            out[key + ".bwd_ms"] = per_op_ms(key + ".bwd_ms")
            out[key + ".total_ms"] = per_op_ms(key + ".fwd_ms", key + ".bwd_ms")
            out[key + ".fwd_b256_ms"] = _median(
                [per_b256[key].get(f, 0.0) for f in sorted(b256)]
            ) * ms
        out["op.layers_pct"] = 100.0 * _median(
            [sum(per_op[k].get(o, 0.0) for k in layer_keys) / dur[o] for o in op_ids]
        )
        op_ms = [dur[o] * ms for o in op_ids]
        out["op.count"] = len(op_ms)
        out["op.p50_ms"] = _median(op_ms)
        op_tail = tail(op_ms)
        out["op.tail_ms"] = op_tail[0] if op_tail else max(op_ms, default=0.0)
        out["op.tail_pct"] = op_tail[1] if op_tail else 100.0
        backward_per_step = defaultdict(float)
        for i, name in enumerate(self.names):
            if name == "tensor.backward" and self.ops[i] in primary_ops:
                backward_per_step[self.ops[i]] += dur[i]
        out["tensor.backward.ms_per_step"] = _median(
            [backward_per_step.get(o, 0.0) for o in op_ids]
        ) * ms
        for op_name in TAPE_OPS + ("other",):
            key = f"{BACKWARD_PREFIX}{op_name}.ms_per_step"
            out[key] = per_op_ms(key)
        counts = self.tape_nodes
        out["tensor.tape_nodes_per_step"] = _median([sum(c.values()) for c in counts])
        for op_name in TAPE_OPS:
            out[f"tensor.tape_nodes.{op_name}"] = _median([c[op_name] for c in counts])
        out["tensor.tape_nodes.other"] = _median(
            [sum(v for k, v in c.items() if k not in TAPE_OPS) for c in counts]
        )
        for name, values in sorted(calls.items()):
            out[name + ".ms"] = _median(values) * ms
            out[name + ".calls"] = len(values)
        out["data.crc64.bytes"] = _median(crc_bytes)
        return out

    def dump(self) -> dict:
        """Spans in columns, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "name": self.names,
            "start": [round(s - t0, 7) for s in self.starts],
            "end": [round(e - t0, 7) for e in self.ends],
            "parent": self.parents,
            "op": self.ops,
            "tag": self.tags,
        }
