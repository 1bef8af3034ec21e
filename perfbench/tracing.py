"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer replaces public functions of ``lossgate`` with wrappers for the
length of a ``recording`` block and puts the originals back afterwards, so
nothing under ``src/`` changes and untraced calls run the plain code. Class
methods are patched on the class; functions that a module imports by name
are patched in that module too, because the caller looks them up there.

Every wrapped call becomes a span ``(op, name, start, end, parent)``: ``op``
numbers the traced operation (one set-up plus one timed call), ``parent`` is
the index of the enclosing span or -1. Spans stay in memory until the run
ends. A few hot functions are counted instead of spanned.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

import lossgate.cli
import lossgate.data
import lossgate.metapredictor
import lossgate.model
import lossgate.threshold
import lossgate.trainer


class Span(NamedTuple):
    op: int
    name: str
    start: float
    end: float
    parent: int


# (owner, attribute, span name); the layer is the part of the name before the dot
SPANNED = [
    (lossgate.data, "load_dataset", "data.load"),
    (lossgate.cli, "load_dataset", "data.load"),
    (lossgate.data, "vectorize", "data.vectorize"),
    (lossgate.trainer, "build_epoch_batches", "data.batches"),
    (lossgate.model.TargetModel, "forward", "model.forward"),
    (lossgate.model.TargetModel, "backward", "model.backward"),
    (lossgate.model.TargetModel, "evaluate", "model.evaluate"),
    (lossgate.threshold.ThresholdState, "observe", "threshold.observe"),
    (lossgate.metapredictor.NaiveBayesModel, "update", "metapredictor.update"),
    (lossgate.metapredictor.NaiveBayesModel, "loss", "metapredictor.loss"),
    (lossgate.metapredictor.NaiveBayesModel, "predict_batch", "metapredictor.predict_batch"),
    (lossgate.trainer.Trainer, "run", "trainer.run"),
    (lossgate.trainer.Trainer, "step_warmup", "trainer.step_warmup"),
    (lossgate.trainer.Trainer, "step_backward_filter", "trainer.step_backward_filter"),
    (lossgate.trainer.Trainer, "step_full_filter", "trainer.step_full_filter"),
    (lossgate.trainer.Trainer, "maybe_transition", "trainer.maybe_transition"),
    (lossgate.cli, "main", "cli.main"),
    (lossgate.cli, "run", "cli.run"),
]

PREDICTOR_SPANS = ("metapredictor.update", "metapredictor.loss", "metapredictor.predict_batch")
STEP_SPANS = ("trainer.step_warmup", "trainer.step_backward_filter", "trainer.step_full_filter")
LATENCY_SPANS = ("model.forward", "model.backward") + PREDICTOR_SPANS + STEP_SPANS

# name -> (unit, better). Every traced run reports all of them; a layer that a
# workload never enters reads 0.
LAYER_METRICS = {
    "data.load_s": ("s", "lower"),
    "data.vectorize_s": ("s", "lower"),
    "data.batches_s": ("s", "lower"),
    "data.hash.calls": ("count", "lower"),
    "data.hash.distinct_share": ("ratio", "higher"),
}
for _span in LATENCY_SPANS:
    LAYER_METRICS[f"{_span}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_span}.ms_p50"] = ("ms", "lower")
    LAYER_METRICS[f"{_span}.ms_p99"] = ("ms", "lower")
    if not _span.startswith("trainer."):
        LAYER_METRICS[f"{_span}.total_s"] = ("s", "lower")
LAYER_METRICS.update({
    "model.evaluate.calls": ("count", "lower"),
    "model.evaluate.total_s": ("s", "lower"),
    "threshold.observe.calls": ("count", "lower"),
    "threshold.observe.total_s": ("s", "lower"),
    "threshold.gate.calls": ("count", "lower"),
    "threshold.gate.pass_share": ("ratio", "lower"),
    "metapredictor.reject_share": ("ratio", "higher"),
    "metapredictor.cost_per_forward": ("ratio", "lower"),
    "trainer.maybe_transition.calls": ("count", "lower"),
    "trainer.maybe_transition.total_s": ("s", "lower"),
    "trainer.self_s": ("s", "lower"),
    "trainer.wall_t_norm": ("ratio", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.load_s": ("s", "lower"),
    "cli.runs": ("count", "lower"),
    "cli.runs_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
})


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children.get(i, [])) for i, span in enumerate(spans)
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int, Counter] = {}
        self.tokens: dict[int, set] = {}
        self._stack: list[int] = []
        self._op = -1

    def _spanned(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserved so that children can name it as parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(self._op, name, start, end, parent)

        return wrapper

    def _counted_hash(self, fn):
        @functools.wraps(fn)
        def wrapper(token):
            self.counts[self._op]["hash"] += 1
            self.tokens[self._op].add(token)
            return fn(token)

        return wrapper

    def _counted_gate(self, fn):
        @functools.wraps(fn)
        def wrapper(batch_loss, gate):
            label = fn(batch_loss, gate)
            self.counts[self._op]["gate"] += 1
            self.counts[self._op]["gate_pass"] += label
            return label

        return wrapper

    def _counted_predict(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            decision, mean_p1 = fn(*args, **kwargs)
            self.counts[self._op]["reject"] += decision == 0
            return decision, mean_p1

        return wrapper

    @contextmanager
    def recording(self, op: int):
        """Trace every call made inside the block as part of operation ``op``."""
        self._op = op
        self.counts[op] = Counter()
        self.tokens[op] = set()
        patches = []
        for owner, attr, name in SPANNED:
            fn = getattr(owner, attr)
            if name == "metapredictor.predict_batch":
                fn = self._counted_predict(fn)
            patches.append((owner, attr, self._spanned(fn, name)))
        patches.append((lossgate.data, "hash_bucket", self._counted_hash(lossgate.data.hash_bucket)))
        patches.append((lossgate.trainer, "make_label", self._counted_gate(lossgate.trainer.make_label)))
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
            self._op = -1

    def write_csv(self, path: str) -> None:
        """All spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,name,start,end,parent\n")
            for s in self.spans:
                fh.write(f"{s.op},{s.name},{s.start!r},{s.end!r},{s.parent}\n")

    def op_metrics(self, op: int, selfs: list[float]) -> dict[str, float]:
        """Per-layer totals and counts of one traced operation; ``selfs`` are
        the self times of all spans."""
        spans = self.spans
        total: Counter = Counter()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        under_cli = 0.0
        for s, own_time in zip(spans, selfs):
            if s.op != op:
                continue
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            self_s[s.name] += own_time
            if s.name == "data.load" and s.parent >= 0 and spans[s.parent].name == "cli.main":
                under_cli += s.end - s.start
        counts = self.counts[op]
        m = {
            "data.load_s": total["data.load"],
            "data.vectorize_s": total["data.vectorize"],
            "data.batches_s": total["data.batches"],
            "data.hash.calls": counts["hash"],
            "data.hash.distinct_share": len(self.tokens[op]) / counts["hash"] if counts["hash"] else 0.0,
            "model.evaluate.calls": calls["model.evaluate"],
            "model.evaluate.total_s": total["model.evaluate"],
            "threshold.observe.calls": calls["threshold.observe"],
            "threshold.observe.total_s": total["threshold.observe"],
            "threshold.gate.calls": counts["gate"],
            "threshold.gate.pass_share": counts["gate_pass"] / counts["gate"] if counts["gate"] else 0.0,
            "metapredictor.reject_share": (
                counts["reject"] / calls["metapredictor.predict_batch"]
                if calls["metapredictor.predict_batch"] else 0.0
            ),
            "trainer.maybe_transition.calls": calls["trainer.maybe_transition"],
            "trainer.maybe_transition.total_s": total["trainer.maybe_transition"],
            "trainer.self_s": self_s["trainer.run"],
            "cli.main_s": total["cli.main"],
            "cli.load_s": under_cli,
            "cli.runs": calls["cli.run"],
            "cli.runs_s": total["cli.run"],
            "cli.self_s": self_s["cli.main"],
            "trace.spans": sum(calls.values()),
        }
        for name in LATENCY_SPANS:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.total_s"] = total[name]
        # predictor cost per batch it screens (stages 1 and 2) against the
        # cost of one forward pass: below 1 the predictor is cheaper than the
        # forward it can save
        screened = calls["trainer.step_backward_filter"] + calls["trainer.step_full_filter"]
        predictor_s = sum(total[name] for name in PREDICTOR_SPANS)
        m["metapredictor.cost_per_forward"] = (
            (predictor_s / screened) / (total["model.forward"] / calls["model.forward"])
            if screened and predictor_s and calls["model.forward"] else 0.0
        )
        return m

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def layer_metrics(tracer: Tracer, ops: list[int], wall_t_norm: float, overhead_share: float) -> dict[str, float]:
    """Every metric of ``LAYER_METRICS``: the median over traced operations,
    with per-call latencies pooled over all of them."""
    selfs = self_times(tracer.spans)
    per_op = [tracer.op_metrics(op, selfs) for op in ops]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    for name in LATENCY_SPANS:
        durations = tracer.durations(name)
        p50, p99 = np.percentile(durations, [50, 99]) * 1000.0 if durations else (0.0, 0.0)
        out[f"{name}.ms_p50"] = float(p50)
        out[f"{name}.ms_p99"] = float(p99)
    out["trainer.wall_t_norm"] = wall_t_norm
    out["trace.overhead_share"] = overhead_share
    return {name: out[name] for name in LAYER_METRICS}
