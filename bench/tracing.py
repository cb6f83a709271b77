"""Span tracing of one qreg command, from outside the engine.

`Tracer.install` replaces public functions and methods of the qreg modules
with wrappers that record a span per call: name, start, end, parent span and
job id. A name imported with `from .x import y` is replaced where it is
looked up (for example `qreg.training.forward`), because patching the
defining module would not reach that caller. The engine's source is not
touched, and the wrappers consume no randomness and change no state, so a
traced command writes the same bytes as an untraced one.

Spans recorded inside a pool worker travel back with the job's result: the
`run_job` wrapper attaches them to the JobResult and the `run_jobs` wrapper
detaches and merges them before any caller sees the results. This relies on
the pool inheriting the patched modules (the `fork` start method); a worker
that does not would return results without spans, which `summarize` reports
as missing jobs.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

clock = time.perf_counter

# (module, attribute, span name); the span name's first component is the
# layer (qreg module) whose code the span times
SPANS = (
    ("qreg.tensor", "conv2d", "tensor.conv2d"),
    ("qreg.tensor", "matmul", "tensor.matmul"),
    ("qreg.tensor", "backward", "tensor.backward"),
    # forward_with is the affine map both the plain and the quantized path run
    ("qreg.layers", "Dense.forward_with", "layers.Dense.forward"),
    ("qreg.layers", "Conv2d.forward_with", "layers.Conv2d.forward"),
    ("qreg.layers", "BatchNorm.forward", "layers.BatchNorm.forward"),
    ("qreg.layers", "Model.state_dict", "layers.Model.state_dict"),
    ("qreg.layers", "Model.load_state_dict", "layers.Model.load_state_dict"),
    ("qreg.training", "forward", "layers.forward"),
    ("qreg.quantization", "fake_quantize", "quantization.fake_quantize"),
    ("qreg.quantization", "weight_scales", "quantization.weight_scales"),
    ("qreg.quantization", "act_scale_update", "quantization.act_scale_update"),
    ("qreg.quantization", "QuantizedLayer.forward", "quantization.QuantizedLayer.forward"),
    ("qreg.training", "wrap_model", "quantization.wrap_model"),
    ("qreg.training", "Adam.step", "training.Adam.step"),
    ("qreg.training", "evaluate", "training.evaluate"),
    ("qreg.experiments", "train", "training.train"),
    ("qreg.training", "cross_entropy_loss", "losses.cross_entropy_loss"),
    ("qreg.training", "binary_ce_loss", "losses.binary_ce_loss"),
    ("qreg.training", "one_hot", "losses.one_hot"),
    ("qreg.training", "weight_decay_loss", "regularization.weight_decay_loss"),
    ("qreg.training", "smooth_labels", "regularization.smooth_labels"),
    ("qreg.training", "EarlyStopper.step", "regularization.EarlyStopper.step"),
    ("qreg.layers", "dropout_forward", "regularization.dropout_forward"),
    ("qreg.training", "prune_model", "pruning.prune_model"),
    ("qreg.experiments", "synth_blobs", "data.synth_blobs"),
    ("qreg.experiments", "synth_multitask", "data.synth_multitask"),
    ("qreg.experiments", "split_count", "data.split_count"),
    ("qreg.experiments", "split", "data.split"),
    ("qreg.experiments", "inject_noise", "data.inject_noise"),
    ("qreg.training", "accuracy", "metrics.accuracy"),
    ("qreg.training", "binary_accuracy", "metrics.binary_accuracy"),
    ("qreg.training", "f1_per_task", "metrics.f1_per_task"),
    ("qreg.experiments", "aggregate_runs", "metrics.aggregate_runs"),
    ("qreg.experiments", "fmt", "records.fmt"),
    # the sweep commands write their result CSVs through _write_rows
    ("qreg.experiments", "_write_rows", "records.write"),
    ("qreg.cli", "load_config", "config.load_config"),
    ("qreg.experiments", "ExperimentConfig.train_settings", "config.train_settings"),
    ("qreg.experiments", "build_datasets", "experiments.build_datasets"),
    ("qreg.experiments", "build_model", "experiments.build_model"),
    ("qreg.cli", "cmd_train", "experiments.cmd_train"),
    ("qreg.cli", "cmd_noise_sweep", "experiments.cmd_noise_sweep"),
    ("qreg.cli", "cmd_stability_sweep", "experiments.cmd_stability_sweep"),
    ("qreg.cli", "cmd_multitask", "experiments.cmd_multitask"),
    ("qreg.cli", "main", "cli.main"),
)

LAYERS = ("tensor", "layers", "quantization", "training", "losses", "regularization",
          "pruning", "data", "metrics", "records", "config", "experiments", "cli")


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []   # indices of the open spans
        self.counts: Counter = Counter()
        self.job: str | None = None

    def wrap(self, fn, name: str, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            spans = self.spans
            idx = len(spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.job]
            spans.append(span)
            self.stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
        return traced

    def _in_evaluate(self) -> bool:
        return any(self.spans[i][0] == "training.evaluate" for i in self.stack)

    def _before_evaluate(self, args, kwargs):
        model, ds = args[0], args[1]
        self.counts["evaluate.rows"] += ds.n
        self.counts["evaluate.quantized_layers"] += sum(isinstance(l, self._quantized) for l in model.layers)

    def _before_fake_quantize(self, args, kwargs):
        scale = args[2] if len(args) > 2 else kwargs["scale"]
        # weights carry one scale per channel, activations a scalar
        if np.ndim(scale) > 0 and self._in_evaluate():
            self.counts["evaluate.weight_fake_quantize"] += 1

    def _wrap_run_job(self, fn):
        inner = self.wrap(fn, "experiments.run_job")

        @functools.wraps(fn)
        def traced(job):
            saved = self.spans, self.stack, self.counts, self.job
            self.spans, self.stack, self.counts = [], [], Counter()
            self.job = f"{job.mode}|{job.extra}|{job.noise:g}|{job.seed}"
            try:
                result = inner(job)
                result.bench_trace = (os.getpid(), self.spans, dict(self.counts))
            finally:
                self.spans, self.stack, self.counts, self.job = saved
            return result
        return traced

    def _wrap_run_jobs(self, fn):
        inner = self.wrap(fn, "experiments.run_jobs")

        @functools.wraps(fn)
        def traced(jobs, quiet):
            idx = len(self.spans)  # where inner records its span
            results = inner(jobs, quiet)
            for r in results:
                bundle = r.__dict__.pop("bench_trace", None)
                if bundle is None:
                    continue
                pid, spans, counts = bundle
                # a job run in this process nests under run_jobs; one run in a
                # worker overlaps it, so it stays a root
                self._merge(spans, counts, idx if pid == os.getpid() else None)
            return results
        return traced

    def _merge(self, spans, counts, parent):
        offset = len(self.spans)
        for name, start, end, p, job in spans:
            self.spans.append([name, start, end, parent if p is None else p + offset, job])
        self.counts.update(counts)

    def install(self) -> None:
        """Patch every target in SPANS, plus the job wrappers and Node counter."""
        self._quantized = importlib.import_module("qreg.quantization").QuantizedLayer
        hooks = {"training.evaluate": self._before_evaluate,
                 "quantization.fake_quantize": self._before_fake_quantize}
        for module, attr, name in SPANS:
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, last, self.wrap(getattr(owner, last), name, hooks.get(name)))

        experiments = importlib.import_module("qreg.experiments")
        experiments.run_job = self._wrap_run_job(experiments.run_job)
        experiments.run_jobs = self._wrap_run_jobs(experiments.run_jobs)

        node = importlib.import_module("qreg.tensor").Node
        node_init = node.__init__

        def counted_init(obj, *args, **kwargs):
            self.counts["tensor.nodes"] += 1
            node_init(obj, *args, **kwargs)
        node.__init__ = counted_init


def _ms(seconds: float) -> float:
    return seconds * 1e3


def summarize(tracer: Tracer, workers: int, jobs: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the recorded spans, and the problems found.

    `X.ms` is the inclusive time of spans named X; `M.ms` for a layer M sums
    the outermost spans of that layer; `M.self_ms` is the time spent in M's
    spans minus the time covered by their child spans. Jobs run in pool
    workers overlap `run_jobs` instead of nesting in it, so with a pool
    `experiments.self_ms` includes the time `run_jobs` waits for workers.
    """
    spans = tracer.spans
    total: Counter = Counter()
    calls: Counter = Counter()
    child: Counter = Counter()
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child[parent] += end - start

    layer_self: Counter = Counter()
    layer_outer: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] += end - start - child[i]
        p = parent
        while p is not None and spans[p][0].split(".", 1)[0] != layer:
            p = spans[p][3]
        if p is None:
            layer_outer[layer] += end - start

    counts = tracer.counts
    job_ms = sorted(_ms(end - start) for name, start, end, _, _ in spans if name == "experiments.run_job")
    problems = []
    if len(job_ms) != jobs:
        problems.append(f"trace holds {len(job_ms)} run_job spans for {jobs} jobs")
    run_jobs_s = total["experiments.run_jobs"]
    steps = calls["training.Adam.step"]
    eval_layers = counts["evaluate.quantized_layers"]

    metrics = {
        "tensor.conv2d.ms": _ms(total["tensor.conv2d"]),
        "tensor.conv2d.calls": calls["tensor.conv2d"],
        "layers.BatchNorm.forward.ms": _ms(total["layers.BatchNorm.forward"]),
        "quantization.fake_quantize.ms": _ms(total["quantization.fake_quantize"]),
        "quantization.fake_quantize.calls": calls["quantization.fake_quantize"],
        "quantization.weight_scales.ms": _ms(total["quantization.weight_scales"]),
        "quantization.QuantizedLayer.forward.ms": _ms(total["quantization.QuantizedLayer.forward"]),
        "quantization.eval_weight_quant_per_layer":
            counts["evaluate.weight_fake_quantize"] / eval_layers if eval_layers else 0.0,
        "training.Adam.step.ms": _ms(total["training.Adam.step"]),
        "training.Adam.step.calls": steps,
        "training.evaluate.ms": _ms(total["training.evaluate"]),
        "training.evaluate.rows": counts["evaluate.rows"],
        "tensor.backward.ms": _ms(total["tensor.backward"]),
        "tensor.matmul.ms": _ms(total["tensor.matmul"]),
        "tensor.nodes_per_step": counts["tensor.nodes"] / steps if steps else 0.0,
        "layers.Dense.forward.ms": _ms(total["layers.Dense.forward"]),
        "layers.forward.ms": _ms(total["layers.forward"]),
        "layers.Model.state_dict.calls": calls["layers.Model.state_dict"],
        "losses.ms": _ms(layer_outer["losses"]),
        "regularization.ms": _ms(layer_outer["regularization"]),
        "pruning.prune_model.ms": _ms(total["pruning.prune_model"]),
        "experiments.run_job.ms_p50": float(np.median(job_ms)) if job_ms else 0.0,
        "experiments.run_job.ms_max": job_ms[-1] if job_ms else 0.0,
        "experiments.pool_busy_frac":
            sum(job_ms) / 1e3 / (workers * run_jobs_s) if run_jobs_s else 0.0,
        "experiments.build_datasets.ms": _ms(total["experiments.build_datasets"]),
        "config.load_config.ms": _ms(total["config.load_config"]),
        "data.ms": _ms(layer_outer["data"]),
        "metrics.ms": _ms(layer_outer["metrics"]),
        "records.write.ms": _ms(total["records.write"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = _ms(layer_self[layer])
    return metrics, problems
