"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

Spans are recorded from the benchmark's own code: `install` wraps the
public functions of each `oocs3d` module, in every module namespace that
holds a reference to them (so `oocs3d.block.conv3d_forward`, the name the
block actually calls, is wrapped as well as `oocs3d.tensor.conv3d_forward`),
and wraps the container constructors.  `uninstall` restores the originals,
so untraced operations run the unmodified library.  Spans stay in memory
until the run ends.

A span is [name, op, parent, start, end, attrs]: `op` is the index of the
benchmark operation that caused it (its shared identifier), `parent` the
index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

MIB = float(1 << 20)

# (defining module, attribute, span name)
FUNCTIONS = (
    ("oocs3d.tensor", "conv3d_forward", "tensor.conv3d_forward"),
    ("oocs3d.tensor", "conv3d_backward", "tensor.conv3d_backward"),
    ("oocs3d.block", "block_forward", "block.block_forward"),
    ("oocs3d.block", "block_backward", "block.block_backward"),
    ("oocs3d.losses", "bce_dice_loss", "losses.bce_dice_loss"),
    ("oocs3d.kernels", "make_kernel", "kernels.make_kernel"),
    ("oocs3d.volio", "read_mha", "volio.read"),
    ("oocs3d.volio", "read_raw_json", "volio.read"),
    ("oocs3d.volio", "write_mha", "volio.write"),
    ("oocs3d.volio", "write_raw_json", "volio.write"),
    ("oocs3d.preprocess", "resample", "preprocess.resample"),
    ("oocs3d.preprocess", "resample_mask", "preprocess.resample_mask"),
    ("oocs3d.preprocess", "zscore", "preprocess.zscore"),
    ("oocs3d.preprocess", "crop_or_pad", "preprocess.crop_or_pad"),
    ("oocs3d.preprocess", "crop_or_pad_mask", "preprocess.crop_or_pad_mask"),
    ("oocs3d.perturb", "gaussian_blur", "perturb.gaussian_blur"),
    ("oocs3d.perturb", "gaussian_noise", "perturb.gaussian_noise"),
    ("oocs3d.perturb", "motion_artifact", "perturb.motion_artifact"),
    ("oocs3d.metrics", "dice", "metrics.dice"),
    ("oocs3d.metrics", "hausdorff_mm", "metrics.hausdorff_mm"),
    ("oocs3d.cli", "main", "cli.main"),
    ("oocs3d.gradcheck", "run_gradcheck_grid", "gradcheck.run_gradcheck_grid"),
)
CONTAINERS = ("Volume", "BinaryMask", "FeatureMap", "ConvWeights")
CONVS = ("tensor.conv3d_forward", "tensor.conv3d_backward")

# (metric, unit, better) in the order the traced run prints them
LAYER_METRICS = (
    [(f"{conv}.{m}", u, b) for conv in CONVS for m, u, b in (
        ("calls", "count", "lower"), ("busy_s", "s", "lower"), ("gmac", "GMAC", "lower"),
        ("gmac_per_s", "GMAC/s", "higher"), ("mb_computed", "MiB", "lower"),
        ("peak_alloc_mb", "MiB", "lower"))]
    + [
        ("tensor.containers.calls", "count", "lower"),
        ("tensor.containers.busy_s", "s", "lower"),
        ("block.block_forward.busy_s", "s", "lower"),
        ("block.block_forward.self_s", "s", "lower"),
        ("block.block_backward.busy_s", "s", "lower"),
        ("block.block_backward.self_s", "s", "lower"),
        ("block.block_backward.discarded_gmac", "GMAC", "lower"),
        ("block.fixed_injection.calls", "count", "lower"),
        ("block.fixed_injection.busy_s", "s", "lower"),
        ("block.fixed_injection.gmac", "GMAC", "lower"),
        ("losses.bce_dice_loss.busy_s", "s", "lower"),
        ("kernels.make_kernel.calls", "count", "lower"),
        ("kernels.make_kernel.busy_s", "s", "lower"),
    ]
    + [(f"volio.{io}.{m}", u, b) for io in ("read", "write") for m, u, b in (
        ("calls", "count", "lower"), ("busy_s", "s", "lower"), ("mb", "MiB", "lower"),
        ("mb_per_s", "MiB/s", "higher"))]
    + [(f"{name}.busy_s", "s", "lower") for name in (
        "preprocess.resample", "preprocess.resample_mask", "preprocess.zscore",
        "preprocess.crop_or_pad", "preprocess.crop_or_pad_mask", "perturb.gaussian_blur",
        "perturb.gaussian_noise", "perturb.motion_artifact", "metrics.dice", "metrics.hausdorff_mm")]
    + [
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("gradcheck.forward_calls", "count", "lower"),
        ("gradcheck.redraws", "count", "lower"),
        ("gradcheck.useful_ratio", "ratio", "higher"),
        ("trace.conv_share", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "s", "lower"),
    ]
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.fixed_ids: frozenset[int] = frozenset()  # ids of the current block's fixed On/Off weights
        self._stack: list[int] = []
        self._alloc_seen: set[tuple] = set()

    def begin(self, name: str) -> list:
        rec = [name, self.op, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as f:
            for i, (name, op, parent, start, end, attrs) in enumerate(self.spans):
                doc = {"id": i, "op": op, "parent": parent, "name": name, "start": start, "end": end}
                doc.update(attrs or {})
                f.write(json.dumps(doc) + "\n")


def _conv_attrs(name, args, kwargs, out):
    """Work computed from shapes, not measured: MACs and bytes touched."""
    x, w = args[0], args[1]
    if name == "tensor.conv3d_forward":
        voxels = out.data[0].size
        macs = w.data.size * voxels
        nbytes = x.data.nbytes + w.data.nbytes + out.data.nbytes
    else:
        grad_out = args[2] if len(args) > 2 else kwargs["grad_out"]
        voxels = grad_out.data[0].size
        macs = 2 * w.data.size * voxels  # input gradient and weight gradient
        nbytes = x.data.nbytes + w.data.nbytes + grad_out.data.nbytes + out[0].data.nbytes + out[1].data.nbytes
    return {"gmac": macs / 1e9, "mb": nbytes / MIB}


def _file_mb(path) -> float:
    size = os.path.getsize(path)
    if str(path).endswith(".json"):
        size += os.path.getsize(os.path.splitext(path)[0] + ".raw")
    return size / MIB


def _wrap(tracer: Tracer, fn, name: str):
    if name in CONVS:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w = args[1]
            sig = (name, args[0].data.shape, w.data.shape)
            measure = sig not in tracer._alloc_seen and not tracemalloc.is_tracing()
            rec = tracer.begin(name)
            try:
                if measure:
                    tracer._alloc_seen.add(sig)
                    tracemalloc.start()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if measure:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            finally:
                tracer.end(rec)
            rec[5] = _conv_attrs(name, args, kwargs, out)
            rec[5]["fixed"] = id(w) in tracer.fixed_ids
            if measure:
                rec[5]["peak_alloc_mb"] = peak / MIB
            return out
        return traced

    if name in ("block.block_forward", "block.block_backward"):
        params_pos = 1 if name == "block.block_forward" else 2

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            params = args[params_pos]
            saved, tracer.fixed_ids = tracer.fixed_ids, frozenset((id(params.fixed_on), id(params.fixed_off)))
            try:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            finally:
                tracer.fixed_ids = saved
        return traced

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        if name.startswith("volio."):
            rec[5] = {"mb": _file_mb(args[1] if name == "volio.write" else args[0])}
        return out
    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function wherever an `oocs3d` module refers to it; return the undo list."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "oocs3d" or n.startswith("oocs3d.")]
    undo = []
    for mod_name, attr, name in FUNCTIONS:
        if mod_name not in sys.modules:  # never imported, so never called
            continue
        orig = getattr(sys.modules[mod_name], attr)
        wrapper = _wrap(tracer, orig, name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, orig))
    tensor = sys.modules["oocs3d.tensor"]
    for cls_name in CONTAINERS:
        cls = getattr(tensor, cls_name)
        orig = cls.__init__
        cls.__init__ = _wrap(tracer, orig, "tensor.containers")
        undo.append((cls, "__init__", orig))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, key, orig in reversed(undo):
        setattr(owner, key, orig)


def layer_metrics(tracer: Tracer, traced_ops: list[float], untraced_ops: list[float], counters: dict) -> dict:
    """Per-operation means of the layer metrics over the traced operations.

    `traced_ops` and `untraced_ops` are wall seconds per operation; `counters`
    holds per-run totals the workload reports from its results.
    """
    n = max(len(traced_ops), 1)
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, op, parent, start, end, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, busy, self_s = {}, {}, {}
    extra = {"gmac": {}, "mb": {}, "peak_alloc_mb": {}}
    fixed_calls = fixed_busy = fixed_gmac = discarded = 0.0
    covered: dict[int, float] = {}
    op_time: dict[int, float] = {}
    for i, (name, op, parent, start, end, attrs) in enumerate(spans):
        dur = end - start
        if name == "op":
            op_time[op] = dur
            continue
        if parent >= 0 and spans[parent][0] == "op":
            covered[op] = covered.get(op, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        if not attrs:
            continue
        for key, acc in extra.items():
            if key in attrs:
                acc[name] = max(acc.get(name, 0.0), attrs[key]) if key == "peak_alloc_mb" \
                    else acc.get(name, 0.0) + attrs[key]
        if attrs.get("fixed"):
            fixed_calls += 1
            fixed_busy += dur
            fixed_gmac += attrs["gmac"]
            if name == "tensor.conv3d_backward":
                discarded += attrs["gmac"] / 2  # the weight-gradient half is never used
    m = {}
    for conv in CONVS:
        m[f"{conv}.calls"] = calls.get(conv, 0) / n
        m[f"{conv}.busy_s"] = busy.get(conv, 0.0) / n
        m[f"{conv}.gmac"] = extra["gmac"].get(conv, 0.0) / n
        m[f"{conv}.gmac_per_s"] = extra["gmac"].get(conv, 0.0) / busy[conv] if busy.get(conv) else 0.0
        m[f"{conv}.mb_computed"] = extra["mb"].get(conv, 0.0) / n
        m[f"{conv}.peak_alloc_mb"] = extra["peak_alloc_mb"].get(conv, 0.0)
    m["tensor.containers.calls"] = calls.get("tensor.containers", 0) / n
    m["tensor.containers.busy_s"] = busy.get("tensor.containers", 0.0) / n
    for blk in ("block.block_forward", "block.block_backward"):
        m[f"{blk}.busy_s"] = busy.get(blk, 0.0) / n
        m[f"{blk}.self_s"] = self_s.get(blk, 0.0) / n
    m["block.block_backward.discarded_gmac"] = discarded / n
    m["block.fixed_injection.calls"] = fixed_calls / n
    m["block.fixed_injection.busy_s"] = fixed_busy / n
    m["block.fixed_injection.gmac"] = fixed_gmac / n
    m["losses.bce_dice_loss.busy_s"] = busy.get("losses.bce_dice_loss", 0.0) / n
    m["kernels.make_kernel.calls"] = calls.get("kernels.make_kernel", 0) / n
    m["kernels.make_kernel.busy_s"] = busy.get("kernels.make_kernel", 0.0) / n
    for io in ("read", "write"):
        name = f"volio.{io}"
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.busy_s"] = busy.get(name, 0.0) / n
        m[f"{name}.mb"] = extra["mb"].get(name, 0.0) / n
        m[f"{name}.mb_per_s"] = extra["mb"].get(name, 0.0) / busy[name] if busy.get(name) else 0.0
    for metric, _, _ in LAYER_METRICS:
        if metric.endswith(".busy_s") and metric not in m:
            m[metric] = busy.get(metric[: -len(".busy_s")], 0.0) / n
    m["cli.main.calls"] = calls.get("cli.main", 0) / n
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0) / n
    m["gradcheck.forward_calls"] = calls.get("block.block_forward", 0) / n if "gradcheck.run_gradcheck_grid" in calls else 0.0
    accepted, redraws = counters.get("directions", 0), counters.get("redraws", 0)
    m["gradcheck.redraws"] = redraws / n
    m["gradcheck.useful_ratio"] = accepted / (accepted + redraws) if accepted + redraws else 0.0
    total = sum(op_time.values())
    conv_busy = sum(busy.get(c, 0.0) for c in CONVS)
    m["trace.conv_share"] = conv_busy / total if total else 0.0
    m["trace.coverage"] = statistics.median(covered.get(op, 0.0) / t for op, t in op_time.items()) if op_time else 0.0
    m["trace.overhead"] = (statistics.median(traced_ops) - statistics.median(untraced_ops)) \
        if traced_ops and untraced_ops else 0.0
    return m
