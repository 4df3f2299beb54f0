"""Span tracer that measures the program's layers from outside it.

`Tracer.install()` rebinds each public function listed in `SPANS` at every
module of the package that holds a reference to it, and wraps the `Dense` and
`Activation` methods on their classes; `uninstall()` puts the originals
back.  Each call becomes a span: name, start, end, parent, thread and thread
CPU time.  Spans stay in per-thread buffers until `dump` writes them out;
`layer_metrics` turns a loaded trace into the per-layer metrics the benchmark
reports.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "expertnet"

# span name -> (module, attribute path inside it)
SPANS = {
    "cli.main": ("cli", "main"),
    "harness.run_grid": ("harness", "run_grid"),
    "harness.cell": ("harness", "_run_cell"),
    "harness.build_cell_datasets": ("harness", "build_cell_datasets"),
    "harness.dataset_hash": ("harness", "dataset_hash"),
    "harness.emit_report": ("harness", "emit_report"),
    "harness.parse_config": ("harness", "parse_config"),
    "data.make_blobs": ("data", "make_blobs"),
    "data.stratified_split": ("data", "stratified_split"),
    "data.subsample": ("data", "subsample"),
    "data.load_table": ("data", "load_table"),
    "data.one_hot_batch": ("data", "one_hot_batch"),
    "noise.corrupt_labels": ("noise", "corrupt_labels"),
    "noise.load_matrix_csv": ("noise", "load_matrix_csv"),
    "nn.forward": ("nn", "forward"),
    "nn.loss_and_gradients": ("nn", "loss_and_gradients"),
    "nn.sgd_step": ("nn", "sgd_step"),
    "nn.Dense.apply": ("nn", "Dense.apply"),
    "nn.Dense.backward": ("nn", "Dense.backward"),
    "nn.Activation.apply": ("nn", "Activation.apply"),
    "nn.Activation.backward": ("nn", "Activation.backward"),
    "model.build_expertnet": ("model", "build_expertnet"),
    "model.train": ("model", "train"),
    "model.train_step": ("model", "train_step"),
    "model.expert_input": ("model", "expert_input"),
    "model.infer_amateur": ("model", "infer_amateur"),
    "model.infer_full": ("model", "infer_full"),
    "baselines.train_baseline": ("baselines", "train_baseline"),
    "baselines.bootstrap_target": ("baselines", "bootstrap_target"),
}
# `_run_cell` is private; if a refactor removes it the cell metrics read as unmeasured.
OPTIONAL = {"harness.cell"}
# Spans that enclose other spans get a `.total_s` metric as well as `.self_s`.
PARENTS = ("cli.main", "harness.run_grid", "harness.cell", "harness.build_cell_datasets",
           "nn.forward", "nn.loss_and_gradients", "model.train", "model.train_step",
           "model.expert_input", "model.infer_amateur", "model.infer_full",
           "baselines.train_baseline", "baselines.bootstrap_target")
# Spans that run once per grid cell, under the harness; they vanish from the
# trace when cells run somewhere the tracer cannot see (another process).
CELL_LAYERS = tuple(n for n in SPANS if n.split(".")[0] in
                    ("data", "noise", "nn", "model", "baselines")) + (
    "harness.cell", "harness.build_cell_datasets", "harness.dataset_hash")


# Spans each derived metric is computed from; a span metric depends on its span.
DERIVED = {
    "model.train_step.forward_calls_per_step": {"nn.forward", "model.train_step"},
    "model.eval_share": {"model.infer_amateur", "model.infer_full", "model.train"},
    "nn.Dense.apply.gflops_per_s": {"nn.Dense.apply"},
    "nn.Dense.backward.gflops_per_s": {"nn.Dense.backward"},
    "harness.dataset_builds_per_cell": {"harness.build_cell_datasets"},
    "harness.cell.cpu_s": {"harness.cell"},
    "harness.cell.wait_s": {"harness.cell"},
    "harness.pool.parallelism": {"harness.cell", "harness.run_grid"},
}


def _dense_flops(multiplier):
    # args = (layer, x, ...); x is the (rows, in) batch
    return lambda args: multiplier * args[1].shape[0] * args[0].in_dim * args[0].out_dim


# Arithmetic done per call: apply is one (rows,in)x(in,out) product, backward two.
WORK = {"nn.Dense.apply": _dense_flops(2), "nn.Dense.backward": _dense_flops(4)}

FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "cpu_ns", "work")
NF = len(FIELDS)


class _ThreadBuffer:
    def __init__(self, tid: int):
        self.tid = tid
        self.spans = array("q")
        self.stack: list[int] = []
        self.next_id = 0


class Tracer:
    """Records a span for every call into the functions listed in `SPANS`."""

    def __init__(self):
        self.names = list(SPANS)
        self.missing: set[str] = set()
        self.buffers: list[_ThreadBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer(threading.get_ident())
            with self._lock:
                self.buffers.append(buf)
        return buf

    def _wrap(self, name_idx: int, fn, work=None):
        buffer = self._buffer
        perf, cpu = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            sid = buf.next_id
            buf.next_id += 1
            parent = buf.stack[-1] if buf.stack else -1
            buf.stack.append(sid)
            c0, t0 = cpu(), perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, c1 = perf(), cpu()
                buf.stack.pop()
                buf.spans.extend((sid, parent, name_idx, t0, t1, c1 - c0,
                                  work(args) if work else 0))
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for idx, (span, (modname, path)) in enumerate(SPANS.items()):
            home = sys.modules[f"{PACKAGE}.{modname}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(idx, orig, WORK.get(span)))
                continue
            orig = getattr(home, attr, None)
            if orig is None and span in OPTIONAL:
                self.missing.add(span)
                continue
            if orig is None:
                raise AttributeError(f"{PACKAGE}.{modname} has no {attr}")
            wrapper = self._wrap(idx, orig, WORK.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str):
        """Write `<path>.json` (header) and `<path>.bin` (int64 span rows)."""
        with self._lock:
            buffers = list(self.buffers)
        header = {"fields": FIELDS, "names": self.names, "missing": sorted(self.missing),
                  "pid": os.getpid(),
                  "threads": [[b.tid, len(b.spans) // NF] for b in buffers]}
        with open(path + ".bin", "wb") as fh:
            for b in buffers:
                b.spans.tofile(fh)
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


@dataclass
class Trace:
    names: list[str]
    threads: list[tuple[int, array]]  # (thread id, flat span rows)
    missing: set[str]


def load(path: str) -> Trace:
    with open(path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    if list(header["fields"]) != list(FIELDS):
        raise ValueError(f"{path}: unexpected span fields {header['fields']}")
    threads = []
    with open(path + ".bin", "rb") as fh:
        for tid, count in header["threads"]:
            rows = array("q")
            rows.fromfile(fh, count * NF)
            threads.append((tid, rows))
    return Trace(header["names"], threads, set(header["missing"]))


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    cpu_ns: int = 0
    work: int = 0


def span_stats(trace: Trace) -> dict[str, SpanStats]:
    """Per-name totals.  Self time is a span's duration minus the durations of
    its direct children, which always run on the span's own thread."""
    stats = {name: SpanStats() for name in trace.names}
    for _, rows in trace.threads:
        child_ns: dict[int, int] = defaultdict(int)
        for i in range(0, len(rows), NF):
            child_ns[rows[i + 1]] += rows[i + 4] - rows[i + 3]
        for i in range(0, len(rows), NF):
            s = stats[trace.names[rows[i + 2]]]
            duration = rows[i + 4] - rows[i + 3]
            s.calls += 1
            s.total_ns += duration
            s.self_ns += duration - child_ns.get(rows[i], 0)
            s.cpu_ns += rows[i + 5]
            s.work += rows[i + 6]
    return stats


def count_under(trace: Trace, name: str, ancestor: str) -> int:
    """Calls of `name` that have an `ancestor` span somewhere above them."""
    target, above = trace.names.index(name), trace.names.index(ancestor)
    count = 0
    for _, rows in trace.threads:
        parent = {rows[i]: (rows[i + 1], rows[i + 2]) for i in range(0, len(rows), NF)}
        for i in range(0, len(rows), NF):
            if rows[i + 2] != target:
                continue
            p = rows[i + 1]
            while p != -1:
                p, kind = parent[p]
                if kind == above:
                    count += 1
                    break
    return count


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for name in SPANS:
        specs.append((f"{name}.calls", "count"))
        specs.append((f"{name}.self_s", "s"))
        if name in PARENTS:
            specs.append((f"{name}.total_s", "s"))
    specs += [
        ("model.train_step.forward_calls_per_step", "calls/step"),
        ("model.eval_share", "ratio"),
        ("nn.Dense.apply.gflops_per_s", "GFLOP/s"),
        ("nn.Dense.backward.gflops_per_s", "GFLOP/s"),
        ("harness.dataset_builds_per_cell", "builds/cell"),
        ("harness.cell.cpu_s", "s"),
        ("harness.cell.wait_s", "s"),
        ("harness.pool.parallelism", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return specs


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(trace: Trace, cells: int, data_cells: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced run (the `trace.*` ones excepted).

    `cells` is the number of grid cells the run trained and `data_cells` the
    number of distinct (ratio, fraction, seed) datasets among them.  None
    marks a metric that this trace cannot measure.
    """
    st = span_stats(trace)
    out: dict[str, float | None] = {}
    for name in SPANS:
        s = st[name]
        out[f"{name}.calls"] = s.calls
        out[f"{name}.self_s"] = s.self_ns / 1e9
        if name in PARENTS:
            out[f"{name}.total_s"] = s.total_ns / 1e9
    steps = st["model.train_step"].calls
    out["model.train_step.forward_calls_per_step"] = (
        _ratio(count_under(trace, "nn.forward", "model.train_step"), steps))
    out["model.eval_share"] = _ratio(
        st["model.infer_amateur"].total_ns + st["model.infer_full"].total_ns,
        st["model.train"].total_ns)
    for dense in ("nn.Dense.apply", "nn.Dense.backward"):
        out[f"{dense}.gflops_per_s"] = _ratio(st[dense].work, st[dense].self_ns)
    out["harness.dataset_builds_per_cell"] = _ratio(
        st["harness.build_cell_datasets"].calls, data_cells)
    cell = st["harness.cell"]
    out["harness.cell.cpu_s"] = cell.cpu_ns / 1e9
    out["harness.cell.wait_s"] = (cell.total_ns - cell.cpu_ns) / 1e9
    out["harness.pool.parallelism"] = _ratio(cell.cpu_ns, st["harness.run_grid"].total_ns)

    unmeasured = set(trace.missing)
    trained = st["model.train"].calls + st["baselines.train_baseline"].calls
    if trained < cells:
        unmeasured.update(CELL_LAYERS)
    for key in out:
        if DERIVED.get(key, {key.rsplit(".", 1)[0]}) & unmeasured:
            out[key] = None
    return out
