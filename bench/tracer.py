"""Timing spans around the public functions of each mmgl module.

The tracer lives entirely in the benchmark: it replaces functions at every
place they are looked up (a module that did ``from .data import zscore`` holds
its own binding, so wrapping only the defining module would miss that call)
and restores the originals afterwards. Spans (name, start, end, parent, op)
are kept in memory and written out once, at the end of a run.

Tracing assumes one thread, which the benchmark guarantees by pinning
``MMGL_THREADS=1``: the parent of a span is the span open when it started.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (defining module, attribute, span name). An attribute "Class.method" is
# patched on the class; a plain function is patched in every mmgl module
# whose namespace binds it.
TARGETS = [
    ("mmgl.cli", "main", "cli.main"),
    ("mmgl.cli", "load_model", "cli.load_model"),
    ("mmgl.cli", "_load_new_patients", "cli.read_patients"),
    ("mmgl.data", "load_csv", "data.load_csv"),
    ("mmgl.data", "impute_mean", "data.impute_mean"),
    ("mmgl.data", "zscore", "data.zscore"),
    ("mmgl.data", "stratified_kfold", "data.kfold"),
    ("mmgl.maff", "fuse_batch", "maff.fuse_batch"),
    ("mmgl.maff", "fuse_one", "maff.fuse_one"),
    ("mmgl.agl", "learned_adjacency", "agl.learned_adjacency"),
    ("mmgl.agl", "graph_loss", "agl.graph_loss"),
    ("mmgl.gcn", "normalize_adj", "gcn.normalize_adj"),
    ("mmgl.gcn", "normalize_adj_np", "gcn.normalize_adj_np"),
    ("mmgl.gcn", "gcn_forward", "gcn.gcn_forward"),
    ("mmgl.gcn", "gcn_forward_np", "gcn.gcn_forward_np"),
    ("mmgl.gcn", "extend_adjacency", "gcn.extend_adjacency"),
    ("mmgl.train", "run_cv", "train.run_cv"),
    ("mmgl.train", "fit", "train.fit"),
    ("mmgl.train", "train_epoch", "train.epoch"),
    ("mmgl.train", "total_loss", "train.loss"),
    ("mmgl.train", "Model.refresh_cache", "train.refresh_cache"),
    ("mmgl.train", "predict_inductive", "train.predict_patient"),
    ("mmgl.train", "predict_inductive_batch", "train.predict_batch"),
    ("mmgl.numcore", "Tape.backward", "numcore.backward"),
    ("mmgl.numcore", "Adam.step", "numcore.adam"),
]

# Per-layer timing metrics: metric base -> span name. Each is reported as the
# per-call median in ms ("<base>_ms") with its call count ("<base>_calls").
TIMINGS = {
    "numcore.backward": "numcore.backward",
    "numcore.adam": "numcore.adam",
    "maff.fuse": "maff.fuse_batch",
    "maff.fuse_one": "maff.fuse_one",
    "agl.adjacency": "agl.learned_adjacency",
    "agl.graph_loss": "agl.graph_loss",
    "gcn.normalize": "gcn.normalize_adj",
    "gcn.forward": "gcn.gcn_forward",
    "gcn.extend": "gcn.extend_adjacency",
    "gcn.normalize_np": "gcn.normalize_adj_np",
    "gcn.forward_np": "gcn.gcn_forward_np",
    "train.predict_patient": "train.predict_patient",
    "train.epoch": "train.epoch",
    "train.loss": "train.loss",
    "train.refresh_cache": "train.refresh_cache",
    "data.load_csv": "data.load_csv",
    "data.kfold": "data.kfold",
    "cli.load_model": "cli.load_model",
    "cli.read_patients": "cli.read_patients",
}

# Counts read from the tape; each must repeat exactly from call to call.
COUNTS = ("numcore.tape_nodes", "numcore.nxn_nodes", "numcore.tape_mib",
          "maff.tape_nodes", "agl.nxn_nodes")


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for base in TIMINGS:
        specs.append((f"{base}_ms", "ms", "lower"))
        if base == "train.epoch":
            specs.append(("train.epoch_ms_p90", "ms", "lower"))
            specs.append(("train.epoch_self_ms", "ms", "lower"))
        specs.append((f"{base}_calls", "count", "higher"))
    specs += [
        ("data.preprocess_ms", "ms", "lower"),
        ("data.preprocess_calls", "count", "higher"),
        ("cli.self_ms", "ms", "lower"),
        ("cli.main_calls", "count", "higher"),
    ]
    for name in COUNTS:
        specs.append((name, "MiB" if name.endswith("_mib") else "count", "lower"))
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


def _square_count(nodes, n):
    return sum(1 for node in nodes if node.value.shape == (n, n))


class Tracer:
    """Records spans and tape counts while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = {name: [] for name in COUNTS + ("agl.adjacency_nxn", "agl.loss_nxn")}
        self.op = 0
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._graph_n = None  # side of the adjacency last normalised

    # -- counters: called outside the span they belong to -------------------
    def _before(self, span, args):
        if span == "gcn.normalize_adj":
            self._graph_n = args[1].value.shape[0]
        elif span == "numcore.backward":
            nodes = args[0].nodes
            self.counts["numcore.tape_nodes"].append(len(nodes))
            self.counts["numcore.nxn_nodes"].append(_square_count(nodes, self._graph_n))
            self.counts["numcore.tape_mib"].append(
                sum(node.value.nbytes for node in nodes) / 2**20)
        elif span in ("maff.fuse_batch", "agl.learned_adjacency", "agl.graph_loss"):
            return len(args[0].nodes)
        return None

    def _after(self, span, args, mark):
        if mark is None:
            return
        new = args[0].nodes[mark:]
        if span == "maff.fuse_batch":
            self.counts["maff.tape_nodes"].append(len(new))
        elif span == "agl.learned_adjacency":
            self.counts["agl.adjacency_nxn"].append(_square_count(new, args[1].value.shape[1]))
        else:
            self.counts["agl.loss_nxn"].append(_square_count(new, args[2].value.shape[0]))

    def _wrap(self, span, fn):
        spans, stack = self.spans, self._stack
        counted = span in ("gcn.normalize_adj", "numcore.backward", "maff.fuse_batch",
                           "agl.learned_adjacency", "agl.graph_loss")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = self._before(span, args) if counted else None
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if counted:
                    self._after(span, args, mark)

        return wrapper

    def install(self):
        """Patch every target at every mmgl binding of it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "mmgl" or name.startswith("mmgl."))]
        for mod_name, attr, span in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def write(self, path):
        """One JSON object per span; times are seconds on perf_counter."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")

    # -- reduction ----------------------------------------------------------
    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (n, start, end, _, _) in enumerate(self.spans) if n == name]

    def per_op_totals(self, names):
        totals = {}
        for n, start, end, _, op in self.spans:
            if n in names:
                totals[op] = totals.get(op, 0.0) + (end - start)
        return list(totals.values())

    def counts_repeat(self):
        """True when every count took a single value over the run."""
        return all(len(set(v)) <= 1 for v in self.counts.values())

    def metrics(self, overhead_ratio):
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        def ms(values):
            return statistics.median(values) * 1e3 if values else 0.0

        for base, span in TIMINGS.items():
            d = self.durations(span)
            put(f"{base}_ms", ms(d), "ms")
            if base == "train.epoch":
                put("train.epoch_ms_p90", percentile(d, 90) * 1e3 if d else 0.0, "ms")
                put("train.epoch_self_ms", ms(self.self_times(span)), "ms")
            put(f"{base}_calls", len(d), "count")
        pre = self.per_op_totals({"data.impute_mean", "data.zscore"})
        put("data.preprocess_ms", ms(pre), "ms")
        put("data.preprocess_calls",
            len(self.durations("data.impute_mean")) + len(self.durations("data.zscore")), "count")
        put("cli.self_ms", ms(self.self_times("cli.main")), "ms")
        put("cli.main_calls", len(self.durations("cli.main")), "count")

        def count(name):
            v = self.counts[name]
            return statistics.median(v) if v else 0

        for name in COUNTS:
            if name != "agl.nxn_nodes":
                put(name, count(name), "MiB" if name.endswith("_mib") else "count")
        put("agl.nxn_nodes", count("agl.adjacency_nxn") + count("agl.loss_nxn"), "count")
        put("trace.overhead_ratio", overhead_ratio, "ratio")
        return out


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 < q < 100)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
