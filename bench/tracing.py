"""Spans around the calls into focalcal's modules, recorded from outside the
package: the tracer swaps each public function for a timing wrapper in every
focalcal module that holds it, so names brought in with ``from ... import``
are traced too, and puts the originals back afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, functions); a span's name is its layer in the metrics
LAYERS = {
    "data.load": ("focalcal.data", ("load_predictions", "load_points")),
    "common.softmax": ("focalcal._common", ("softmax",)),
    "common.libm": ("focalcal._common", ("libm",)),
    "losses.logit_grads": ("focalcal.losses", ("batch_logit_grads", "batch_values")),
    "metrics.binned": ("focalcal.metrics", ("bin_predictions", "ece", "mce", "adaece",
                                            "classwise_ece", "reliability_table")),
    "metrics.scores": ("focalcal.metrics", ("score_metrics",)),
    "metrics.smce": ("focalcal.metrics", ("smce",)),
    "calibrate.temp_scan": ("focalcal.calibrate", ("temperature_scan", "apply_temperature")),
    "calibrate.pgap": ("focalcal.calibrate", ("pgap",)),
    "train.train": ("focalcal.train", ("train",)),
    "train.grid": ("focalcal.train", ("decision_grid",)),
    "cli.run": ("focalcal.cli", ("run",)),
}

# work done by one call, read from its result
_SIZES = {
    "data.load": lambda r: r.n if hasattr(r, "n") else len(r),
    "common.softmax": lambda r: r.size,
    "common.libm": lambda r: r.size,
    "metrics.smce": lambda r: r.witness.knots.size,
    "calibrate.temp_scan": lambda r: len(r.grid) if hasattr(r, "grid") else 0,
    "calibrate.pgap": lambda r: r.map.knots.size,
    "train.train": lambda r: len(r[1].epochs),
}


class Tracer:
    """Keeps spans in memory as (name, start, end, parent index, size) tuples."""

    def __init__(self):
        self.spans: list = []
        self.bytes_written = 0
        self._stack: list = []
        self._swapped: list = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[i] = (name, t0, clock(), parent, 0)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[i] = (name, t0, t1, parent, size(out) if size else 0)
            return out
        return traced

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def write(path, text):
            self.bytes_written += len(text.encode())
            return fn(path, text)
        return write

    def install(self):
        wrappers = {}
        for name, (module, functions) in LAYERS.items():
            for fn in functions:
                original = getattr(sys.modules[module], fn)
                wrappers[id(original)] = self._span(name, original)
        writer = sys.modules["focalcal.cli"]._atomic_write
        wrappers[id(writer)] = self._count_bytes(writer)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "focalcal":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self):
        for module, attr, value in reversed(self._swapped):
            setattr(module, attr, value)
        self._swapped.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, lo, hi, bytes_written):
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one traced round).

    A ``*_s`` metric is the layer's self time: its spans' durations minus
    the parts covered by their child spans.
    """
    self_s, calls, size = {}, {}, {}
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        _, t0, t1, parent, _ = spans[i]
        if parent >= lo:
            child[parent - lo] += t1 - t0
    pgap_libm = 0
    train_total = 0.0
    for i in range(lo, hi):
        name, t0, t1, parent, n = spans[i]
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i - lo]
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + n
        if name == "train.train":
            train_total += t1 - t0
        if name == "common.libm":
            while parent >= lo and spans[parent][0] != "calibrate.pgap":
                parent = spans[parent][3]
            pgap_libm += parent >= lo
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    epochs = size.get("train.train", 0)
    knots = size.get("calibrate.pgap", 0)
    return {
        "data.load_s": s("data.load"),
        "data.rows": size.get("data.load", 0),
        "common.softmax_s": s("common.softmax"),
        "common.softmax_calls": calls.get("common.softmax", 0),
        "common.softmax_elems": size.get("common.softmax", 0),
        "common.libm_s": s("common.libm"),
        "common.libm_calls": calls.get("common.libm", 0),
        "common.libm_elems": size.get("common.libm", 0),
        "losses.logit_grads_s": s("losses.logit_grads"),
        "losses.logit_grads_calls": calls.get("losses.logit_grads", 0),
        "metrics.binned_s": s("metrics.binned"),
        "metrics.scores_s": s("metrics.scores"),
        "metrics.smce_s": s("metrics.smce"),
        "metrics.smce_knots": size.get("metrics.smce", 0),
        "calibrate.temp_scan_s": s("calibrate.temp_scan"),
        "calibrate.temperatures": size.get("calibrate.temp_scan", 0),
        "calibrate.pgap_s": s("calibrate.pgap"),
        "calibrate.pgap_knots": knots,
        "calibrate.pgap_libm_calls_per_knot": pgap_libm / knots if knots else 0.0,
        "train.train_s": s("train.train"),
        "train.epochs": epochs,
        "train.epoch_ms": 1000.0 * train_total / epochs if epochs else 0.0,
        "train.grid_s": s("train.grid"),
        "cli.self_s": s("cli.run"),
        "cli.bytes_written": bytes_written,
        "trace.spans": hi - lo,
    }
