"""In-memory span tracing around the public layer functions of ybe_forge.

`Tracer.installed()` replaces each listed function, in every loaded
`ybe_forge` module namespace that holds it, by a wrapper that records a span
(name, start, end, parent, request id) and work counts read from the
arguments.  The wrapper returns the wrapped function's own result and calls
the original object, so `lru_cache`s stay in place and keep their
`cache_info()`.  Leaving the context restores the original bindings.

Per-layer metrics are derived from the spans afterwards: self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

MODULES = ("exact", "lie", "cuspidal", "stolin", "elliptic", "document", "verify", "cli")


def _kernel_work(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ncols = len(rows[0]) if rows else (args[1] if len(args) > 1 else kwargs["ncols"])
    counts["exact.kernel.cells"] += len(rows) * ncols


def _solve_multi_work(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    rhs = args[1] if len(args) > 1 else kwargs["rhs_cols"]
    counts["exact.solve_multi.cells"] += len(rows) * len(rows[0])
    counts["exact.solve_multi.rhs"] += len(rhs)


def _det_work(counts, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    counts["exact.det.cells"] += len(rows) ** 2


def _dumps_work(counts, args, kwargs, result):
    counts["document.bytes"] += len(result)


VERIFY_CHECKS = (
    "check_j_goldens",
    "check_cuspidal_cybe",
    "check_stolin_cybe",
    "check_comparison",
    "check_flip_symmetry",
    "check_ansatz",
    "check_frobenius_goldens",
    "check_closed_form_d1",
    "check_series",
    "check_theta_relation",
    "check_belavin",
    "check_truncation_stability",
    "check_zoo_rational",
    "check_zoo_cherednik",
    "check_zoo_baxter",
)

# (module, function, quantities beyond self_s, work counter).  `hit_ratio` is
# only listed for functions behind an lru_cache.
LAYERS = (
    ("exact", "kernel", ("calls", "cells"), _kernel_work),
    ("exact", "solve_multi", ("calls", "rhs", "cells"), _solve_multi_work),
    ("exact", "det", ("calls", "cells"), _det_work),
    ("exact", "interpolate", ("calls",), None),
    ("exact", "eval_matrix_poly", ("calls",), None),
    ("cuspidal", "build_j", ("hit_ratio",), None),
    ("cuspidal", "sol_space", ("hit_ratio",), None),
    ("cuspidal", "g_elements", ("hit_ratio",), None),
    ("cuspidal", "assemble_r", ("calls",), None),
    ("cuspidal", "r_ansatz", (), None),
    ("cuspidal", "psi_transport", (), None),
    ("stolin", "frobenius_gram", ("calls",), None),
    ("stolin", "frobenius_split", ("calls",), None),
    ("stolin", "solve_dec", ("hit_ratio",), None),
    ("stolin", "assemble_stolin_r", ("calls",), None),
    ("stolin", "build_order", (), None),
    ("stolin", "series_r", (), None),
    ("lie", "tensor_from_pairs", ("calls",), None),
    ("lie", "cybe_lhs", ("calls",), None),
    ("lie", "apply_gauge", (), None),
    ("lie", "heisenberg", ("hit_ratio",), None),
    ("elliptic", "theta1", ("calls",), None),
    ("elliptic", "kronecker_sigma", (), None),
    ("elliptic", "belavin_r", ("calls",), None),
    ("document", "dumps", (), _dumps_work),
    ("document", "loads", (), None),
) + tuple(("verify", name, ("total_s",), None) for name in VERIFY_CHECKS)

COUNTS = ("exact.kernel.cells", "exact.solve_multi.cells", "exact.solve_multi.rhs",
          "exact.det.cells", "document.bytes")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    units = {"self_s": "s", "total_s": "s", "calls": "count", "cells": "count",
             "rhs": "count", "hit_ratio": "ratio"}
    out = []
    for mod, fn, quantities, _ in LAYERS:
        out.append(("%s.%s.self_s" % (mod, fn), "s"))
        out += [("%s.%s.%s" % (mod, fn, q), units[q]) for q in quantities]
    out += [("document.bytes", "bytes"), ("cli.startup_s", "s"), ("trace.overhead_s", "s")]
    return out


def load_modules():
    return {m: importlib.import_module("ybe_forge." + m) for m in MODULES}


class Tracer:
    """Span recorder for one process.  `request` tags the spans of the
    operation in progress."""

    def __init__(self, request: int = 0):
        self.request = request
        self.names = ["%s.%s" % (mod, fn) for mod, fn, _, _ in LAYERS]
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cache_delta: dict = {}
        self._stack: list = []
        self._bindings = None
        self._cached: dict = {}

    def _wrap(self, name_id: int, fn, work):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.request)
            if work is not None:
                work(counts, args, kwargs, result)
            return result

        return traced

    def _sites(self):
        """(namespace, attribute, original, wrapper) for every binding of a
        listed function in a loaded ybe_forge module, found once."""
        if self._bindings is None:
            mods = load_modules()
            namespaces = [m for name, m in sys.modules.items()
                          if name == "ybe_forge" or name.startswith("ybe_forge.")]
            self._bindings = []
            for name_id, (mod, fn, _, work) in enumerate(LAYERS):
                orig = getattr(mods[mod], fn)
                wrapper = self._wrap(name_id, orig, work)
                for ns in namespaces:
                    self._bindings += [(ns, attr, orig, wrapper)
                                       for attr, value in vars(ns).items() if value is orig]
                if hasattr(orig, "cache_info"):
                    self._cached[self.names[name_id]] = orig
        return self._bindings

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block; cache hits and misses accumulate."""
        sites = self._sites()
        before = {name: f.cache_info() for name, f in self._cached.items()}
        for ns, attr, _, wrapper in sites:
            setattr(ns, attr, wrapper)
        try:
            yield self
        finally:
            for ns, attr, orig, _ in sites:
                setattr(ns, attr, orig)
            for name, f in self._cached.items():
                info = f.cache_info()
                hits, misses = self.cache_delta.get(name, (0, 0))
                self.cache_delta[name] = (hits + info.hits - before[name].hits,
                                          misses + info.misses - before[name].misses)

    def summary(self) -> dict:
        """Self time, inclusive time (outermost span of a name only) and call
        count per layer, plus work counts and cache deltas."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layers = {}
        for i, (name_id, t0, t1, parent, _) in enumerate(spans):
            rec = layers.setdefault(self.names[name_id], [0.0, 0.0, 0])
            rec[0] += (t1 - t0) - child[i]
            rec[2] += 1
            p = parent
            while p >= 0 and spans[p][0] != name_id:
                p = spans[p][3]
            if p < 0:
                rec[1] += t1 - t0
        return {"layers": layers, "counts": dict(self.counts),
                "cache": dict(self.cache_delta)}

    def write(self, fh) -> None:
        """The spans as JSON lines: [name, start, end, parent index, request]."""
        for name_id, t0, t1, parent, req in self.spans:
            fh.write(json.dumps([self.names[name_id], t0, t1, parent, req]) + "\n")


def merge(summaries) -> dict:
    """Sum per-process summaries."""
    layers: dict = {}
    counts = dict.fromkeys(COUNTS, 0)
    cache: dict = {}
    for s in summaries:
        for name, rec in s["layers"].items():
            acc = layers.setdefault(name, [0.0, 0.0, 0])
            for k in range(3):
                acc[k] += rec[k]
        for name, v in s["counts"].items():
            counts[name] += v
        for name, (h, m) in s["cache"].items():
            ch, cm = cache.get(name, (0, 0))
            cache[name] = (ch + h, cm + m)
    return {"layers": layers, "counts": counts, "cache": cache}


def per_layer_metrics(merged: dict, startup: list, overhead_s: float) -> dict:
    """Map a merged summary onto the per-layer metric names.  Layers the
    workload never reached read 0."""
    out = {}
    for name, unit in per_layer_names():
        layer, _, quantity = name.rpartition(".")
        if name in merged["counts"]:
            value = merged["counts"][name]
        elif name == "cli.startup_s":
            value = statistics.median(startup) if startup else 0.0
        elif name == "trace.overhead_s":
            value = overhead_s
        elif quantity == "hit_ratio":
            hits, misses = merged["cache"].get(layer, (0, 0))
            value = hits / (hits + misses) if hits + misses else 0.0
        else:
            self_s, total_s, calls = merged["layers"].get(layer, (0.0, 0.0, 0))
            value = {"self_s": self_s, "total_s": total_s, "calls": calls}[quantity]
        out[name] = {"value": value, "unit": unit}
    return out
