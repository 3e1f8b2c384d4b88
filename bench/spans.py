"""Span tracing for the traced benchmark run.

The program is not instrumented.  `Tracer.install` replaces public
functions in the program's module namespaces (and numpy.linalg.eigh /
scipy.optimize.linprog, which the program looks up at call time) with
wrappers that record a span per call; `uninstall` puts the originals
back.  Spans (name, start, end, parent) stay in memory until `dump`.
A layer's self time is its spans' durations minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name): every name under which the program or
# the benchmark reaches a layer.  Modules import these by name, so each
# importing namespace is patched separately.
TARGETS = [
    ("vcsprelax.cli", "main", "cli"),
    ("vcsprelax.cli", "parse_language", "fileformat.parse"),
    ("vcsprelax.cli", "parse_instance", "fileformat.parse"),
    ("vcsprelax.cli", "parse_gadget", "fileformat.parse"),
    ("vcsprelax.cli", "brute_force_opt", "model.enum"),
    ("vcsprelax.reductions", "brute_force_opt", "model.enum"),
    ("vcsprelax.cli", "build_sa", "sa.build"),
    ("vcsprelax.cli", "solve_lp_exact", "sa.solve"),
    ("vcsprelax.sherali_adams", "solve_lp", "simplex.solve"),
    ("vcsprelax.cli", "build_las", "las.build"),
    ("vcsprelax.equations", "build_las", "las.build"),
    ("vcsprelax.cli", "solve_sdp", "las.solve"),
    ("vcsprelax.equations", "solve_sdp", "las.solve"),
    ("vcsprelax.equations", "verify_L7", "las.verify_l7"),
    ("vcsprelax.lasserre.LasModel", "residual_report", "las.residual"),
    ("vcsprelax.equations", "linear_satisfiable", "equations.oracle"),
    ("vcsprelax.cli", "bwc_report", "algebra.bwc"),
    ("vcsprelax.cli", "compute_core", "algebra.core"),
    ("vcsprelax.algebra", "solve_lp", "algebra.fpol_lp"),
    ("vcsprelax.cli", "verify_reduction", "reductions.audit"),
    ("vcsprelax.cli", "oracle_value_identity", "reductions.audit"),
    ("vcsprelax.cli", "transport_solution", "reductions.transport"),
    ("vcsprelax.simplex", "_float_guided_tableau", "simplex.guide"),
    ("numpy.linalg", "eigh", "las.eigh"),
    ("scipy.optimize", "linprog", "simplex.highs"),
]


def _resolve(path):
    """Module or class object for a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.counts = {}
        self._stack = []
        self._saved = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; counters read from its result."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        self.count(name + "_calls")
        self._observe(name, result)
        return result

    def _observe(self, name, result):
        if name in ("sa.build", "las.build"):
            self.count(name.split(".")[0] + ".rows", result.num_rows)
            if name == "las.build":
                self.counts["las.gram_dim"] = max(
                    self.counts.get("las.gram_dim", 0), result.num_rows)
        elif name == "sa.solve":
            self.count("simplex.pivots", result.pivots)
        elif name == "las.solve":
            self.count("las.iterations", result.iterations)
        elif name == "simplex.highs" and result.success:
            self.count("simplex.highs_success")
        elif name == "simplex.guide" and result is not None:
            self.count("simplex.highs_used")

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def cost_per_span(self, calls=20000):
        """Seconds a span adds to a call: a no-op called through a
        wrapper, less the no-op called directly, over `calls` calls.
        The spans it records are removed again."""
        def noop():
            return None
        traced, mark = self.wrap("noop", noop), len(self.spans)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        del self.spans[mark:]
        self.counts.pop("noop_calls", None)
        return max(0.0, (t2 - t1) - (t1 - t0)) / calls

    def self_times(self):
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
