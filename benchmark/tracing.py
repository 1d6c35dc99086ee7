"""Per-layer tracing from outside the program.

The tracer replaces public functions of kriegerlab's modules with
wrappers that record spans (name, start, end, parent) and counts, and
puts the originals back afterwards.  A function imported by name into
another module (``from .scheme import validate``) is replaced in every
kriegerlab module that holds it, so calls through either name are seen.
Nothing under ``src/`` changes.

A layer's self time is its span's duration minus the time its child
spans cover.  High-frequency leaf calls (``scheme.block``) are timed and
counted but not stored as individual spans, so the span list stays small
enough not to distort the memory figures.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from collections import defaultdict

# (module, attribute, layer, store each span)
TIMED = (
    ("kriegerlab.cli", "main", "cli.main", True),
    ("kriegerlab.cli", "_emit", "cli.to_json", True),
    ("kriegerlab.specfile", "parse_spec", "specfile.parse", True),
    ("kriegerlab.scheme", "normalize", "scheme.normalize", True),
    ("kriegerlab.scheme", "validate", "scheme.validate", True),
    ("kriegerlab.scheme", "factor_to_scheme", "scheme.factor_to_scheme", True),
    ("kriegerlab.scheme", "truncate_alphabet", "scheme.block", False),
    ("kriegerlab.classify", "classify", "classify.classify", True),
    ("kriegerlab.classify", "test_type_I", "classify.type_I", True),
    ("kriegerlab.classify", "test_type_II1", "classify.type_II1", True),
    ("kriegerlab.classify", "test_type_III", "classify.type_III", True),
    ("kriegerlab.classify", "classify_III_unbounded", "classify.subtype", True),
    ("kriegerlab.classify", "classify_III_two_point", "classify.subtype", True),
    ("kriegerlab.asymptotics", "summability", "asymptotics.summability", True),
    ("kriegerlab.asymptotics", "union_cluster_report", "asymptotics.clusters", True),
    ("kriegerlab.asymptotics", "cluster_set_M_F", "asymptotics.clusters", True),
    ("kriegerlab.asymptotics", "cluster_set_M_i", "asymptotics.clusters", True),
    ("kriegerlab.asymptotics", "lambda_clusters", "asymptotics.clusters", True),
    ("kriegerlab.asymptotics", "inf_liminf", "asymptotics.clusters", True),
    ("kriegerlab.groups", "mult_group", "groups.mult_group", True),
    ("kriegerlab.cocycle", "estimate_ratio_set", "cocycle.estimate", True),
    ("kriegerlab.cocycle", "mc_sample_cocycle", "cocycle.sample", True),
    ("kriegerlab.cocycle", "lattice_detect", "cocycle.lattice", True),
    ("kriegerlab.cocycle", "witness_search", "cocycle.witness", True),
    ("kriegerlab.cocycle", "brute_force_block", "cocycle.oracle", True),
)

# layers whose self time is reported, in ms per operation
LAYERS = ("cli.main", "cli.to_json", "specfile.parse", "scheme.normalize", "scheme.validate",
          "scheme.factor_to_scheme", "scheme.block", "classify.classify", "classify.type_I",
          "classify.type_II1", "classify.type_III", "classify.subtype",
          "asymptotics.summability", "asymptotics.clusters", "groups.mult_group",
          "cocycle.estimate", "cocycle.sample", "cocycle.lattice", "cocycle.witness",
          "cocycle.oracle")

COUNTS = ("groups.mult_group_calls", "scheme.block_symbols", "cocycle.witness_calls",
          "cocycle.witness_found", "cocycle.block_words", "cocycle.samples")


def _count_result(layer, result, counts):
    """Counts taken from a wrapped call's result."""
    if layer == "groups.mult_group":
        counts["groups.mult_group_calls"] += 1
    elif layer == "scheme.block":
        counts["scheme.block_symbols"] += len(result.weights)
    elif layer == "cocycle.witness":
        counts["cocycle.witness_calls"] += 1
        counts["cocycle.witness_found"] += result is not None
    elif layer == "cocycle.sample":
        counts["cocycle.samples"] += len(result.log_values)


class Tracer:
    """Spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans = []                       # (name, start, end, parent, op)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.op = -1
        self._stack = []                      # [span index or None, child ns]
        self._patched = []

    # -- installing --------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "kriegerlab" or name.startswith("kriegerlab.")]
        for modname, attr, layer, store in TIMED:
            original = getattr(sys.modules[modname], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, layer, store)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)
        # distinct values enumerated per block: a count only, not a layer
        cocycle = sys.modules["kriegerlab.cocycle"]
        enumerate_values = getattr(cocycle, "_product_values", None)
        if enumerate_values is not None:
            counts = self.counts

            def counted(*args, **kwargs):
                result = enumerate_values(*args, **kwargs)
                counts["cocycle.block_words"] += len(result)
                return result
            self._patched.append((cocycle, "_product_values", enumerate_values))
            cocycle._product_values = counted

    def uninstall(self):
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()

    def _wrap(self, fn, layer, store):
        spans, stack = self.spans, self._stack
        self_ns, total_ns, calls, counts = self.self_ns, self.total_ns, self.calls, self.counts
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            index = None
            if store:
                index = len(spans)
                spans.append(None)
            frame = [index if store else parent, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[layer] += duration - frame[1]
                total_ns[layer] += duration
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                if store:
                    spans[index] = (layer, start, end, parent, tracer.op)
            _count_result(layer, result, counts)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops):
        out = {}
        for layer in LAYERS:
            out[f"{layer}_ms"] = (self.self_ns[layer] / 1e6 / n_ops, "ms")
        for name in COUNTS:
            if name == "cocycle.samples":
                continue
            out[name] = (self.counts[name] / n_ops, "count")
        sample_s = self.total_ns["cocycle.sample"] / 1e9
        out["cocycle.samples_per_s"] = (
            self.counts["cocycle.samples"] / sample_s if sample_s else 0.0, "1/s")
        return out

    def dump(self):
        return {"spans": [list(s) for s in self.spans if s is not None],
                "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
                "total_ms": {k: v / 1e6 for k, v in self.total_ns.items()},
                "calls": dict(self.calls),
                "counts": dict(self.counts)}


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(src_dir, repeats=3):
    """Cumulative import time (ms) of sympy, mpmath and kriegerlab.

    From ``python -X importtime -c 'import kriegerlab'`` in fresh
    interpreters; the median of ``repeats`` starts.  mpmath is imported
    inside sympy's import, and kriegerlab's figure includes both.
    """
    names = ("sympy", "mpmath", "kriegerlab")
    samples = {n: [] for n in names}
    code = f"import sys; sys.path.insert(0, {str(src_dir)!r}); import kriegerlab"
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, timeout=120, check=True)
        seen = set()
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(4) in samples and m.group(4) not in seen:
                seen.add(m.group(4))
                samples[m.group(4)].append(int(m.group(2)) / 1000.0)
    out = {}
    for n in names:
        vals = sorted(samples[n])
        out[f"import.{n}_ms"] = (vals[len(vals) // 2] if vals else 0.0, "ms")
    return out
