"""Span tracing around the public layer functions of `mschain`.

Spans are recorded from the benchmark's side of the API: each traced function
is replaced, in every `mschain` module namespace that binds it, by a wrapper
that records one span per call. Wrapping every binding matters because
`cli`, `sampling` and `discriminate` import layer functions by name, so
patching only the defining module would miss their calls.

Spans live in memory as tuples and are aggregated once, at the end. A span's
self time is its duration minus the durations of its direct children; calls
run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np

# Layer (module) -> traced public functions.
TRACED = {
    "cli": ("main", "execute", "render_report"),
    "chain": ("full_chain", "premeasure", "factorize_branch", "decohere"),
    "discriminate": ("check_eigen_discrimination", "numeric_feasibility_oracle"),
    "metrics": ("eigen_distribution", "phase_averaged_purity_information"),
    "sampling": ("run_trials", "trial_uniforms", "sample_gemenge", "stochastic_restriction"),
    "linalg": ("partial_trace", "pure_density", "eig_hermitian"),
}


def _dense_bytes(args, result):
    # complex128 d x d density built from a length-d vector, or passed in as one
    d = np.shape(args[0])[0]
    return 16 * d * d


def _draws(args, result):
    return int(np.size(args[1]))


def _text_bytes(args, result):
    return len(result)


# (layer, function) -> (extra metric name, amount per call); amounts are summed.
COUNTED = {
    ("linalg", "partial_trace"): ("bytes_in", _dense_bytes),
    ("linalg", "pure_density"): ("bytes_out", _dense_bytes),
    ("sampling", "trial_uniforms"): ("draws", _draws),
    ("cli", "render_report"): ("bytes", _text_bytes),
}
COUNTED_UNITS = {"bytes_in": "B/op", "bytes_out": "B/op", "draws": "1/op", "bytes": "B/op"}

# Functions whose largest allocation peak is recorded. tracemalloc runs only
# inside their spans: left on for the whole run it slows every Python
# allocation several-fold and buries the layer times.
PEAKED = {("chain", "decohere"), ("sampling", "run_trials")}


class Tracer:
    """Records spans for the wrapped functions while `active` is true."""

    def __init__(self):
        self.active = False
        self.keys: list[tuple[str, str]] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counted: dict[tuple[str, str], int] = {}
        self.peak: dict[tuple[str, str], int] = {}

    def install(self) -> None:
        """Wrap every traced function in every loaded `mschain` namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mschain" or name.startswith("mschain."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"mschain.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        key_id = len(self.keys)
        self.keys.append(key)
        counter = COUNTED.get(key)
        peaked = key in PEAKED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if peaked:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (key_id, start, end, parent)
                if peaked:
                    used = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak[key] = max(self.peak.get(key, 0), used)
            if counter is not None:
                self.counted[key] = self.counted.get(key, 0) + counter[1](args, result)
            return result

        return traced

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Calls, self time and extras per traced function, per traced op."""
        n = len(self.keys)
        calls = [0] * n
        child = [0.0] * len(self.spans)
        for key_id, start, end, parent in self.spans:
            calls[key_id] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = [0.0] * n
        for index, (key_id, start, end, _) in enumerate(self.spans):
            self_time[key_id] += (end - start) - child[index]
        out: dict[str, tuple[float, str]] = {}
        for key_id, (layer, name) in enumerate(self.keys):
            prefix = f"{layer}.{name}"
            out[f"{prefix}.calls"] = (calls[key_id] / ops, "1/op")
            out[f"{prefix}.self_s"] = (self_time[key_id] / ops, "s/op")
            if (layer, name) in COUNTED:
                extra = COUNTED[(layer, name)][0]
                out[f"{prefix}.{extra}"] = (self.counted.get((layer, name), 0) / ops,
                                            COUNTED_UNITS[extra])
            if (layer, name) in PEAKED:
                out[f"{prefix}.peak_bytes"] = (float(self.peak.get((layer, name), 0)), "B")
        return out
