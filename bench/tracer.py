"""Span tracer for the benchmark's traced runs.

It wraps module-level functions of spikeradar under the name their callers
look them up by: `training.forward_batch`, `energy.forward_batch` and
`snn.forward_batch` are three wrappers around one function. Each call made
while a phase is open records a span (name, start, end, parent); spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute) pairs wrapped in a traced run, in report order.
TARGETS = [
    ("training", "train"),
    ("training", "backprop_through_time"),
    ("training", "forward_batch"),
    ("training", "_layer_time_backward"),
    ("training", "unpool_scatter"),
    ("training", "adam_step"),
    ("training", "quantize"),
    ("training", "evaluate"),
    ("training", "resolve_weights"),
    ("snn", "forward"),
    ("snn", "forward_batch"),
    ("snn", "im2col_patches"),
    ("snn", "_if_update"),
    ("snn", "_maxpool_route"),
    ("snn", "dense_drive"),
    ("snn", "resolve_weights"),
    ("snn", "load_model"),
    ("energy", "report_for_dataset"),
    ("energy", "spike_counts_for_batch"),
    ("energy", "forward_batch"),
    ("cli", "load_model"),
    ("cli", "read_tensor"),
    ("cli", "dataset_info"),
    ("cli", "process_cube"),
    ("data", "synth_udoppler"),
    ("data", "ingest_external"),
    ("data", "encode_examples"),
    ("container", "read_tensor"),
    ("udoppler", "compute_range_profiles"),
    ("udoppler", "pick_gesture_bin"),
    ("udoppler", "dc_removed_sequence"),
    ("udoppler", "stft_magnitude"),
    ("udoppler", "cut_maps"),
    ("udoppler", "normalize_and_denoise"),
    ("udoppler", "keep_top_k_rows"),
    ("encoding", "ttfs_encode"),
]

# The sigma1..sigma3 adjoint recurrences share one function; the traced run
# tells them apart by call order within one backprop_through_time span, which
# runs them from the output layer down: sigma3, sigma2, sigma1.
_BACKWARD = "training._layer_time_backward"
LAYER_BACKWARD_SPANS = [f"{_BACKWARD}.sigma{i}" for i in (1, 2, 3)]
_BACKWARD_ORDER = LAYER_BACKWARD_SPANS[::-1]
# Opened by the benchmark around its own constructor call.
RADAR_CUBE_SPAN = "udoppler.RadarCube"
IM2COL = "snn.im2col_patches"


def span_names() -> list:
    names = []
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        names.extend(LAYER_BACKWARD_SPANS if name == _BACKWARD else [name])
    return names + [RADAR_CUBE_SPAN]


class Tracer:
    """In-memory span recorder; records only while a phase is open."""

    def __init__(self):
        self.spans = []  # [name, phase, parent index, start, end]
        self.im2col_bytes = 0  # computed size of every patch matrix
        self.child_totals = defaultdict(lambda: [0.0, 0.0, 0])
        self.missing = []
        self.phase = None
        self._stack = []
        self._backward_calls = defaultdict(int)  # per parent span

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"spikeradar.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(fn, name))

    def _backward_name(self) -> str:
        """sigma3, sigma2, sigma1 by call order under the enclosing span."""
        parent = self._stack[-1] if self._stack else -1
        n = self._backward_calls[parent]
        self._backward_calls[parent] = n + 1
        return _BACKWARD_ORDER[n % len(_BACKWARD_ORDER)]

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            with tracer.span(tracer._backward_name() if name == _BACKWARD else name):
                result = fn(*args, **kwargs)
            if name == IM2COL:
                tracer.im2col_bytes += result.nbytes
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        if self.phase is None:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, self.phase, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    @contextmanager
    def recording(self, phase: str | None):
        """Record spans under phase ("setup" or "run"), or none, in the block."""
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def add_child_spans(self, spans) -> None:
        """Add the totals of a command-line child's `cli.*` spans.

        The child's spans of the package's inner layers are left out so that
        those metrics describe the in-process phases only; they stay in the
        child's own span file.
        """
        for name, t in span_totals(spans).items():
            if name.startswith("cli."):
                acc = self.child_totals[name]
                for i in range(3):
                    acc[i] += t[i]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, phase, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "parent": parent, "name": name,
                                    "phase": phase, "start": start,
                                    "end": end}) + "\n")

    def totals(self, phase: str) -> dict:
        """Per name: inclusive seconds, self seconds and calls in a phase."""
        out = span_totals(self.spans, phase)
        if phase == "run":
            for name, t in self.child_totals.items():
                out[name] = t
        return out


def span_totals(spans, phase: str | None = None) -> dict:
    """Per name: inclusive seconds, self seconds and calls.

    Self time is a span's duration less that of its direct children; spans
    nest on one thread, so the children never overlap.
    """
    child_time = defaultdict(float)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for i, (name, span_phase, _, start, end) in enumerate(spans):
        if phase is not None and span_phase != phase:
            continue
        t = out[name]
        t[0] += end - start
        t[1] += end - start - child_time[i]
        t[2] += 1
    return out
