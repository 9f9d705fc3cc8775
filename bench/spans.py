"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the program's layer modules (the
names in each module's ``__all__``, plus ``cli.main``) at every place the
program can reach it: the defining module, and every ``phaseframe`` module
that imported the function by name. Nothing in the program is edited, and
``uninstall`` puts each original back.

Spans live in memory as ``[name, start_ns, end_ns, parent]``; the self time of
a span is its duration minus the durations of its direct children, so time in
an unwrapped helper goes to the nearest wrapped caller and the self times of
all spans add up exactly to the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter

PACKAGE = "phaseframe"
LAYERS = ("groups", "linalg", "frames", "representation", "bochner",
          "serialize", "states", "cli")
ROOT = "cli.main"
INVARIANT_PASSES = ("frames.validate_frame", "frames.cocycle_table", "frames.frame_report")

# Functions whose first argument is a path the call reads, or writes.
_READS = frozenset({"serialize.load_frame", "serialize.load_state",
                    "serialize.load_distribution_csv", "serialize.sha256_file"})
_WRITES = frozenset({"serialize.save_json", "serialize.save_distribution_csv"})


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def public_functions() -> dict[object, str]:
    """Original function -> span name ``<layer>.<function>``."""
    found = {}
    for layer, module in _layer_modules().items():
        names = ["main"] if layer == "cli" else list(getattr(module, "__all__", ()))
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__.startswith(PACKAGE + "."):
                found[fn] = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
    return found


class SpanRecorder:
    """Records one span per wrapped call, plus byte, eigensolve and memory counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.frames_peak_bytes = 0
        self._stack: list[int] = []
        self._frames_depth = 0
        self._owns_tracemalloc = False
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("recorder already installed")
        originals = public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        wrapper.__wrapped_span__ = name
        return wrapper

    # -- recording --------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs):
        in_frames = layer_of(name) == "frames"
        if in_frames:
            if self._frames_depth == 0:
                self._start_alloc()
            self._frames_depth += 1
        span = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            if in_frames:
                self._frames_depth -= 1
                if self._frames_depth == 0:
                    self._stop_alloc()
        self._count(name, args)
        return result

    def _count(self, name: str, args) -> None:
        if name == "linalg.herm_eigenvalues":
            self.counters["eig_rows"] += len(args[0])
        elif name in _READS:
            self.counters["bytes_read"] += os.path.getsize(args[0])
        elif name in _WRITES:
            self.counters["bytes_written"] += os.path.getsize(args[0])

    def _start_alloc(self) -> None:
        self._owns_tracemalloc = not tracemalloc.is_tracing()
        if self._owns_tracemalloc:
            tracemalloc.start()
        self._alloc_base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def _stop_alloc(self) -> None:
        peak = tracemalloc.get_traced_memory()[1] - self._alloc_base
        self.frames_peak_bytes = max(self.frames_peak_bytes, peak)
        if self._owns_tracemalloc:
            tracemalloc.stop()


def self_times(spans: list[list]) -> list[int]:
    """Self time of each span in ns: its duration minus its children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name and per layer: total self time (ns) and call count."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        for key in (span[0], layer_of(span[0])):
            entry = totals.setdefault(key, {"self_ns": 0, "calls": 0})
            entry["self_ns"] += own
            entry["calls"] += 1
    return totals


def root_total_ns(spans: list[list]) -> int:
    return sum(end - start for _, start, end, parent in spans if parent < 0)
