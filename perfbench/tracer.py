"""Spans that the benchmark records around its own calls into lipdeg.

A span covers one call into a public function of one lipdeg module (its
layer), or one whole job (layer ``job``).  Spans are kept in memory and
written as JSONL when the run ends.  While a pass is traced the numpy.fft
entry points are wrapped, so every transform is charged to the innermost
open span; untraced passes leave numpy untouched and ``Tracer.call`` is a
plain call.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager

import numpy as np

FFT_ENTRY_POINTS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = (
        "id", "name", "layer", "start", "end", "parent", "job", "pass_index",
        "fft_calls", "fft_points", "rss_rise_mb", "_rss_start", "_child_rise",
    )

    def __init__(self, sid, name, layer, parent, job, pass_index):
        self.id, self.name, self.layer = sid, name, layer
        self.parent, self.job, self.pass_index = parent, job, pass_index
        self.fft_calls = self.fft_points = 0
        self.rss_rise_mb = self._child_rise = 0.0
        self._rss_start = peak_rss_mb()
        self.start = time.perf_counter()
        self.end = None

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if not k.startswith("_")}


class Tracer:
    """Span recorder; records nothing until ``recording`` enables it."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # counter name -> value, for the current traced pass
        self.enabled = False
        self._stack = []
        self._pass = -1
        self._job = None

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn``; while tracing, inside a span named after it."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(fn.__name__, layer):
            return fn(*args, **kwargs)

    def count(self, name: str, n) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def job(self, name: str):
        if not self.enabled:
            yield
            return
        self._job = name
        try:
            with self._span(name, "job"):
                yield
        finally:
            self._job = None

    @contextmanager
    def recording(self, pass_index: int):
        """Trace one pass: enable spans and count FFTs until it ends."""
        originals = {name: getattr(np.fft, name) for name in FFT_ENTRY_POINTS}
        for name, fn in originals.items():
            setattr(np.fft, name, self._counted(name, fn))
        self.enabled, self._pass, self.counts = True, pass_index, {}
        try:
            yield
        finally:
            self.enabled = False
            for name, fn in originals.items():
                setattr(np.fft, name, fn)

    @contextmanager
    def _span(self, name: str, layer: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self._job, self._pass)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            # the high-water mark only rises; what rose while a child was
            # open is already charged to that child
            rise = peak_rss_mb() - span._rss_start
            span.rss_rise_mb = max(0.0, rise - span._child_rise)
            self._stack.pop()
            if self._stack:
                self._stack[-1]._child_rise += rise

    def _counted(self, name: str, fn):
        inverse_real = name.startswith("irfft")

        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            if self._stack:
                span = self._stack[-1]
                span.fft_calls += 1
                # grid points transformed: the real side of a real transform
                span.fft_points += int(out.size if inverse_real else np.size(a))
            return out

        counted.__name__ = name
        return counted

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_dict(), sort_keys=True) + "\n")


def empty_totals() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fft_calls": 0,
            "fft_points": 0, "rss_rise_mb": 0.0, "by_name": {}}


def layer_totals(spans, pass_index: int) -> dict:
    """Per-layer busy and self time, call and FFT counts, RSS rise of a pass.

    Busy time counts a layer's outermost spans only, so nested spans of one
    layer are not counted twice; self time subtracts what child spans cover.
    """
    mine = [s for s in spans if s.pass_index == pass_index]
    by_id = {s.id: s for s in mine}
    child_time = {}
    for s in mine:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for s in mine:
        t = out.setdefault(s.layer, empty_totals())
        dur = s.end - s.start
        t["calls"] += 1
        t["self_s"] += dur - child_time.get(s.id, 0.0)
        t["fft_calls"] += s.fft_calls
        t["fft_points"] += s.fft_points
        t["rss_rise_mb"] += s.rss_rise_mb
        t["by_name"][s.name] = t["by_name"].get(s.name, 0.0) + dur
        ancestor = by_id.get(s.parent)
        while ancestor is not None and ancestor.layer != s.layer:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            t["busy_s"] += dur
    return out


def top_level_time(spans, pass_index: int) -> float:
    return sum(
        s.end - s.start for s in spans if s.pass_index == pass_index and s.parent is None
    )
