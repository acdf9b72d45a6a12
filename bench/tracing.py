"""Span tracing around xmap's public functions, from outside the library.

The tracer replaces each traced function with a wrapper in every xmap module
that holds a reference to it (``from .core import build_crossmap`` binds the
name in the importing module, so patching the defining module alone would
miss calls). Spans stay in memory: (name, start, end, parent, run id, paused).
``paused`` is the tracer's own bookkeeping time inside the span, which is
subtracted, so counting work never lands in a layer's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (layer, module, function) for every traced public call.
TRACED = (
    ("cli", "xmap.cli", "run"),
    ("io", "xmap.io", "read_edge_list"),
    ("io", "xmap.io", "read_series"),
    ("io", "xmap.io", "write_series"),
    ("io", "xmap.io", "write_edge_list"),
    ("io", "xmap.io", "write_summary_json"),
    ("io", "xmap.io", "read_crosswalk_table"),
    ("io", "xmap.io", "import_crosswalk"),
    ("core", "xmap.core", "build_crossmap"),
    ("core", "xmap.core", "summarize"),
    ("transform", "xmap.transform", "apply"),
    ("transform", "xmap.transform", "compose"),
    ("viz", "xmap.viz", "layout_bipartite"),
    ("viz", "xmap.viz", "layout_chain"),
    ("viz", "xmap.viz", "count_crossings"),
    ("viz", "xmap.viz", "render_svg"),
    ("viz", "xmap.viz", "render_dot"),
)
LAYERS = ("cli", "io", "core", "transform", "viz")
READERS = {"read_edge_list", "read_series", "read_crosswalk_table"}


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: int = 0
    paused: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start - self.paused


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)
    _paused: float = 0.0
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _modules(self):
        return [m for name, m in sys.modules.items() if name.split(".")[0] == "xmap" and m]

    def _patch(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for layer, module_name, function in TRACED:
            original = getattr(sys.modules[module_name], function)
            self._patch(original, self._wrap(f"{layer}.{function}", function, original))
        clean_label = sys.modules["xmap.core"].clean_label
        counts = self.counts

        def counted_clean_label(text):
            counts["core.clean_label_calls"] += 1
            return clean_label(text)

        self._patch(clean_label, counted_clean_label)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, function: str, original):
        tracer = self

        def traced(*args, **kwargs):
            if function in READERS:
                mark = time.perf_counter()
                tracer.counts["io.bytes_in"] += len(args[0].encode("utf-8"))
                tracer._paused += time.perf_counter() - mark
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, parent=parent, run_id=tracer.run_id)
            tracer.spans.append(span)
            tracer._stack.append(span_id)
            paused_at_start = tracer._paused
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                span.paused = tracer._paused - paused_at_start
            if function == "build_crossmap":
                mark = time.perf_counter()
                links = result.links
                tracer.counts["core.links"] += len(links)
                tracer.counts["core.sources"] += len({link.source for link in links})
                tracer.counts["core.targets"] += len({link.target for link in links})
                tracer._paused += time.perf_counter() - mark
            return result

        return traced


def self_times(spans: list[Span], run_id: int) -> dict[str, float]:
    """Self time per span name in one run: duration less the time children cover."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.run_id == run_id and span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        if span.run_id == run_id:
            covered = child_time.get(index, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - covered
    return totals
