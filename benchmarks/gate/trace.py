"""Span recorder of the gate's traced mode.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions; spans inside the program are a later change.  A
span carries its name, layer, start, end, parent and workload id.  While a
:class:`Tracer` is installed a ``gc.callbacks`` hook attributes every
collector pause to the innermost open span.  Spans stay in memory and are
written out once, when the traced run ends.  Starts and ends are read from
``time.process_time``, the clock of the untraced cells.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from pathlib import Path
from time import process_time as clock


class Span:
    __slots__ = (
        "id", "parent", "workload", "name", "layer", "on_path",
        "start", "end", "gc_pause_s", "gc_gen2", "counts",
    )

    def __init__(self, id, parent, workload, name, layer, on_path):
        self.id = id
        self.parent = parent
        self.workload = workload
        self.name = name
        self.layer = layer
        #: True when the step lies on the path the untraced run takes to its
        #: first answer; False for reference measurements made beside it.
        self.on_path = on_path
        self.start = self.end = 0.0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self.counts: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records one workload's spans; use as a context manager."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._gc_started = 0.0

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = clock()
        elif self._open:
            span = self._open[-1]
            span.gc_pause_s += clock() - self._gc_started
            if info["generation"] == 2:
                span.gc_gen2 += 1

    @contextmanager
    def span(self, name: str, on_path: bool = True):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self.workload, name, name.split(".")[0], on_path)
        self.spans.append(span)
        self._open.append(span)
        span.start = clock()
        try:
            yield span
        finally:
            span.end = clock()
            self._open.pop()

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus what its child spans cover."""
        return span.seconds - sum(
            child.seconds for child in self.spans if child.parent == span.id
        )

    def find(self, name: str) -> Span | None:
        return next((span for span in self.spans if span.name == name), None)

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name`` (0.0 when none ran)."""
        return sum(span.seconds for span in self.spans if span.name == name)

    def as_dicts(self) -> list[dict]:
        rows = []
        for span in self.spans:
            row = span.as_dict()
            row["self_s"] = self.self_seconds(span)
            rows.append(row)
        return rows


def dump(path: Path, workload: str, spans: list[dict], metrics: dict) -> None:
    """Write one workload's spans and per-layer metrics to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"workload": workload, "spans": spans, "metrics": metrics}, indent=1),
        encoding="utf-8",
    )
