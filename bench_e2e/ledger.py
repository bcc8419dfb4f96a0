"""Per-layer attribution for the end-to-end benchmark.

Two halves:

* :func:`layer_of_kind` maps a message kind to the stack layer that
  sends it, using the kind constants the program itself exports.  A
  kind no layer claims lands in ``other`` and is reported, never
  dropped.
* :class:`SpanRecorder` wraps the public callables each layer is
  entered through, at the name its caller looks up, and records one
  span per call.  It attaches no kernel observer: an observer switches
  off the kernel's envelope pool, so a traced run with one would
  measure a different program.

Requires ``src`` on ``sys.path`` (``run.py`` puts it there).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

from repro.detect.base import HALT_KIND, POLL_KIND, POLL_RESPONSE_KIND, TOKEN_KIND
from repro.detect.stack import (
    CAND_ACK_KIND,
    ELECT_KIND,
    ELECT_OK_KIND,
    HALT_ACK_KIND,
    REGEN_KIND,
    TOKEN_ACK_KIND,
)
from repro.simulation.instrumentation import LIVENESS_KINDS
from repro.simulation.replay import CANDIDATE_KIND, END_OF_TRACE_KIND

LAYER_KINDS: dict[str, frozenset[str]] = {
    "detect": frozenset(
        {TOKEN_KIND, POLL_KIND, POLL_RESPONSE_KIND, HALT_KIND,
         CANDIDATE_KIND, END_OF_TRACE_KIND}
    ),
    "transport": frozenset({CAND_ACK_KIND, TOKEN_ACK_KIND, HALT_ACK_KIND}),
    "membership": LIVENESS_KINDS | {ELECT_KIND, ELECT_OK_KIND, REGEN_KIND},
}
_KIND_LAYER = {kind: layer for layer, kinds in LAYER_KINDS.items() for kind in kinds}


def layer_of_kind(kind: str) -> str:
    """The layer that sends messages of ``kind`` (``"other"`` if none)."""
    return _KIND_LAYER.get(kind, "other")


def wire_by_layer(metrics_snapshot: dict) -> dict[str, list[int]]:
    """``{layer: [messages, bits]}`` summed over every actor of a
    ``MetricsBoard.snapshot()`` (the ``metrics`` block of ``--json``)."""
    out = {layer: [0, 0] for layer in (*LAYER_KINDS, "other")}
    for actor in metrics_snapshot["actors"].values():
        bits = actor["sent_bits_by_kind"]
        for kind, count in actor["sent_by_kind"].items():
            row = out[layer_of_kind(kind)]
            row[0] += count
            row[1] += bits.get(kind, 0)
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int = -1
    #: counts read off the layer's return value (simulation only)
    counts: dict = field(default_factory=dict)


#: (span name, module path, attribute path) of every wrapped callable.
#: ``repro.cli`` binds ``loads`` at import time, so it is wrapped there;
#: the CLI imports ``run_detector`` / ``run_service`` from the runner
#: module at call time, so they are wrapped on that module.
WRAPPED = (
    ("trace.load", "repro.cli", "loads"),
    ("detect", "repro.detect.runner", "run_detector"),
    ("service", "repro.detect.runner", "run_service"),
    ("trace.analysis", "repro.trace.intervals", "IntervalAnalysis.__init__"),
    ("simulation", "repro.simulation.kernel", "Kernel.run"),
)


class SpanRecorder:
    """Records nested spans in memory while installed.

    Use as a context manager around the traced requests; open each
    request's root span with :meth:`span` named ``"cli"``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent, request=self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if name == "simulation":
                span.counts = {
                    "steps": result.steps,
                    "messages_delivered": result.messages_delivered,
                }
            return result

        return wrapper

    def __enter__(self) -> "SpanRecorder":
        for name, module_name, attr_path in WRAPPED:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[tuple[int, str], float]:
        """``{(request, span name): self seconds}`` — each span's
        duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[tuple[int, str], float] = {}
        for i, span in enumerate(self.spans):
            key = (span.request, span.name)
            out[key] = out.get(key, 0.0) + (span.end - span.start - child_time[i])
        return out

    def as_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "request": s.request, **s.counts}
            for s in self.spans
        ]

