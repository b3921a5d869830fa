"""Span recording around calls into latecut's modules.

The benchmark wraps its own calls into the package with ``Tracer.call``.
``traced`` rebinds the names that latecut's modules imported from one
another, so calls made inside the package are recorded as child spans too,
and restores them on exit; the package itself is never edited.  Spans stay
in memory and ``write_spans`` writes them once, when the run ends.

A span is a list ``[name, start, end, parent, request, batch]``: ``name`` is
``<layer>.<call>`` where the layer is the latecut module that was called,
``parent`` is the index of the enclosing span (-1 at top level),
``request`` the stream request id a batch-1 serving forward answered, and
``batch`` the leading dimension of a forward's input.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import deque
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST, BATCH = range(6)

# Imported by name: the package re-exports a function called ``distill``
# that hides the submodule attribute of the same name.
_serving = importlib.import_module("latecut.serving")
_pruning = importlib.import_module("latecut.pruning")
_distill = importlib.import_module("latecut.distill")

# (owner, attribute, span name).  The owner's attribute is what the package
# resolves at call time, so rebinding it routes the call through a span.
REBOUND = (
    (_serving, "forward", "network.forward"),
    (_serving, "network_fingerprint", "formats.network_fingerprint"),
    (_serving, "initial_noise", "pruning.initial_noise"),
    (_serving, "profile", "profiling.profile"),
    (_pruning, "forward", "network.forward"),
    (_distill, "forward", "network.forward"),
    (_distill, "forward_trace", "network.forward_trace"),
    (_distill, "backprop_from_outputs", "network.backprop"),
    (_distill, "sgd_step", "network.sgd_step"),
    (_distill, "network_fingerprint", "formats.network_fingerprint"),
    (_distill.DistillRun, "step", "distill.step"),
)


class NullTracer:
    """Stands in for a Tracer in untraced runs: calls straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Request ids of the arrivals handed to the tick in flight; tick
        # serves its arrivals, in order, before any background work.
        self.pending_requests: deque[int] = deque()
        # The full model M; forwards on it inside a distillation step are
        # teacher queries the pseudo-label cache should have made unneeded.
        self.teacher = None
        self.teacher_queries_during_steps = 0
        self._steps_open = 0

    def call(self, name, fn, *args, **kwargs):
        return self._record(name, None, None, fn, args, kwargs)

    def _record(self, name, request, batch, fn, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, request, batch]
        self.spans.append(span)
        self._stack.append(index)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, original):
        if name == "network.forward":
            def forward(network, batch, *args, **kwargs):
                size = len(batch)
                request = None
                if size == 1 and self.pending_requests:
                    request = self.pending_requests.popleft()
                if self._steps_open and network is self.teacher:
                    self.teacher_queries_during_steps += 1
                return self._record(name, request, size, original, (network, batch) + args, kwargs)
            return forward
        if name == "network.forward_trace":
            def forward_trace(network, batch, *args, **kwargs):
                return self._record(name, None, len(batch), original, (network, batch) + args, kwargs)
            return forward_trace
        if name == "distill.step":
            def step(run):
                self._steps_open += 1
                try:
                    return self._record(name, None, None, original, (run,), {})
                finally:
                    self._steps_open -= 1
            return step

        def wrapped(*args, **kwargs):
            return self._record(name, None, None, original, args, kwargs)
        return wrapped


@contextmanager
def traced(tracer: Tracer):
    """Route the package's internal calls through ``tracer`` while inside."""
    saved = []
    try:
        for owner, attr, name in REBOUND:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_of(span) -> str:
    return span[NAME].split(".", 1)[0]


def self_times(spans, indices) -> dict[str, float]:
    """Seconds each layer spent in its own code: every selected span's
    duration minus the part its direct children cover, summed by layer."""
    indices = list(indices)
    chosen = set(indices)
    child_time = dict.fromkeys(indices, 0.0)
    for i in indices:
        parent = spans[i][PARENT]
        if parent in chosen:
            child_time[parent] += spans[i][END] - spans[i][START]
    out: dict[str, float] = {}
    for i in indices:
        span = spans[i]
        layer = layer_of(span)
        out[layer] = out.get(layer, 0.0) + (span[END] - span[START]) - child_time[i]
    return out


def write_spans(path, spans, origin: float) -> None:
    """One CSV row per span; times in microseconds from ``origin``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_us,end_us,parent,request,batch\n")
        for i, (name, start, end, parent, request, batch) in enumerate(spans):
            fh.write(
                f"{i},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},"
                f"{parent},{'' if request is None else request},{'' if batch is None else batch}\n"
            )
