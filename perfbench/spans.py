"""In-memory span recording and self-time accounting for the traced run.

A span is one timed call: ``(span_id, parent_id, thread_id, name, start,
end, items)``.  ``parent_id`` comes from a thread-local stack, so a span
started on one thread never becomes the child of a span on another.
Times are ``time.monotonic()`` seconds (CLOCK_MONOTONIC on Linux), which
the benchmark process and the server process read from the same clock.

The recorder keeps every span in a list and writes them once, as JSON,
when :meth:`SpanRecorder.dump` is called.  Wrappers only time the call
and re-raise; arguments and results pass through untouched.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict

#: Field order of one span record (also the JSON row layout).
FIELDS = ("id", "parent", "thread", "name", "start", "end", "items")


class SpanRecorder:
    """Collects spans from wrapped callables on any thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, items=None):
        """``fn`` timed as span ``name``.

        A call made while a span of the same name is already open on this
        thread (a wrapped function calling another one of the same layer)
        is not recorded again, so ``<name>.calls`` counts entries into
        the layer.  ``items`` optionally maps the call's arguments to a
        work count stored with the span.
        """
        clock = time.monotonic
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                count = items(*args, **kwargs) if items is not None else 0
                spans.append(
                    (span_id, parent, threading.get_ident(), name, start, end,
                     count)
                )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": FIELDS, "spans": list(self.spans)}, handle)


def load(path: str) -> list:
    """Spans written by :meth:`SpanRecorder.dump`, as tuples."""
    with open(path, "r", encoding="utf-8") as handle:
        return [tuple(row) for row in json.load(handle)["spans"]]


def self_times(spans) -> dict:
    """``span_id -> self seconds``: duration minus same-thread children.

    A child is a span whose ``parent`` names the span and which ran on
    the same thread.  Spans on other threads overlap in time but never
    count against each other.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict = defaultdict(float)
    for span_id, parent, thread, _name, start, end, _items in spans:
        owner = by_id.get(parent)
        if owner is not None and owner[2] == thread:
            child_time[parent] += end - start
    return {
        span[0]: (span[5] - span[4]) - child_time.get(span[0], 0.0)
        for span in spans
    }


def summarize_spans(spans, window=None) -> dict:
    """Per-name ``{"calls", "self_s", "busy_s", "items"}``.

    ``window`` = ``(t0, t1)`` keeps the spans that started inside it;
    self times are computed over the whole set first, so a child is
    never credited back to a parent outside the window.  ``busy_s`` is
    the summed duration of the name's spans (children included).
    """
    selfs = self_times(spans)
    out: dict = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "items": 0}
    )
    for span in spans:
        if window is not None and not window[0] <= span[4] < window[1]:
            continue
        entry = out[span[3]]
        entry["calls"] += 1
        entry["self_s"] += selfs[span[0]]
        entry["busy_s"] += span[5] - span[4]
        entry["items"] += span[6]
    return dict(out)
