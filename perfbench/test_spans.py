"""Self-test of the span accounting behind the per-layer metrics.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SpanRecorder, self_times, summarize_spans  # noqa: E402


def span(span_id, parent, thread, name, start, end, items=0):
    return (span_id, parent, thread, name, start, end, items)


def test_self_time_is_duration_minus_children():
    spans = [
        span(1, 0, 7, "engine.append", 0.0, 10.0),
        span(2, 1, 7, "store.ingest", 1.0, 9.0),
        span(3, 2, 7, "journal.append", 2.0, 5.0),
        span(4, 3, 7, "fsync", 3.0, 4.0),
        span(5, 2, 7, "kernel.extend", 6.0, 8.5),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0)
    assert selfs[2] == pytest.approx(8.0 - 3.0 - 2.5)
    assert selfs[3] == pytest.approx(3.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(2.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_span_on_another_thread_is_not_a_child():
    spans = [
        span(1, 0, 7, "engine.append", 0.0, 10.0),
        # Overlaps span 1 in time on another thread, with no parent link.
        span(2, 0, 8, "kernel.extend", 2.0, 6.0),
        # A parent link that crosses threads is ignored as well.
        span(3, 1, 8, "fsync", 6.5, 7.5),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0)
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(1.0)


def test_window_keeps_spans_that_start_inside_it():
    spans = [
        span(1, 0, 7, "kernel.extend", 0.0, 1.0, items=10),
        span(2, 0, 7, "kernel.extend", 2.0, 3.0, items=20),
        span(3, 0, 7, "kernel.extend", 4.0, 5.0, items=40),
    ]
    totals = summarize_spans(spans, (1.5, 4.0))["kernel.extend"]
    assert totals["calls"] == 1
    assert totals["items"] == 20
    assert totals["self_s"] == pytest.approx(1.0)


def test_recorder_links_nested_calls_per_thread():
    recorder = SpanRecorder()

    inner = recorder.wrap("fsync", lambda: None)

    def outer_body(n):
        inner()
        return n * 2

    outer = recorder.wrap("journal.append", outer_body,
                          items=lambda n: n)
    assert outer(21) == 42

    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record[3], []).append(record)
    (outer_span,) = by_name["journal.append"]
    nested, threaded = sorted(by_name["fsync"], key=lambda r: r[4])
    assert nested[1] == outer_span[0]
    assert threaded[1] == 0
    assert threaded[2] != outer_span[2]
    assert outer_span[6] == 21


def test_same_name_reentry_is_one_span():
    recorder = SpanRecorder()
    decode_values = recorder.wrap("wire.decode", lambda: "values")
    decode_payload = recorder.wrap("wire.decode", lambda: decode_values())
    assert decode_payload() == "values"
    assert [record[3] for record in recorder.spans] == ["wire.decode"]


def test_wrapper_reraises_and_records():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap("store.save", boom)
    with pytest.raises(KeyError):
        wrapped()
    assert len(recorder.spans) == 1
