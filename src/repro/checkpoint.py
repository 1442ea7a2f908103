"""Checkpointing: full state round-trips for long-running summaries.

A sensor node or stream processor that restarts must not lose its summary
of the last million items.  :func:`state_dict` captures the complete
internal state of a summary as plain data (JSON-safe lists, numbers,
strings) and :func:`restore` rebuilds an equivalent summary -- *exactly*
equivalent: every future insert produces the same buckets, errors, and
memory accounting as if the process had never stopped (property-tested in
``tests/test_checkpoint.py`` and ``tests/test_resilience.py``).

Every summary in the harness registry is supported (see
:data:`SUPPORTED_KINDS`): the serial pair (MIN-MERGE / MIN-INCREMENT), the
REHIST baseline, both PWL variants, both sliding windows, plus the
building-block :class:`GreedyInsertSummary` and a whole
:class:`~repro.fleet.StreamFleet` (serialized as its per-stream states).
Unsupported objects raise
:class:`~repro.exceptions.UnsupportedCheckpointError` naming the type and
the supported set.

Durable on-disk checkpoints -- atomic rotation, checksums, journal replay
-- live one layer up in :mod:`repro.resilience`; this module only defines
the state payloads.

**Instrumentation policy**: metrics (``docs/OBSERVABILITY.md``) are
process-local observability state, not summary state, so they are *not*
serialized -- :func:`restore` always returns an uninstrumented summary
(``summary.metrics is None``), and counters start from zero if the caller
re-enables instrumentation.  This is deliberate: a checkpoint restored on
another machine would otherwise report the dead process's latency
timeline as its own.  Re-enable by constructing with ``metrics=`` and
replaying, or by attaching a fresh registry to a restored summary via its
constructor arguments; algorithm state round-trips exactly either way
(tested in ``tests/test_observability.py``).
"""

from __future__ import annotations

from repro.baselines.rehist import RehistHistogram, _BreakpointList
from repro.core.bucket import Bucket
from repro.core.greedy_insert import GreedyInsertSummary
from repro.core.min_increment import MinIncrementHistogram
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_bucket import ClosedPwlBucket, PwlBucket
from repro.core.pwl_min_increment import (
    PwlGreedyInsertSummary,
    PwlMinIncrementHistogram,
)
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.core.sliding_window import (
    SlidingWindowMinIncrement,
    _WindowedGreedySummary,
)
from repro.core.sliding_window_pwl import (
    SlidingWindowPwlMinIncrement,
    _WindowedPwlGreedySummary,
)
from repro.exceptions import (
    InvalidParameterError,
    UnsupportedCheckpointError,
)
from repro.fleet import StreamFleet

#: Checkpoint kinds understood by :func:`restore`, i.e. the values the
#: serialized ``state["kind"]`` field may take.
SUPPORTED_KINDS = (
    "min-merge",
    "min-increment",
    "rehist",
    "pwl-min-merge",
    "pwl-min-increment",
    "sliding-window",
    "sliding-window-pwl",
    "greedy-insert",
    "fleet",
)


#: Summary classes :func:`state_dict` accepts (isinstance targets).
CHECKPOINTABLE_CLASSES = (
    MinMergeHistogram,
    MinIncrementHistogram,
    RehistHistogram,
    PwlMinMergeHistogram,
    PwlMinIncrementHistogram,
    SlidingWindowMinIncrement,
    SlidingWindowPwlMinIncrement,
    GreedyInsertSummary,
    StreamFleet,
)


def checkpointable(obj) -> bool:
    """True when :func:`state_dict` supports ``obj`` (class or instance).

    The capability probe behind ``repro.api.methods()`` and the service
    engine's per-tenant checkpoint gating.
    """
    if isinstance(obj, type):
        return issubclass(obj, CHECKPOINTABLE_CLASSES)
    return isinstance(obj, CHECKPOINTABLE_CLASSES)


def state_dict(summary) -> dict:
    """Serialize a supported summary's full state to plain data."""
    # MinIncrement before its PWL sibling only for symmetry with restore;
    # the isinstance chain has no ambiguous pairs.
    if isinstance(summary, MinMergeHistogram):
        return _min_merge_state(summary)
    if isinstance(summary, MinIncrementHistogram):
        return _min_increment_state(summary)
    if isinstance(summary, RehistHistogram):
        return _rehist_state(summary)
    if isinstance(summary, PwlMinMergeHistogram):
        return _pwl_min_merge_state(summary)
    if isinstance(summary, PwlMinIncrementHistogram):
        return _pwl_min_increment_state(summary)
    if isinstance(summary, SlidingWindowMinIncrement):
        return _sliding_window_state(summary)
    if isinstance(summary, SlidingWindowPwlMinIncrement):
        return _sliding_window_pwl_state(summary)
    if isinstance(summary, GreedyInsertSummary):
        return {"kind": "greedy-insert", **_greedy_state(summary)}
    if isinstance(summary, StreamFleet):
        return _fleet_state(summary)
    raise UnsupportedCheckpointError(
        f"checkpointing not supported for {type(summary).__name__}; "
        f"supported kinds: {', '.join(SUPPORTED_KINDS)}"
    )


def restore(state: dict):
    """Rebuild a summary from :func:`state_dict` output."""
    try:
        kind = state["kind"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameterError(f"malformed checkpoint: {exc}") from exc
    builders = {
        "min-merge": _restore_min_merge,
        "min-increment": _restore_min_increment,
        "rehist": _restore_rehist,
        "pwl-min-merge": _restore_pwl_min_merge,
        "pwl-min-increment": _restore_pwl_min_increment,
        "sliding-window": _restore_sliding_window,
        "sliding-window-pwl": _restore_sliding_window_pwl,
        "greedy-insert": _restore_greedy,
        "fleet": _restore_fleet,
    }
    try:
        builder = builders[kind]
    except KeyError:
        raise UnsupportedCheckpointError(
            f"unknown checkpoint kind {kind!r}; "
            f"supported kinds: {', '.join(SUPPORTED_KINDS)}"
        ) from None
    try:
        return builder(state)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, UnsupportedCheckpointError):
            raise
        raise InvalidParameterError(f"malformed checkpoint: {exc}") from exc


# -- MIN-MERGE ----------------------------------------------------------------


def _bucket_tuple(bucket: Bucket) -> list:
    return [bucket.beg, bucket.end, bucket.min, bucket.max]


def _min_merge_state(summary: MinMergeHistogram) -> dict:
    return {
        "kind": "min-merge",
        "buckets": summary.target_buckets,
        "working_buckets": summary.working_buckets,
        "findmin": summary.findmin,
        "items_seen": summary.items_seen,
        "bucket_list": [_bucket_tuple(b) for b in summary.buckets_snapshot()],
    }


def _restore_min_merge(state: dict) -> MinMergeHistogram:
    # The bucket list is the whole algorithmic state; adopt_buckets
    # rebuilds the pair-key heap from it.  A "backend" key written by
    # older checkpoints named an equivalent kernel and is ignored.
    summary = MinMergeHistogram(
        buckets=state["buckets"],
        working_buckets=state["working_buckets"],
        findmin=state["findmin"],
    )
    summary.adopt_buckets(
        [Bucket(beg, end, lo, hi) for beg, end, lo, hi in state["bucket_list"]],
        count=0,
    )
    summary._n = state["items_seen"]
    return summary


# -- GREEDY-INSERT / MIN-INCREMENT ------------------------------------------------


def _greedy_state(greedy: GreedyInsertSummary) -> dict:
    return {
        "target_error": greedy.target_error,
        "closed": [_bucket_tuple(b) for b in greedy._closed],
        "open": _bucket_tuple(greedy._open) if greedy._open is not None else None,
        "next_index": greedy._next_index,
    }


def _restore_greedy(data: dict) -> GreedyInsertSummary:
    greedy = GreedyInsertSummary(data["target_error"])
    greedy._closed = [Bucket(*item) for item in data["closed"]]
    greedy._open = Bucket(*data["open"]) if data["open"] is not None else None
    greedy._next_index = data["next_index"]
    return greedy


def _min_increment_state(summary: MinIncrementHistogram) -> dict:
    return {
        "kind": "min-increment",
        "buckets": summary.target_buckets,
        "epsilon": summary.epsilon,
        "universe": summary.universe,
        "include_zero": summary.ladder[0] == 0.0,
        "batch_size": summary._batch_size,
        "items_seen": summary.items_seen,
        "buffer": list(summary._buffer),
        "summaries": [_greedy_state(s) for s in summary._summaries],
    }


def _restore_min_increment(state: dict) -> MinIncrementHistogram:
    summary = MinIncrementHistogram(
        buckets=state["buckets"],
        epsilon=state["epsilon"],
        universe=state["universe"],
        include_zero_level=state["include_zero"],
        batch_size=state["batch_size"],
    )
    summary._n = state["items_seen"]
    summary._buffer = list(state["buffer"])
    summary._summaries = [_restore_greedy(s) for s in state["summaries"]]
    return summary


# -- REHIST -------------------------------------------------------------------


def _stack_state(stack) -> dict:
    return {
        "positions": list(stack._positions),
        "values": list(stack._values),
        "count": stack._count,
    }


def _restore_stack(stack, data: dict) -> None:
    stack._positions = [int(p) for p in data["positions"]]
    stack._values = list(data["values"])
    stack._count = int(data["count"])


def _rehist_state(summary: RehistHistogram) -> dict:
    return {
        "kind": "rehist",
        "buckets": summary.target_buckets,
        "epsilon": summary.epsilon,
        "universe": summary.universe,
        "delta": summary.delta,
        "items_seen": summary.items_seen,
        "current_error": summary._current_error,
        "levels": [
            {
                "positions": list(level.positions),
                "values": list(level.values),
                "anchor": level._anchor,
            }
            for level in summary._levels
        ],
        "maxima": _stack_state(summary._window._maxima),
        "minima": _stack_state(summary._window._minima),
    }


def _restore_rehist(state: dict) -> RehistHistogram:
    summary = RehistHistogram(
        buckets=state["buckets"],
        epsilon=state["epsilon"],
        universe=state["universe"],
        delta=state["delta"],
    )
    summary._n = state["items_seen"]
    summary._current_error = state["current_error"]
    levels = []
    for data in state["levels"]:
        level = _BreakpointList(summary.delta)
        level.positions = [int(p) for p in data["positions"]]
        level.values = list(data["values"])
        level._anchor = data["anchor"]
        levels.append(level)
    if len(levels) != max(0, summary.target_buckets - 1):
        raise InvalidParameterError(
            f"rehist checkpoint has {len(levels)} breakpoint lists, "
            f"expected {max(0, summary.target_buckets - 1)}"
        )
    summary._levels = levels
    _restore_stack(summary._window._maxima, state["maxima"])
    _restore_stack(summary._window._minima, state["minima"])
    return summary


# -- PWL MIN-MERGE / MIN-INCREMENT --------------------------------------------


def _closed_pwl_tuple(bucket: ClosedPwlBucket) -> list:
    return [bucket.beg, bucket.end, bucket.left, bucket.right, bucket.error]


def _closed_pwl_from(item) -> ClosedPwlBucket:
    beg, end, left, right, error = item
    return ClosedPwlBucket(
        beg=int(beg), end=int(end), left=left, right=right, error=error
    )


def _pwl_min_merge_state(summary: PwlMinMergeHistogram) -> dict:
    return {
        "kind": "pwl-min-merge",
        "buckets": summary.target_buckets,
        "working_buckets": summary.working_buckets,
        "hull_epsilon": summary.hull_epsilon,
        "items_seen": summary.items_seen,
        "bucket_list": [b.to_state() for b in summary.buckets_snapshot()],
    }


def _restore_pwl_min_merge(state: dict) -> PwlMinMergeHistogram:
    # Any legacy "backend" key is ignored, as in _restore_min_merge.
    summary = PwlMinMergeHistogram(
        buckets=state["buckets"],
        working_buckets=state["working_buckets"],
        hull_epsilon=state["hull_epsilon"],
    )
    summary.adopt_buckets(
        [PwlBucket.from_state(item) for item in state["bucket_list"]],
        count=0,
    )
    summary._n = state["items_seen"]
    return summary


def _pwl_greedy_state(level: PwlGreedyInsertSummary) -> dict:
    return {
        "target_error": level.target_error,
        "closed": [_closed_pwl_tuple(b) for b in level.closed],
        "open": level.open.to_state() if level.open is not None else None,
        "next_index": level._next_index,
    }


def _restore_pwl_greedy(
    data: dict, hull_epsilon
) -> PwlGreedyInsertSummary:
    level = PwlGreedyInsertSummary(
        data["target_error"], hull_epsilon=hull_epsilon
    )
    level.closed = [_closed_pwl_from(item) for item in data["closed"]]
    level.open = (
        PwlBucket.from_state(data["open"]) if data["open"] is not None else None
    )
    level._next_index = int(data["next_index"])
    return level


def _pwl_min_increment_state(summary: PwlMinIncrementHistogram) -> dict:
    return {
        "kind": "pwl-min-increment",
        "buckets": summary.target_buckets,
        "epsilon": summary.epsilon,
        "universe": summary.universe,
        "hull_epsilon": summary.hull_epsilon,
        "include_zero": summary.ladder[0] == 0.0,
        "items_seen": summary.items_seen,
        "summaries": [_pwl_greedy_state(s) for s in summary._summaries],
    }


def _restore_pwl_min_increment(state: dict) -> PwlMinIncrementHistogram:
    summary = PwlMinIncrementHistogram(
        buckets=state["buckets"],
        epsilon=state["epsilon"],
        universe=state["universe"],
        hull_epsilon=state["hull_epsilon"],
        include_zero_level=state["include_zero"],
    )
    summary._n = state["items_seen"]
    # Only the surviving ladder levels are serialized; dead levels stay dead.
    summary._summaries = [
        _restore_pwl_greedy(s, summary.hull_epsilon)
        for s in state["summaries"]
    ]
    return summary


# -- sliding window -----------------------------------------------------------------


def _windowed_state(level: _WindowedGreedySummary) -> dict:
    return {
        "target_error": level.target_error,
        "closed": [_bucket_tuple(b) for b in level.closed],
        "open": _bucket_tuple(level.open) if level.open is not None else None,
    }


def _sliding_window_state(summary: SlidingWindowMinIncrement) -> dict:
    return {
        "kind": "sliding-window",
        "buckets": summary.target_buckets,
        "epsilon": summary.epsilon,
        "universe": summary.universe,
        "window": summary.window,
        "include_zero": summary.ladder[0] == 0.0,
        "items_seen": summary.items_seen,
        "levels": [_windowed_state(level) for level in summary._summaries],
    }


def _restore_sliding_window(state: dict) -> SlidingWindowMinIncrement:
    summary = SlidingWindowMinIncrement(
        buckets=state["buckets"],
        epsilon=state["epsilon"],
        universe=state["universe"],
        window=state["window"],
        include_zero_level=state["include_zero"],
    )
    summary._n = state["items_seen"]
    levels = []
    for data in state["levels"]:
        level = _WindowedGreedySummary(data["target_error"])
        level.closed.extend(Bucket(*item) for item in data["closed"])
        level.open = Bucket(*data["open"]) if data["open"] is not None else None
        levels.append(level)
    summary._summaries = levels
    return summary


def _windowed_pwl_state(level: _WindowedPwlGreedySummary) -> dict:
    return {
        "target_error": level.target_error,
        "closed": [_closed_pwl_tuple(b) for b in level.closed],
        "open": level.open.to_state() if level.open is not None else None,
    }


def _sliding_window_pwl_state(summary: SlidingWindowPwlMinIncrement) -> dict:
    return {
        "kind": "sliding-window-pwl",
        "buckets": summary.target_buckets,
        "epsilon": summary.epsilon,
        "universe": summary.universe,
        "window": summary.window,
        "hull_epsilon": summary.hull_epsilon,
        "include_zero": summary.ladder[0] == 0.0,
        "items_seen": summary.items_seen,
        "levels": [_windowed_pwl_state(level) for level in summary._summaries],
    }


def _restore_sliding_window_pwl(state: dict) -> SlidingWindowPwlMinIncrement:
    summary = SlidingWindowPwlMinIncrement(
        buckets=state["buckets"],
        epsilon=state["epsilon"],
        universe=state["universe"],
        window=state["window"],
        hull_epsilon=state["hull_epsilon"],
        include_zero_level=state["include_zero"],
    )
    summary._n = state["items_seen"]
    levels = []
    for data in state["levels"]:
        level = _WindowedPwlGreedySummary(
            data["target_error"], summary.hull_epsilon
        )
        level.closed.extend(_closed_pwl_from(item) for item in data["closed"])
        level.open = (
            PwlBucket.from_state(data["open"])
            if data["open"] is not None
            else None
        )
        levels.append(level)
    summary._summaries = levels
    return summary


# -- fleet --------------------------------------------------------------------


def _fleet_state(fleet: StreamFleet) -> dict:
    # Stream ids must survive a JSON round trip for to_json/from_json;
    # stored as [id, state] pairs to keep non-string ids (ints) intact.
    return {
        "kind": "fleet",
        "algorithm": fleet.algorithm,
        "config": fleet.config,
        "streams": [
            [stream_id, state_dict(fleet.summary(stream_id))]
            for stream_id in fleet.ids
        ],
    }


def _restore_fleet(state: dict) -> StreamFleet:
    config = state["config"]
    fleet = StreamFleet(
        buckets=config["buckets"],
        algorithm=state["algorithm"],
        epsilon=config["epsilon"],
        universe=config["universe"],
        window=config["window"],
    )
    for stream_id, stream_state in state["streams"]:
        fleet.adopt_stream(stream_id, restore(stream_state))
    return fleet


def to_json(summary) -> str:
    """JSON form of :func:`state_dict`."""
    import json

    return json.dumps(state_dict(summary), separators=(",", ":"))


def from_json(payload: str):
    """Inverse of :func:`to_json`."""
    import json

    try:
        state = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"malformed checkpoint JSON: {exc}") from exc
    return restore(state)
