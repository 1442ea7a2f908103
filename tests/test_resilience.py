"""Crash-anywhere recovery: every summary, every fault point, bit-identical.

The central property: for any registry algorithm and any named fault point
in the checkpoint write protocol, crashing there, re-opening the store in a
"fresh process", recovering, and finishing the stream yields a summary
whose ``state_dict`` is *bit-identical* to an uninterrupted run's.  The
corruption tests add the fallback guarantee: a torn or bit-flipped newest
snapshot is skipped and the previous good generation (plus journal replay)
still reproduces the oracle exactly.
"""

from __future__ import annotations

import glob
import json
import os
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import state_dict
from repro.exceptions import (
    CheckpointCorruptionError,
    InjectedFaultError,
    InvalidParameterError,
)
from repro.harness.runner import ALGORITHM_NAMES, make_algorithm
from repro.resilience import (
    CHECKPOINT_FAULT_POINTS,
    CheckpointStore,
    FaultPlan,
    ItemJournal,
    inject_bit_flip,
    inject_torn_write,
)

UNIVERSE = 512
WINDOW = 96

#: Store-level fault points that fire during a plain ingest/save cycle
#: (``snapshot.prune`` needs retention pressure and is exercised separately).
CYCLE_FAULTS = tuple(
    p for p in CHECKPOINT_FAULT_POINTS if p != "snapshot.prune"
)


def _make(name):
    return make_algorithm(
        name, buckets=4, epsilon=0.25, universe=UNIVERSE, window=WINDOW
    )


def _values(n=300):
    return [(i * 37) % 211 for i in range(n)]


def _oracle_state(name, values, split):
    oracle = _make(name)
    oracle.extend(values[:split])
    oracle.extend(values[split:])
    return state_dict(oracle)


def _crash_then_recover(name, fault, values, split, directory, *, keep=2):
    """Ingest/save, crash at ``fault``, recover in a fresh store, finish."""
    occurrence = 1 if fault == "snapshot.prune" else 2
    plan = FaultPlan.crash_at(fault, occurrence=occurrence)
    store = CheckpointStore(
        directory, keep=keep, journal=True, fault_plan=plan
    )
    running = _make(name)
    crashed = False
    try:
        store.ingest(running, values[:split])
        store.save(running)
        store.ingest(running, values[split:])
        store.save(running)
    except InjectedFaultError:
        crashed = True
    finally:
        store.close()  # the "crashed" process's handles die with it
    assert crashed, f"fault {fault!r} never fired"
    assert plan.fired == [fault]

    # A fresh store models the restarted process; "auto" finds the journal.
    fresh = CheckpointStore(directory, keep=keep)
    recovered = fresh.recover(factory=lambda: _make(name))
    fresh.close()
    rest = values[recovered.items_seen:]
    if rest:
        recovered.extend(rest)
    return recovered, fresh.last_recovery


class TestCrashMatrix:
    """The tentpole guarantee, enumerated exhaustively."""

    @pytest.mark.parametrize("fault", CYCLE_FAULTS)
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_crash_anywhere_recovers_bit_identical(self, name, fault, tmp_path):
        values = _values()
        recovered, report = _crash_then_recover(
            name, fault, values, 150, tmp_path
        )
        assert state_dict(recovered) == _oracle_state(name, values, 150)
        assert recovered.items_seen == len(values)
        assert report.skipped_generations == 0

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_crash_during_prune_recovers_bit_identical(self, name, tmp_path):
        # keep=1 forces the second save to prune the first generation.
        values = _values()
        recovered, _ = _crash_then_recover(
            name, "snapshot.prune", values, 150, tmp_path, keep=1
        )
        assert state_dict(recovered) == _oracle_state(name, values, 150)

    def test_crash_before_first_snapshot_uses_factory(self, tmp_path):
        values = _values(120)
        plan = FaultPlan.crash_at("journal.append", occurrence=2)
        store = CheckpointStore(tmp_path, journal=True, fault_plan=plan)
        running = _make("min-merge")
        with pytest.raises(InjectedFaultError):
            store.ingest(running, values[:60])
            store.ingest(running, values[60:])
        store.close()

        fresh = CheckpointStore(tmp_path)
        recovered = fresh.recover(factory=lambda: _make("min-merge"))
        assert fresh.last_recovery.generation is None
        recovered.extend(values[recovered.items_seen:])
        assert state_dict(recovered) == _oracle_state("min-merge", values, 60)

    @settings(max_examples=5, deadline=None)
    @given(
        values=st.lists(st.integers(0, UNIVERSE - 1), min_size=20, max_size=120),
        cut=st.floats(0.1, 0.9),
        fault=st.sampled_from(CYCLE_FAULTS),
        name=st.sampled_from(("min-merge", "pwl-min-increment", "rehist")),
    )
    def test_crash_recovery_property(self, values, cut, fault, name):
        split = max(1, int(len(values) * cut))
        with tempfile.TemporaryDirectory() as directory:
            recovered, _ = _crash_then_recover(
                name, fault, values, split, directory
            )
        assert state_dict(recovered) == _oracle_state(name, values, split)


class TestCorruptionFallback:
    """Bad newest snapshot -> previous good generation + journal tail."""

    def _store_with_two_generations(self, name, values, directory):
        store = CheckpointStore(directory, journal=True)
        running = _make(name)
        store.ingest(running, values[:150])
        store.save(running)
        store.ingest(running, values[150:])
        store.save(running)
        store.close()
        return store

    @pytest.mark.parametrize("corrupt", ["bit-flip", "torn"])
    @pytest.mark.parametrize("name", ["min-merge", "sliding-window-pwl"])
    def test_corrupt_newest_falls_back_a_generation(
        self, name, corrupt, tmp_path
    ):
        values = _values()
        store = self._store_with_two_generations(name, values, tmp_path)
        newest = store.generations()[-1]
        path = os.path.join(str(tmp_path), f"snapshot-{newest:08d}.json")
        if corrupt == "bit-flip":
            inject_bit_flip(path, offset=-20)
        else:
            inject_torn_write(path, keep_fraction=0.6)

        fresh = CheckpointStore(tmp_path)
        recovered = fresh.recover()
        report = fresh.last_recovery
        assert report.skipped_generations == 1
        assert report.generation == newest - 1
        # The journal tail still covers everything past the older snapshot.
        assert state_dict(recovered) == _oracle_state(name, values, 150)

    def test_all_generations_corrupt_raises(self, tmp_path):
        values = _values()
        store = self._store_with_two_generations(
            "min-merge", values, tmp_path
        )
        for generation in store.generations():
            inject_torn_write(
                os.path.join(
                    str(tmp_path), f"snapshot-{generation:08d}.json"
                ),
                keep_fraction=0.3,
            )
        with pytest.raises(CheckpointCorruptionError):
            CheckpointStore(tmp_path).recover()

    def test_empty_store_without_factory_raises(self, tmp_path):
        with pytest.raises(CheckpointCorruptionError):
            CheckpointStore(tmp_path).recover()

    def test_journal_gap_raises(self, tmp_path):
        store = CheckpointStore(tmp_path, journal=True)
        running = _make("min-merge")
        running.extend(range(5))
        store.save(running)
        # A record claiming to start past what the snapshot covers.
        store.journal.append([1, 2, 3], start=10)
        store.close()
        with pytest.raises(CheckpointCorruptionError):
            CheckpointStore(tmp_path).recover()


class TestCheckpointStore:
    def test_retention_prunes_old_generations(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2, journal=False)
        running = _make("min-merge")
        for round_no in range(4):
            running.extend(_values(50))
            store.save(running)
        assert store.generations() == [3, 4]

    def test_crashed_save_leaves_no_temp_after_next_save(self, tmp_path):
        plan = FaultPlan.crash_at("snapshot.tmp-write")
        store = CheckpointStore(tmp_path, journal=False, fault_plan=plan)
        running = _make("min-merge")
        running.extend(_values(50))
        with pytest.raises(InjectedFaultError):
            store.save(running)
        assert any(n.endswith(".json.tmp") for n in os.listdir(tmp_path))
        store.save(running)
        assert not any(n.endswith(".json.tmp") for n in os.listdir(tmp_path))

    def test_save_without_journal_then_recover_restarts_at_snapshot(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path, journal=False)
        running = _make("min-merge")
        running.extend(_values(100))
        store.save(running)
        recovered = CheckpointStore(tmp_path).recover()
        assert recovered.items_seen == 100
        assert state_dict(recovered) == state_dict(running)

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            CheckpointStore(tmp_path, keep=0)


def _segments(directory):
    return sorted(glob.glob(os.path.join(str(directory), "journal-*.seg")))


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _replayed(journal):
    """Replay as plain ``(start, [float, ...])`` pairs."""
    return [(start, values.tolist()) for start, values in journal.replay()]


def _legacy_record(start, values):
    """One record of the retired JSON-lines journal, byte for byte."""
    canonical = json.dumps(
        {"start": start, "values": values}, sort_keys=True, separators=(",", ":")
    )
    record = {
        "start": start,
        "values": values,
        "crc": zlib.crc32(canonical.encode("ascii")),
    }
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("ascii")


class TestItemJournal:
    def test_replay_round_trips_batches(self, tmp_path):
        journal = ItemJournal(tmp_path)
        journal.append([1.5, 2, 3], start=0)
        journal.append([4, 5], start=3)
        journal.close()
        assert _replayed(journal) == [(0, [1.5, 2.0, 3.0]), (3, [4.0, 5.0])]
        for _, values in journal.replay():
            assert values.dtype == np.float64
            assert not values.flags.writeable
        assert [os.path.basename(p) for p in _segments(tmp_path)] == [
            "journal-00000000000000000000.seg"
        ]

    def test_torn_tail_is_ignored(self, tmp_path):
        journal = ItemJournal(tmp_path)
        journal.append([1, 2], start=0)
        journal.append([3, 4], start=2)
        journal.close()
        (path,) = _segments(tmp_path)
        size = os.path.getsize(path)
        inject_torn_write(path, keep_fraction=(size - 4) / size)
        assert _replayed(journal) == [(0, [1.0, 2.0])]
        assert journal.ignored_tail_bytes() > 0

    def test_bit_flip_stops_replay_at_bad_record(self, tmp_path):
        journal = ItemJournal(tmp_path)
        journal.append([1, 2], start=0)
        (path,) = _segments(tmp_path)
        first_record = os.path.getsize(path)
        journal.append([3, 4], start=2)
        journal.close()
        inject_bit_flip(path, offset=first_record + 12)
        assert _replayed(journal) == [(0, [1.0, 2.0])]
        assert journal.ignored_tail_bytes() > 0

    def test_compact_keeps_needed_tail(self, tmp_path):
        journal = ItemJournal(tmp_path)
        journal.append([0, 1, 2], start=0)
        journal.cut(3)
        journal.append([3, 4, 5], start=3)
        journal.cut(6)
        journal.append([6, 7], start=6)
        first = _segments(tmp_path)[0]
        # Compaction reads nothing: garbage in a doomed segment is moot.
        with open(first, "wb") as handle:
            handle.write(b"garbage")
        assert journal.compact(5) == 2  # segment 3 straddles the cutoff
        assert _replayed(journal) == [(3, [3.0, 4.0, 5.0]), (6, [6.0, 7.0])]
        # The active segment is never deleted, whatever min_start says.
        assert journal.compact(8) == 1
        assert _replayed(journal) == [(6, [6.0, 7.0])]
        journal.close()

    def test_append_after_torn_tail_lands_after_last_good_record(
        self, tmp_path
    ):
        plan = FaultPlan.crash_at("journal.append", occurrence=2)
        journal = ItemJournal(tmp_path, fault_plan=plan)
        journal.append([1, 2], start=0)
        with pytest.raises(InjectedFaultError):
            journal.append([3, 4], start=2)
        journal.close()
        reopened = ItemJournal(tmp_path)
        reopened.append([5, 6], start=2)  # truncates the torn tail first
        reopened.close()
        assert _replayed(reopened) == [(0, [1.0, 2.0]), (2, [5.0, 6.0])]
        assert reopened.ignored_tail_bytes() == 0

    def test_cut_starts_a_durable_segment_named_by_its_base(self, tmp_path):
        journal = ItemJournal(tmp_path)
        journal.append([1, 2], start=0)
        journal.cut(2)
        journal.cut(2)  # nothing appended since: no new segment
        journal.append([3], start=2)
        journal.close()
        names = [os.path.basename(p) for p in _segments(tmp_path)]
        assert names == [
            "journal-00000000000000000000.seg",
            "journal-00000000000000000002.seg",
        ]
        assert _replayed(journal) == [(0, [1.0, 2.0]), (2, [3.0])]

    def test_truncated_sealed_segment_ends_replay(self, tmp_path):
        journal = ItemJournal(tmp_path)
        journal.append([1, 2], start=0)
        first_end = os.path.getsize(_segments(tmp_path)[0])
        journal.append([3, 4], start=2)
        journal.cut(4)
        journal.append([5], start=4)
        journal.close()
        # Cut exactly at a record boundary: every kept record is valid,
        # but the sealed segment no longer reaches the next one's base.
        with open(_segments(tmp_path)[0], "r+b") as handle:
            handle.truncate(first_end)
        assert _replayed(journal) == [(0, [1.0, 2.0])]
        assert journal.ignored_tail_bytes() > 0

    def test_huge_count_ends_replay_without_allocating(self, tmp_path):
        journal = ItemJournal(tmp_path)
        journal.append([1.0] * 8, start=0)
        journal.close()
        (path,) = _segments(tmp_path)
        # Set the top bit of the first record's u32 count field.
        inject_bit_flip(path, offset=8 + 8 + 3, bit=7)
        tracemalloc.start()
        try:
            assert _replayed(journal) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert journal.ignored_tail_bytes() == os.path.getsize(path) - 8

    def test_forged_count_with_matching_crc_ends_replay(self, tmp_path):
        # A record claiming 1000 values over the 8 the file holds, with a
        # CRC that matches the bytes present: only the bounds check stops
        # it from reaching np.frombuffer.
        payload = np.arange(8, dtype="<f8").tobytes()
        key = struct.pack("<QI", 0, 1000)
        crc = zlib.crc32(payload, zlib.crc32(key))
        path = tmp_path / "journal-00000000000000000000.seg"
        path.write_bytes(
            b"REPROJL\x01" + key + struct.pack("<I", crc) + payload
        )
        journal = ItemJournal(tmp_path)
        assert _replayed(journal) == []
        assert journal.ignored_tail_bytes() == 16 + len(payload)

    def test_store_ingest_journals_the_values_the_summary_saw(
        self, tmp_path
    ):
        store = CheckpointStore(tmp_path, journal=True)
        running = _make("min-merge")
        store.ingest(running, [1, 2, 3])
        store.ingest(running, iter([4, 5]))
        store.close()
        assert _replayed(store.journal) == [
            (0, [1.0, 2.0, 3.0]),
            (3, [4.0, 5.0]),
        ]
        assert running.items_seen == 5


class TestJournalFuzz:
    """Damage anywhere in any segment: replay returns a clean prefix."""

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.floats(width=64), min_size=1, max_size=5),
            min_size=2,
            max_size=7,
        ),
        data=st.data(),
    )
    def test_replay_yields_a_prefix_under_any_damage(self, batches, data):
        cuts = data.draw(
            st.sets(st.integers(1, len(batches) - 1), min_size=1),
            label="cut before batch",
        )
        with tempfile.TemporaryDirectory() as directory:
            journal = ItemJournal(directory)
            records, start = [], 0
            for index, batch in enumerate(batches):
                if index in cuts:
                    journal.cut(start)
                journal.append(batch, start=start)
                records.append((start, np.asarray(batch, "<f8").tobytes()))
                start += len(batch)
            journal.close()
            segments = _segments(directory)
            assert len(segments) >= 2
            target = data.draw(st.sampled_from(segments), label="segment")
            size = os.path.getsize(target)
            mode = data.draw(st.sampled_from(["truncate", "flip"]))
            offset = data.draw(st.integers(0, size - 1), label="offset")
            if mode == "truncate":
                with open(target, "r+b") as handle:
                    handle.truncate(offset)
            else:
                bit = data.draw(st.integers(0, 7), label="bit")
                inject_bit_flip(target, offset=offset, bit=bit)
            on_disk = sum(os.path.getsize(p) for p in segments)

            reader = ItemJournal(directory)
            tracemalloc.start()
            try:
                out = [(s, v.tobytes()) for s, v in reader.replay()]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

            assert out == records[: len(out)]
            assert peak <= on_disk + 16 * 1024
            if len(out) < len(records):
                # Only a truncation of the newest segment exactly at a
                # record boundary leaves no unread bytes behind.
                boundaries = {0, 8}
                for s, payload in records:
                    if s >= int(os.path.basename(segments[-1])[8:28]):
                        boundaries.add(max(boundaries) + 16 + len(payload))
                clean_cut = (
                    mode == "truncate"
                    and target == segments[-1]
                    and offset in boundaries
                )
                if not clean_cut:
                    assert reader.ignored_tail_bytes() > 0


class TestLegacyJournalMigration:
    """A JSON-lines ``journal.log`` is converted once, when opened."""

    def _legacy_store(self, directory, values):
        # What the JSON-journal code left behind: a snapshot at 150 and a
        # journal whose compaction kept the records past it.
        running = _make("min-merge")
        running.extend(values[:150])
        CheckpointStore(directory, journal=False).save(running)
        with open(os.path.join(str(directory), "journal.log"), "wb") as fh:
            for lo in range(100, len(values), 50):
                fh.write(_legacy_record(lo, values[lo : lo + 50]))

    def test_legacy_journal_recovers_bit_identically(self, tmp_path):
        values = [float(v) for v in _values()]
        self._legacy_store(tmp_path, values)
        store = CheckpointStore(tmp_path)  # "auto" finds the legacy file
        assert store.journal is not None
        assert not os.path.exists(tmp_path / "journal.log")
        assert len(_segments(tmp_path)) == 1
        recovered = store.recover()
        oracle = _make("min-merge")
        oracle.extend(values)
        assert json.dumps(state_dict(recovered), sort_keys=True) == json.dumps(
            state_dict(oracle), sort_keys=True
        )
        assert store.last_recovery.replayed_items == len(values) - 150
        store.close()

    def test_crash_between_rename_and_unlink_migrates_again(self, tmp_path):
        values = [float(v) for v in _values()]
        self._legacy_store(tmp_path, values)
        legacy = tmp_path / "journal.log"
        kept = legacy.read_bytes()
        CheckpointStore(tmp_path).close()
        migrated = {p: _read(p) for p in _segments(tmp_path)}
        legacy.write_bytes(kept)  # the unlink never became durable

        store = CheckpointStore(tmp_path)
        assert not legacy.exists()
        assert {p: _read(p) for p in _segments(tmp_path)} == migrated
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert store.recover().items_seen == len(values)
        store.close()


class TestFaultPlan:
    def test_counts_and_order(self):
        plan = FaultPlan({"a": 2, "b": 1})
        assert plan.take("a") and plan.take("b") and plan.take("a")
        assert not plan.take("a") and not plan.take("b")
        assert plan.fired == ["a", "b", "a"]

    def test_skip_then_fail(self):
        plan = FaultPlan.crash_at("p", occurrence=3)
        assert [plan.take("p") for _ in range(4)] == [
            False, False, True, False,
        ]

    def test_iterable_constructor_counts_duplicates(self):
        plan = FaultPlan(["x", "x", "y"])
        assert plan.remaining("x") == 2 and plan.remaining("y") == 1

    def test_fire_raises_only_with_budget(self):
        plan = FaultPlan.crash_once("p")
        with pytest.raises(InjectedFaultError):
            plan.fire("p")
        plan.fire("p")  # budget spent: no-op

    @pytest.mark.parametrize(
        "bad", [{"p": 0}, {"p": -1}, {"p": (-1, 1)}, {"p": (0, 0)}]
    )
    def test_invalid_budgets_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            FaultPlan(bad)

    def test_crash_at_rejects_nonpositive_occurrence(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.crash_at("p", occurrence=0)


class TestInjectors:
    def test_torn_write_truncates(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"0123456789")
        assert inject_torn_write(path, keep_fraction=0.5) == 5
        assert path.read_bytes() == b"01234"

    def test_bit_flip_flips_one_bit(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"\x00\x00")
        assert inject_bit_flip(path, offset=-1, bit=3) == 1
        assert path.read_bytes() == b"\x00\x08"

    def test_injector_validation(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"ab")
        with pytest.raises(InvalidParameterError):
            inject_torn_write(path, keep_fraction=1.0)
        with pytest.raises(InvalidParameterError):
            inject_bit_flip(path, offset=7)
        with pytest.raises(InvalidParameterError):
            inject_bit_flip(path, bit=8)


class TestWorkerFailureRecovery:
    """Dead/poisoned shards are retried; the result matches the oracle."""

    def _data(self, n=20_000):
        import numpy as np

        return (np.arange(n) * 37) % 211

    @staticmethod
    def _observable(summary):
        return (
            [(b.beg, b.end) for b in summary.buckets_snapshot()],
            summary.items_seen,
            summary.error,
        )

    @pytest.mark.parametrize("shard", [0, 1, 2, 3])
    def test_poisoned_shard_is_retried(self, shard):
        from repro.parallel import ParallelSummarizer

        data = self._data()
        reference = ParallelSummarizer(
            "min-merge", buckets=8, workers=4, backend="thread"
        ).reference(data)
        summarizer = ParallelSummarizer(
            "min-merge",
            buckets=8,
            workers=4,
            backend="thread",
            fault_plan=FaultPlan({f"shard:{shard}": 1}),
            retry_backoff=0.0,
            metrics=True,
        )
        result = summarizer.summarize(data)
        assert self._observable(result) == self._observable(reference)
        assert result.metrics.counter_totals()["failures_retried"] == 1

    def test_degrades_to_in_process_after_retries(self):
        from repro.parallel import ParallelSummarizer

        data = self._data()
        reference = ParallelSummarizer(
            "min-merge", buckets=8, workers=4, backend="thread"
        ).reference(data)
        summarizer = ParallelSummarizer(
            "min-merge",
            buckets=8,
            workers=4,
            backend="thread",
            fault_plan=FaultPlan({"shard:2": 2}),
            retry_backoff=0.0,
            max_shard_retries=2,
            metrics=True,
        )
        result = summarizer.summarize(data)
        assert self._observable(result) == self._observable(reference)
        # Counters aggregated up through the tree_reduce merges.
        assert result.metrics.counter_totals()["failures_retried"] == 2

    def test_in_process_failure_propagates(self):
        from repro.parallel import ParallelSummarizer

        summarizer = ParallelSummarizer(
            "min-merge",
            buckets=8,
            workers=4,
            backend="thread",
            fault_plan=FaultPlan({"shard:1": 5}),
            retry_backoff=0.0,
            max_shard_retries=2,
        )
        with pytest.raises(InjectedFaultError):
            summarizer.summarize(self._data())

    def test_killed_process_worker_is_retried(self):
        from repro.parallel import ParallelSummarizer
        from repro.parallel.executor import fork_available

        if not fork_available():
            pytest.skip("fork start method unavailable")
        data = self._data()
        reference = ParallelSummarizer(
            "min-merge", buckets=8, workers=2, backend="process"
        ).reference(data)
        summarizer = ParallelSummarizer(
            "min-merge",
            buckets=8,
            workers=2,
            backend="process",
            fault_plan=FaultPlan({"shard.kill:1": 1}),
            retry_backoff=0.0,
            metrics=True,
        )
        result = summarizer.summarize(data)
        assert self._observable(result) == self._observable(reference)
        # A dead worker breaks the whole pool, so innocent shards may be
        # collateral failures: at least the killed shard was retried.
        assert result.metrics.counter_totals()["failures_retried"] >= 1

    def test_retry_parameters_validated(self):
        from repro.parallel import ParallelSummarizer

        with pytest.raises(InvalidParameterError):
            ParallelSummarizer("min-merge", buckets=8, max_shard_retries=0)
        with pytest.raises(InvalidParameterError):
            ParallelSummarizer("min-merge", buckets=8, retry_backoff=-0.1)


class TestRecoverCli:
    def test_recover_subcommand_reports(self, tmp_path, capsys):
        from repro.cli import main

        store = CheckpointStore(tmp_path, journal=True)
        running = _make("min-merge")
        store.ingest(running, _values(200)[:120])
        store.save(running)
        store.ingest(running, _values(200)[120:])
        store.close()

        assert main(["recover", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "min-merge" in out
        assert "200" in out

    def test_recover_subcommand_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        store = CheckpointStore(tmp_path, journal=False)
        running = _make("sliding-window")
        running.extend(_values(150))
        store.save(running)

        assert main(["recover", "--dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "sliding-window"
        assert payload["items_seen"] == 150
        assert payload["generation"] == 1
