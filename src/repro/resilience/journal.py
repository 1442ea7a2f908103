"""Append-only item journal: the replay tail of a crash-consistent store.

Snapshots are periodic; the items that arrived since the last snapshot
would be lost in a crash.  The journal closes that gap: every ingested
batch is appended *before* it reaches the summary, so

    recover = load newest good snapshot + replay the journal tail

reproduces the uninterrupted run bit for bit (the summaries' batch ingest
is split-invariant -- property-tested in ``tests/test_batch.py`` -- so
replaying in journal-record chunks matches any original chunking).

Record format: one JSON object per line,

    {"start": <absolute index of the first value>, "values": [...],
     "crc": <crc32 of the canonical start/values JSON>}

A crash mid-append leaves a torn final line; a torn or bit-flipped record
fails JSON parsing or its CRC and *ends* replay -- everything after the
first bad record is untrusted, which is exactly right for an append-only
file where corruption can only be a torn tail.  :meth:`ItemJournal.replay`
reports how many trailing bytes it ignored.

The store compacts the journal after each snapshot, dropping records
entirely covered by the *oldest retained* generation -- not the newest, so
falling back a generation after snapshot corruption still finds the tail
it needs.

Every append is fsynced (:meth:`ItemJournal.sync`) before it returns, so
the journal always covers at least what its caller has applied.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Iterator, Optional, Sequence

from repro.exceptions import InjectedFaultError
from repro.resilience.faults import fire


def _record_crc(start: int, values: list) -> int:
    canonical = json.dumps(
        {"start": start, "values": values}, sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(canonical.encode("ascii"))


def _plain(value):
    return value.item() if hasattr(value, "item") else value


class ItemJournal:
    """Append-only journal of ingested batches with per-record checksums.

    Parameters
    ----------
    path:
        Journal file location (created on first append).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` consulted at the
        ``journal.append`` and ``journal.fsync`` points (tests only).
    """

    def __init__(self, path, *, fault_plan=None) -> None:
        self.path = os.fspath(path)
        self.fault_plan = fault_plan
        self._handle = None

    def __len__(self) -> int:
        """Number of valid records (reads the file; use sparingly)."""
        return sum(1 for _ in self.replay())

    def exists(self) -> bool:
        """Whether the journal file is present on disk."""
        return os.path.exists(self.path)

    def _file(self):
        """The persistent append handle (reopened after compact/clear)."""
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "ab")
        return self._handle

    def _drop_handle(self) -> None:
        """Close the append handle (the path is about to be replaced)."""
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def append(self, values: Sequence, *, start: int) -> None:
        """Append one batch beginning at absolute index ``start``.

        The record is fsynced before returning.  The caller feeds the
        values to its summary only after this returns, so a crash at any
        point leaves the journal covering at least as much of the stream
        as was durably acknowledged.
        """
        tolist = getattr(values, "tolist", None)
        values = tolist() if tolist is not None else [_plain(v) for v in values]
        record = {
            "start": int(start),
            "values": values,
            "crc": _record_crc(int(start), values),
        }
        line = json.dumps(record, separators=(",", ":")) + "\n"
        handle = self._file()
        plan = self.fault_plan
        if plan is not None and plan.take("journal.append"):
            # Simulate a crash mid-write: half the record's bytes make
            # it to disk, leaving a torn tail for replay to reject.
            handle.write(line[: max(1, len(line) // 2)].encode("ascii"))
            handle.flush()
            os.fsync(handle.fileno())
            raise InjectedFaultError("injected fault at 'journal.append'")
        handle.write(line.encode("ascii"))
        self.sync()

    def sync(self) -> None:
        """Flush and fsync the journal file (the durable half of append)."""
        handle = self._file()
        handle.flush()
        fire(self.fault_plan, "journal.fsync")
        os.fsync(handle.fileno())

    def close(self) -> None:
        """Release the append handle (every record is already synced)."""
        self._drop_handle()

    def replay(self) -> Iterator[tuple[int, list]]:
        """Yield ``(start, values)`` for each valid record, oldest first.

        Stops at the first torn or corrupt record; see
        :meth:`ignored_tail_bytes` for how much was skipped on the last
        replay.
        """
        self._ignored = 0
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        for line in raw.splitlines(keepends=True):
            # A final line without its newline is torn even if it parses:
            # the trailing newline is part of the committed record.
            record = _parse_record(line) if line.endswith(b"\n") else None
            if record is None:
                self._ignored = len(raw) - offset
                return
            offset += len(line)
            yield record

    _ignored = 0

    def ignored_tail_bytes(self) -> int:
        """Bytes dropped as torn/corrupt by the most recent replay."""
        return self._ignored

    def compact(self, min_start: int) -> int:
        """Atomically drop records whose values all precede ``min_start``.

        Returns the number of records kept.  ``min_start`` must be the
        ``items_seen`` of the *oldest retained* snapshot generation, so a
        fallback load still finds its tail.  The rewrite goes through the
        same write-temp + fsync + rename protocol as snapshots.
        """
        kept = [
            (start, values)
            for start, values in self.replay()
            if start + len(values) > min_start
        ]
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            for start, values in kept:
                record = {
                    "start": start,
                    "values": values,
                    "crc": _record_crc(start, values),
                }
                handle.write(
                    (json.dumps(record, separators=(",", ":")) + "\n").encode(
                        "ascii"
                    )
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        # The append handle (if open) still points at the replaced inode;
        # drop it so the next append reopens the compacted file.
        self._drop_handle()
        return len(kept)

    def clear(self) -> None:
        """Delete the journal file (a fresh store, or journaling turned off)."""
        self._drop_handle()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def _parse_record(line: bytes) -> Optional[tuple[int, list]]:
    """Decode and checksum one journal line; None when torn or corrupt."""
    try:
        record = json.loads(line)
        start = record["start"]
        values = record["values"]
        crc = record["crc"]
    except (ValueError, KeyError, TypeError):
        return None
    if not isinstance(start, int) or not isinstance(values, list):
        return None
    if _record_crc(start, values) != crc:
        return None
    return start, values
