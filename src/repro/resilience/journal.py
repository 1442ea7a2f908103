"""Append-only item journal: the replay tail of a crash-consistent store.

Snapshots are periodic; the items that arrived since the last snapshot
would be lost in a crash.  The journal closes that gap: every ingested
batch is appended *before* it reaches the summary, so

    recover = load newest good snapshot + replay the journal tail

reproduces the uninterrupted run bit for bit (the summaries' batch ingest
is split-invariant -- property-tested in ``tests/test_batch.py`` -- so
replaying in journal-record chunks matches any original chunking).

On disk the journal is a run of binary segment files in the store's
directory, ``journal-<base:020d>.seg``, where ``base`` is the absolute
stream index at which the segment begins.  Each segment opens with an
8-byte header -- the magic ``REPROJL`` and a format-version byte -- and
then holds records, each

    u64 start | u32 count | u32 crc32 | count x little-endian float64

all little-endian; ``crc32`` covers ``start``, ``count`` and the raw value
bytes.  The store cuts a new segment at every snapshot (:meth:`cut`), so
compaction deletes whole segments and never reads or re-encodes one.

A crash mid-append leaves a torn final record; a torn or bit-flipped
record (or segment header) fails its bounds or CRC check and *ends*
replay -- everything after the first bad record is untrusted, which is
exactly right for an append-only log whose crash damage can only be a
torn tail.  A sealed segment that ends short of the next segment's base
ends replay the same way.  :meth:`ItemJournal.ignored_tail_bytes`
reports how many bytes replay left unread, and the first append (or cut)
after opening truncates them, so new records land right after the last
good one.

A JSON-lines ``journal.log`` from before the binary format is migrated
into one segment when the journal is opened (see ``docs/RESILIENCE.md``).

Every append is fsynced (:meth:`ItemJournal.sync`) before it returns, so
the journal always covers at least what its caller has applied.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.exceptions import InjectedFaultError, InvalidParameterError
from repro.resilience.faults import fire

#: Version byte of the segment format this module writes and reads.
FORMAT_VERSION = 1
_HEADER = b"REPROJL" + bytes([FORMAT_VERSION])
_KEY = struct.Struct("<QI")  # start, count: the CRC-covered record fields
_CRC = struct.Struct("<I")
_RECORD_HEAD = _KEY.size + _CRC.size
_VALUE = np.dtype("<f8")
_SEGMENT_RE = re.compile(r"^journal-(\d{20})\.seg$")
_LEGACY_NAME = "journal.log"


def has_journal(directory) -> bool:
    """Whether ``directory`` holds journal segments or a legacy journal."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return False
    return any(
        name == _LEGACY_NAME or _SEGMENT_RE.match(name) for name in names
    )


def _encode(start: int, values: np.ndarray) -> bytes:
    payload = values.tobytes()
    key = _KEY.pack(start, len(values))
    return key + _CRC.pack(zlib.crc32(payload, zlib.crc32(key))) + payload


def fsync_directory(directory: str) -> None:
    """Make the directory's entries (creates, renames, unlinks) durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ItemJournal:
    """Append-only journal of ingested batches with per-record checksums.

    Parameters
    ----------
    directory:
        Where the segment files live (created with the first segment).
        A legacy JSON ``journal.log`` there is migrated on construction.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` consulted at the
        ``journal.append`` and ``journal.fsync`` points (tests only).
    """

    def __init__(self, directory, *, fault_plan=None) -> None:
        self.directory = os.fspath(directory)
        self.fault_plan = fault_plan
        self._handle = None
        # Where the last full replay stopped: ``(path, good_bytes)`` of
        # the first bad segment, or None when every byte was good.
        self._stop: Optional[tuple[str, int]] = None
        self._scanned = False
        self._ignored = 0
        self._migrate_legacy()

    # -- write side -----------------------------------------------------------

    def append(self, values: Sequence, *, start: int) -> None:
        """Append one batch beginning at absolute index ``start``.

        ``values`` is stored as little-endian float64 (a float64 ndarray
        goes to disk without conversion).  The record is fsynced before
        returning.  The caller feeds the values to its summary only after
        this returns, so a crash at any point leaves the journal covering
        at least as much of the stream as was durably acknowledged.
        """
        values = np.asarray(values, dtype=_VALUE)
        if values.ndim != 1:
            raise InvalidParameterError(
                f"journal batches must be 1-D, got shape {values.shape}"
            )
        start = int(start)
        record = _encode(start, values)
        handle = self._file(start)
        plan = self.fault_plan
        if plan is not None and plan.take("journal.append"):
            # Simulate a crash mid-write: half the record's bytes make
            # it to disk, leaving a torn tail for replay to reject.
            handle.write(record[: max(1, len(record) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            raise InjectedFaultError("injected fault at 'journal.append'")
        handle.write(record)
        self.sync()

    def sync(self) -> None:
        """Flush and fsync the active segment (the durable half of append)."""
        handle = self._handle
        if handle is None:
            return
        handle.flush()
        fire(self.fault_plan, "journal.fsync")
        os.fsync(handle.fileno())

    def cut(self, start: int) -> None:
        """Seal the active segment; later appends go to one based at ``start``.

        The new segment's header and directory entry are fsynced here, so
        an append into it is durable once its own record is.  A no-op
        when the newest segment already begins at ``start``.
        """
        self._repair()
        self._drop_handle()
        segments = self._segments()
        if segments:
            base, path = segments[-1]
            if base == start:
                return
            if os.path.getsize(path) == len(_HEADER):
                # It holds no record; a sealed segment always ends where
                # its successor begins, so an empty one must not stay.
                os.unlink(path)
        self._handle = self._create(start)

    def compact(self, min_start: int) -> int:
        """Delete sealed segments whose records all precede ``min_start``.

        A sealed segment ends where its successor begins, so this reads
        no segment.  ``min_start`` must be the ``items_seen`` of the
        *oldest retained* snapshot generation, so a fallback load still
        finds its tail.  Segments go oldest first, each unlink made
        durable before the next, so a crash never leaves a hole in the
        middle of the journal.  Returns the number of segments kept.
        """
        segments = self._segments()
        kept = len(segments)
        for (_, path), (next_base, _) in zip(segments, segments[1:]):
            if next_base > min_start:
                break
            os.unlink(path)
            fsync_directory(self.directory)
            kept -= 1
        return kept

    def close(self) -> None:
        """Release the append handle (every record is already synced)."""
        self._drop_handle()

    # -- read side ------------------------------------------------------------

    def replay(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, values)`` for each valid record, oldest first.

        ``values`` is a read-only float64 view over the segment bytes.
        Stops at the first torn or corrupt record; see
        :meth:`ignored_tail_bytes` for how much the last complete replay
        left unread.  Never reads more than the segment files hold.
        """
        self._ignored = 0
        self._stop = None
        self._scanned = False  # until this replay runs to its end
        segments = self._segments()
        expected = None  # where the next segment must begin, at the latest
        for index, (base, path) in enumerate(segments):
            with open(path, "rb") as handle:
                raw = handle.read()
            offset = 0
            if raw[: len(_HEADER)] == _HEADER and (
                expected is None or expected >= base
            ):
                offset = len(_HEADER)
                expected = base
                while offset < len(raw):
                    record = _parse_record(raw, offset)
                    if record is None:
                        break
                    start, values, offset = record
                    expected = start + len(values)
                    yield start, values
            if offset == 0 or offset < len(raw):
                # A bad header (offset 0) or a bad record: stop here.
                self._stop = (path, offset)
                self._ignored = (len(raw) - offset) + sum(
                    os.path.getsize(later) for _, later in segments[index + 1 :]
                )
                break
        self._scanned = True

    def ignored_tail_bytes(self) -> int:
        """Bytes dropped as torn/corrupt by the most recent replay."""
        return self._ignored

    # -- internals ------------------------------------------------------------

    def _segment_path(self, base: int) -> str:
        return os.path.join(self.directory, f"journal-{base:020d}.seg")

    def _segments(self) -> list[tuple[int, str]]:
        """``(base, path)`` of every segment, oldest first."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        found = []
        for name in names:
            match = _SEGMENT_RE.match(name)
            if match:
                found.append(
                    (int(match.group(1)), os.path.join(self.directory, name))
                )
        return sorted(found)

    def _file(self, start: int):
        """The append handle: the newest segment, or a new one at ``start``."""
        if self._handle is None:
            self._repair()
            segments = self._segments()
            if segments:
                self._handle = open(segments[-1][1], "ab")
            else:
                self._handle = self._create(start)
        return self._handle

    def _create(self, base: int):
        """A new segment holding only its header, durable with its name."""
        os.makedirs(self.directory, exist_ok=True)
        handle = open(self._segment_path(base), "wb")
        handle.write(_HEADER)
        handle.flush()
        os.fsync(handle.fileno())
        fsync_directory(self.directory)
        return handle

    def _repair(self) -> None:
        """Cut off whatever replay would not read, before writing again.

        Runs once per opened journal (reusing the stop point of a replay
        that already ran): the first bad segment is truncated to its good
        prefix -- or deleted when not even its header is good -- and every
        later segment is deleted, so the next record directly follows the
        last one replay returns.
        """
        if not self._scanned:
            for _ in self.replay():
                pass
        if self._stop is None:
            return
        path, good = self._stop
        doomed = [p for _, p in self._segments() if p > path]
        if good < len(_HEADER):
            doomed.insert(0, path)
        else:
            with open(path, "r+b") as handle:
                handle.truncate(good)
                os.fsync(handle.fileno())
        for later in reversed(doomed):
            os.unlink(later)
        fsync_directory(self.directory)
        self._stop = None
        self._ignored = 0

    def _drop_handle(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def _migrate_legacy(self) -> None:
        """Convert a JSON-lines ``journal.log`` into one binary segment.

        The segment is written to a temp file, fsynced, renamed into
        place and made durable with a directory fsync before the legacy
        file is unlinked; a crash in between just migrates again.
        """
        legacy = os.path.join(self.directory, _LEGACY_NAME)
        if not os.path.exists(legacy):
            return
        records = list(_legacy_records(legacy))
        if records:
            final = self._segment_path(records[0][0])
            tmp = final + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(_HEADER)
                for start, values in records:
                    handle.write(_encode(start, np.asarray(values, _VALUE)))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
            fsync_directory(self.directory)
        os.unlink(legacy)
        fsync_directory(self.directory)


def _parse_record(raw: bytes, offset: int):
    """``(start, values, next_offset)`` of one record; None if torn/corrupt."""
    body = offset + _RECORD_HEAD
    if body > len(raw):
        return None
    start, count = _KEY.unpack_from(raw, offset)
    (crc,) = _CRC.unpack_from(raw, offset + _KEY.size)
    end = body + count * _VALUE.itemsize
    if end > len(raw):
        return None
    key_crc = zlib.crc32(memoryview(raw)[offset : offset + _KEY.size])
    if zlib.crc32(memoryview(raw)[body:end], key_crc) != crc:
        return None
    return start, np.frombuffer(raw, _VALUE, count, body), end


def _legacy_records(path: str) -> Iterator[tuple[int, list]]:
    """Valid records of a JSON-lines journal, up to the first bad line."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    for line in lines:
        # A final line without its newline is torn even if it parses.
        if not line.endswith(b"\n"):
            return
        try:
            record = json.loads(line)
            start, values, crc = record["start"], record["values"], record["crc"]
        except (ValueError, KeyError, TypeError):
            return
        if not isinstance(start, int) or not isinstance(values, list):
            return
        canonical = json.dumps(
            {"start": start, "values": values},
            sort_keys=True,
            separators=(",", ":"),
        )
        if zlib.crc32(canonical.encode("ascii")) != crc:
            return
        yield start, values
