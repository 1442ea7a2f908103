"""Crash-consistent checkpoint store: atomic snapshots + journal replay.

:class:`CheckpointStore` persists :func:`repro.checkpoint.state_dict`
payloads to a directory with the classic crash-consistency protocol:

1. **Atomic rotation** -- each snapshot is written to a temp file, flushed
   and fsynced, then renamed over ``snapshot-<generation>.json`` (rename is
   atomic on POSIX), and the directory is fsynced so the new name is
   durable.  A crash at *any* instruction leaves either the previous
   generations intact or the new one fully written -- never a half state.
2. **Versioned envelopes with checksums** -- the file carries a format
   marker, version, generation, the summary's ``items_seen``, and a CRC-32
   of the canonical state JSON.  Torn files fail to parse; bit flips fail
   the checksum; either way :meth:`CheckpointStore.load` skips the bad
   generation and **falls back to the previous good one**.
3. **Item journal** (optional, on by default) -- :meth:`CheckpointStore.ingest`
   appends each batch to an append-only journal *before* feeding the
   summary, so :meth:`CheckpointStore.recover` = newest good snapshot +
   replay of the journal tail reproduces the uninterrupted run bit for bit.
   Each snapshot cuts a new journal segment, then deletes the segments
   that even the *oldest retained* generation no longer needs.

Fault injection: pass a :class:`~repro.resilience.FaultPlan` and every
named ``snapshot.*`` / ``journal.*`` point in the protocol will consult it
(production stores pass nothing and skip all checks).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.checkpoint import restore, state_dict
from repro.core.batch import coerce_batch
from repro.exceptions import (
    CheckpointCorruptionError,
    InjectedFaultError,
    InvalidParameterError,
)
from repro.resilience.faults import fire
from repro.resilience.journal import ItemJournal, fsync_directory, has_journal

SNAPSHOT_VERSION = 1
_FORMAT = "repro-checkpoint"
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")


def _canonical(state: dict) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _state_crc(state: dict) -> int:
    return zlib.crc32(_canonical(state).encode("ascii"))


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`CheckpointStore.recover` actually did (CLI / tests)."""

    generation: Optional[int]  # snapshot generation used, None = fresh start
    snapshot_items: int  # items_seen at the loaded snapshot
    journal_records: int  # journal records inspected during replay
    replayed_items: int  # items fed to the summary from the journal
    skipped_generations: int  # newer generations rejected as corrupt


class CheckpointStore:
    """Durable snapshots (+ optional journal) for one summary's lifetime.

    Parameters
    ----------
    directory:
        Where snapshots (and the journal) live; created if missing.
    keep:
        Number of snapshot generations to retain (>= 1).  More generations
        tolerate more consecutive corrupt snapshots at proportionally more
        disk.
    journal:
        ``True`` journals every :meth:`ingest` batch; ``False`` disables
        journaling (recover then restarts from the snapshot alone);
        ``"auto"`` (default) journals iff journal segments (or a legacy
        ``journal.log``, migrated on open) already exist -- the right mode
        for read-side tools like the CLI ``recover`` subcommand.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` consulted at each
        named fault point (tests only).
    """

    def __init__(
        self,
        directory,
        *,
        keep: int = 2,
        journal="auto",
        fault_plan=None,
    ) -> None:
        if keep < 1:
            raise InvalidParameterError(f"keep must be >= 1, got {keep}")
        self.directory = os.fspath(directory)
        self.keep = keep
        self.fault_plan = fault_plan
        os.makedirs(self.directory, exist_ok=True)
        if journal == "auto":
            journal = has_journal(self.directory)
        self._journal = (
            ItemJournal(self.directory, fault_plan=fault_plan)
            if journal
            else None
        )
        self.last_recovery: Optional[RecoveryReport] = None

    @property
    def journal(self) -> Optional[ItemJournal]:
        """The item journal, or ``None`` when journaling is off."""
        return self._journal

    # -- write side -----------------------------------------------------------

    def ingest(self, summary, values: Sequence) -> None:
        """Journal a batch, then feed it to the summary.

        The journal append is durable (fsynced) before the summary sees a
        single value, so a crash anywhere leaves the journal covering at
        least everything the summary ingested.  With journaling off this
        is just ``summary.extend``.

        The batch is converted to a float64 array once (a float64 ndarray,
        such as the binary ingest path's zero-copy view, is not copied),
        and that same array goes to the journal and to the summary, so
        replay feeds back exactly the values the summary saw.
        """
        values = np.asarray(coerce_batch(values), dtype=np.float64)
        if self._journal is not None:
            self._journal.append(values, start=summary.items_seen)
        summary.extend(values)

    def close(self) -> None:
        """Release the journal's file handle."""
        if self._journal is not None:
            self._journal.close()

    def save(self, summary) -> int:
        """Write one snapshot generation atomically; returns its number.

        Protocol (fault points in parentheses): write temp
        (``snapshot.tmp-write``), fsync temp (``snapshot.fsync``), rename
        (``snapshot.rename``), fsync directory (``snapshot.commit``),
        prune stale generations (``snapshot.prune``), cut a new journal
        segment at the snapshot's ``items_seen`` and compact the journal.
        Every journaled batch was fsynced by :meth:`ingest`, so a visible
        snapshot never covers items the journal has not durably recorded.
        """
        plan = self.fault_plan
        state = state_dict(summary)
        envelope = {
            "format": _FORMAT,
            "version": SNAPSHOT_VERSION,
            "generation": self._next_generation(),
            "items_seen": summary.items_seen,
            "checksum": _state_crc(state),
            "state": state,
        }
        payload = json.dumps(envelope, separators=(",", ":"))
        generation = envelope["generation"]
        final = os.path.join(self.directory, f"snapshot-{generation:08d}.json")
        tmp = final + ".tmp"
        with open(tmp, "w", encoding="ascii") as handle:
            if plan is not None and plan.take("snapshot.tmp-write"):
                # Crash mid-write: a torn temp file, never visible to load().
                handle.write(payload[: len(payload) // 2])
                handle.flush()
                raise InjectedFaultError(
                    "injected fault at 'snapshot.tmp-write'"
                )
            handle.write(payload)
            handle.flush()
            fire(plan, "snapshot.fsync")
            os.fsync(handle.fileno())
        fire(plan, "snapshot.rename")
        os.replace(tmp, final)
        fire(plan, "snapshot.commit")
        fsync_directory(self.directory)
        self._prune()
        if self._journal is not None:
            self._journal.cut(summary.items_seen)
            self._journal.compact(self._oldest_retained_items())
        return generation

    # -- read side ------------------------------------------------------------

    def generations(self) -> list[int]:
        """Snapshot generations on disk, oldest first (validity not checked)."""
        found = []
        for name in os.listdir(self.directory):
            match = _SNAPSHOT_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def load(self) -> Optional[tuple[object, int]]:
        """Newest *valid* snapshot as ``(summary, generation)``.

        Corrupt or torn generations are skipped newest-first (the
        fallback-to-previous-generation guarantee).  Returns ``None`` when
        the store holds no snapshot files at all; raises
        :class:`CheckpointCorruptionError` when snapshots exist but none
        validates.
        """
        generations = self.generations()
        if not generations:
            return None
        skipped = 0
        for generation in reversed(generations):
            envelope = self._read_envelope(generation)
            if envelope is None:
                skipped += 1
                continue
            summary = restore(envelope["state"])
            self._skipped = skipped
            return summary, generation
        raise CheckpointCorruptionError(
            f"no usable snapshot in {self.directory!r}: all "
            f"{len(generations)} generation(s) failed validation"
        )

    _skipped = 0

    def recover(self, *, factory=None):
        """Rebuild the summary: newest good snapshot + journal tail replay.

        ``factory`` (a zero-argument callable returning a fresh summary)
        handles the crash-before-first-snapshot case; without it an empty
        store raises :class:`CheckpointCorruptionError`.  The journal may
        overlap the snapshot (records are journaled before ingestion), so
        replay skips values the snapshot already covers, keyed off
        ``items_seen``.  Details of what happened land in
        :attr:`last_recovery`.
        """
        loaded = self.load()
        if loaded is None:
            if factory is None:
                raise CheckpointCorruptionError(
                    f"no snapshot in {self.directory!r} and no factory "
                    "to start fresh from"
                )
            summary, generation = factory(), None
        else:
            summary, generation = loaded
        snapshot_items = summary.items_seen
        records = 0
        replayed = 0
        if self._journal is not None:
            for start, values in self._journal.replay():
                records += 1
                seen = summary.items_seen
                if start > seen:
                    raise CheckpointCorruptionError(
                        f"journal gap: record starts at {start} but the "
                        f"summary has only seen {seen} items"
                    )
                if start + len(values) <= seen:
                    continue
                tail = values[seen - start :]
                summary.extend(tail)
                replayed += len(tail)
        self.last_recovery = RecoveryReport(
            generation=generation,
            snapshot_items=snapshot_items,
            journal_records=records,
            replayed_items=replayed,
            skipped_generations=self._skipped if loaded is not None else 0,
        )
        return summary

    # -- internals ------------------------------------------------------------

    def _next_generation(self) -> int:
        generations = self.generations()
        return (generations[-1] + 1) if generations else 1

    def _read_envelope(self, generation: int) -> Optional[dict]:
        path = os.path.join(
            self.directory, f"snapshot-{generation:08d}.json"
        )
        try:
            with open(path, "r", encoding="ascii") as handle:
                envelope = json.load(handle)
            if envelope.get("format") != _FORMAT:
                return None
            if envelope.get("version") != SNAPSHOT_VERSION:
                return None
            state = envelope["state"]
            if _state_crc(state) != envelope["checksum"]:
                return None
            return envelope
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _prune(self) -> None:
        plan = self.fault_plan
        # Stale temp files first (leftovers of crashed saves), then old
        # generations beyond the retention budget.
        for name in os.listdir(self.directory):
            if name.endswith(".json.tmp"):
                self._unlink(os.path.join(self.directory, name))
        generations = self.generations()
        for generation in generations[: -self.keep]:
            self._unlink(
                os.path.join(
                    self.directory, f"snapshot-{generation:08d}.json"
                )
            )
            fire(plan, "snapshot.prune")

    def _oldest_retained_items(self) -> int:
        """``items_seen`` of the oldest generation a fallback could load."""
        smallest = None
        for generation in self.generations():
            envelope = self._read_envelope(generation)
            if envelope is None:
                continue
            items = envelope.get("items_seen", 0)
            if smallest is None or items < smallest:
                smallest = items
        return 0 if smallest is None else smallest

    @staticmethod
    def _unlink(path) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:  # pragma: no cover - racing cleaners
            pass
