"""Typed exceptions raised by the :mod:`repro` library.

All library errors derive from :class:`ReproError`, so callers can catch a
single base class.  More specific subclasses identify the failure mode:

* :class:`InvalidParameterError` -- a constructor or function argument is out
  of its documented range (for example ``buckets < 1`` or ``epsilon >= 1``).
* :class:`DomainError` -- a stream value is outside the declared universe
  ``[0, U)`` or is not a real number.
* :class:`EmptySummaryError` -- a histogram was requested from a summary that
  has seen no data (or, in the sliding-window model, whose window is empty).
* :class:`UnsupportedCheckpointError` -- :func:`repro.checkpoint.state_dict`
  or :func:`repro.checkpoint.restore` was handed a summary type (or
  checkpoint kind) outside the supported set.
* :class:`CheckpointCorruptionError` -- a persisted snapshot or journal
  failed validation (torn write, bit flip, missing generation) and no good
  fallback exists.
* :class:`InjectedFaultError` -- a deterministic test fault fired (see
  :mod:`repro.resilience.faults`); never raised in production
  configurations.
* :class:`BackpressureError` -- the streaming service engine rejected an
  append because the target stream's in-flight bound is reached
  (admission control; the request is safe to retry).
* :class:`UnknownStreamError` -- a request addressed a stream id the
  engine does not know (surfaced over the wire as ``unknown-stream``,
  HTTP 404).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidParameterError(ReproError, ValueError):
    """An algorithm parameter is outside its documented range."""


class DomainError(ReproError, ValueError):
    """A stream value lies outside the declared value universe."""


class EmptySummaryError(ReproError, RuntimeError):
    """A histogram was requested before any value was inserted."""


class UnsupportedCheckpointError(InvalidParameterError):
    """A summary type or checkpoint kind is outside the supported set.

    Subclasses :class:`InvalidParameterError` so existing callers that
    catch the broader class (or plain ``ValueError``) keep working; the
    message names the offending type and the supported set.
    """


class CheckpointCorruptionError(ReproError, RuntimeError):
    """No usable snapshot generation survived validation.

    Raised by :class:`repro.resilience.CheckpointStore` when every retained
    snapshot fails its checksum/parse checks, or when the journal tail is
    inconsistent with the loaded snapshot.
    """


class InjectedFaultError(ReproError, RuntimeError):
    """A deterministic fault from a :class:`repro.resilience.FaultPlan` fired.

    Simulates a crash (checkpoint I/O) or a worker death (parallel shard
    ingest) at a named fault point; test-only by construction -- no fault
    plan, no faults.
    """


class UnknownStreamError(InvalidParameterError):
    """A request addressed a stream id the engine does not know.

    Subclasses :class:`InvalidParameterError` so existing callers that
    catch the broader class (or plain ``ValueError``) keep working; the
    service layer maps it to its own ``unknown-stream`` error code
    (HTTP 404) instead of the generic ``invalid``.
    """


class BackpressureError(ReproError, RuntimeError):
    """An append was rejected because a stream's in-flight bound is reached.

    Raised by :class:`repro.service.StreamEngine` (and surfaced over the
    wire as a ``backpressure`` error) when other appends to the stream are
    in flight and admitting the batch would push the stream's in-flight
    item count past its bound.  Nothing was journaled or ingested;
    the caller should back off and retry -- admission control protects the
    applied state, it never tears a batch.
    """
