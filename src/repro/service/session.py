"""Session facade: the redesigned stateful public API.

The entry point adopters use directly::

    from repro.service import Session

    with Session() as session:
        sku = session.stream("sku-42", method="min-merge", buckets=32)
        sku.append(prices)
        hist = sku.histogram()          # carries hist.meta

:class:`Session` wraps a :class:`~repro.service.StreamEngine` (creating
a private one when none is passed) and hands out
:class:`StreamHandle` objects -- thin, cheap views onto one named
stream.  ``repro.summarize`` is a one-shot wrapper over exactly this
path, so graduating from one-shot calls to a long-lived multi-tenant
session changes no math, only lifetimes (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.histogram import Histogram
from repro.service.engine import StreamEngine


class StreamHandle:
    """A view onto one named stream of a :class:`StreamEngine`.

    Handles are cheap and stateless (all state lives in the engine), so
    they may be created freely, shared across threads, and re-fetched by
    name at any time via ``session.stream(stream_id)``.

    Handles are also context managers::

        with session.stream("sku-42", method="min-merge") as sku:
            sku.append(prices)

    Exiting calls :meth:`close`, which checkpoints the stream when its
    engine is durable and is idempotent -- a closed handle may be closed
    again freely (the stream itself stays registered; handles are views,
    not owners).
    """

    __slots__ = ("_engine", "_tenant", "_closed")

    def __init__(self, engine: StreamEngine, tenant) -> None:
        self._engine = engine
        self._tenant = tenant
        self._closed = False

    @property
    def stream_id(self) -> str:
        """The stream's name within its engine."""
        return self._tenant.stream_id

    @property
    def method(self) -> str:
        """The registry method (or class name) backing this stream."""
        return self._tenant.method

    @property
    def items_seen(self) -> int:
        """Items applied so far (in-flight appends excluded)."""
        return self._engine.items_seen(self._tenant.stream_id)

    def append(self, values) -> int:
        """Append values; returns the accepted item count.

        One unified signature (``docs/API.md``): a scalar, any sequence,
        or a numpy ndarray -- an ndarray goes straight to the vectorized
        batch kernels with no per-item conversion.  The batch is
        journaled (on a durable engine) and applied before this returns.
        May raise :class:`~repro.exceptions.BackpressureError` when the
        stream's in-flight bound is hit -- nothing is ingested in that
        case, so the same batch is safe to retry.
        """
        return self._engine.append(self._tenant.stream_id, values)

    def histogram(
        self, *, requested_buckets: Optional[int] = None
    ) -> Histogram:
        """Snapshot-isolated histogram with provenance (``hist.meta``)."""
        return self._engine.histogram(
            self._tenant.stream_id, requested_buckets=requested_buckets
        )

    def stats(self) -> dict:
        """This stream's counters/config as plain data."""
        return self._engine.stats(self._tenant.stream_id)

    def checkpoint(self) -> int:
        """Force a snapshot now; returns the generation written."""
        result = self._engine.checkpoint(self._tenant.stream_id)
        return result[self._tenant.stream_id]

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "StreamHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Checkpoint a durable stream and mark the handle closed.

        Idempotent: only the first call snapshots; later calls (and
        closing a non-durable stream) are no-ops.  The stream itself
        stays registered -- handles are views, not owners -- so a fresh
        handle may be fetched by name at any time.
        """
        if self._closed:
            return
        self._closed = True
        if getattr(self._tenant, "store", None) is not None:
            self._engine.checkpoint(self._tenant.stream_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamHandle({self.stream_id!r}, method={self.method!r}, "
            f"items_seen={self.items_seen})"
        )


class Session:
    """Scoped access to a :class:`StreamEngine` (the public facade).

    Parameters
    ----------
    engine:
        An existing engine to join (the session then does *not* close it
        on exit); omit to create a private engine from the remaining
        keyword arguments, closed when the session closes.
    **engine_kwargs:
        Forwarded to :class:`StreamEngine` when creating a private one
        (``checkpoint_dir=``, ``max_pending=``, ``metrics=`` ...).
    """

    def __init__(
        self, engine: Optional[StreamEngine] = None, **engine_kwargs
    ) -> None:
        if engine is not None and engine_kwargs:
            raise TypeError(
                "pass either an existing engine or engine kwargs, not both"
            )
        self._owned = engine is None
        self._closed = False
        self.engine = engine if engine is not None else StreamEngine(
            **engine_kwargs
        )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Close the session (and its engine, when privately owned).

        Idempotent: closing an already-closed session is a no-op, so
        ``with`` blocks compose with explicit ``close()`` calls.
        """
        if self._closed:
            return
        self._closed = True
        if self._owned:
            self.engine.close()

    def stream(self, stream_id: str, **config) -> StreamHandle:
        """Create or fetch a named stream (see ``StreamEngine.stream``)."""
        return self.engine.stream(stream_id, **config)

    def attach(
        self, stream_id: str, summary, *, method: Optional[str] = None
    ) -> StreamHandle:
        """Adopt a prebuilt summary (see ``StreamEngine.attach``)."""
        return self.engine.attach(stream_id, summary, method=method)

    def streams(self) -> tuple:
        """The engine's registered stream ids, sorted."""
        return self.engine.streams()

    def stats(self) -> dict:
        """Engine-wide statistics as plain data."""
        return self.engine.stats()
