"""Typed request/response surface of the service client (PEP 561 friendly).

The v1 client was dict-in/dict-out: every caller indexed raw wire
payloads by string key.  These dataclasses are the v2 surface --
:class:`~repro.service.client.ServiceClient` returns them from its typed
methods, and ``request(payload)`` remains as a deprecated dict shim
(mirroring the shim-then-retire convention of earlier API redesigns).

Everything here is immutable plain data; the histogram inside
:class:`QueryResult` is a real :class:`~repro.core.histogram.Histogram`
(with ``meta``), not its wire dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional, Tuple

from repro.core.histogram import Histogram


@dataclass(frozen=True)
class ServerInfo:
    """What the client learned about the server at connect time.

    ``proto`` is the protocol this connection speaks (2 = binary TCP
    frames, learned by ``hello``; 3 = the REST facade, learned from
    ``/v1/meta``); ``protocols`` is everything the server advertised.
    """

    proto: int
    protocols: Tuple[int, ...]
    server: str = "repro-histogram"
    wire_version: Optional[int] = None


@dataclass(frozen=True)
class AppendResult:
    """Outcome of one accepted append batch."""

    stream: str
    accepted: int

    def __int__(self) -> int:
        return self.accepted


@dataclass(frozen=True)
class QueryResult:
    """A served histogram, decoded to the real object."""

    stream: str
    histogram: Histogram


@dataclass(frozen=True)
class StatsResult:
    """Engine-wide or per-stream statistics.

    The stats payload is an open-ended nested mapping (per-stream
    counters, optional metrics registry snapshot), so the raw dict is
    kept whole under :attr:`data` with mapping-style access sugar.
    """

    stream: Optional[str]
    data: Mapping[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __contains__(self, key: object) -> bool:
        return key in self.data

    def __iter__(self) -> Iterator[str]:
        return iter(self.data)

    def get(self, key: str, default: Any = None) -> Any:
        """``data.get`` passthrough."""
        return self.data.get(key, default)


@dataclass(frozen=True)
class CheckpointResult:
    """Snapshot generations written by a ``checkpoint`` request."""

    generations: Mapping[str, int] = field(default_factory=dict)

    def __getitem__(self, stream: str) -> int:
        return self.generations[stream]

    def __contains__(self, stream: object) -> bool:
        return stream in self.generations

    def __iter__(self) -> Iterator[str]:
        return iter(self.generations)
