"""Multi-tenant streaming service layer (``docs/SERVICE.md``).

Composes the library's layers into a long-lived deployment unit:

* :class:`StreamEngine` -- thread-safe core owning many named streams,
  where every acknowledged append is journaled and applied, with a
  per-stream in-flight bound (admission control), snapshot-isolated
  queries, per-stream crash-consistent checkpoints, and per-tenant
  metrics.
* :class:`Session` / :class:`StreamHandle` -- the stateful public
  facade (``session.stream("sku-42", method="min-merge").append(xs)``);
  ``repro.summarize`` is a one-shot wrapper over this same path.
* :class:`StreamServer` / :class:`ServiceClient` -- the TCP wire
  layer, exposed by the CLI as ``repro serve``.  Every connection speaks
  the zero-copy binary framing of :mod:`repro.service.wire`
  (``docs/WIRE.md``); the client returns the typed results of
  :mod:`repro.service.types`.
* :class:`HttpFrontend` -- the HTTP/1.1 REST facade (``docs/REST.md``)
  mounted beside the TCP front over the same engine;
  ``ServiceClient.from_url("http://host:port")`` speaks it through the
  identical typed client API.
* :mod:`repro.service.errors` -- the unified error taxonomy
  (:class:`ErrorCode` + typed :class:`ServiceError` subclasses) shared
  by the binary TCP and HTTP surfaces.
"""

from repro.service.client import (
    BinaryTransport,
    ServiceClient,
    Transport,
)
from repro.service.cluster import ClusterRouter, HashRing, Rebalancer
from repro.service.engine import StreamEngine
from repro.service.errors import (
    BadRequestError,
    EmptyStreamError,
    ErrorCode,
    InternalError,
    InvalidRequestError,
    ServiceError,
    UnavailableError,
    UnknownOperationError,
    UnknownStreamError,
)
from repro.service.http import HttpFrontend, HttpTransport
from repro.service.server import StreamServer
from repro.service.session import Session, StreamHandle
from repro.service.types import (
    AppendResult,
    CheckpointResult,
    QueryResult,
    ServerInfo,
    StatsResult,
)

__all__ = [
    "AppendResult",
    "BadRequestError",
    "BinaryTransport",
    "CheckpointResult",
    "ClusterRouter",
    "EmptyStreamError",
    "ErrorCode",
    "HashRing",
    "HttpFrontend",
    "HttpTransport",
    "InternalError",
    "InvalidRequestError",
    "QueryResult",
    "Rebalancer",
    "ServerInfo",
    "ServiceClient",
    "ServiceError",
    "Session",
    "StatsResult",
    "StreamEngine",
    "StreamHandle",
    "StreamServer",
    "Transport",
    "UnavailableError",
    "UnknownOperationError",
    "UnknownStreamError",
]
