"""Blocking service client: one binary TCP transport, typed results.

The client API (``docs/WIRE.md``, ``docs/SERVICE.md``)::

    from repro.service import ServiceClient

    with ServiceClient(port=port) as client:          # binary frames
        client.info.proto                             # 2
        result = client.append("sku-42", prices,      # scalars, sequences
                               method="min-merge",    # or ndarrays -- one
                               buckets=32)            # unified signature
        result.accepted
        hist = client.query("sku-42").histogram       # a real Histogram

The connection speaks the binary framing of :mod:`repro.service.wire`
from its first byte.  On connect the client sends one ``hello`` op
(offering ``proto=[2]``) to learn the server's identity, exposed as
:attr:`ServiceClient.info`.  Newline-delimited JSON (protocol 1) is
retired: ``transport=`` accepts only ``"binary"``.

The transport reads with an explicit buffering loop (a TCP read may
return any fragment of a response; a write may be short), so the client
is correct over deliberately fragmenting links -- pinned by the
fragmenting-socket regression tests in ``tests/test_wire.py``.

:meth:`ServiceClient.from_url` selects the transport family from a URL
(``tcp://host:port`` for binary frames, ``http://host:port`` for the
REST facade of :mod:`repro.service.http`).  Error responses raise the
typed exceptions of :mod:`repro.service.errors` -- one taxonomy across
binary TCP and HTTP.

``request(payload: dict)`` -- the v1 dict-in/dict-out plumbing -- has
completed its deprecation window (a :class:`DeprecationWarning` shim
since the transport split) and is retired: it raises :class:`TypeError`
naming the typed replacement.
"""

from __future__ import annotations

import socket
from typing import Any, Optional, Protocol, runtime_checkable
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.core.batch import coerce_batch
from repro.exceptions import InvalidParameterError
from repro.service import wire
from repro.service.errors import (  # noqa: F401  (ServiceError re-exported)
    ServiceError,
    raise_for_error,
)
from repro.service.types import (
    AppendResult,
    CheckpointResult,
    QueryResult,
    ServerInfo,
    StatsResult,
)
from repro.core.histogram import Histogram

_RECV_CHUNK = 1 << 16


@runtime_checkable
class Transport(Protocol):
    """One request/response channel to a server (binary TCP or REST).

    Implementations are synchronous and connection-oriented; ``call``
    performs one round trip and returns the decoded ``ok`` response
    payload (raising via :func:`raise_for_error` otherwise).  ``append``
    is split out so the value batch ships as raw float64 instead of a
    JSON document.
    """

    proto: int

    def call(self, request: dict) -> dict:
        """Send one request object; return the decoded ``ok`` response."""
        ...

    def append(self, stream: str, values, config: dict) -> dict:
        """Send one append batch; return the decoded ``ok`` response."""
        ...

    def close(self) -> None:
        """Release the underlying connection."""
        ...


class _BufferedSocket:
    """Fragmentation-safe reads over any socket-like object.

    Only ``recv``, ``sendall`` and ``close`` are required of ``sock``,
    so tests can substitute a deliberately fragmenting shim.
    """

    __slots__ = ("sock", "_buf")

    def __init__(self, sock) -> None:
        self.sock = sock
        self._buf = bytearray()

    def send_all(self, *chunks) -> None:
        for chunk in chunks:
            self.sock.sendall(chunk)

    def recv_exactly(self, n: int) -> bytes:
        """Exactly ``n`` bytes, however the bytes arrive."""
        buf = self._buf
        while len(buf) < n:
            chunk = self.sock.recv(_RECV_CHUNK)
            if not chunk:
                raise ConnectionError(
                    f"server closed the connection mid-frame "
                    f"({len(buf)} of {n} bytes received)"
                )
            buf += chunk
        out = bytes(buf[:n])
        del buf[:n]
        return out

    def close(self) -> None:
        self.sock.close()


class BinaryTransport:
    """Length-prefixed binary frames (``repro.service.wire``).

    Appends travel as ``OP_APPEND`` frames -- a float64 C-contiguous
    ndarray is written straight from its own buffer (no copy); every
    other op rides in an ``OP_JSON`` frame.
    """

    proto = wire.PROTO_BINARY

    def __init__(self, sock) -> None:
        self._io = _BufferedSocket(sock)

    def hello(self) -> ServerInfo:
        """One ``hello`` round trip; returns the server's identity."""
        response = self.call({"op": "hello", "proto": [wire.PROTO_BINARY]})
        server = response.get("server", {})
        return ServerInfo(
            proto=int(response["proto"]),
            protocols=tuple(server.get("protocols", (wire.PROTO_BINARY,))),
            server=server.get("name", "repro-histogram"),
            wire_version=server.get("wire_version"),
        )

    def call(self, request: dict) -> dict:
        """One ``OP_JSON`` frame out, one ``OP_OK``/``OP_ERR`` frame back."""
        self._io.send_all(wire.encode_json_frame(wire.OP_JSON, request))
        return self._read_response()

    def append(self, stream: str, values, config: dict) -> dict:
        """Append as one raw float64 ``OP_APPEND`` frame (zero-copy)."""
        head, value_bytes = wire.encode_append_payload(
            {"stream": stream, **config}, np.asarray(values)
        )
        self._io.send_all(head, value_bytes)
        return self._read_response()

    def _read_response(self) -> dict:
        opcode, length = wire.decode_header(
            self._io.recv_exactly(wire.HEADER_BYTES)
        )
        payload = self._io.recv_exactly(length)
        if opcode not in (wire.OP_OK, wire.OP_ERR):
            raise wire.WireError(
                f"unexpected response opcode 0x{opcode:02x}"
            )
        return raise_for_error(wire.decode_json_payload(payload))

    def close(self) -> None:
        """Close the connection."""
        self._io.close()


class ServiceClient:
    """Blocking client for :class:`~repro.service.StreamServer`.

    One TCP connection in binary frames, synchronous request/response,
    typed results (:mod:`repro.service.types`).  The server identity
    learned by ``hello`` at connect time is :attr:`info`.  ``transport``
    accepts only ``"binary"``; any other value raises
    :class:`~repro.exceptions.InvalidParameterError` (newline-delimited
    JSON, protocol 1, is retired).

    Error responses raise the typed :class:`ServiceError` subclasses of
    :mod:`repro.service.errors` (with
    :class:`~repro.exceptions.BackpressureError` for the
    ``backpressure`` code so engine-side and wire-side callers catch
    the same exception type).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        transport: str = "binary",
    ) -> None:
        if transport != "binary":
            raise InvalidParameterError(
                f"transport={transport!r} is not supported: newline-"
                "delimited JSON (protocol 1) was retired; TCP speaks only "
                '"binary" (use an http:// URL for the REST facade)'
            )
        self._closed = False
        sock = socket.create_connection((host, port), timeout=timeout)
        # Every request is a small write (or two: header then payload)
        # followed by a blocking read, the exact pattern that trips the
        # Nagle / delayed-ACK interaction (~40 ms stall per round trip).
        # Disable Nagle: this is a request/response protocol, the client
        # always has a reader waiting.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - exotic transports only
            pass
        try:
            self._transport = BinaryTransport(sock)
            self._info = self._transport.hello()
        except BaseException:
            sock.close()
            raise

    @classmethod
    def _from_transport(
        cls, transport: Transport, info: ServerInfo
    ) -> "ServiceClient":
        """Wrap an already-connected transport (the ``from_url`` plumbing)."""
        client = cls.__new__(cls)
        client._closed = False
        client._transport = transport
        client._info = info
        return client

    @classmethod
    def from_url(cls, url: str, *, timeout: float = 30.0) -> "ServiceClient":
        """Connect to a service URL, choosing the transport family.

        ``tcp://host:port`` uses this module's binary transport (an
        explicit ``?transport=`` must be ``binary``);
        ``http://host:port`` talks to the REST facade
        (:mod:`repro.service.http`) through the same typed client API.
        A bare ``host:port`` string counts as ``tcp://``.
        """
        parsed = urlsplit(url if "//" in url else f"tcp://{url}")
        scheme = parsed.scheme or "tcp"
        host = parsed.hostname or "127.0.0.1"
        if parsed.port is None:
            raise InvalidParameterError(
                f"service URL {url!r} must carry an explicit port"
            )
        if scheme == "tcp":
            transport = parse_qs(parsed.query).get("transport", ["binary"])[0]
            return cls(host, parsed.port, timeout=timeout, transport=transport)
        if scheme == "http":
            # Imported lazily: the REST module is optional at runtime for
            # pure-TCP callers and imports this module's helpers.
            from repro.service.http import connect_http

            return cls._from_transport(*connect_http(host, parsed.port, timeout))
        raise InvalidParameterError(
            f"unsupported service URL scheme {scheme!r} (expected "
            "tcp:// or http://)"
        )

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._transport.close()

    # -- connection introspection -------------------------------------------

    @property
    def info(self) -> ServerInfo:
        """What ``hello`` learned (protocol, server identity)."""
        return self._info

    @property
    def transport(self) -> Transport:
        """The live transport (a :class:`BinaryTransport`, or the REST
        facade's :class:`~repro.service.http.HttpTransport`)."""
        return self._transport

    # -- typed operations ----------------------------------------------------

    def append(self, stream: str, values, **config) -> AppendResult:
        """Append values to a stream (creating it from ``config``).

        ``values`` may be a scalar, any sequence, or a numpy ndarray --
        one unified signature (``docs/API.md``).  An ndarray is shipped
        as a single raw float64 frame with no per-item conversion; a
        float64 C-contiguous array is not even copied.
        """
        response = self._transport.append(stream, coerce_batch(values), config)
        return AppendResult(
            stream=response.get("stream", stream),
            accepted=int(response["accepted"]),
        )

    def query(self, stream: str, *, drain: bool = False) -> QueryResult:
        """The stream's histogram as a :class:`QueryResult` whose
        ``histogram`` is a real :class:`~repro.core.histogram.Histogram`
        (``drain=True`` for a barrier: every in-flight append applies
        before the query runs)."""
        response = self._transport.call(
            {"op": "query", "stream": stream, "drain": drain}
        )
        return QueryResult(
            stream=stream,
            histogram=Histogram.from_dict(response["histogram"]),
        )

    def stats(self, stream: Optional[str] = None) -> StatsResult:
        """Engine-wide (or per-stream) statistics."""
        payload: dict[str, Any] = {"op": "stats"}
        if stream is not None:
            payload["stream"] = stream
        response = self._transport.call(payload)
        return StatsResult(stream=stream, data=response["stats"])

    def checkpoint(self, stream: Optional[str] = None) -> CheckpointResult:
        """Force snapshots; returns the generations written per stream."""
        payload: dict[str, Any] = {"op": "checkpoint"}
        if stream is not None:
            payload["stream"] = stream
        response = self._transport.call(payload)
        return CheckpointResult(generations=response["generations"])

    def streams(self) -> tuple[str, ...]:
        """The server's registered stream ids, sorted."""
        return tuple(self._transport.call({"op": "streams"})["streams"])

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self._transport.call({"op": "ping"}).get("pong"))

    # -- retired v1 surface ----------------------------------------------------

    def request(self, payload: object = None) -> dict:
        """Removed.  The v1 dict-in/dict-out shim completed its
        deprecation window (``DeprecationWarning`` since the transport
        split) and now raises :class:`TypeError` unconditionally.

        Use the typed methods instead: :meth:`append`, :meth:`query`,
        :meth:`stats`, :meth:`checkpoint`, :meth:`streams`,
        :meth:`ping`.  Code that genuinely needs to send a raw request
        object (tests exercising malformed payloads) can go through
        ``client.transport.call(payload)`` explicitly.
        """
        raise TypeError(
            "ServiceClient.request(payload) was removed; use the typed "
            "methods (append/query/stats/checkpoint/streams/ping), or "
            "client.transport.call(payload) for raw requests"
        )
