"""HTTP/1.1 REST facade over the streaming service (``docs/REST.md``).

A stdlib-only asyncio HTTP server mounted *beside* the TCP front: the
same :class:`~repro.service.StreamEngine` (or cluster
:class:`~repro.service.cluster.ClusterRouter` proxy) serves binary-frame
TCP and REST clients simultaneously, so histograms observed over either
surface are bit-identical.  No web framework is involved --
the request loop parses request lines, headers, and ``Content-Length``
bodies directly and keeps connections alive per HTTP/1.1 semantics.

Routes (``{tenant}`` of ``-`` addresses a bare stream id, so REST and
TCP clients can hit the same streams; otherwise the stream id is
``tenant/stream``)::

    POST /v1/streams/{tenant}/{stream}:append      JSON array/object or
                                                   application/octet-stream
                                                   raw LE float64 (zero-copy)
    POST /v1/streams/{tenant}/{stream}:checkpoint  snapshot one stream
    GET  /v1/streams/{tenant}/{stream}/histogram   ?drain=1 for a barrier
    GET  /v1/streams/{tenant}/{stream}/stats       per-stream counters
    GET  /v1/streams                               registered stream ids
    GET  /v1/stats                                 engine-wide statistics
    POST /v1/streams:checkpoint                    snapshot every stream
    POST /v1/streams:drain                         apply-all barrier
    GET  /v1/meta                                  capability matrix
    GET  /v1/ping                                  liveness
    GET  /v1/cluster                               ring + per-worker load
    POST /v1/cluster/rebalance                     one rebalance pass
    POST /v1/cluster/grow                          add workers live
    POST /v1/cluster/restart                       re-spawn one worker

Error responses are ``{"ok": false, "error": <code>, "message": ...}``
with the unified taxonomy of :mod:`repro.service.errors`; the HTTP
status is the fixed per-code mapping (``backpressure`` -> 429 with
``Retry-After``, ``unknown-stream``/``unknown-op`` -> 404, ...).

**Idempotency** (``docs/REST.md``): appends are *not* idempotent and
are never retried by the service.  A client that must retry can send an
``Idempotency-Key`` header -- the facade replays the recorded response
for a repeated ``(stream, key)`` pair (bounded LRU) instead of applying
the batch twice, answering with ``Idempotency-Replayed: true``.

The module also provides the client half: :class:`HttpTransport`
implements the :class:`~repro.service.client.Transport` protocol over
``http.client``, which is how ``ServiceClient.from_url("http://...")``
speaks REST through the same typed API as the binary TCP transport.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import threading
from collections import OrderedDict
from typing import Optional, Tuple
from urllib.parse import parse_qs, quote, unquote, urlencode

import numpy as np

from repro.exceptions import UnknownStreamError
from repro.service import wire
from repro.service.errors import (
    BadRequestError,
    ErrorCode,
    InvalidRequestError,
    UnknownOperationError,
    classify_exception,
    http_status,
    raise_for_error,
)
from repro.service.types import ServerInfo

#: Protocol number of the REST transport (2 = binary TCP frames; 1, JSON
#: lines, is retired).  It identifies the transport family in
#: ``ServerInfo`` and ``/v1/meta``.
PROTO_HTTP = 3

#: Cap on one request line or header line (headers are small; bodies
#: are read separately up to :data:`MAX_BODY_BYTES`).
MAX_HEADER_LINE = 64 * 1024

#: Cap on the whole header section, however many lines it spans.
MAX_HEADER_BYTES = 64 * 1024

#: Cap on a request body -- the same bound as a binary wire frame.
MAX_BODY_BYTES = wire.MAX_PAYLOAD_BYTES

_SERVER_NAME = "repro-histogram"

_STREAM_CONFIG_KEYS = ("method", "buckets", "epsilon", "universe", "window")

#: Query-string config values arrive as strings; coerce per key.
_CONFIG_COERCE = {
    "method": str,
    "buckets": int,
    "epsilon": float,
    "universe": int,
    "window": int,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_SEG = r"[^/:]+"
_STREAM_RE = rf"/v1/streams/(?P<tenant>{_SEG})/(?P<stream>{_SEG})"


def _routes() -> list:
    compiled = []
    for method, pattern, name in (
        ("GET", r"/v1/meta", "_r_meta"),
        ("GET", r"/v1/ping", "_r_ping"),
        ("GET", r"/v1/streams", "_r_streams"),
        ("GET", r"/v1/stats", "_r_stats_all"),
        ("POST", r"/v1/streams:checkpoint", "_r_checkpoint_all"),
        ("POST", r"/v1/streams:drain", "_r_drain"),
        ("POST", _STREAM_RE + r":append", "_r_append"),
        ("POST", _STREAM_RE + r":checkpoint", "_r_checkpoint"),
        ("GET", _STREAM_RE + r"/histogram", "_r_histogram"),
        ("GET", _STREAM_RE + r"/stats", "_r_stats"),
        ("GET", r"/v1/cluster", "_r_cluster"),
        ("POST", r"/v1/cluster/rebalance", "_r_rebalance"),
        ("POST", r"/v1/cluster/grow", "_r_grow"),
        ("POST", r"/v1/cluster/restart", "_r_restart"),
    ):
        compiled.append((method, re.compile(f"^{pattern}$"), name))
    return compiled


ROUTES = _routes()


def _error_body(message: str, code: ErrorCode = ErrorCode.BAD_REQUEST) -> dict:
    """The uniform JSON error document (``docs/REST.md``)."""
    return {"ok": False, "error": str(code), "message": message}


def _stream_id(match: "re.Match") -> str:
    """The engine stream id addressed by a matched stream route.

    Tenant ``-`` is the "no tenant" marker: ``/v1/streams/-/sku-42``
    addresses the bare id ``sku-42`` (what TCP clients use), while any
    other tenant prefixes it (``acme/sku-42``).  Segments are
    percent-decoded after routing, so an encoded ``%2F`` stays inside
    its segment.
    """
    tenant = unquote(match.group("tenant"))
    stream = unquote(match.group("stream"))
    return stream if tenant == "-" else f"{tenant}/{stream}"


def stream_path(stream_id: str) -> str:
    """The REST path prefix addressing ``stream_id`` (client side)."""
    if "/" in stream_id:
        tenant, _, rest = stream_id.partition("/")
        return f"/v1/streams/{quote(tenant, safe='')}/{quote(rest, safe='')}"
    return f"/v1/streams/-/{quote(stream_id, safe='')}"


class _IdempotencyCache:
    """Bounded LRU of ``(stream, Idempotency-Key) -> response payload``."""

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict = OrderedDict()

    def get(self, key) -> Optional[dict]:
        with self._lock:
            try:
                value = self._data.pop(key)
            except KeyError:
                return None
            self._data[key] = value
            return value

    def put(self, key, value: dict) -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


class HttpFrontend:
    """Serve one engine (or cluster proxy) over HTTP/1.1 REST.

    Parameters
    ----------
    engine:
        The :class:`~repro.service.StreamEngine` (or the cluster
        router's proxy engine) to expose; the frontend never closes it.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    cluster:
        The owning :class:`~repro.service.cluster.ClusterRouter`, when
        this frontend fronts a cluster; enables the ``/v1/cluster``
        routes (a single-process server answers them ``unknown-op``).
    executor_workers:
        Size of a dedicated thread pool for engine calls (``None`` uses
        the loop's default executor) -- same contract as
        :class:`~repro.service.StreamServer`.
    """

    def __init__(
        self,
        engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cluster=None,
        executor_workers: Optional[int] = None,
        idempotency_capacity: int = 1024,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.cluster = cluster
        self.executor_workers = executor_workers
        self._idempotency = _IdempotencyCache(idempotency_capacity)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- lifecycle (mirrors StreamServer) -------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (on the running loop)."""
        self._loop = asyncio.get_running_loop()
        if self.executor_workers is not None:
            from concurrent.futures import ThreadPoolExecutor

            self._loop.set_default_executor(
                ThreadPoolExecutor(
                    max_workers=self.executor_workers,
                    thread_name_prefix="repro-http-io",
                )
            )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_HEADER_LINE,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until :meth:`stop` or cancellation."""
        if self._server is None:
            await self.start()
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    def run(self) -> None:
        """Blocking entry point (the CLI ``serve --http-port``)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass

    def start_in_background(self) -> "HttpFrontend":
        """Run the frontend on a daemon thread; returns once it is bound."""
        self._thread = threading.Thread(
            target=self.run, name="repro-http-frontend", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("HTTP frontend failed to start within 10s")
        return self

    def stop(self) -> None:
        """Stop accepting connections and unwind the background thread."""
        loop, server = self._loop, self._server
        if loop is not None and server is not None:
            loop.call_soon_threadsafe(server.close)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """One client: HTTP/1.1 request/response with keep-alive."""
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._answer(
                        writer, 400, _error_body("request line too long"), False
                    )
                    return
                if not request_line:
                    return
                if request_line in (b"\r\n", b"\n"):
                    continue
                parts = request_line.split()
                if len(parts) != 3:
                    await self._answer(
                        writer, 400, _error_body("malformed request line"), False
                    )
                    return
                method = parts[0].decode("latin-1")
                target = parts[1].decode("latin-1")
                version = parts[2].decode("latin-1")
                try:
                    headers = await self._read_headers(reader)
                except (asyncio.LimitOverrunError, ValueError):
                    await self._answer(
                        writer,
                        400,
                        _error_body(
                            f"header line or section exceeds the "
                            f"{MAX_HEADER_BYTES}-byte cap"
                        ),
                        False,
                    )
                    return
                if headers is None:
                    return  # EOF mid-headers
                if headers.get("transfer-encoding"):
                    await self._answer(
                        writer,
                        400,
                        _error_body(
                            "chunked request bodies are not supported; "
                            "send Content-Length"
                        ),
                        False,
                    )
                    return
                body = b""
                raw_length = headers.get("content-length")
                if raw_length is not None:
                    try:
                        length = int(raw_length)
                        if length < 0:
                            raise ValueError
                    except ValueError:
                        await self._answer(
                            writer, 400, _error_body("bad Content-Length"), False
                        )
                        return
                    if length > MAX_BODY_BYTES:
                        await self._answer(
                            writer,
                            413,
                            _error_body(
                                f"request body of {length} bytes exceeds "
                                f"the {MAX_BODY_BYTES}-byte cap"
                            ),
                            False,
                        )
                        return
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError:
                        return
                status, payload, extra = await self._respond(
                    method, target, headers, body
                )
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                await self._answer(writer, status, payload, keep_alive, extra)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    @staticmethod
    async def _read_headers(reader) -> Optional[dict]:
        """Lower-cased header dict, or ``None`` on EOF mid-headers.

        Raises ``ValueError`` once the section passes
        :data:`MAX_HEADER_BYTES` (``readline`` raises it for one line
        past :data:`MAX_HEADER_LINE`).
        """
        headers: dict = {}
        total = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                return None
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise ValueError("header section too long")
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()

    async def _answer(
        self,
        writer,
        status: int,
        payload: dict,
        keep_alive: bool,
        extra: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra)
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------------

    async def _respond(
        self, method: str, target: str, headers: dict, body: bytes
    ) -> tuple:
        """Route one request; returns ``(status, payload, extra_headers)``."""
        raw_path, _, query_string = target.partition("?")
        try:
            query = parse_qs(query_string)
        except ValueError:  # pragma: no cover - parse_qs is permissive
            query = {}
        allowed = set()
        for route_method, pattern, handler_name in ROUTES:
            match = pattern.match(raw_path)
            if match is None:
                continue
            if route_method != method:
                allowed.add(route_method)
                continue
            handler = getattr(self, handler_name)
            loop = asyncio.get_running_loop()
            try:
                payload, extra = await loop.run_in_executor(
                    None, handler, match, query, headers, body
                )
            except Exception as exc:  # noqa: BLE001 - classified below
                code, message = classify_exception(exc)
                status = http_status(code)
                extra = (
                    (("Retry-After", "1"),)
                    if code == ErrorCode.BACKPRESSURE
                    else ()
                )
                return (
                    status,
                    {"ok": False, "error": str(code), "message": message},
                    extra,
                )
            return 200, {"ok": True, **payload}, tuple(extra)
        if allowed:
            return (
                405,
                _error_body(
                    f"method {method} not allowed for {raw_path} "
                    f"(allowed: {', '.join(sorted(allowed))})"
                ),
                (("Allow", ", ".join(sorted(allowed))),),
            )
        return (
            404,
            {
                "ok": False,
                "error": str(ErrorCode.UNKNOWN_OP),
                "message": f"no route {method} {raw_path}",
            },
            (),
        )

    # -- handlers (run on executor threads) --------------------------------------

    def _stream_for(self, stream_id: str, config: dict):
        """Create-or-fetch a stream, mirroring the TCP server's rule."""
        if not config:
            try:
                return self.engine.handle(stream_id)
            except UnknownStreamError:
                pass
        return self.engine.stream(stream_id, **config)

    @staticmethod
    def _config_from_query(query: dict) -> dict:
        config = {}
        for key in _STREAM_CONFIG_KEYS:
            if key in query:
                raw = query[key][-1]
                try:
                    config[key] = _CONFIG_COERCE[key](raw)
                except ValueError:
                    raise InvalidRequestError(
                        f"query parameter {key}={raw!r} is not a valid "
                        f"{_CONFIG_COERCE[key].__name__}"
                    ) from None
        return config

    def _r_append(self, match, query, headers, body):
        stream_id = _stream_id(match)
        config = self._config_from_query(query)
        content_type = headers.get("content-type", "application/json")
        content_type = content_type.split(";")[0].strip().lower()
        if content_type == "application/octet-stream":
            # The zero-copy path: the body *is* the value region of a
            # binary append frame (raw LE float64), decoded by the same
            # wire helper -- numpy.frombuffer, no copy, no boxing.
            try:
                values = wire.decode_values(body)
            except wire.WireError as exc:
                raise BadRequestError(str(exc)) from exc
        elif content_type in ("application/json", "text/json", ""):
            values, config = self._parse_json_append(body, config)
        else:
            raise BadRequestError(
                f"unsupported Content-Type {content_type!r}; send "
                "application/json or application/octet-stream"
            )
        idempotency_key = headers.get("idempotency-key")
        if idempotency_key:
            cached = self._idempotency.get((stream_id, idempotency_key))
            if cached is not None:
                return cached, (("Idempotency-Replayed", "true"),)
        handle = self._stream_for(stream_id, config)
        accepted = handle.append(values)
        payload = {"stream": handle.stream_id, "accepted": accepted}
        if idempotency_key:
            self._idempotency.put((stream_id, idempotency_key), payload)
        return payload, ()

    @staticmethod
    def _parse_json_append(body: bytes, config: dict):
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequestError(
                f"append body is not valid JSON: {exc}"
            ) from exc
        if isinstance(document, list):
            values = document
        elif isinstance(document, dict):
            values = document.get("values", [])
            for key in _STREAM_CONFIG_KEYS:
                if document.get(key) is not None:
                    config = {**config, key: document[key]}
        else:
            raise BadRequestError(
                "append body must be a JSON array of values or an object "
                'with a "values" array'
            )
        if isinstance(values, (int, float)) and not isinstance(values, bool):
            values = [values]
        if not isinstance(values, list):
            raise BadRequestError('"values" must be a JSON array or a number')
        return values, config

    def _r_histogram(self, match, query, headers, body):
        stream_id = _stream_id(match)
        if query.get("drain", ["0"])[-1].lower() in ("1", "true", "yes"):
            self.engine.drain()
        hist = self.engine.histogram(stream_id)
        return {"stream": stream_id, "histogram": hist.to_dict()}, ()

    def _r_stats(self, match, query, headers, body):
        stream_id = _stream_id(match)
        return {"stats": self.engine.stats(stream_id)}, ()

    def _r_stats_all(self, match, query, headers, body):
        return {"stats": self.engine.stats(None)}, ()

    def _r_checkpoint(self, match, query, headers, body):
        stream_id = _stream_id(match)
        generations = self.engine.checkpoint(stream_id)
        return {"generations": generations}, ()

    def _r_checkpoint_all(self, match, query, headers, body):
        return {"generations": self.engine.checkpoint(None)}, ()

    def _r_streams(self, match, query, headers, body):
        return {"streams": list(self.engine.streams())}, ()

    def _r_drain(self, match, query, headers, body):
        self.engine.drain()
        return {"drained": True}, ()

    def _r_ping(self, match, query, headers, body):
        return {"pong": True}, ()

    def _r_meta(self, match, query, headers, body):
        from repro import api

        return {
            "server": {
                "name": _SERVER_NAME,
                "wire_version": wire.WIRE_VERSION,
                "protocols": [PROTO_HTTP],
                "cluster": self.cluster is not None,
            },
            "methods": api.methods(),
            "endpoints": sorted(
                f"{method} {pattern.pattern[1:-1]}"
                for method, pattern, _ in ROUTES
            ),
        }, ()

    # -- cluster handlers --------------------------------------------------------

    def _require_cluster(self):
        if self.cluster is None:
            raise UnknownOperationError(
                "this server is not a cluster front; /v1/cluster routes "
                "are unavailable"
            )
        return self.cluster

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequestError(
                f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise BadRequestError("request body must be a JSON object")
        return document

    def _r_cluster(self, match, query, headers, body):
        return {"cluster": self._require_cluster().cluster_view()}, ()

    def _r_rebalance(self, match, query, headers, body):
        from repro.service.cluster.rebalance import Rebalancer

        cluster = self._require_cluster()
        document = self._json_body(body)
        try:
            max_moves = int(document.get("max_moves", 1))
        except (TypeError, ValueError):
            raise BadRequestError('"max_moves" must be an integer') from None
        moves = Rebalancer(cluster, max_moves=max_moves).rebalance_once()
        return {
            "moves": [move.to_dict() for move in moves],
        }, ()

    def _r_grow(self, match, query, headers, body):
        cluster = self._require_cluster()
        document = self._json_body(body)
        try:
            count = int(document.get("count", 1))
        except (TypeError, ValueError):
            raise BadRequestError('"count" must be an integer') from None
        return cluster.grow(count), ()

    def _r_restart(self, match, query, headers, body):
        cluster = self._require_cluster()
        document = self._json_body(body)
        worker = document.get("worker")
        if not worker:
            raise BadRequestError(
                'restart body must name the worker: {"worker": "w0"}'
            )
        return cluster.restart_worker(str(worker)), ()


# -- client transport ----------------------------------------------------------


class HttpTransport:
    """REST client half: the :class:`Transport` protocol over HTTP.

    One keep-alive ``http.client`` connection; each op maps to its REST
    route, and error responses raise the same typed exceptions as the
    binary TCP transport (one taxonomy, whatever the wire).  Connection
    failures surface as ``ConnectionError``/``OSError`` exactly like the
    TCP transport, so retry/reconnect logic is transport-agnostic.
    """

    proto = PROTO_HTTP

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> dict:
        send_headers = {"Accept": "application/json"}
        if headers:
            send_headers.update(headers)
        self._conn.request(method, path, body=body, headers=send_headers)
        response = self._conn.getresponse()
        data = response.read()  # must drain for keep-alive reuse
        try:
            document = json.loads(data)
        except ValueError as exc:
            raise wire.WireError(
                f"non-JSON response (HTTP {response.status}) from "
                f"{method} {path}"
            ) from exc
        return raise_for_error(document)

    def call(self, request: dict) -> dict:
        """Map one request object onto its REST route; one round trip."""
        op = str(request.get("op"))
        stream = request.get("stream")
        if op == "query":
            path = f"{stream_path(str(stream))}/histogram"
            if request.get("drain"):
                path += "?drain=1"
            return self._request("GET", path)
        if op == "stats":
            if stream is None:
                return self._request("GET", "/v1/stats")
            return self._request("GET", f"{stream_path(str(stream))}/stats")
        if op == "checkpoint":
            if stream is None:
                return self._request("POST", "/v1/streams:checkpoint")
            return self._request(
                "POST", f"{stream_path(str(stream))}:checkpoint"
            )
        if op == "streams":
            return self._request("GET", "/v1/streams")
        if op == "ping":
            return self._request("GET", "/v1/ping")
        if op == "drain":
            return self._request("POST", "/v1/streams:drain")
        if op == "append":
            rest = {
                key: request[key]
                for key in _STREAM_CONFIG_KEYS
                if request.get(key) is not None
            }
            return self.append(
                str(stream), request.get("values", []), rest
            )
        raise UnknownOperationError(
            f"op {op!r} has no REST mapping (the HTTP transport speaks "
            "append/query/stats/checkpoint/streams/ping/drain)"
        )

    def append(self, stream: str, values, config: dict) -> dict:
        """Append as one ``application/octet-stream`` body (raw float64)."""
        arr = np.asarray(values)
        if arr.dtype != wire.VALUE_DTYPE or not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr, dtype=wire.VALUE_DTYPE)
        params = {
            key: config[key] for key in sorted(config) if config[key] is not None
        }
        path = f"{stream_path(stream)}:append"
        if params:
            path += f"?{urlencode(params)}"
        return self._request(
            "POST",
            path,
            body=memoryview(arr).cast("B"),
            headers={"Content-Type": "application/octet-stream"},
        )

    def close(self) -> None:
        """Close the connection."""
        self._conn.close()


def connect_http(
    host: str, port: int, timeout: float = 30.0
) -> tuple[HttpTransport, ServerInfo]:
    """Connect a REST transport and learn the server identity from
    ``/v1/meta`` (the plumbing behind ``ServiceClient.from_url``)."""
    transport = HttpTransport(host, port, timeout=timeout)
    try:
        meta = transport._request("GET", "/v1/meta")
    except BaseException:
        transport.close()
        raise
    server = meta.get("server", {})
    info = ServerInfo(
        proto=PROTO_HTTP,
        protocols=tuple(server.get("protocols", (PROTO_HTTP,))),
        server=server.get("name", _SERVER_NAME),
        wire_version=server.get("wire_version"),
    )
    return transport, info
