"""Asyncio TCP front for a :class:`~repro.service.StreamEngine`.

Every connection speaks the length-prefixed binary framing of
:mod:`repro.service.wire` (``docs/WIRE.md``) from its first byte.
Append frames (``OP_APPEND``) carry raw float64 values that travel
socket -> ``numpy.frombuffer`` -> the engine's batched ``extend()``
with zero per-item Python objects; every other op rides in an
``OP_JSON`` frame holding one request object::

    {"op": "hello", "proto": [2]}
    {"ok": true, "proto": 2, "server": {"name": ..., ...}}

    {"op": "query", "stream": "sku-42"}
    {"ok": true, "histogram": {"error": ..., "segments": [...],
                               "meta": {...}}}

Operations: ``hello`` (the server's identity; clients send it once at
connect), ``query``, ``stats``, ``checkpoint``, ``streams``, ``drain``,
``ping``, and the cluster-internal ``adopt`` / ``release``.  Appends
travel only as ``OP_APPEND`` frames (the stream is created on first use
from the frame's meta config).  Errors come back as ``OP_ERR`` frames
``{"ok": false, "error": <code>, "message": ...}`` with the codes of the
unified taxonomy (:mod:`repro.service.errors`, shared with the HTTP
facade): ``backpressure`` (in-flight bound hit -- back off and retry),
``invalid`` (bad parameters or values), ``unknown-stream``, ``empty``
(query before any data), ``bad-request`` (malformed frame or request,
missing fields, non-finite values), ``unknown-op``, ``unavailable``
(cluster worker failed mid-request), and ``internal``.  A *framing*
error (bad magic, bad version, oversized length) additionally closes
the connection: a desynchronized byte stream cannot be re-synchronized.
A connection whose first byte is not the frame magic -- a retired
protocol-1 JSON line, say -- gets one ``bad-request`` error frame and
is closed at once.

The event loop never blocks on the engine: every engine call runs in a
thread-pool executor, so slow batch applies on one connection do not
stall others.  The engine itself is thread-safe (per-stream locks), so
any number of connections may hit the same stream.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from repro.exceptions import ReproError, UnknownStreamError
from repro.service import wire
from repro.service.engine import StreamEngine
from repro.service.errors import BadRequestError, classify_exception

_STREAM_CONFIG_KEYS = (
    "method",
    "buckets",
    "epsilon",
    "universe",
    "window",
)

_SERVER_NAME = "repro-histogram"

#: First byte of the frame magic (0xF5).  It can never begin a text line
#: (it is not even a legal UTF-8 lead byte), so one byte tells a client
#: still speaking the retired JSON-lines protocol from a frame, without
#: waiting for header bytes such a client will never send.
_MAGIC_BYTE = bytes([wire.MAGIC >> 8])


class StreamServer:
    """Serve one engine over TCP in binary frames.

    Parameters
    ----------
    engine:
        The :class:`StreamEngine` to expose; the server never closes it
        (the caller owns its lifecycle).
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    executor_workers:
        Size of a dedicated thread pool for engine calls.  ``None`` (the
        default) uses the loop's default executor -- right for a
        single-process engine, whose per-stream locks serialize most
        work anyway.  The cluster router sets this higher: its "engine"
        calls are blocking round trips to backend workers, so the pool
        size caps the router's concurrent in-flight backend requests.
    """

    def __init__(
        self,
        engine: StreamEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.executor_workers = executor_workers
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (on the running loop)."""
        self._loop = asyncio.get_running_loop()
        if self.executor_workers is not None:
            from concurrent.futures import ThreadPoolExecutor

            # asyncio.run() shuts the default executor down with the
            # loop, so the pool's lifetime tracks the server's.
            self._loop.set_default_executor(
                ThreadPoolExecutor(
                    max_workers=self.executor_workers,
                    thread_name_prefix="repro-server-io",
                )
            )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
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
            # stop() closes the server from another thread, which lands
            # here as a cancellation of the serving future -- a clean exit.
            pass

    def run(self) -> None:
        """Blocking entry point (the CLI ``serve`` subcommand)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass

    def start_in_background(self) -> "StreamServer":
        """Run the server on a daemon thread; returns once it is bound.

        The test/smoke entry point: callers talk to it with
        :class:`~repro.service.client.ServiceClient` and call
        :meth:`stop` when done.
        """
        self._thread = threading.Thread(
            target=self.run, name="repro-stream-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        return self

    def stop(self) -> None:
        """Stop accepting connections and unwind the background thread."""
        loop, server = self._loop, self._server
        if loop is not None and server is not None:
            loop.call_soon_threadsafe(server.close)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """One client: frames from the first byte until EOF."""
        try:
            first = await reader.read(1)
            if first == _MAGIC_BYTE:
                rest = await reader.readexactly(wire.HEADER_BYTES - 1)
                await self._serve_binary(reader, writer, first + rest)
            elif first:
                writer.write(
                    _frame_error(
                        "bad-request",
                        "not a binary frame: newline-delimited JSON "
                        "(protocol 1) is retired; speak the framing of "
                        "docs/WIRE.md or use the REST facade",
                    )
                )
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass  # closed mid-header
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
                # CancelledError: the loop is tearing down (stop());
                # finishing normally here keeps teardown quiet.
                pass

    async def _serve_binary(self, reader, writer, header: bytes) -> None:
        """Length-prefixed frames until EOF or a framing error."""
        while True:
            try:
                opcode, length = wire.decode_header(header)
                payload = await reader.readexactly(length)
            except wire.WireError as exc:
                # Framing errors desynchronize the stream: answer and close.
                writer.write(_frame_error("bad-request", str(exc)))
                await writer.drain()
                return
            except asyncio.IncompleteReadError:
                return
            ok, response = await self._dispatch_frame(opcode, payload)
            writer.write(_encode_frame(ok, response))
            await writer.drain()
            try:
                header = await reader.readexactly(wire.HEADER_BYTES)
            except asyncio.IncompleteReadError:
                return  # clean EOF (possibly mid-header on abrupt close)

    async def _dispatch_frame(self, opcode: int, payload) -> tuple[bool, dict]:
        if opcode == wire.OP_APPEND:
            try:
                meta, values = wire.decode_append_payload(payload)
            except wire.WireError as exc:
                return False, {"error": "bad-request", "message": str(exc)}
            return await self._run_handler(self._append_array, meta, values)
        if opcode == wire.OP_JSON:
            try:
                request = wire.decode_json_payload(payload)
            except wire.WireError as exc:
                return False, {"error": "bad-request", "message": str(exc)}
            return await self._dispatch(request)
        return False, {
            "error": "bad-request",
            "message": f"unexpected opcode 0x{opcode:02x} in a request",
        }

    # -- request dispatch ----------------------------------------------------

    async def _dispatch(self, request) -> tuple[bool, dict]:
        """Route one decoded request; returns ``(ok, payload)``."""
        if "op" not in request:
            return False, {
                "error": "bad-request",
                "message": 'request must be {"op": ..., ...}',
            }
        op = request["op"]
        handler = getattr(self, f"_op_{str(op).replace('-', '_')}", None)
        if handler is None:
            return False, {
                "error": "unknown-op",
                "message": f"unknown op {op!r}",
            }
        return await self._run_handler(handler, request)

    async def _run_handler(self, handler, *args) -> tuple[bool, dict]:
        """Run an engine-touching handler on the executor; map errors.

        The exception -> code mapping is
        :func:`repro.service.errors.classify_exception` -- the single
        taxonomy shared with the HTTP facade, so every transport
        classifies the same failure identically (a proxied backend's
        :class:`~repro.service.errors.ServiceError` forwards its code
        instead of being flattened to ``internal``).
        """
        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(None, handler, *args)
        except (ReproError, KeyError, TypeError) as exc:
            code, message = classify_exception(exc)
            return False, {"error": str(code), "message": message}
        return True, payload

    # -- operations (run on executor threads) -------------------------------

    def _stream_for(self, request: dict):
        """Create-or-fetch the request's stream from its inline config.

        Requests that carry no config address the stream as it already
        exists (whatever its method); config keys are only consulted at
        creation or to verify a match.
        """
        stream_id = str(request["stream"])
        config = {
            key: request[key]
            for key in _STREAM_CONFIG_KEYS
            if request.get(key) is not None
        }
        if not config:
            try:
                return self.engine.handle(stream_id)
            except UnknownStreamError:
                pass
        return self.engine.stream(stream_id, **config)

    def _append_array(self, meta: dict, values) -> dict:
        """Zero-copy append: the binary frame's ndarray goes straight in.

        ``values`` is the read-only float64 view the wire layer built
        over the frame payload; it reaches the summaries' vectorized
        ``extend()`` without any per-item conversion.
        """
        handle = self._stream_for(meta)
        accepted = handle.append(values)
        return {"accepted": accepted, "stream": handle.stream_id}

    def _op_query(self, request: dict) -> dict:
        stream_id = str(request["stream"])
        if bool(request.get("drain")):
            self.engine.drain()
        hist = self.engine.histogram(stream_id)
        return {"stream": stream_id, "histogram": hist.to_dict()}

    def _op_stats(self, request: dict) -> dict:
        stream = request.get("stream")
        stats = self.engine.stats(None if stream is None else str(stream))
        return {"stats": stats}

    def _op_checkpoint(self, request: dict) -> dict:
        stream = request.get("stream")
        generations = self.engine.checkpoint(
            None if stream is None else str(stream)
        )
        return {"generations": generations}

    def _op_streams(self, request: dict) -> dict:
        return {"streams": list(self.engine.streams())}

    def _op_drain(self, request: dict) -> dict:
        """Barrier: every accepted batch applied before the response."""
        self.engine.drain()
        return {"drained": True}

    def _op_adopt(self, request: dict) -> dict:
        """Cluster-internal: recover a manifested stream from shared disk."""
        handle = self.engine.adopt(str(request["stream"]))
        return {
            "stream": handle.stream_id,
            "items_seen": handle.items_seen,
        }

    def _op_release(self, request: dict) -> dict:
        """Cluster-internal: drain + snapshot + drop a stream (handoff)."""
        generation = self.engine.release(
            str(request["stream"]),
            checkpoint=bool(request.get("checkpoint", True)),
        )
        return {"stream": str(request["stream"]), "generation": generation}

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _op_hello(self, request: dict) -> dict:
        """The server's identity; the client must offer protocol 2."""
        offered = request.get("proto", [wire.PROTO_BINARY])
        if not isinstance(offered, list) or wire.PROTO_BINARY not in offered:
            raise BadRequestError(
                f"no common protocol: client offered {offered!r}, server "
                f"speaks [{wire.PROTO_BINARY}] (protocol 1, JSON lines, "
                "is retired)"
            )
        return {
            "proto": wire.PROTO_BINARY,
            "server": {
                "name": _SERVER_NAME,
                "wire_version": wire.WIRE_VERSION,
                "protocols": [wire.PROTO_BINARY],
            },
        }


# -- response encoders -------------------------------------------------------


def _encode_frame(ok: bool, payload: dict) -> bytes:
    if ok:
        return wire.encode_json_frame(wire.OP_OK, {"ok": True, **payload})
    return wire.encode_json_frame(wire.OP_ERR, {"ok": False, **payload})


def _frame_error(code: str, message: str) -> bytes:
    return _encode_frame(False, {"error": code, "message": message})


# Backwards-compatible re-exports: the client classes lived here before
# the v2 transport split (import sites: tests, benchmarks, user code).
from repro.service.client import ServiceClient, ServiceError  # noqa: E402,F401
