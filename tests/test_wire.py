"""Tests for the binary wire protocol (framing, transport, ``hello``).

Covers the contracts documented in ``docs/WIRE.md``:

* frame round trips, and every malformed-frame class (truncated header,
  bad magic, version mismatch, unknown opcode, oversized length, ragged
  value region, non-finite payloads) maps to a clean ``bad-request``;
* the zero-copy append path: the decoded ndarray is a read-only view
  over the frame payload, no copies on either side;
* the client transport survives deliberately fragmenting sockets
  (single-byte reads, chopped writes);
* frames from the first byte: ``hello`` is an ordinary op, and a
  ``hello`` that does not offer protocol 2 is refused;
* bit-identity: list and ndarray appends from several connections
  interleaved on one stream produce the exact ``summarize()`` histogram.
"""

import socket
import struct

import numpy as np
import pytest

from repro.api import summarize
from repro.service import (
    BinaryTransport,
    ServiceClient,
    StreamEngine,
    StreamServer,
)
from repro.service import wire
from repro.service.client import _BufferedSocket
from repro.service.wire import WireError


def _dataset(n=4000, universe=512):
    return [(37 * i + (i * i) % 11) % universe for i in range(n)]


class TestFrameCodec:
    def test_json_frame_round_trip(self):
        payload = {"op": "query", "stream": "s", "drain": True}
        frame = wire.encode_json_frame(wire.OP_JSON, payload)
        opcode, length = wire.decode_header(frame[: wire.HEADER_BYTES])
        assert opcode == wire.OP_JSON
        assert length == len(frame) - wire.HEADER_BYTES
        assert wire.decode_json_payload(frame[wire.HEADER_BYTES :]) == payload

    def test_empty_payload_frame(self):
        frame = wire.encode_frame(wire.OP_OK)
        opcode, length = wire.decode_header(frame)
        assert (opcode, length) == (wire.OP_OK, 0)

    def test_truncated_header_rejected(self):
        frame = wire.encode_frame(wire.OP_JSON, b"{}")
        with pytest.raises(WireError, match="truncated"):
            wire.decode_header(frame[:5])

    def test_bad_magic_rejected(self):
        bad = struct.pack("!HBBI", 0x1234, wire.WIRE_VERSION, wire.OP_JSON, 0)
        with pytest.raises(WireError, match="magic"):
            wire.decode_header(bad)

    def test_version_mismatch_rejected(self):
        bad = struct.pack("!HBBI", wire.MAGIC, 99, wire.OP_JSON, 0)
        with pytest.raises(WireError, match="version"):
            wire.decode_header(bad)

    def test_unknown_opcode_rejected(self):
        bad = struct.pack("!HBBI", wire.MAGIC, wire.WIRE_VERSION, 0x7F, 0)
        with pytest.raises(WireError, match="opcode"):
            wire.decode_header(bad)

    def test_oversized_length_rejected(self):
        bad = struct.pack(
            "!HBBI", wire.MAGIC, wire.WIRE_VERSION, wire.OP_JSON,
            wire.MAX_PAYLOAD_BYTES + 1,
        )
        with pytest.raises(WireError, match="cap"):
            wire.decode_header(bad)

    def test_non_object_json_payload_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            wire.decode_json_payload(b"[1, 2]")
        with pytest.raises(WireError, match="not valid JSON"):
            wire.decode_json_payload(b"{nope")


class TestAppendPayload:
    def _frame_payload(self, meta, values):
        head, value_bytes = wire.encode_append_payload(meta, values)
        return head[wire.HEADER_BYTES :] + bytes(value_bytes)

    def test_round_trip(self):
        values = np.arange(100, dtype="<f8")
        payload = self._frame_payload({"stream": "s", "buckets": 8}, values)
        meta, decoded = wire.decode_append_payload(payload)
        assert meta == {"stream": "s", "buckets": 8}
        assert decoded.dtype == wire.VALUE_DTYPE
        np.testing.assert_array_equal(decoded, values)

    def test_decode_is_zero_copy_readonly_view(self):
        values = np.arange(16, dtype="<f8")
        payload = self._frame_payload({"stream": "s"}, values)
        _meta, decoded = wire.decode_append_payload(payload)
        assert not decoded.flags.writeable
        assert decoded.base is not None  # a view, not a copy

    def test_encode_is_zero_copy_for_contiguous_float64(self):
        values = np.arange(8, dtype="<f8")
        _head, value_bytes = wire.encode_append_payload({"stream": "s"}, values)
        # The memoryview aliases the array's own buffer: no copy was made.
        assert value_bytes.obj is values or value_bytes.obj is memoryview(
            values
        ).obj

    def test_int_input_converted_once_and_exact(self):
        values = [0, 1, 2, 2**53 - 1]
        payload = self._frame_payload({"stream": "s"}, np.asarray(values))
        _meta, decoded = wire.decode_append_payload(payload)
        assert decoded.tolist() == [float(v) for v in values]

    def test_missing_stream_rejected(self):
        payload = self._frame_payload({"buckets": 8}, np.arange(4.0))
        with pytest.raises(WireError, match="stream"):
            wire.decode_append_payload(payload)

    def test_truncated_meta_rejected(self):
        payload = self._frame_payload({"stream": "s"}, np.arange(4.0))
        with pytest.raises(WireError, match="truncated"):
            wire.decode_append_payload(payload[:2])
        # Meta length pointing past the end of the payload.
        bad = struct.pack("!I", 10_000) + b"{}"
        with pytest.raises(WireError, match="overruns"):
            wire.decode_append_payload(bad)

    def test_ragged_value_region_rejected(self):
        payload = self._frame_payload({"stream": "s"}, np.arange(4.0))
        with pytest.raises(WireError, match="whole number"):
            wire.decode_append_payload(payload[:-3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        payload = self._frame_payload(
            {"stream": "s"}, np.asarray([1.0, bad, 2.0])
        )
        with pytest.raises(WireError, match="non-finite"):
            wire.decode_append_payload(payload)

    def test_2d_input_rejected(self):
        with pytest.raises(WireError, match="1-D"):
            wire.encode_append_payload({"stream": "s"}, np.zeros((2, 2)))


class _FragmentingSocket:
    """Socket shim that dribbles I/O in tiny chunks (worst-case TCP)."""

    def __init__(self, sock, chunk=3):
        self._sock = sock
        self._chunk = chunk
        self.recv_calls = 0

    def recv(self, n):
        self.recv_calls += 1
        return self._sock.recv(min(n, self._chunk))

    def sendall(self, data):
        data = bytes(data)
        for i in range(0, len(data), self._chunk):
            self._sock.sendall(data[i : i + self._chunk])

    def close(self):
        self._sock.close()


@pytest.fixture()
def server():
    engine = StreamEngine()
    srv = StreamServer(engine).start_in_background()
    yield srv
    srv.stop()
    engine.close()


def _connect(server, **kwargs):
    return socket.create_connection(
        ("127.0.0.1", server.port), timeout=10.0, **kwargs
    )


class TestFragmentation:
    """The transport must be correct over arbitrarily fragmented links."""

    def test_transport_over_fragmenting_socket(self, server):
        shim = _FragmentingSocket(_connect(server), chunk=3)
        transport = BinaryTransport(shim)
        try:
            assert transport.hello().proto == wire.PROTO_BINARY
            values = _dataset(500)
            response = transport.append(
                "frag", values, {"method": "min-merge", "buckets": 8}
            )
            assert response["accepted"] == len(values)
            hist = transport.call(
                {"op": "query", "stream": "frag", "drain": True}
            )["histogram"]
            oracle = summarize(values, 8, method="min-merge")
            assert hist["error"] == oracle.error
            assert shim.recv_calls > 10  # the link really fragmented
        finally:
            transport.close()

    def test_recv_exactly_reassembles(self):
        class Dribble:
            def __init__(self, chunks):
                self._chunks = list(chunks)

            def recv(self, n):
                return self._chunks.pop(0) if self._chunks else b""

            def sendall(self, data):
                pass

            def close(self):
                pass

        io = _BufferedSocket(Dribble([b"he", b"llo\nwor", b"ld!"]))
        assert io.recv_exactly(6) == b"hello\n"
        assert io.recv_exactly(6) == b"world!"
        with pytest.raises(ConnectionError, match="closed"):
            io.recv_exactly(1)

    def test_short_read_mid_frame_raises_cleanly(self):
        class Half:
            def __init__(self):
                self._sent = False

            def recv(self, n):
                if self._sent:
                    return b""
                self._sent = True
                return b"\x00\x01\x02"

            def sendall(self, data):
                pass

            def close(self):
                pass

        io = _BufferedSocket(Half())
        with pytest.raises(ConnectionError, match="3 of 8"):
            io.recv_exactly(8)


def _read_frame(io) -> tuple[int, dict]:
    opcode, length = wire.decode_header(io.recv_exactly(wire.HEADER_BYTES))
    return opcode, wire.decode_json_payload(io.recv_exactly(length))


class TestServerFraming:
    def _negotiate_binary(self, server):
        io = _BufferedSocket(_connect(server))
        io.send_all(
            wire.encode_json_frame(wire.OP_JSON, {"op": "hello", "proto": [2]})
        )
        opcode, response = _read_frame(io)
        assert opcode == wire.OP_OK and response["proto"] == 2
        return io

    def test_frames_from_the_first_byte(self, server):
        io = _BufferedSocket(_connect(server))
        io.send_all(wire.encode_json_frame(wire.OP_JSON, {"op": "ping"}))
        opcode, response = _read_frame(io)
        assert opcode == wire.OP_OK and response["pong"] is True
        io.close()

    def test_bad_magic_after_negotiation_errors_and_closes(self, server):
        io = self._negotiate_binary(server)
        io.send_all(struct.pack("!HBBI", 0xDEAD, 1, wire.OP_JSON, 0))
        opcode, length = wire.decode_header(
            io.recv_exactly(wire.HEADER_BYTES)
        )
        assert opcode == wire.OP_ERR
        response = wire.decode_json_payload(io.recv_exactly(length))
        assert response["error"] == "bad-request"
        assert "magic" in response["message"]
        # Framing errors desynchronize the stream: the server closes.
        with pytest.raises(ConnectionError):
            io.send_all(
                wire.encode_json_frame(wire.OP_JSON, {"op": "ping"})
            )
            io.recv_exactly(wire.HEADER_BYTES)
        io.close()

    def test_version_mismatch_is_bad_request(self, server):
        io = self._negotiate_binary(server)
        io.send_all(
            struct.pack("!HBBI", wire.MAGIC, 99, wire.OP_JSON, 0)
        )
        opcode, length = wire.decode_header(
            io.recv_exactly(wire.HEADER_BYTES)
        )
        assert opcode == wire.OP_ERR
        response = wire.decode_json_payload(io.recv_exactly(length))
        assert response["error"] == "bad-request"
        assert "version" in response["message"]
        io.close()

    def test_response_opcode_in_request_is_bad_request(self, server):
        io = self._negotiate_binary(server)
        io.send_all(wire.encode_json_frame(wire.OP_OK, {"ok": True}))
        opcode, length = wire.decode_header(
            io.recv_exactly(wire.HEADER_BYTES)
        )
        assert opcode == wire.OP_ERR
        response = wire.decode_json_payload(io.recv_exactly(length))
        assert response["error"] == "bad-request"
        io.close()

    def test_nan_append_frame_is_bad_request(self, server):
        io = self._negotiate_binary(server)
        head, value_bytes = wire.encode_append_payload(
            {"stream": "n", "method": "min-merge", "buckets": 4},
            np.asarray([1.0, float("nan")]),
        )
        io.send_all(head, value_bytes)
        opcode, length = wire.decode_header(
            io.recv_exactly(wire.HEADER_BYTES)
        )
        assert opcode == wire.OP_ERR
        response = wire.decode_json_payload(io.recv_exactly(length))
        assert response["error"] == "bad-request"
        assert "non-finite" in response["message"]
        # Payload errors do NOT desynchronize framing: connection lives.
        io.send_all(wire.encode_json_frame(wire.OP_JSON, {"op": "ping"}))
        opcode, length = wire.decode_header(
            io.recv_exactly(wire.HEADER_BYTES)
        )
        assert opcode == wire.OP_OK
        assert wire.decode_json_payload(io.recv_exactly(length))["pong"]
        io.close()

    def test_no_common_protocol_is_bad_request(self, server):
        io = _BufferedSocket(_connect(server))
        # Protocol 1 is retired, so offering only it fails like any other
        # disjoint offer; a payload error keeps the connection open.
        for offered in ([42], [1]):
            io.send_all(
                wire.encode_json_frame(
                    wire.OP_JSON, {"op": "hello", "proto": offered}
                )
            )
            opcode, response = _read_frame(io)
            assert opcode == wire.OP_ERR
            assert response["error"] == "bad-request"
            assert "no common protocol" in response["message"]
        io.close()


class TestInterleavedClients:
    def test_interleaved_clients_bit_identical_to_summarize(self):
        """List and ndarray appends from two connections interleaved on
        one stream must build the exact summarize() histogram: ints
        below 2**53 are exact in float64 and bucket arithmetic is float
        throughout."""
        engine = StreamEngine()
        srv = StreamServer(engine).start_in_background()
        values = _dataset(4000)
        try:
            with ServiceClient(port=srv.port) as c1, \
                    ServiceClient(port=srv.port) as c2:
                chunk = 250
                for i, off in enumerate(range(0, len(values), chunk)):
                    part = values[off : off + chunk]
                    if i % 2 == 0:
                        client = c1
                    else:
                        client, part = c2, np.asarray(part, dtype="<f8")
                    result = client.append(
                        "mixed", part, method="min-merge", buckets=8,
                        universe=512,
                    )
                    assert result.accepted == len(part)
                hist = c2.query("mixed", drain=True).histogram
                oracle = summarize(values, 8, method="min-merge")
                assert hist.segments == oracle.segments
                assert hist.error == oracle.error
                assert hist.meta.items_seen == len(values)
        finally:
            srv.stop()
            engine.close()

    def test_list_append_matches_ndarray_append_exactly(self, server):
        values = _dataset(1500)
        with ServiceClient(port=server.port) as client:
            client.append("vl", values, method="min-merge", buckets=8)
            client.append(
                "va", np.asarray(values, dtype="<f8"), method="min-merge",
                buckets=8,
            )
            hl = client.query("vl", drain=True).histogram
            ha = client.query("va", drain=True).histogram
        assert hl.segments == ha.segments
        assert hl.error == ha.error
