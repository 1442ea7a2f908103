"""HTTP/REST facade tests (``docs/REST.md``).

Pins the tentpole guarantees of the REST surface:

* REST and binary TCP clients hitting the same engine observe
  bit-identical histograms (and all match the one-shot ``summarize()``
  oracle) -- the facade is a view, not a fork.
* The unified error taxonomy maps to its fixed HTTP statuses
  (``backpressure`` -> 429 + ``Retry-After``, ``unknown-stream`` -> 404,
  malformed bodies -> 400, ``empty`` -> 409, wrong method -> 405).
* ``Idempotency-Key`` replays an acked append instead of double-applying.
* ``ServiceClient.from_url`` selects the transport family by scheme and
  the typed client API is identical over REST.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

np = pytest.importorskip("numpy")

from repro.api import build_summary, summarize
from repro.exceptions import BackpressureError, InvalidParameterError
from repro.service import (
    HttpFrontend,
    ServiceClient,
    StreamEngine,
    StreamServer,
)
from repro.service.errors import (
    EmptyStreamError,
    ServiceError,
    UnknownStreamError,
)
from repro.service.http import MAX_HEADER_BYTES, PROTO_HTTP


@pytest.fixture()
def stack():
    """One engine fronted by both a TCP server and the REST facade."""
    engine = StreamEngine()
    server = StreamServer(engine).start_in_background()
    front = HttpFrontend(engine, cluster=None).start_in_background()
    try:
        yield engine, server, front
    finally:
        front.stop()
        server.stop()
        engine.close()


def _raw(front, method, path, body=None, headers=None):
    """One raw HTTP round trip; returns (status, headers, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", front.port, timeout=10.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), json.loads(data)
    finally:
        conn.close()


def _segments(histogram):
    return [[s.beg, s.end, s.left, s.right] for s in histogram.segments]


class TestRestSurface:
    def test_meta_reports_capability_matrix(self, stack):
        _engine, _server, front = stack
        status, _headers, body = _raw(front, "GET", "/v1/meta")
        assert status == 200 and body["ok"]
        assert body["server"]["name"] == "repro-histogram"
        assert body["server"]["protocols"] == [PROTO_HTTP]
        assert body["server"]["cluster"] is False
        from repro import api

        assert body["methods"] == api.methods()
        assert any("append" in e for e in body["endpoints"])

    def test_json_append_query_stats_checkpointless(self, stack):
        _engine, _server, front = stack
        values = [4095.0] + [float(i % 4096) for i in range(499)]
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/sku-1:append?method=min-merge&buckets=16",
            body=json.dumps(values),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200 and body["accepted"] == 500
        status, _h, body = _raw(
            front, "GET", "/v1/streams/-/sku-1/histogram?drain=1"
        )
        assert status == 200
        oracle = summarize(values, 16, method="min-merge")
        served = body["histogram"]
        assert served["error"] == oracle.error
        status, _h, body = _raw(front, "GET", "/v1/streams/-/sku-1/stats")
        assert status == 200 and body["stats"]["items_seen"] == 500
        status, _h, body = _raw(front, "GET", "/v1/streams")
        assert body["streams"] == ["sku-1"]

    def test_json_object_body_carries_config(self, stack):
        _engine, _server, front = stack
        document = {"values": [1, 2, 3], "method": "min-merge", "buckets": 4}
        status, _h, body = _raw(
            front, "POST", "/v1/streams/-/obj:append", body=json.dumps(document)
        )
        assert status == 200 and body["accepted"] == 3

    def test_tenant_prefix_addresses_namespaced_stream(self, stack):
        engine, _server, front = stack
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/acme/sku:append?method=min-merge&buckets=4",
            body=json.dumps([1.0, 2.0]),
        )
        assert status == 200
        assert body["stream"] == "acme/sku"
        assert "acme/sku" in engine.streams()

    def test_octet_stream_append_is_bit_identical_across_transports(
        self, stack
    ):
        """REST raw-float64, binary TCP, and the oracle all agree."""
        _engine, server, front = stack
        values = np.asarray(
            [4095.0] + [float((37 * j) % 4096) for j in range(1, 800)]
        )
        half = len(values) // 2
        # First half over REST as raw little-endian float64 bytes ...
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/mix:append?method=min-merge&buckets=16",
            body=values[:half].tobytes(),
            headers={"Content-Type": "application/octet-stream"},
        )
        assert status == 200 and body["accepted"] == half
        # ... second half over the negotiated binary TCP transport.
        with ServiceClient(port=server.port) as tcp:
            assert tcp.info.proto == 2
            assert tcp.append("mix", values[half:]).accepted == len(values) - half
            via_tcp = tcp.query("mix", drain=True).histogram
        with ServiceClient.from_url(f"http://127.0.0.1:{front.port}") as rest:
            via_rest = rest.query("mix", drain=True).histogram
        oracle = summarize(values, 16, method="min-merge")
        assert _segments(via_rest) == _segments(via_tcp) == _segments(oracle)
        assert via_rest.error == via_tcp.error == oracle.error

    def test_checkpoint_routes(self, stack, tmp_path):
        engine = StreamEngine(checkpoint_dir=tmp_path)
        front = HttpFrontend(engine).start_in_background()
        try:
            _raw(
                front,
                "POST",
                "/v1/streams/-/d:append?method=min-merge&buckets=4",
                body=json.dumps([1, 2, 3]),
            )
            status, _h, body = _raw(
                front, "POST", "/v1/streams/-/d:checkpoint"
            )
            assert status == 200 and body["generations"]["d"] >= 1
            status, _h, body = _raw(front, "POST", "/v1/streams:checkpoint")
            assert status == 200 and "d" in body["generations"]
        finally:
            front.stop()
            engine.close()


class TestErrorMapping:
    def test_unknown_stream_is_404(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(front, "GET", "/v1/streams/-/nope/histogram")
        assert status == 404
        assert body == {
            "ok": False,
            "error": "unknown-stream",
            "message": body["message"],
        }
        assert "nope" in body["message"]

    def test_unknown_route_is_404_unknown_op(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(front, "GET", "/v1/does-not-exist")
        assert status == 404 and body["error"] == "unknown-op"

    def test_method_mismatch_is_405_with_allow(self, stack):
        _engine, _server, front = stack
        status, headers, body = _raw(front, "GET", "/v1/streams/-/x:append")
        assert status == 405
        assert headers["Allow"] == "POST"
        assert body["error"] == "bad-request"

    def test_malformed_json_body_is_400(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(
            front, "POST", "/v1/streams/-/x:append", body=b"not json"
        )
        assert status == 400 and body["error"] == "bad-request"

    def test_ragged_octet_stream_is_400(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/x:append",
            body=b"\x00" * 11,  # not a whole number of float64s
            headers={"Content-Type": "application/octet-stream"},
        )
        assert status == 400 and body["error"] == "bad-request"

    def test_non_finite_values_rejected_400(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/x:append?method=min-merge&buckets=4",
            body=json.dumps([1.0, float("inf")]).replace("Infinity", "1e999"),
        )
        assert status == 400

    def test_empty_stream_is_409(self, stack):
        _engine, _server, front = stack
        _raw(
            front,
            "POST",
            "/v1/streams/-/e:append?method=min-merge&buckets=4",
            body=json.dumps([]),
        )
        status, _h, body = _raw(front, "GET", "/v1/streams/-/e/histogram")
        assert status == 409 and body["error"] == "empty"

    def test_cluster_routes_404_on_single_server(self, stack):
        _engine, _server, front = stack
        status, _h, body = _raw(front, "GET", "/v1/cluster")
        assert status == 404 and body["error"] == "unknown-op"

    def test_backpressure_is_429_with_retry_after(self, apply_stall):
        engine = StreamEngine(max_pending=10, apply_hook=apply_stall)
        front = HttpFrontend(engine).start_in_background()
        held = threading.Thread(
            target=_raw,
            args=(
                front,
                "POST",
                "/v1/streams/-/b:append?method=min-merge&buckets=4",
            ),
            kwargs={"body": json.dumps(list(range(8)))},
        )
        try:
            held.start()
            assert apply_stall.entered.wait(10.0)
            status, headers, body = _raw(
                front,
                "POST",
                "/v1/streams/-/b:append",
                body=json.dumps(list(range(8))),
            )
            assert status == 429
            assert body["error"] == "backpressure"
            assert headers["Retry-After"] == "1"
            apply_stall.gate.set()
            held.join(10.0)
            assert engine.items_seen("b") == 8
        finally:
            apply_stall.gate.set()
            front.stop()
            engine.close()


class TestAppendValidation:
    """Values and stream sizes are checked before anything is journaled."""

    def test_out_of_universe_append_is_400_and_never_journaled(
        self, tmp_path
    ):
        engine = StreamEngine(checkpoint_dir=tmp_path)
        front = HttpFrontend(engine).start_in_background()
        try:
            status, _h, _b = _raw(
                front,
                "POST",
                "/v1/streams/-/u:append?method=min-increment&buckets=4"
                "&universe=16",
                body=json.dumps([1, 5, 7]),
            )
            assert status == 200
            before = engine.histogram("u")
            status, _h, reply = _raw(
                front, "POST", "/v1/streams/-/u:append", body="[3, 99]"
            )
            assert status == 400 and reply["error"] == "invalid"
            assert "outside universe" in reply["message"]
            assert engine.items_seen("u") == 3
        finally:
            front.stop()
            engine.close()
        with StreamEngine(checkpoint_dir=tmp_path) as fresh:
            recovered = fresh.histogram("u")
            assert recovered.segments == before.segments
            assert recovered.error == before.error
            assert fresh.items_seen("u") == 3

    def test_configless_append_recovers_released_stream(self, tmp_path):
        values = [(37 * i + (i * i) % 11) % 512 for i in range(110)]
        oracle = summarize(values, 8, method="min-merge")
        engine = StreamEngine(checkpoint_dir=tmp_path)
        front = HttpFrontend(engine).start_in_background()
        try:
            status, _h, _b = _raw(
                front,
                "POST",
                "/v1/streams/-/r:append?method=min-merge&buckets=8",
                body=json.dumps(values[:100]),
            )
            assert status == 200
            engine.release("r")
            status, _h, reply = _raw(
                front,
                "POST",
                "/v1/streams/-/r:append?method=min-increment",
                body="[1]",
            )
            assert status == 400 and reply["error"] == "invalid"
            assert "r" not in engine.streams()
            status, _h, _b = _raw(
                front,
                "POST",
                "/v1/streams/-/r:append",
                body=json.dumps(values[100:]),
            )
            assert status == 200
            live = engine.histogram("r")
        finally:
            front.stop()
            engine.close()
        assert live.meta.items_seen == 110
        assert _segments(live) == _segments(oracle)
        with StreamEngine(checkpoint_dir=tmp_path) as fresh:
            assert _segments(fresh.histogram("r")) == _segments(oracle)

    @pytest.mark.parametrize(
        "body",
        ["[1, null]", "[[1, 2]]", "[" + "9" * 400 + "]", "[true]"],
        ids=["null", "nested", "huge-int", "bool"],
    )
    def test_bad_values_are_400_and_never_journaled(self, tmp_path, body):
        engine = StreamEngine(checkpoint_dir=tmp_path)
        front = HttpFrontend(engine).start_in_background()
        try:
            status, _h, _b = _raw(
                front,
                "POST",
                "/v1/streams/-/v:append?method=min-merge&buckets=4",
                body=json.dumps([1, 2]),
            )
            assert status == 200
            status, _h, reply = _raw(
                front, "POST", "/v1/streams/-/v:append", body=body
            )
            assert status == 400 and reply["error"] == "invalid"
            assert engine.items_seen("v") == 2
            status, _h, _b = _raw(front, "GET", "/v1/streams/-/v/histogram")
            assert status == 200
        finally:
            front.stop()
            engine.close()
        recovered = StreamEngine(checkpoint_dir=tmp_path)
        try:
            assert recovered.histogram("v").meta.items_seen == 2
        finally:
            recovered.close()

    @pytest.mark.parametrize("buckets", [2.5, True])
    @pytest.mark.parametrize("transport", ["binary", "rest"])
    def test_non_integer_buckets_rejected(self, stack, transport, buckets):
        engine, server, front = stack
        if transport == "binary":
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.append(
                        "b", [1, 2], method="min-merge", buckets=buckets
                    )
            assert excinfo.value.code == "invalid"
        else:
            document = {"values": [1, 2], "method": "min-merge",
                        "buckets": buckets}
            status, _h, reply = _raw(
                front, "POST", "/v1/streams/-/b:append",
                body=json.dumps(document),
            )
            assert status == 400 and reply["error"] == "invalid"
        assert "b" not in engine.streams()

    def test_integer_sizes_accept_numpy_and_reject_floats(self):
        build_summary("min-merge", buckets=np.int64(4))
        build_summary(
            "min-increment", buckets=4, universe=np.int32(64), window=8
        )
        for kwargs in (
            {"buckets": 4.0},
            {"buckets": 4, "universe": 64.0},
            {"buckets": 4, "window": False},
        ):
            with pytest.raises(InvalidParameterError, match="integer"):
                build_summary("min-increment", **kwargs)


class TestHostileInput:
    """Requests built to pin a thread or grow memory are cut off early."""

    @pytest.mark.parametrize("epsilon", [1e-17, 1e-9])
    @pytest.mark.parametrize("transport", ["binary", "rest"])
    def test_tiny_epsilon_is_invalid_within_a_second(
        self, stack, transport, epsilon
    ):
        engine, server, front = stack
        if transport == "binary":
            client = ServiceClient(port=server.port, timeout=1.0)
        else:
            client = ServiceClient.from_url(
                f"http://127.0.0.1:{front.port}", timeout=1.0
            )
        with client:
            for method in ("min-increment", "pwl"):
                started = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.append("e", [1, 2], method=method, epsilon=epsilon)
                assert excinfo.value.code == "invalid"
                assert time.monotonic() - started < 1.0
            assert client.ping()
        assert "e" not in engine.streams()

    def test_oversized_header_section_is_one_400_then_eof(self, stack):
        _engine, _server, front = stack
        pad = "X-Pad: " + "a" * 1000 + "\r\n"
        lines = MAX_HEADER_BYTES // len(pad) + 2
        request = (
            "GET /v1/meta HTTP/1.1\r\nHost: test\r\n" + pad * lines + "\r\n"
        ).encode("latin-1")
        with socket.create_connection(("127.0.0.1", front.port), 5.0) as sock:
            sock.sendall(request)
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert received.count(b"HTTP/1.1 ") == 1
        assert json.loads(body)["error"] == "bad-request"


class TestIdempotencyKey:
    def test_replay_returns_cached_ack_without_reapplying(self, stack):
        engine, _server, front = stack
        headers = {"Idempotency-Key": "batch-7"}
        status, h1, body1 = _raw(
            front,
            "POST",
            "/v1/streams/-/idem:append?method=min-merge&buckets=4",
            body=json.dumps([1, 2, 3]),
            headers=headers,
        )
        assert status == 200 and body1["accepted"] == 3
        assert "Idempotency-Replayed" not in h1
        status, h2, body2 = _raw(
            front,
            "POST",
            "/v1/streams/-/idem:append?method=min-merge&buckets=4",
            body=json.dumps([1, 2, 3]),
            headers=headers,
        )
        assert status == 200
        assert h2["Idempotency-Replayed"] == "true"
        assert body2["accepted"] == 3
        engine.drain()
        assert engine.items_seen("idem") == 3  # applied once, not twice

    def test_failed_append_is_not_cached(self, stack):
        engine, _server, front = stack
        headers = {"Idempotency-Key": "k1"}
        status, _h, _b = _raw(
            front, "POST", "/v1/streams/-/f:append",
            body=b"not json", headers=headers,
        )
        assert status == 400
        status, _h, body = _raw(
            front,
            "POST",
            "/v1/streams/-/f:append?method=min-merge&buckets=4",
            body=json.dumps([5]),
            headers=headers,
        )
        assert status == 200 and body["accepted"] == 1


class TestTypedClientOverRest:
    def test_from_url_schemes(self, stack):
        _engine, server, front = stack
        with ServiceClient.from_url(f"tcp://127.0.0.1:{server.port}") as c:
            assert c.info.proto == 2
        with ServiceClient.from_url(
            f"tcp://127.0.0.1:{server.port}?transport=binary"
        ) as c:
            assert c.info.proto == 2
        with pytest.raises(InvalidParameterError, match="protocol 1"):
            ServiceClient.from_url(
                f"tcp://127.0.0.1:{server.port}?transport=json"
            )
        with ServiceClient.from_url(f"127.0.0.1:{server.port}") as c:
            assert c.info.proto == 2  # bare host:port counts as tcp://
        with ServiceClient.from_url(f"http://127.0.0.1:{front.port}") as c:
            assert c.info.proto == PROTO_HTTP
            assert c.info.server == "repro-histogram"
        with pytest.raises(InvalidParameterError):
            ServiceClient.from_url("ftp://127.0.0.1:1")
        with pytest.raises(InvalidParameterError):
            ServiceClient.from_url("http://127.0.0.1")  # no port

    def test_typed_methods_and_errors_over_rest(self, stack):
        _engine, _server, front = stack
        client = ServiceClient.from_url(f"http://127.0.0.1:{front.port}")
        try:
            assert client.ping()
            result = client.append(
                "t", np.arange(10.0), method="min-merge", buckets=4
            )
            assert result.accepted == 10
            assert client.query("t", drain=True).histogram.meta.items_seen == 10
            assert client.stats("t")["items_seen"] == 10
            assert client.streams() == ("t",)
            with pytest.raises(UnknownStreamError) as excinfo:
                client.query("missing")
            assert excinfo.value.code == "unknown-stream"
            client.append("e2", [], method="min-merge", buckets=4)
            with pytest.raises(EmptyStreamError):
                client.query("e2")
            with pytest.raises(ServiceError) as excinfo:
                client.checkpoint("t")  # no checkpoint store
            assert excinfo.value.code == "invalid"
            with pytest.raises(TypeError, match="transport.call"):
                client.request({"op": "streams"})
        finally:
            client.close()

    def test_close_is_idempotent_over_every_scheme(self, stack):
        _engine, server, front = stack
        for url in (
            f"tcp://127.0.0.1:{server.port}",
            f"http://127.0.0.1:{front.port}",
        ):
            client = ServiceClient.from_url(url)
            client.close()
            client.close()  # second close is a no-op


class TestSessionErgonomics:
    def test_stream_handle_context_manager_checkpoints(self, tmp_path):
        from repro.service import Session

        with Session(checkpoint_dir=tmp_path) as session:
            with session.stream("cm", method="min-merge", buckets=4) as handle:
                handle.append([1.0, 2.0, 3.0])
                session.engine.drain()
            # __exit__ checkpointed the durable stream.
            stats = session.stats()
            assert stats["streams"]["cm"]["checkpoints"] >= 1
            handle.close()  # idempotent

    def test_session_close_is_idempotent(self):
        from repro.service import Session

        session = Session()
        session.stream("x", method="min-merge", buckets=4)
        session.close()
        session.close()

    def test_backpressure_error_typed_over_rest(self, apply_stall):
        engine = StreamEngine(max_pending=10, apply_hook=apply_stall)
        front = HttpFrontend(engine).start_in_background()
        url = f"http://127.0.0.1:{front.port}"
        try:
            with ServiceClient.from_url(url) as first, \
                    ServiceClient.from_url(url) as second:
                held = threading.Thread(
                    target=first.append,
                    args=("bp", list(range(8))),
                    kwargs={"method": "min-merge", "buckets": 4},
                )
                held.start()
                assert apply_stall.entered.wait(10.0)
                with pytest.raises(BackpressureError):
                    second.append("bp", list(range(8)))
                apply_stall.gate.set()
                held.join(10.0)
        finally:
            apply_stall.gate.set()
            front.stop()
            engine.close()
