"""Tests for the multi-tenant service layer (engine, session, server).

Covers the service contracts documented in ``docs/SERVICE.md``:

* engine equivalence -- a stream fed through :class:`StreamEngine` (with
  mid-run checkpoint + recovery and concurrent queries) produces a final
  histogram bit-identical to one-shot ``summarize()``;
* snapshot isolation -- under concurrent writers and readers, every
  histogram returned equals a serial replay of some whole prefix of the
  applied batches (never a half-applied batch);
* admission control -- an append beyond the in-flight bound raises
  :class:`BackpressureError` without ingesting anything;
* ack means durable -- every acknowledged append survives a restart,
  including appends to a stream re-created after ``release``, and a
  batch with a value outside the stream's universe is rejected whole;
* crash recovery -- a fault injected mid-checkpoint loses nothing: a new
  engine over the same directory resumes bit-exactly;
* the binary TCP and REST fronts and their shared error codes.
"""

import itertools
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro import checkpoint
from repro.api import build_summary, methods, summarize
from repro.core.min_merge import MinMergeHistogram
from repro.core.pwl_min_merge import PwlMinMergeHistogram
from repro.exceptions import (
    BackpressureError,
    DomainError,
    EmptySummaryError,
    InjectedFaultError,
    InvalidParameterError,
    UnknownStreamError,
)
from repro.observability.metrics import MetricsRegistry
from repro.parallel import ParallelSummarizer
from repro.resilience import FaultPlan, ItemJournal
from repro.resilience.store import _state_crc
from repro.service import (
    HttpFrontend,
    ServiceClient,
    ServiceError,
    Session,
    StreamEngine,
    StreamServer,
    wire,
)
from repro.service.engine import _MANIFEST, _tenant_dirname


def _dataset(n=4000, universe=512):
    return [(37 * i + (i * i) % 11) % universe for i in range(n)]


def _same_histogram(a, b):
    return a.segments == b.segments and a.error == b.error


STREAMING = [name for name, caps in methods().items() if caps["streaming"]]


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", STREAMING)
    def test_engine_matches_oneshot_summarize(self, method, tmp_path):
        """Checkpoint + recover mid-run, query concurrently, finish: the
        final histogram must be bit-identical to serial summarize()."""
        values = _dataset()
        oracle = summarize(values, 16, method=method)

        engine = StreamEngine(checkpoint_dir=tmp_path)
        handle = engine.stream(
            "t", method=method, buckets=16, universe=512
        )
        handle.append(values[:1000])
        engine.drain()
        handle.checkpoint()
        handle.append(values[1000:2500])
        engine.drain()
        mid = handle.histogram()  # concurrent-ish query mid-run
        assert mid.meta.items_seen == 2500
        engine.close()

        # Simulated restart: recover from snapshot + journal tail.
        engine2 = StreamEngine(checkpoint_dir=tmp_path)
        handle2 = engine2.stream(
            "t", method=method, buckets=16, universe=512
        )
        assert handle2.stats()["recovered"]
        assert handle2.items_seen == 2500
        handle2.append(values[2500:])
        final = handle2.histogram()
        engine2.close()

        assert _same_histogram(final, oracle)
        assert final.meta.method == method
        assert final.meta.items_seen == len(values)

    def test_attach_matches_direct_summary(self):
        values = _dataset(1500)
        direct = build_summary("min-merge", buckets=8)
        direct.extend(values)
        with Session() as session:
            handle = session.attach(
                "adopted", build_summary("min-merge", buckets=8)
            )
            handle.append(values)
            assert _same_histogram(handle.histogram(), direct.histogram())

    def test_windowed_stream_matches_windowed_summarize(self):
        values = _dataset(2000)
        oracle = summarize(values, 8, window=300)
        with Session() as session:
            handle = session.stream(
                "w", method="min-increment", buckets=8, universe=512,
                window=300,
            )
            handle.append(values)
            hist = handle.histogram()
        assert _same_histogram(hist, oracle)
        assert hist.meta.window == 300


class TestSnapshotIsolation:
    def test_concurrent_queries_see_whole_batch_prefixes(self, tmp_path):
        """N writers + M readers on one stream: every histogram returned
        must equal a serial replay of some prefix of the applied batches
        (the journal records the exact apply order)."""
        n_writers, batches_per_writer, batch_len = 3, 8, 50
        engine = StreamEngine(checkpoint_dir=tmp_path)
        handle = engine.stream(
            "s", method="min-merge", buckets=8, universe=1 << 10
        )
        counter = itertools.count()
        stop = threading.Event()
        captured, errors = [], []

        def writer(seed):
            for b in range(batches_per_writer):
                base = next(counter) * batch_len
                handle.append(
                    [(seed * 97 + base + i) % 1000 for i in range(batch_len)]
                )

        def reader():
            while not stop.is_set():
                try:
                    hist = handle.histogram()
                except EmptySummaryError:
                    continue
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)
                    return
                captured.append(hist)

        writers = [
            threading.Thread(target=writer, args=(w,))
            for w in range(n_writers)
        ]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        engine.drain()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert captured, "readers captured no histograms"

        # Reconstruct the applied batch order from the journal.
        applied = list(
            ItemJournal(
                os.path.join(os.fspath(tmp_path), _tenant_dirname("s"))
            ).replay()
        )
        total = sum(len(v) for _, v in applied)
        assert total == n_writers * batches_per_writer * batch_len
        boundaries = {0}
        flat, upto = [], {}
        for _, batch in applied:
            flat.extend(batch)
            boundaries.add(len(flat))
            upto[len(flat)] = None
        engine.close()

        for hist in captured:
            k = hist.meta.items_seen
            assert k in boundaries, (
                f"query saw {k} items, not a batch boundary"
            )
            replay = build_summary("min-merge", buckets=8, universe=1 << 10)
            replay.extend(flat[:k])
            assert _same_histogram(hist, replay.histogram())

    def test_queries_during_writes_never_crash(self):
        with Session() as session:
            handle = session.stream("q", method="min-increment", buckets=8)
            for chunk in range(20):
                handle.append(list(range(chunk * 10, chunk * 10 + 200)))
                try:
                    hist = handle.histogram()
                except EmptySummaryError:
                    continue
                assert hist.meta.items_seen % 200 == 0


class TestBackpressure:
    def test_full_queue_rejects_without_ingesting(self, apply_stall):
        """A second appender offered while the first is in flight is
        refused once the two together exceed ``max_pending``."""
        engine = StreamEngine(max_pending=100, apply_hook=apply_stall)
        handle = engine.stream("bp", method="min-merge", buckets=4)
        first = threading.Thread(
            target=handle.append, args=(list(range(80)),)
        )
        first.start()
        assert apply_stall.entered.wait(10.0)
        assert handle.stats()["pending_items"] == 80
        # 80 in flight + 40 offered > 100: rejected atomically.
        with pytest.raises(BackpressureError, match="in-flight bound"):
            handle.append(list(range(40)))
        stats = handle.stats()
        assert stats["rejected"] == 1
        assert stats["pending_items"] == 80
        apply_stall.gate.set()
        first.join(10.0)
        assert engine.drain(timeout=10.0)
        # Only the admitted batch was ingested; the reject tore nothing.
        assert handle.items_seen == 80
        assert handle.stats()["pending_items"] == 0
        engine.close()

    def test_batch_within_bound_waits_instead_of_failing(self, apply_stall):
        engine = StreamEngine(max_pending=100, apply_hook=apply_stall)
        handle = engine.stream("bp", method="min-merge", buckets=4)
        threads = [
            threading.Thread(target=handle.append, args=(list(range(40)),))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        assert apply_stall.entered.wait(10.0)
        apply_stall.gate.set()
        for thread in threads:
            thread.join(10.0)
        assert handle.items_seen == 80
        assert handle.stats()["rejected"] == 0
        engine.close()

    def test_idle_stream_admits_batch_larger_than_bound(self, tmp_path):
        values = _dataset(500)
        with StreamEngine(checkpoint_dir=tmp_path, max_pending=10) as engine:
            handle = engine.stream("big", method="min-merge", buckets=8)
            assert handle.append(values) == len(values)
            assert _same_histogram(
                handle.histogram(), summarize(values, 8, method="min-merge")
            )

    def test_failed_apply_releases_its_admission(self, tmp_path):
        engine = StreamEngine(
            checkpoint_dir=tmp_path,
            max_pending=10,
            fault_plan=FaultPlan.crash_at("journal.append", 1),
        )
        handle = engine.stream("f", method="min-merge", buckets=4)
        with pytest.raises(InjectedFaultError):
            handle.append(list(range(8)))
        stats = handle.stats()
        assert stats["pending_items"] == 0
        assert stats["errors"] == 1
        assert "InjectedFaultError" in stats["last_error"]
        assert engine.drain(timeout=1.0)
        engine.close()

    def test_concurrent_appenders_keep_admission_exact(self):
        """More appenders than cores on one stream, with a short switch
        interval: a lost update to the in-flight count would leave it
        non-zero or lose items."""
        n_threads, batches, batch_len = 8, 40, 25
        engine = StreamEngine(max_pending=3 * batch_len)
        handle = engine.stream("st", method="min-merge", buckets=8)
        rejected = []

        def appender(seed):
            for b in range(batches):
                batch = [(seed * 31 + b + i) % 997 for i in range(batch_len)]
                while True:
                    try:
                        handle.append(batch)
                        break
                    except BackpressureError:
                        rejected.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=appender, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = handle.stats()
        assert stats["pending_items"] == 0
        assert stats["items_seen"] == n_threads * batches * batch_len
        assert stats["appends"] == n_threads * batches
        assert stats["rejected"] == len(rejected)
        engine.close()

    def test_zero_length_append_is_free(self):
        with Session() as session:
            handle = session.stream("z", method="min-merge", buckets=4)
            assert handle.append([]) == 0
            assert handle.items_seen == 0


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "point", ["snapshot.tmp-write", "snapshot.rename", "snapshot.fsync"]
    )
    def test_kill_during_checkpoint_recovers_bit_exactly(
        self, point, tmp_path
    ):
        values = _dataset(3000)
        oracle = summarize(values, 8, method="min-merge")
        engine = StreamEngine(
            checkpoint_dir=tmp_path,
            fault_plan=FaultPlan.crash_at(point, 1),
        )
        try:
            handle = engine.stream("c", method="min-merge", buckets=8)
            handle.append(values[:1800])
            with pytest.raises(InjectedFaultError):
                handle.checkpoint()
        finally:
            # The "crashed" engine's open files die with its process;
            # close() only releases them (it writes no snapshot).
            engine.close()
        # A new engine recovers everything from the journal (no snapshot
        # ever committed cleanly).
        engine2 = StreamEngine(checkpoint_dir=tmp_path)
        handle2 = engine2.stream("c", method="min-merge", buckets=8)
        assert handle2.items_seen == 1800
        handle2.append(values[1800:])
        assert _same_histogram(handle2.histogram(), oracle)
        engine2.close()

    def test_periodic_checkpoints_fire_and_recover(self, tmp_path):
        values = _dataset(2600)
        engine = StreamEngine(checkpoint_dir=tmp_path, checkpoint_every=500)
        handle = engine.stream("p", method="min-increment", buckets=8)
        for i in range(0, 2600, 200):
            handle.append(values[i : i + 200])
        stats = handle.stats()
        # 200-item batches cross the 500-item cadence every 600 items:
        # snapshots at 600/1200/1800/2400 applied.
        assert stats["checkpoints"] == 4
        assert stats["last_generation"] is not None
        engine.close()
        engine2 = StreamEngine(checkpoint_dir=tmp_path)
        assert engine2.stream("p", method="min-increment",
                              buckets=8).items_seen == 2600
        engine2.close()

    def test_manifest_written_per_stream(self, tmp_path):
        engine = StreamEngine(checkpoint_dir=tmp_path)
        engine.stream("m/1", method="min-merge", buckets=4).append([1, 2])
        path = os.path.join(
            os.fspath(tmp_path), _tenant_dirname("m/1"), _MANIFEST
        )
        with open(path) as fh:
            manifest = json.load(fh)
        assert manifest["stream_id"] == "m/1"
        assert manifest["method"] == "min-merge"
        engine.close()


class TestAckMeansDurable:
    """An acknowledged append is journaled and applied; a refused one
    leaves no trace, in memory or on disk."""

    def test_out_of_universe_batch_is_rejected_whole(self, tmp_path):
        with StreamEngine(checkpoint_dir=tmp_path) as engine:
            handle = engine.stream(
                "u", method="min-increment", buckets=4, universe=16
            )
            handle.append([1, 5, 7])
            before = handle.histogram()
            with pytest.raises(DomainError, match=r"99\.0 outside universe"):
                handle.append([3, 99])
            assert handle.items_seen == 3
            assert handle.stats()["pending_items"] == 0
        with StreamEngine(checkpoint_dir=tmp_path) as fresh:
            assert _same_histogram(fresh.histogram("u"), before)
            assert fresh.items_seen("u") == 3

    def test_out_of_universe_append_is_invalid_over_binary(self, tmp_path):
        engine = StreamEngine(checkpoint_dir=tmp_path)
        server = StreamServer(engine).start_in_background()
        try:
            with ServiceClient(port=server.port) as client:
                client.append(
                    "u", [1, 5, 7], method="min-increment", buckets=4,
                    universe=16,
                )
                before = client.query("u").histogram
                with pytest.raises(ServiceError) as excinfo:
                    client.append("u", [3, 99])
                assert excinfo.value.code == "invalid"
                assert client.stats("u")["items_seen"] == 3
        finally:
            server.stop()
            engine.close()
        with StreamEngine(checkpoint_dir=tmp_path) as fresh:
            assert _same_histogram(fresh.histogram("u"), before)
            assert fresh.items_seen("u") == 3

    def test_stream_recreated_after_release_keeps_acked_appends(
        self, tmp_path
    ):
        values = _dataset(110)
        oracle = summarize(values, 8, method="min-merge")
        engine = StreamEngine(checkpoint_dir=tmp_path)
        server = StreamServer(engine).start_in_background()
        try:
            with ServiceClient(port=server.port) as client:
                client.append("r", values[:100], method="min-merge", buckets=8)
                client.transport.call({"op": "release", "stream": "r"})
                client.append("r", values[100:], method="min-merge", buckets=8)
                live = client.query("r").histogram
        finally:
            server.stop()
            engine.close()
        assert live.meta.items_seen == 110
        assert _same_histogram(live, oracle)
        with StreamEngine(checkpoint_dir=tmp_path) as fresh:
            assert _same_histogram(fresh.histogram("r"), oracle)
            assert fresh.items_seen("r") == 110

    def test_recreate_after_release_checks_method(self, tmp_path):
        with StreamEngine(checkpoint_dir=tmp_path) as engine:
            engine.stream("r", method="min-merge", buckets=8).append([1, 2])
            engine.release("r")
            with pytest.raises(InvalidParameterError, match="already exists"):
                engine.stream("r", method="min-increment", buckets=8)
            # The refused request changed nothing ...
            assert "r" not in engine.streams()
            # ... and a config-less handle recovers it whatever its method.
            assert engine.handle("r").method == "min-merge"
            assert engine.items_seen("r") == 2

    def test_configless_append_recovers_released_stream_over_binary(
        self, tmp_path
    ):
        values = _dataset(110)
        oracle = summarize(values, 8, method="min-merge")
        engine = StreamEngine(checkpoint_dir=tmp_path)
        server = StreamServer(engine).start_in_background()
        try:
            with ServiceClient(port=server.port) as client:
                client.append("r", values[:100], method="min-merge", buckets=8)
                client.transport.call({"op": "release", "stream": "r"})
                with pytest.raises(ServiceError) as excinfo:
                    client.append("r", [1], method="min-increment")
                assert excinfo.value.code == "invalid"
                assert "r" not in engine.streams()
                client.append("r", values[100:])
                live = client.query("r").histogram
        finally:
            server.stop()
            engine.close()
        assert live.meta.items_seen == 110
        assert _same_histogram(live, oracle)
        with StreamEngine(checkpoint_dir=tmp_path) as fresh:
            assert _same_histogram(fresh.histogram("r"), oracle)

    def test_append_offered_during_release_is_refused(
        self, tmp_path, apply_stall
    ):
        """release() fences the stream before it waits: an append offered
        while one is in flight fails with unknown stream and journals
        nothing, and the in-flight one lands in the final snapshot."""
        values = _dataset(60)
        engine = StreamEngine(checkpoint_dir=tmp_path, apply_hook=apply_stall)
        handle = engine.stream("r", method="min-merge", buckets=8)
        acked = []
        first = threading.Thread(
            target=lambda: acked.append(handle.append(values[:50]))
        )
        first.start()
        assert apply_stall.entered.wait(10.0)
        generations = []
        donor = threading.Thread(
            target=lambda: generations.append(engine.release("r"))
        )
        donor.start()
        deadline = time.monotonic() + 10.0
        while not engine._tenants["r"].released:
            assert time.monotonic() < deadline, "release never fenced"
            time.sleep(0.001)
        with pytest.raises(UnknownStreamError, match="released"):
            handle.append(values[50:])
        apply_stall.gate.set()
        first.join(10.0)
        donor.join(10.0)
        assert acked == [50]
        assert generations and generations[0] is not None
        assert "r" not in engine.streams()
        engine.close()
        with StreamEngine(checkpoint_dir=tmp_path) as fresh:
            assert fresh.items_seen("r") == 50
            assert _same_histogram(
                fresh.histogram("r"),
                summarize(values[:50], 8, method="min-merge"),
            )


class TestEngineApi:
    def test_stream_is_idempotent_but_conflicts_raise(self):
        with Session() as session:
            first = session.stream("a", method="min-merge", buckets=8)
            again = session.stream("a", method="min-merge", buckets=8)
            assert first.stream_id == again.stream_id
            with pytest.raises(InvalidParameterError, match="already exists"):
                session.stream("a", method="min-increment")

    def test_offline_method_cannot_back_a_stream(self):
        with Session() as session:
            with pytest.raises(InvalidParameterError, match="optimal"):
                session.stream("o", method="optimal")

    def test_unknown_stream_raises(self):
        with Session() as session:
            with pytest.raises(InvalidParameterError, match="unknown stream"):
                session.engine.histogram("nope")

    def test_stats_aggregate_across_streams(self):
        with Session() as session:
            session.stream("x", method="min-merge", buckets=4).append([1, 2])
            session.stream("y", method="min-merge", buckets=4).append([3])
            stats = session.stats()
            assert stats["stream_count"] == 2
            assert stats["items_seen"] == 3
            assert set(stats["streams"]) == {"x", "y"}

    def test_engine_metrics_per_tenant_prefix(self):
        engine = StreamEngine(metrics=True)
        engine.stream("m1", method="min-merge", buckets=4).append([1, 2, 3])
        stats = engine.stats()
        assert stats["metrics"]["counters"]["m1.inserts"] == 3
        engine.close()

    def test_closed_engine_refuses_appends(self):
        engine = StreamEngine()
        handle = engine.stream("c", method="min-merge", buckets=4)
        engine.close()
        with pytest.raises(InvalidParameterError, match="closed"):
            handle.append([1])

    def test_session_owns_private_engine_only(self):
        engine = StreamEngine()
        with Session(engine) as session:
            session.stream("s", method="min-merge", buckets=4).append([1])
        # Shared engine must survive the session.
        assert engine.items_seen("s") == 1
        engine.close()
        with pytest.raises(TypeError):
            Session(engine, metrics=True)

    @pytest.mark.parametrize("kwarg", ["workers", "journal"])
    def test_removed_engine_switches_raise_type_error(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            StreamEngine(**{kwarg: 1})
        with pytest.raises(TypeError, match=kwarg):
            Session(**{kwarg: 1})


class TestQueryCache:
    def test_query_cache_hits_between_writes(self):
        registry = MetricsRegistry()
        with StreamEngine(metrics=registry) as engine:
            handle = engine.stream("s", method="min-merge", buckets=8)
            handle.append(_dataset(500))
            first = engine.histogram("s")
            second = engine.histogram("s")
            assert list(first) == list(second)
            counters = registry.snapshot()["counters"]
            assert counters["s.query_cache_hits"] == 1
            assert counters["s.query_cache_misses"] == 1
            # A write starts a new epoch: the next query misses, then hits.
            handle.append([1, 2, 3])
            engine.histogram("s")
            engine.histogram("s")
            counters = registry.snapshot()["counters"]
            assert counters["s.query_cache_hits"] == 2
            assert counters["s.query_cache_misses"] == 2

    def test_cached_query_is_current_after_write(self):
        with StreamEngine() as engine:
            handle = engine.stream("s", method="min-merge", buckets=4)
            handle.append([1, 2, 3])
            stale = engine.histogram("s")
            handle.append([100, 200])
            fresh = engine.histogram("s")
            assert fresh.meta.items_seen == 5
            assert list(fresh) != list(stale) or len(fresh) != len(stale)

    def test_attached_streams_are_never_cached(self):
        summary = MinMergeHistogram(buckets=4)
        with StreamEngine() as engine:
            handle = engine.attach("s", summary, method="min-merge")
            handle.append([1, 2, 3])
            engine.histogram("s")
            # Out-of-band mutation the engine cannot see: an epoch-keyed
            # cache would serve a stale answer here.
            summary.insert(50)
            assert engine.histogram("s").meta.items_seen == 4


class TestLegacyBackendField:
    """Checkpoints and manifests may still carry ``"backend"``.

    Older releases recorded which of two bit-identical MIN-MERGE kernels
    a summary ran on (``"object"`` or ``"soa"``).  The bucket list is the
    whole state, so both values load onto the one kernel unchanged.
    """

    @pytest.mark.parametrize("backend", ["object", "soa"])
    @pytest.mark.parametrize("method", ["min-merge", "pwl-min-merge"])
    def test_state_dict_with_backend_restores_bit_identically(
        self, method, backend
    ):
        values = _dataset(1200)
        reference = build_summary(method, buckets=6)
        reference.extend(values[:700])
        state = checkpoint.state_dict(reference)
        assert "backend" not in state
        state["backend"] = backend
        restored = checkpoint.restore(state)
        assert checkpoint.state_dict(restored) == checkpoint.state_dict(
            reference
        )
        reference.extend(values[700:])
        restored.extend(values[700:])
        assert checkpoint.state_dict(restored) == checkpoint.state_dict(
            reference
        )

    @pytest.mark.parametrize("method", ["min-merge", "pwl-min-merge"])
    def test_engine_recovers_checkpoint_dir_marked_soa(self, method, tmp_path):
        values = _dataset(2000)
        with StreamEngine(checkpoint_dir=tmp_path) as engine:
            handle = engine.stream("s", method=method, buckets=8)
            handle.append(values[:1500])
            handle.checkpoint()
            handle.append(values[1500:])
            served = engine.histogram("s")
        directory = os.path.join(os.fspath(tmp_path), _tenant_dirname("s"))
        with open(os.path.join(directory, _MANIFEST)) as fh:
            assert "backend" not in json.load(fh)
        _inject_backend(directory, "soa")
        with StreamEngine(checkpoint_dir=tmp_path) as engine:
            stats = engine.stats("s")
            assert stats["items_seen"] == len(values)
            assert "backend" not in stats
            assert _same_histogram(engine.histogram("s"), served)
            generation = engine.checkpoint("s")["s"]
        path = os.path.join(directory, f"snapshot-{generation:08d}.json")
        with open(path) as fh:
            assert "backend" not in json.load(fh)["state"]

    def test_backend_config_key_is_ignored_over_both_transports(self):
        values = _dataset(1000)
        oracle = summarize(values, 8, method="min-merge")
        with StreamEngine() as engine:
            server = StreamServer(engine).start_in_background()
            front = HttpFrontend(engine).start_in_background()
            try:
                clients = {
                    "binary": ServiceClient(port=server.port),
                    "rest": ServiceClient.from_url(
                        f"http://127.0.0.1:{front.port}"
                    ),
                }
                for name, client in clients.items():
                    with client:
                        client.append(
                            name, values, method="min-merge", buckets=8,
                            backend="soa",
                        )
                        hist = client.query(name, drain=True).histogram
                        assert _same_histogram(hist, oracle)
                        assert "backend" not in client.stats(name)
            finally:
                front.stop()
                server.stop()

    def test_backend_keyword_is_gone_in_process(self):
        with pytest.raises(TypeError):
            MinMergeHistogram(buckets=4, backend="object")
        with pytest.raises(TypeError):
            PwlMinMergeHistogram(buckets=4, backend="object")
        with pytest.raises(TypeError):
            build_summary("min-merge", buckets=4, backend="object")
        with pytest.raises(TypeError):
            summarize([1, 2, 3], 2, method="min-merge", backend="object")
        with pytest.raises(TypeError):
            ParallelSummarizer("min-merge", buckets=4, summary_backend="object")
        with StreamEngine() as engine:
            with pytest.raises(TypeError):
                engine.stream("s", method="min-merge", backend="object")


def _inject_backend(directory, backend):
    """Rewrite a stream's manifest and snapshots as an older release
    wrote them: with a ``"backend"`` field (snapshot checksums redone)."""
    path = os.path.join(directory, _MANIFEST)
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["backend"] = backend
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    snapshots = [n for n in os.listdir(directory) if n.startswith("snapshot-")]
    assert snapshots
    for name in snapshots:
        path = os.path.join(directory, name)
        with open(path) as fh:
            envelope = json.load(fh)
        envelope["state"]["backend"] = backend
        envelope["checksum"] = _state_crc(envelope["state"])
        with open(path, "w") as fh:
            json.dump(envelope, fh)


class TestWireProtocol:
    """Service contracts, run over both client surfaces.

    The framing internals (frame layout, truncation, fragmentation)
    live in ``tests/test_wire.py``; this class pins the
    request/response semantics shared by binary TCP and REST.
    """

    @pytest.fixture(params=["binary", "rest"])
    def service(self, request):
        engine = StreamEngine()
        server = StreamServer(engine).start_in_background()
        front = HttpFrontend(engine).start_in_background()
        if request.param == "binary":
            client = ServiceClient(port=server.port)
        else:
            client = ServiceClient.from_url(f"http://127.0.0.1:{front.port}")
        yield client, engine, server
        client.close()
        front.stop()
        server.stop()
        engine.close()

    def test_append_query_roundtrip_matches_summarize(self, service):
        client, _engine, _server = service
        values = _dataset(2000)
        assert client.ping()
        result = client.append(
            "wire", values, method="min-merge", buckets=8
        )
        assert result.accepted == len(values)
        assert int(result) == len(values)
        assert result.stream == "wire"
        hist = client.query("wire", drain=True).histogram
        oracle = summarize(values, 8, method="min-merge")
        assert _same_histogram(hist, oracle)
        assert hist.meta.items_seen == len(values)
        assert hist.meta.method == "min-merge"

    def test_negotiated_transport_is_visible(self, service):
        client, _engine, _server = service
        info = client.info
        assert info.proto == client.transport.proto
        assert info.protocols == (info.proto,)
        assert info.server == "repro-histogram"
        assert info.wire_version == 1

    def test_scalar_and_ndarray_appends_unify(self, service):
        np = pytest.importorskip("numpy")
        client, _engine, _server = service
        assert client.append("u", 7.0, method="min-merge", buckets=4
                             ).accepted == 1
        assert client.append("u", [1, 2]).accepted == 2
        assert client.append("u", np.arange(3.0)).accepted == 3
        hist = client.query("u", drain=True).histogram
        assert hist.meta.items_seen == 6

    def test_stats_and_streams_ops(self, service):
        client, _engine, _server = service
        client.append("s1", [1, 2, 3], method="min-merge", buckets=4)
        stats = client.stats("s1")
        assert stats["appends"] == 1
        assert stats.get("method") == "min-merge"
        assert client.streams() == ("s1",)

    def test_request_shim_is_retired(self, service):
        client, _engine, _server = service
        # The v1 dict shim completed its deprecation window: it raises
        # TypeError naming the replacement, and sends nothing.
        with pytest.raises(TypeError, match="client.transport.call"):
            client.request({"op": "streams"})
        # Raw request objects still have an explicit escape hatch.
        client.append("d", [1, 2], method="min-merge", buckets=4)
        assert client.transport.call({"op": "streams"})["streams"] == ["d"]

    def test_error_codes(self, service):
        client, _engine, _server = service
        with pytest.raises(ServiceError) as excinfo:
            client.query("missing")
        assert excinfo.value.code == "unknown-stream"
        client.append("e", [], method="min-merge", buckets=4)
        with pytest.raises(ServiceError) as excinfo:
            client.query("e")
        assert excinfo.value.code == "empty"
        with pytest.raises(ServiceError) as excinfo:
            client.transport.call({"op": "does-not-exist"})
        assert excinfo.value.code == "unknown-op"
        with pytest.raises(ServiceError) as excinfo:
            client.checkpoint("e")
        assert excinfo.value.code == "invalid"  # no checkpoint store

    def test_non_finite_values_rejected(self, service):
        client, _engine, _server = service
        client.append("f", [1.0], method="min-merge", buckets=4)
        with pytest.raises(ServiceError) as excinfo:
            client.append("f", [2.0, float("nan")])
        assert excinfo.value.code in ("invalid", "bad-request")
        assert client.query("f", drain=True).histogram.meta.items_seen == 1

    def test_malformed_requests(self, service):
        client, _engine, server = service
        # A raw junk line on a fresh TCP connection: one error frame.
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10.0
        ) as raw:
            raw.sendall(b"this is not json\n")
            response = _read_error_frame(raw)
        assert response["error"] == "bad-request"
        assert "protocol 1" in response["message"]
        # An op-less payload sent raw through the transport is refused:
        # by the TCP server as bad-request, by the REST client (which
        # has no route for it) as unknown-op.
        with pytest.raises(ServiceError) as excinfo:
            client.transport.call({"no-op": 1})
        expected = "bad-request" if client.info.proto == 2 else "unknown-op"
        assert excinfo.value.code == expected

    def test_wire_backpressure_code(self, apply_stall):
        engine = StreamEngine(max_pending=10, apply_hook=apply_stall)
        server = StreamServer(engine).start_in_background()
        try:
            with ServiceClient(port=server.port) as first, \
                    ServiceClient(port=server.port) as second:
                engine.stream("b", method="min-merge", buckets=4)
                held = threading.Thread(
                    target=first.append, args=("b", list(range(8)))
                )
                held.start()
                assert apply_stall.entered.wait(10.0)
                with pytest.raises(BackpressureError):
                    second.append("b", list(range(8)))
                apply_stall.gate.set()
                held.join(10.0)
                assert engine.items_seen("b") == 8
        finally:
            apply_stall.gate.set()
            server.stop()
            engine.close()

    @pytest.mark.parametrize(
        "line",
        [b"{}\n", b'{"op":"ping"}\n', b'{"op":"hello","proto":[1,2]}\n'],
        ids=["empty-object", "ping", "hello"],
    )
    def test_legacy_json_line_gets_one_error_frame_then_eof(self, line):
        engine = StreamEngine()
        server = StreamServer(engine).start_in_background()
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=1.0
            ) as raw:
                raw.sendall(line)
                response = _read_error_frame(raw)
                assert response["error"] == "bad-request"
                assert "protocol 1" in response["message"]
                assert raw.recv(1) == b""  # closed, not hung
        finally:
            server.stop()
            engine.close()

    def test_json_valued_append_over_tcp_is_unknown_op(self):
        engine = StreamEngine()
        server = StreamServer(engine).start_in_background()
        try:
            with ServiceClient(port=server.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.transport.call(
                        {"op": "append", "stream": "j", "values": [1, 2],
                         "method": "min-merge", "buckets": 4}
                    )
                assert excinfo.value.code == "unknown-op"
                assert client.streams() == ()
        finally:
            server.stop()
            engine.close()

    def test_retired_transport_values_raise(self):
        for transport in ("json", "auto"):
            with pytest.raises(InvalidParameterError, match="protocol 1"):
                ServiceClient(port=1, transport=transport)


def _read_error_frame(sock) -> dict:
    """Read exactly one frame from a raw socket; it must be ``OP_ERR``."""
    buf = b""
    while len(buf) < wire.HEADER_BYTES:
        chunk = sock.recv(wire.HEADER_BYTES - len(buf))
        assert chunk, "connection closed before the error frame"
        buf += chunk
    opcode, length = wire.decode_header(buf)
    assert opcode == wire.OP_ERR
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        assert chunk, "connection closed mid-frame"
        payload += chunk
    return wire.decode_json_payload(payload)
