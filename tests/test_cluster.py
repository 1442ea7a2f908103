"""Tests for the sharded cluster layer (``docs/CLUSTER.md``).

Covers the routing and durability invariants the cluster is built on:

* consistent-hash ring -- placement is a pure deterministic function of
  the key (stable across ring objects and across processes, pinned by a
  golden hash value); removing a node moves *only* that node's keys
  (~1/N of the total), and no key ever maps to two nodes;
* engine adopt/release -- two engines over one shared checkpoint root
  can pass a stream between them bit-exactly, and a survivor can adopt
  a dead engine's stream from disk alone;
* router integration -- a multi-process cluster serves histograms
  bit-identical to one-shot ``summarize()``, across live handoff and
  across a SIGKILL'd worker whose streams a survivor adopts with zero
  acknowledged appends lost.
"""

import collections
import threading
import time

import pytest

from repro.api import summarize
from repro.exceptions import InvalidParameterError
from repro.service import ClusterRouter, ServiceClient, StreamEngine
from repro.service.cluster.rebalance import Rebalancer
from repro.service.cluster.ring import HashRing, stable_hash


def _dataset(n=3000, universe=512, seed=0):
    # First value pinned to universe-1 so summarize() infers the same
    # universe the service streams are configured with.
    return [universe - 1] + [
        (37 * i + 101 * seed + (i * i) % 89) % universe for i in range(1, n)
    ]


def _same_histogram(a, b):
    return a.segments == b.segments and a.error == b.error


# -- consistent-hash ring -----------------------------------------------------


class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # Golden value: blake2b is keyed by content only, so this must
        # never change across runs, machines, or PYTHONHASHSEED.
        assert stable_hash("load-0001") == 0x05C661D07C3EC8A4

    def test_placement_is_deterministic_across_ring_objects(self):
        keys = [f"stream-{i}" for i in range(500)]
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # construction order is irrelevant
        assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]

    def test_every_key_maps_to_exactly_one_node(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        for i in range(200):
            owner = ring.node_for(f"s{i}")
            assert owner in ring.nodes
            assert ring.node_for(f"s{i}") == owner  # no flapping

    def test_removal_moves_only_the_dead_nodes_keys(self):
        keys = [f"stream-{i}" for i in range(2000)]
        ring = HashRing(["w0", "w1", "w2", "w3"])
        before = {k: ring.node_for(k) for k in keys}
        shrunk = ring.without("w2")
        moved = 0
        for k in keys:
            after = shrunk.node_for(k)
            if before[k] == "w2":
                assert after != "w2"  # orphans must be re-homed
                moved += 1
            else:
                # The consistent-hash property: surviving keys stay put.
                assert after == before[k]
        # ~1/4 of the keys lived on w2; allow generous slack on 2000 keys.
        assert 0.15 <= moved / len(keys) <= 0.35

    def test_extend_is_inverse_of_without(self):
        ring = HashRing(["w0", "w1", "w2"])
        assert set(ring.without("w1").extend("w1").nodes) == set(ring.nodes)
        keys = [f"k{i}" for i in range(300)]
        rebuilt = ring.without("w1").extend("w1")
        assert [ring.node_for(k) for k in keys] == [
            rebuilt.node_for(k) for k in keys
        ]

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(["w0", "w1", "w2"], replicas=64)
        keys = [f"stream-{i}" for i in range(3000)]
        counts = collections.Counter(ring.node_for(k) for k in keys)
        assert set(counts) == {"w0", "w1", "w2"}
        for node in counts:
            assert counts[node] >= len(keys) // 10  # no starved node

    def test_empty_ring_rejected(self):
        with pytest.raises(InvalidParameterError):
            HashRing([])
        with pytest.raises(InvalidParameterError):
            HashRing(["w0"]).without("w0")


# -- engine adopt/release over a shared checkpoint root -----------------------


class TestAdoptRelease:
    def test_release_then_adopt_is_bit_exact(self, tmp_path):
        values = _dataset(2500)
        donor = StreamEngine(checkpoint_dir=tmp_path)
        taker = StreamEngine(
            checkpoint_dir=tmp_path, owns=lambda sid: False
        )
        try:
            handle = donor.stream(
                "s", method="min-merge", buckets=16, universe=512
            )
            handle.append(values[:2000])
            donor.release("s")
            assert "s" not in donor.streams()

            adopted = taker.adopt("s")
            assert adopted.items_seen == 2000
            adopted.append(values[2000:])
            taker.drain()
            served = taker.histogram("s")
            assert _same_histogram(served, summarize(values, 16, method="min-merge"))
        finally:
            donor.close()
            taker.close()

    def test_adopt_after_unclean_death_replays_journal(self, tmp_path):
        # Simulate a crash: the donor never releases (no final snapshot);
        # the survivor must recover snapshot + journal tail from disk.
        values = _dataset(2200)
        donor = StreamEngine(
            checkpoint_dir=tmp_path, checkpoint_every=500
        )
        handle = donor.stream("s", method="min-merge", buckets=16, universe=512)
        handle.append(values)
        donor.drain()
        expected = donor.histogram("s")
        # No close/release: drop the engine like a SIGKILL would.
        taker = StreamEngine(
            checkpoint_dir=tmp_path, owns=lambda sid: False
        )
        try:
            adopted = taker.adopt("s")
            assert adopted.items_seen == len(values)
            assert _same_histogram(taker.histogram("s"), expected)
        finally:
            taker.close()
            donor.close()

    def test_adopt_unknown_stream_rejected(self, tmp_path):
        engine = StreamEngine(checkpoint_dir=tmp_path)
        try:
            with pytest.raises(InvalidParameterError):
                engine.adopt("never-manifested")
        finally:
            engine.close()


# -- multi-process router integration -----------------------------------------


class TestClusterRouter:
    def test_cluster_serves_bit_identical_histograms(self, tmp_path):
        streams = {f"t{i}": _dataset(1200, seed=i) for i in range(6)}
        with ClusterRouter(tmp_path, workers=3) as router:
            owners = {sid: router.owner_of(sid) for sid in streams}
            # The ring should actually shard this workload.
            assert len(set(owners.values())) > 1
            with ServiceClient(port=router.port) as client:
                for sid, values in streams.items():
                    for lo in range(0, len(values), 400):
                        client.append(
                            sid,
                            values[lo : lo + 400],
                            method="min-merge",
                            buckets=16,
                            universe=512,
                        )
                for sid, values in streams.items():
                    served = client.query(sid, drain=True).histogram
                    oracle = summarize(values, 16, method="min-merge")
                    assert _same_histogram(served, oracle), sid
                    assert served.meta.items_seen == len(values)
                stats = client.stats().data
                assert stats["cluster"]["deaths"] == 0
                assert stats["stream_count"] == len(streams)

    def test_workers_apply_the_configured_max_pending(self, tmp_path):
        with ClusterRouter(tmp_path, workers=2, max_pending=1234) as router:
            replies = router.fan_out({"op": "stats"})
            assert sorted(replies) == ["w0", "w1"]
            for reply in replies.values():
                assert reply["stats"]["max_pending"] == 1234

    def test_handoff_preserves_stream_bit_exactly(self, tmp_path):
        values = _dataset(1800, seed=3)
        with ClusterRouter(tmp_path, workers=2) as router:
            with ServiceClient(port=router.port) as client:
                client.append(
                    "mv", values[:1000], method="min-merge",
                    buckets=16, universe=512,
                )
                source = router.owner_of("mv")
                target = next(
                    w for w in router.workers() if w != source
                )
                assert router.handoff("mv", target) == source
                assert router.owner_of("mv") == target
                client.append(
                    "mv", values[1000:], method="min-merge",
                    buckets=16, universe=512,
                )
                served = client.query("mv", drain=True).histogram
                assert _same_histogram(served, summarize(values, 16, method="min-merge"))
                assert client.stats().data["cluster"]["handoffs"] == 1

    def test_kill_worker_adoption_matches_serial_oracle(self, tmp_path):
        streams = {f"k{i}": _dataset(1000, seed=10 + i) for i in range(6)}
        with ClusterRouter(tmp_path, workers=3) as router:
            with ServiceClient(port=router.port) as client:
                for sid, values in streams.items():
                    client.append(
                        sid, values[:600], method="min-merge",
                        buckets=16, universe=512,
                    )
                client.query(next(iter(streams)), drain=True)
                victim = router.owner_of(next(iter(streams)))
                orphans = [
                    sid for sid in streams if router.owner_of(sid) == victim
                ]
                assert orphans
                router.kill_worker(victim)
                # An idempotent op (stats fan-out) trips death detection
                # and adoption; an *append* would instead surface
                # "unavailable", because appends are never auto-retried.
                client.stats()
                # With adoption complete and nothing in flight at kill
                # time, every further batch must land and the final
                # state must equal the serial oracle.
                for sid, values in streams.items():
                    client.append(
                        sid, values[600:], method="min-merge",
                        buckets=16, universe=512,
                    )
                for sid, values in streams.items():
                    served = client.query(sid, drain=True).histogram
                    assert _same_histogram(served, summarize(values, 16, method="min-merge")), sid
                    assert served.meta.items_seen == len(values)
                stats = client.stats().data["cluster"]
                assert stats["deaths"] == 1
                assert victim not in stats["workers"]
                for sid in orphans:
                    assert stats["adoptions"][sid] != victim


# -- self-healing: restart and ring growth -------------------------------------


class TestSelfHealing:
    def test_restart_worker_hands_streams_back(self, tmp_path):
        streams = {f"r{i}": _dataset(900, seed=20 + i) for i in range(6)}
        with ClusterRouter(tmp_path, workers=3) as router:
            with ServiceClient(port=router.port) as client:
                for sid, values in streams.items():
                    client.append(
                        sid, values[:500], method="min-merge",
                        buckets=16, universe=512,
                    )
                victim = router.owner_of(next(iter(streams)))
                natural = [
                    sid for sid in streams if router.owner_of(sid) == victim
                ]
                assert natural
                router.kill_worker(victim)
                # restart_worker detects the undetected crash itself:
                # adoption, re-spawn, ring extension, handoff home.
                result = router.restart_worker(victim)
                assert result["worker"] == victim
                assert set(result["moved"]) == set(natural)
                assert victim in router.workers()
                for sid in natural:
                    assert router.owner_of(sid) == victim
                # The handback dropped the pins: no overrides linger.
                assert not router._overrides
                for sid, values in streams.items():
                    client.append(
                        sid, values[500:], method="min-merge",
                        buckets=16, universe=512,
                    )
                for sid, values in streams.items():
                    served = client.query(sid, drain=True).histogram
                    oracle = summarize(values, 16, method="min-merge")
                    assert _same_histogram(served, oracle), sid
                    assert served.meta.items_seen == len(values)
                stats = client.stats().data["cluster"]
                assert stats["deaths"] == 1
                assert stats["restarts"] == 1

    def test_graceful_restart_is_not_a_death(self, tmp_path):
        values = _dataset(1200, seed=31)
        with ClusterRouter(tmp_path, workers=2) as router:
            with ServiceClient(port=router.port) as client:
                client.append(
                    "g", values[:700], method="min-merge",
                    buckets=16, universe=512,
                )
                owner = router.owner_of("g")
                # Rolling restart of a *live* worker: drain, recycle.
                router.restart_worker(owner)
                client.append(
                    "g", values[700:], method="min-merge",
                    buckets=16, universe=512,
                )
                served = client.query("g", drain=True).histogram
                assert _same_histogram(
                    served, summarize(values, 16, method="min-merge")
                )
                stats = client.stats().data["cluster"]
                assert stats["deaths"] == 0
                assert stats["restarts"] == 1

    def test_grow_migrates_only_minimal_keys(self, tmp_path):
        streams = {f"x{i}": _dataset(800, seed=40 + i) for i in range(8)}
        with ClusterRouter(tmp_path, workers=2) as router:
            with ServiceClient(port=router.port) as client:
                for sid, values in streams.items():
                    client.append(
                        sid, values[:400], method="min-merge",
                        buckets=16, universe=512,
                    )
                before = {sid: router.owner_of(sid) for sid in streams}
                result = router.grow(1)
                (joined,) = result["workers"]
                assert joined not in before.values()
                assert joined in router.workers()
                moved = set(result["moved"])
                for sid in streams:
                    after = router.owner_of(sid)
                    if sid in moved:
                        # Moved keys go only *to* the joining node.
                        assert after == joined
                    else:
                        # The consistent-hash property, live: everything
                        # else stays exactly where it was.
                        assert after == before[sid]
                for sid, values in streams.items():
                    client.append(
                        sid, values[400:], method="min-merge",
                        buckets=16, universe=512,
                    )
                for sid, values in streams.items():
                    served = client.query(sid, drain=True).histogram
                    oracle = summarize(values, 16, method="min-merge")
                    assert _same_histogram(served, oracle), sid
                stats = client.stats().data["cluster"]
                assert stats["grown"] == 1
                assert stats["deaths"] == 0


# -- load-driven auto-rebalancing ----------------------------------------------


class TestRebalancer:
    def test_rebalance_moves_hot_stream_off_most_loaded_worker(self, tmp_path):
        with ClusterRouter(tmp_path, workers=3) as router:
            with ServiceClient(port=router.port) as client:
                # Seed 9 small streams, then inflate every stream of one
                # worker so it is unambiguously the hottest.
                data = {}
                for i in range(9):
                    sid = f"h{i}"
                    data[sid] = _dataset(100, seed=50 + i)
                    client.append(
                        sid, data[sid], method="min-merge",
                        buckets=16, universe=512,
                    )
                by_owner = collections.Counter(
                    router.owner_of(sid) for sid in data
                )
                hot_worker = by_owner.most_common(1)[0][0]
                hot_streams = [
                    sid for sid in data if router.owner_of(sid) == hot_worker
                ]
                assert len(hot_streams) >= 2
                for sid in hot_streams:
                    extra = [v % 512 for v in range(700)]
                    data[sid] = data[sid] + extra
                    client.append(sid, extra)
                client.query(hot_streams[0], drain=True)

                rebalancer = Rebalancer(router, max_moves=1)
                worker_load, _weights, _owners = rebalancer.load_snapshot()
                assert max(worker_load, key=worker_load.get) == hot_worker
                moves = rebalancer.rebalance_once()
                assert len(moves) == 1
                (move,) = moves
                assert move.source == hot_worker
                assert router.owner_of(move.stream) == move.target
                # The migrated stream is bit-identical on its new owner.
                served = client.query(move.stream, drain=True).histogram
                oracle = summarize(data[move.stream], 16, method="min-merge")
                assert _same_histogram(served, oracle)
                # The gap strictly shrank: a second snapshot agrees.
                after_load, _w, _o = rebalancer.load_snapshot()
                assert (
                    max(after_load.values()) - min(after_load.values())
                    < max(worker_load.values()) - min(worker_load.values())
                )

    def test_balanced_cluster_plans_no_moves(self, tmp_path):
        with ClusterRouter(tmp_path, workers=2) as router:
            with ServiceClient(port=router.port) as client:
                client.append(
                    "only", _dataset(400, seed=60), method="min-merge",
                    buckets=16, universe=512,
                )
                client.query("only", drain=True)
                # One stream: moving it cannot strictly shrink the gap
                # (weight == gap), so the planner must stay put.
                assert Rebalancer(router).plan() == []

    def test_daemon_loop_start_stop(self, tmp_path):
        with ClusterRouter(tmp_path, workers=2) as router:
            with Rebalancer(router, interval=0.05) as rebalancer:
                time.sleep(0.2)  # a few no-op passes on an empty cluster
            assert rebalancer.moves_done == 0


# -- acceptance: mixed-transport load across kill/restart/grow -----------------


class TestSelfHealingUnderLoad:
    def test_mixed_rest_binary_load_survives_kill_restart_grow(self, tmp_path):
        """REST + binary clients drive a 3-worker cluster while a worker
        is SIGKILL'd, restarted, and the ring grown -- zero acked appends
        lost, final state bit-identical to the serial oracle."""
        from repro.loadgen import LoadGenerator, verify_report

        with ClusterRouter(tmp_path, workers=3, http_port=0) as router:
            gen = LoadGenerator(
                port=router.port,
                http_port=router.http_port,
                clients=9,
                batches_per_client=9,
                batch_size=60,
                buckets=16,
                universe=512,
                transports=("binary", "rest"),
                query_every=4,
            )
            total = gen.clients * gen.batches_per_client
            victim = router.workers()[0]
            chaos_done = threading.Event()
            chaos_error = []

            def chaos():
                try:
                    deadline = time.monotonic() + 60.0
                    while (
                        gen.batches_done < total // 3
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    router.kill_worker(victim)
                    router.restart_worker(victim)
                    router.grow(1)
                except BaseException as exc:  # surfaced after join
                    chaos_error.append(exc)
                finally:
                    chaos_done.set()

            thread = threading.Thread(target=chaos, daemon=True)
            thread.start()
            report = gen.run()
            assert chaos_done.wait(timeout=120.0)
            thread.join(timeout=10.0)
            assert not chaos_error, chaos_error

            # Every stream's served state matches a consistent ledger
            # interpretation: zero acknowledged appends were lost, no
            # batch was torn -- across kill, restart, and growth.
            matches = verify_report(report, buckets=16)
            assert len(matches) == gen.clients

            with ServiceClient(port=router.port) as client:
                stats = client.stats().data["cluster"]
            assert stats["restarts"] == 1
            assert stats["grown"] == 1
            assert victim in stats["workers"]
            assert len(stats["workers"]) == 4
