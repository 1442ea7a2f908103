"""Tests for the load harness (``repro.loadgen``).

Covers the pieces the CI ``load-slo`` gate trusts:

* nearest-rank percentile math (exact on tiny samples, no
  interpolation artifacts);
* the per-batch ledger -- candidate enumeration admits exactly the
  consistent interpretations (acked batches always present in order,
  ambiguous batches all-or-nothing), and refuses combinatorial blowup;
* :func:`verify_stream` -- accepts served state matching any candidate,
  rejects lost acknowledged appends and torn batches;
* a small live run against a real server: mixed transports, mixed
  methods, every stream verified bit-identical to ``summarize()``.
"""

import pytest

from repro.api import summarize
from repro.exceptions import InvalidParameterError
from repro.loadgen import (
    ACKED,
    AMBIGUOUS,
    BatchRecord,
    ClientResult,
    LoadGenerator,
    LoadVerificationError,
    ledger_candidates,
    percentile,
    stream_values,
    summarize_latencies,
    verify_report,
    verify_stream,
)
from repro.loadgen.harness import _segments_as_lists
from repro.service import HttpFrontend, StreamEngine, StreamServer


# -- latency math -------------------------------------------------------------


class TestPercentile:
    def test_nearest_rank_on_small_samples(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50.0) == 2.0
        assert percentile(samples, 100.0) == 4.0
        assert percentile(samples, 0.0) == 1.0

    def test_p99_is_an_actual_sample(self):
        samples = sorted(float(i) for i in range(1000))
        assert percentile(samples, 99.0) in samples
        # Nearest rank: ceil(0.99 * 1000) = the 990th sample, index 989.
        assert percentile(samples, 99.0) == 989.0

    def test_empty_and_bounds(self):
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_summary_units_are_milliseconds(self):
        summary = summarize_latencies([0.001, 0.002, 0.003])
        assert summary.count == 3
        assert summary.p50_ms == pytest.approx(2.0)
        assert summary.max_ms == pytest.approx(3.0)
        assert summary.total_seconds == pytest.approx(0.006)
        assert summarize_latencies([]).count == 0


# -- deterministic workload ----------------------------------------------------


class TestStreamValues:
    def test_deterministic_and_universe_pinned(self):
        a = stream_values(7, 500, universe=4096)
        assert a == stream_values(7, 500, universe=4096)
        assert a[0] == 4095  # pins the oracle's inferred universe
        assert all(0 <= v < 4096 for v in a)
        assert stream_values(8, 500, universe=4096) != a


# -- ledger enumeration --------------------------------------------------------


def _batches(*statuses):
    return [
        BatchRecord(values=[10 * i, 10 * i + 1], status=status)
        for i, status in enumerate(statuses)
    ]


class TestLedgerCandidates:
    def test_all_acked_is_a_single_candidate(self):
        batches = _batches(ACKED, ACKED)
        (candidate,) = ledger_candidates(batches)
        assert candidate == ((), [0, 1, 10, 11])

    def test_ambiguous_batches_are_all_or_nothing(self):
        batches = _batches(ACKED, AMBIGUOUS, ACKED)
        candidates = dict(ledger_candidates(batches))
        assert set(candidates) == {(), (1,)}
        assert candidates[()] == [0, 1, 20, 21]
        # Included ambiguous batches keep their stream position.
        assert candidates[(1,)] == [0, 1, 10, 11, 20, 21]

    def test_two_ambiguous_gives_four_candidates(self):
        batches = _batches(AMBIGUOUS, ACKED, AMBIGUOUS)
        included = {inc for inc, _ in ledger_candidates(batches)}
        assert included == {(), (0,), (2,), (0, 2)}

    def test_refuses_combinatorial_blowup(self):
        batches = _batches(*([AMBIGUOUS] * 7))
        with pytest.raises(LoadVerificationError):
            ledger_candidates(batches)


# -- stream verification -------------------------------------------------------


def _result_from(seq, batches, *, buckets=8, method="min-merge"):
    oracle = summarize(seq, buckets, method=method)
    return ClientResult(
        stream="s",
        method=method,
        transport="binary",
        batches=batches,
        served_segments=_segments_as_lists(oracle),
        served_error=oracle.error,
        served_items=len(seq),
    )


class TestVerifyStream:
    def test_accepts_exact_acked_replay(self):
        values = stream_values(0, 400, universe=512)
        batches = [
            BatchRecord(values=values[lo : lo + 100])
            for lo in range(0, 400, 100)
        ]
        info = verify_stream(_result_from(values, batches), buckets=8)
        assert info["items"] == 400
        assert info["ambiguous_included"] == []

    def test_accepts_ambiguous_batch_that_landed(self):
        values = stream_values(1, 300, universe=512)
        batches = [
            BatchRecord(values=values[0:100]),
            BatchRecord(values=values[100:200], status=AMBIGUOUS),
            BatchRecord(values=values[200:300]),
        ]
        # Server actually applied the ambiguous batch: full sequence.
        info = verify_stream(_result_from(values, batches), buckets=8)
        assert info["ambiguous_included"] == [1]

    def test_accepts_ambiguous_batch_that_vanished(self):
        values = stream_values(2, 300, universe=512)
        batches = [
            BatchRecord(values=values[0:100]),
            BatchRecord(values=values[100:200], status=AMBIGUOUS),
            BatchRecord(values=values[200:300]),
        ]
        applied = values[0:100] + values[200:300]
        info = verify_stream(_result_from(applied, batches), buckets=8)
        assert info["ambiguous_included"] == []

    def test_rejects_lost_acknowledged_batch(self):
        values = stream_values(3, 300, universe=512)
        batches = [
            BatchRecord(values=values[lo : lo + 100])
            for lo in range(0, 300, 100)
        ]
        # Served state is missing the middle *acked* batch: data loss.
        lost = values[0:100] + values[200:300]
        result = _result_from(lost, batches)
        with pytest.raises(LoadVerificationError):
            verify_stream(result, buckets=8)

    def test_rejects_torn_batch(self):
        values = stream_values(4, 200, universe=512)
        batches = [
            BatchRecord(values=values[0:100]),
            BatchRecord(values=values[100:200], status=AMBIGUOUS),
        ]
        # Half the ambiguous batch applied: violates batch atomicity.
        torn = values[0:150]
        with pytest.raises(LoadVerificationError):
            verify_stream(_result_from(torn, batches), buckets=8)

    def test_rejects_missing_final_state(self):
        result = ClientResult(stream="s", method="min-merge", transport="binary")
        with pytest.raises(LoadVerificationError):
            verify_stream(result, buckets=8)


# -- live end-to-end -----------------------------------------------------------


class TestLiveLoad:
    def test_unknown_transport_rejected(self):
        with pytest.raises(InvalidParameterError, match="json"):
            LoadGenerator(port=1, transports=("binary", "json"))

    def test_small_run_verifies_against_oracle(self):
        engine = StreamEngine(max_pending=10_000_000)
        server = StreamServer(engine).start_in_background()
        front = HttpFrontend(engine).start_in_background()
        try:
            generator = LoadGenerator(
                port=server.port,
                http_port=front.port,
                transports=("binary", "rest"),
                clients=8,
                batches_per_client=4,
                batch_size=50,
                buckets=8,
                universe=512,
            )
            report = generator.run()
            assert report.acked_items == 8 * 4 * 50
            assert report.ambiguous_batches == 0
            assert report.append.count == 8 * 4
            assert generator.batches_done == 8 * 4
            verified = verify_report(report, buckets=8)
            assert len(verified) == 8
            # Mixed transports and methods actually ran.
            assert {r.transport for r in report.per_client} == {
                "binary",
                "rest",
            }
            assert {r.method for r in report.per_client} == {
                "min-merge",
                "min-increment",
            }
        finally:
            front.stop()
            server.stop()
            engine.close()
