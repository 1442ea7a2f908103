"""Tests for the relative-error histogram subpackage."""

from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.error_ladder import MAX_LADDER_LEVELS
from repro.exceptions import (
    DomainError,
    EmptySummaryError,
    InvalidParameterError,
)
from repro.relative.algorithms import (
    RelativeMinIncrementHistogram,
    RelativeMinMergeHistogram,
    optimal_relative_error,
)
from repro.relative.bucket import (
    RelativeBucket,
    brute_force_min_relative_buckets,
    min_relative_buckets_for_error,
    relative_error_ladder,
)

UNIVERSE = 1024
streams = st.lists(st.integers(0, UNIVERSE - 1), min_size=1, max_size=150)


class TestRelativeBucket:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RelativeBucket(1, 0, 0, 1)
        with pytest.raises(InvalidParameterError):
            RelativeBucket(0, 1, 5, 4)
        with pytest.raises(InvalidParameterError):
            RelativeBucket(0, 1, -1, 4)
        with pytest.raises(InvalidParameterError):
            RelativeBucket(0, 1, 0, 4, sanity=0.0)

    def test_singleton_is_exact(self):
        bucket = RelativeBucket.singleton(3, 100)
        assert bucket.error == 0.0
        assert bucket.representative == 100.0

    def test_closed_form_error(self):
        # [50, 100], c = 1: err = 50 / 150 = 1/3, v* = (50*100 + 100*50)/150.
        bucket = RelativeBucket(0, 1, 50, 100)
        assert bucket.error == pytest.approx(1.0 / 3.0)
        assert bucket.representative == pytest.approx(10_000.0 / 150.0)

    def test_sanity_constant_guards_zero(self):
        bucket = RelativeBucket(0, 1, 0, 10, sanity=1.0)
        # a = max(0, 1) = 1, b = 10: err = 10 / 11 < 1.
        assert bucket.error == pytest.approx(10.0 / 11.0)

    @given(
        st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000)
    )
    def test_representative_is_optimal(self, x, y, z):
        lo, hi = min(x, y), max(x, y)
        bucket = RelativeBucket(0, 1, lo, hi)
        v = bucket.representative

        def cost(rep):
            return max(
                abs(lo - rep) / max(lo, 1.0), abs(hi - rep) / max(hi, 1.0)
            )

        assert cost(v) == pytest.approx(bucket.error, abs=1e-12)
        # Perturbing the representative never helps.
        for other in (v - 1, v + 1, lo, hi, z):
            assert cost(other) >= bucket.error - 1e-12

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_error_monotone_under_extension(self, a, b, c):
        lo, hi = min(a, b), max(a, b)
        bucket = RelativeBucket(0, 1, lo, hi)
        before = bucket.error
        predicted = bucket.would_extend_error(c)
        bucket.extend(c)
        assert bucket.error == pytest.approx(predicted)
        assert bucket.error >= before - 1e-12

    def test_merge_error_dominates_parts(self):
        left = RelativeBucket(0, 2, 10, 20)
        right = RelativeBucket(3, 5, 50, 90)
        merged = left.merged_with(right)
        assert merged.error >= left.error
        assert merged.error >= right.error
        assert left.merge_error_with(right) == pytest.approx(merged.error)

    def test_non_adjacent_merge_raises(self):
        with pytest.raises(InvalidParameterError):
            RelativeBucket(0, 1, 1, 2).merged_with(RelativeBucket(3, 4, 1, 2))


class TestLadder:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            relative_error_ladder(0.0, UNIVERSE)
        with pytest.raises(InvalidParameterError):
            relative_error_ladder(0.2, 1)

    def test_spans_zero_to_one(self):
        levels = relative_error_ladder(0.2, UNIVERSE)
        assert levels[0] == 0.0
        assert levels[1] == pytest.approx(1.0 / (2 * UNIVERSE))
        assert levels[-1] >= 1.0

    def test_geometric_spacing(self):
        levels = relative_error_ladder(0.5, UNIVERSE)
        for a, b in zip(levels[1:], levels[2:]):
            assert b == pytest.approx(1.5 * a)

    def test_tiny_epsilon_raises_instead_of_looping(self):
        # 1 + 1e-17 == 1.0 in floating point: a geometric loop would
        # never reach the top, so the level count is checked first.
        start = time.monotonic()
        with pytest.raises(InvalidParameterError, match="ladder levels"):
            relative_error_ladder(1e-17, UNIVERSE)
        assert time.monotonic() - start < 1.0

    def test_small_epsilon_within_cap_still_builds(self):
        levels = relative_error_ladder(1e-4, 1 << 15, sanity=0.5)
        assert len(levels) <= MAX_LADDER_LEVELS
        assert levels[-2] < 1.0 <= levels[-1]


class TestGreedyOptimality:
    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=30),
        st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]),
    )
    def test_greedy_matches_reference_dp(self, values, error):
        assert min_relative_buckets_for_error(values, error) == (
            brute_force_min_relative_buckets(values, error)
        )

    @given(streams)
    def test_monotone_in_error(self, values):
        counts = [
            min_relative_buckets_for_error(values, e)
            for e in (0.0, 0.01, 0.1, 0.5, 1.0)
        ]
        assert counts == sorted(counts, reverse=True)


class TestRelativeMinMerge:
    def test_empty_raises(self):
        with pytest.raises(EmptySummaryError):
            RelativeMinMergeHistogram(buckets=2).histogram()

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            RelativeMinMergeHistogram(buckets=2).insert(-1)

    @given(streams, st.integers(1, 6))
    def test_1_2_guarantee(self, values, buckets):
        """The (1, 2) theorem transfers to the relative metric."""
        summary = RelativeMinMergeHistogram(buckets=buckets)
        summary.extend(values)
        summary.check_min_merge_property()
        assert summary.error <= optimal_relative_error(values, buckets) + 1e-9

    @given(streams)
    def test_reported_error_matches_measured_relative_error(self, values):
        summary = RelativeMinMergeHistogram(buckets=4)
        summary.extend(values)
        hist = summary.histogram()
        approx = hist.reconstruct()
        measured = max(
            abs(v - a) / max(v, 1.0) for v, a in zip(values, approx)
        )
        assert measured <= hist.error + 1e-9


class TestRelativeMinIncrement:
    def test_empty_raises(self):
        summary = RelativeMinIncrementHistogram(
            buckets=2, epsilon=0.2, universe=UNIVERSE
        )
        with pytest.raises(EmptySummaryError):
            summary.histogram()

    def test_domain_check(self):
        summary = RelativeMinIncrementHistogram(
            buckets=2, epsilon=0.2, universe=UNIVERSE
        )
        with pytest.raises(DomainError):
            summary.insert(UNIVERSE)

    @given(streams, st.integers(1, 8))
    def test_guarantee_with_ladder_floor(self, values, buckets):
        """(1 + eps) down to the ladder floor 1 / (2U)."""
        epsilon = 0.2
        summary = RelativeMinIncrementHistogram(
            buckets=buckets, epsilon=epsilon, universe=UNIVERSE
        )
        summary.extend(values)
        hist = summary.histogram()
        best = optimal_relative_error(values, buckets)
        floor = (1.0 + epsilon) / (2.0 * UNIVERSE)
        assert len(hist) <= buckets
        assert hist.error <= max((1.0 + epsilon) * best, floor) + 1e-12

    def test_constant_stream_exact(self):
        summary = RelativeMinIncrementHistogram(
            buckets=2, epsilon=0.2, universe=UNIVERSE
        )
        summary.extend([7] * 50)
        assert summary.error == 0.0

    def test_memory_independent_of_n(self):
        summary = RelativeMinIncrementHistogram(
            buckets=8, epsilon=0.2, universe=UNIVERSE
        )
        summary.extend([(i * 97) % UNIVERSE for i in range(500)])
        early = summary.memory_bytes()
        summary.extend([(i * 97) % UNIVERSE for i in range(4000)])
        assert summary.memory_bytes() <= early


class TestOptimalRelativeError:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            optimal_relative_error([], 2)
        with pytest.raises(InvalidParameterError):
            optimal_relative_error([1], 0)

    def test_plateaus_are_free(self):
        assert optimal_relative_error([5] * 10 + [900] * 10, 2) == 0.0

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=25), st.integers(1, 4))
    def test_result_is_achievable_and_tight(self, values, buckets):
        error = optimal_relative_error(values, buckets)
        assert min_relative_buckets_for_error(values, error + 1e-12) <= buckets
        if error > 1e-9:
            assert (
                min_relative_buckets_for_error(values, error * (1 - 1e-6))
                > buckets
            )
