"""The MIN-MERGE algorithm (Section 2.1, Algorithm 1).

MIN-MERGE maintains at most ``2B`` buckets.  Every arriving value first gets
its own singleton bucket; when the budget is exceeded, the two *adjacent*
buckets whose union has the smallest error are merged.  Theorem 1: the
resulting 2B-bucket histogram has error at most that of the *optimal*
B-bucket histogram -- a (1, 2)-approximation -- using O(B) memory and
O(log B) time per item.

FINDMIN is implemented exactly as Section 2.1.1 prescribes: an addressable
min-heap holds one key per adjacent pair (the error of merging that pair);
a merge removes up to three keys and inserts up to two.

The analysis rests on the *min-merge property*: at all times, merging any
two adjacent buckets would produce error at least ``err(S)``.
:meth:`MinMergeHistogram.check_min_merge_property` verifies it directly and
is exercised by the property-based tests.
"""

from __future__ import annotations

from math import inf
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.core.batch import MAX_WINDOW, as_batch_array
from repro.core.bucket import Bucket
from repro.core.histogram import Histogram, Segment
from repro.exceptions import EmptySummaryError, InvalidParameterError
from repro.memory.model import DEFAULT_MODEL, MemoryModel
from repro.observability.hooks import SummaryMetrics, resolve_metrics
from repro.structures.heap import AddressableMinHeap
from repro.structures.linked_list import BucketList, BucketNode


class MinMergeHistogram:
    """Streaming (1, 2)-approximate L-infinity histogram.

    Parameters
    ----------
    buckets:
        The target bucket count ``B``.  The summary keeps up to ``2 * B``
        working buckets and guarantees error no worse than the optimal
        ``B``-bucket histogram (Theorem 1).
    working_buckets:
        Override for the working budget (defaults to ``2 * buckets``).
        Exposed for the ablation benchmarks; values below ``2 * buckets``
        void the (1, 2) guarantee.
    findmin:
        ``"heap"`` (default) uses the addressable min-heap of
        Section 2.1.1 for O(log B) updates; ``"linear"`` scans the bucket
        list in O(B) per item -- the variant the paper's own experiments
        ran (footnote 4).  Results are identical; only speed and the heap's
        O(B) extra words differ.
    memory_model:
        Cost model used by :meth:`memory_bytes`.
    metrics:
        Opt-in instrumentation: ``True`` for a private registry, or a
        shared :class:`~repro.observability.MetricsRegistry`; default off
        (see ``docs/OBSERVABILITY.md``).

    Examples
    --------
    >>> h = MinMergeHistogram(buckets=2)
    >>> for v in [1, 1, 1, 10, 10, 10]:
    ...     h.insert(v)
    >>> hist = h.histogram()
    >>> hist.error
    0.0
    """

    def __init__(
        self,
        buckets: int,
        *,
        working_buckets: Optional[int] = None,
        findmin: str = "heap",
        memory_model: MemoryModel = DEFAULT_MODEL,
        metrics=None,
    ):
        if buckets < 1:
            raise InvalidParameterError(f"buckets must be >= 1, got {buckets}")
        if working_buckets is None:
            working_buckets = 2 * buckets
        if working_buckets < 1:
            raise InvalidParameterError(
                f"working_buckets must be >= 1, got {working_buckets}"
            )
        if findmin not in ("heap", "linear"):
            raise InvalidParameterError(
                f"findmin must be 'heap' or 'linear', got {findmin!r}"
            )
        self.target_buckets = buckets
        self.working_buckets = working_buckets
        self.findmin = findmin
        self._model = memory_model
        self._list = BucketList()
        self._heap = AddressableMinHeap()
        self._n = 0
        self._metrics = resolve_metrics(metrics)
        if self._metrics is not None:
            self._metrics.bind_gauges(self)
            # Route ingestion through the instrumented twin.  Binding on
            # the instance keeps the uninstrumented insert() below exactly
            # the seed implementation -- zero overhead when disabled.
            self.insert = self._insert_observed

    # -- stream ingestion --------------------------------------------------

    def insert(self, value) -> None:
        """Process the next stream value (Algorithm 1)."""
        node = self._list.append(Bucket.singleton(self._n, value))
        prev = node.prev
        if prev is not None and self.findmin == "heap":
            self._push_pair_key(prev)
        if len(self._list) > self.working_buckets:
            if self.findmin == "heap":
                self._merge_min_pair()
            else:
                self._merge_min_pair_linear()
        self._n += 1

    def _insert_observed(self, value) -> None:
        """Instrumented twin of :meth:`insert` (same algorithm + hooks)."""
        start = perf_counter()
        node = self._list.append(Bucket.singleton(self._n, value))
        prev = node.prev
        if prev is not None and self.findmin == "heap":
            self._push_pair_key(prev)
        if len(self._list) > self.working_buckets:
            if self.findmin == "heap":
                self._merge_min_pair()
            else:
                self._merge_min_pair_linear()
            self._metrics.on_merge()
        self._n += 1
        self._metrics.on_insert(latency=perf_counter() - start)

    def extend(self, values: Iterable) -> None:
        """Insert every value of an iterable, in order.

        Lists and numeric ndarrays take the vectorized fast path: at steady
        state the arriving singleton is merged into the tail exactly when
        its pair key is the strict heap minimum, so the kernel pre-computes
        the longest such run with NumPy accumulates and absorbs it in one
        O(log B) step.  Bucket state is identical to the scalar loop; with
        instrumentation on, the batch emits one ``on_insert`` event
        carrying the item count instead of one event per item.
        """
        arr = as_batch_array(values)
        if arr is None:
            for value in values:
                self.insert(value)
            return
        n = len(arr)
        if n == 0:
            return
        observe = self._metrics is not None
        start = perf_counter() if observe else 0.0
        merges = 0
        for off in range(0, n, MAX_WINDOW):
            merges += self._extend_chunk(arr[off : off + MAX_WINDOW])
        if observe:
            if merges:
                self._metrics.on_merge(merges)
            self._metrics.on_insert(n, latency=perf_counter() - start)

    def insert_run(self, beg: int, end: int, lo, hi) -> bool:
        """Try to ingest a pre-reduced run of values in O(log B).

        The run covers stream indices ``[beg, end]`` (continuing at
        ``items_seen``) with value bounds ``lo`` / ``hi``.  Returns True
        when every item of the run would provably be absorbed into the
        tail bucket by Algorithm 1 -- the run's worst-case pair key stays
        strictly below both the evolving (prev, tail) key and the cheapest
        untouched pair -- leaving the summary exactly as if each value had
        been inserted.  Returns False (summary untouched) otherwise.
        """
        if beg != self._n:
            raise InvalidParameterError(
                f"run starts at {beg}, summary expects {self._n}"
            )
        if end < beg or lo > hi:
            raise InvalidParameterError(
                f"invalid run [{beg}, {end}] with bounds [{lo}, {hi}]"
            )
        lst = self._list
        count = end - beg + 1
        if self.working_buckets == 1 and len(lst) == 1:
            lst.head.bucket.insert_run(beg, end, lo, hi)
            self._n += count
            return True
        if len(lst) != self.working_buckets or self.working_buckets < 2:
            return False
        tail = lst.tail
        prev = tail.prev
        tb = tail.bucket
        new_lo = lo if lo < tb.min else tb.min
        new_hi = hi if hi > tb.max else tb.max
        run_key = (new_hi - new_lo) / 2.0
        pair_key, static_min = self._tail_pair_keys()
        # Per-item keys only grow toward run_key, and the (prev, tail) key
        # only grows from pair_key, so this one check certifies every step.
        if not (run_key < pair_key and run_key < static_min):
            return False
        tb.insert_run(beg, end, lo, hi)
        if self.findmin == "heap":
            self._update_pair_key(prev)
        self._n += count
        return True

    def _tail_pair_keys(self) -> tuple:
        """``(pair_key, static_min)`` for the steady-state fast path.

        ``pair_key`` is the current merge error of (prev, tail);
        ``static_min`` is the cheapest merge among all *other* adjacent
        pairs -- the keys a tail absorption run cannot change.
        """
        tail = self._list.tail
        prev = tail.prev
        if self.findmin == "heap":
            heap = self._heap
            handle = prev.pair_handle
            pair_key = heap.key_of(handle)[0]
            if heap.peek_min_handle() != handle:
                static_min = heap._keys[0][0]
            else:
                slot = heap._slot_of[handle]
                static_min = inf
                for s, key in enumerate(heap._keys):
                    if s != slot and key[0] < static_min:
                        static_min = key[0]
            return pair_key, static_min
        pair_key = prev.bucket.merge_error_with(tail.bucket)
        static_min = inf
        node = self._list.head
        while node.next is not None:
            if node is not prev:
                key = node.bucket.merge_error_with(node.next.bucket)
                if key < static_min:
                    static_min = key
            node = node.next
        return pair_key, static_min

    def _extend_chunk(self, arr) -> int:
        """Batch-ingest one chunk; returns the number of merges performed."""
        insert = MinMergeHistogram.insert  # plain scalar path, never the
        # instrumented twin: the caller aggregates the batch's events.
        lst = self._list
        cap = self.working_buckets
        n = len(arr)
        i = 0
        while i < n and len(lst) < cap:
            insert(self, arr[i].item())
            i += 1
        if i == n:
            return 0
        merges = 0
        if cap == 1:
            rest = arr[i:]
            lst.head.bucket.insert_run(
                self._n, self._n + (n - i) - 1, rest.min().item(), rest.max().item()
            )
            self._n += n - i
            return n - i
        window = 256
        short = 0
        block = 64
        while i < n:
            if short >= 8:
                # Sticky scalar fallback: the block grows each time the
                # vectorized probe fails again, so rough streams converge
                # to plain scalar speed (values unboxed once via tolist).
                short = 0
                stop = min(n, i + block)
                if block < MAX_WINDOW:
                    block *= 8
                for v in arr[i:stop].tolist():
                    insert(self, v)
                merges += stop - i
                i = stop
                if i == n:
                    break
            tail = lst.tail
            prev = tail.prev
            tb = tail.bucket
            pb = prev.bucket
            pair_key, static_min = self._tail_pair_keys()
            seg = arr[i : i + window]
            ehi = np.maximum(np.maximum.accumulate(seg), tb.max)
            elo = np.minimum(np.minimum.accumulate(seg), tb.min)
            key = (ehi - elo) / 2.0
            pair = (np.maximum(ehi, pb.max) - np.minimum(elo, pb.min)) / 2.0
            evolving = np.empty_like(pair)
            evolving[0] = pair_key
            evolving[1:] = pair[:-1]
            good = (key < static_min) & (key < evolving)
            if good.all():
                run = len(seg)
            else:
                run = int(np.argmin(good))
            if run:
                tb.insert_run(
                    self._n, self._n + run - 1, elo[run - 1].item(), ehi[run - 1].item()
                )
                self._n += run
                merges += run
                i += run
                if self.findmin == "heap":
                    self._update_pair_key(prev)
                if run == len(seg):
                    window = min(window * 2, MAX_WINDOW)
                    continue
                window = 256
            if run < 4:
                short += 1
            else:
                short = 0
                block = 64
            if i < n:
                insert(self, arr[i].item())
                merges += 1
                i += 1
        return merges

    # -- aggregation hooks ---------------------------------------------------

    def adopt_buckets(self, buckets: Iterable[Bucket], *, count: Optional[int] = None) -> None:
        """Append pre-built buckets after the current tail.

        The hook behind :func:`repro.core.aggregation.merge_min_merge_summaries`
        and the parallel shard combiner: ``buckets`` must be in stream order
        and start strictly after the current last covered index.  Each bucket
        is copied, pair keys are maintained, and ``items_seen`` grows by
        ``count`` (default: the covered index span).  No compaction happens
        here -- call :meth:`compact` to re-establish the working budget.
        """
        last = self._list.tail.bucket.end if len(self._list) else None
        span = 0
        for bucket in buckets:
            if last is not None and bucket.beg <= last:
                raise InvalidParameterError(
                    f"adopted bucket [{bucket.beg}, {bucket.end}] does not "
                    f"follow the current tail (last covered index {last})"
                )
            last = bucket.end
            span += bucket.end - bucket.beg + 1
            node = self._list.append(
                Bucket(bucket.beg, bucket.end, bucket.min, bucket.max)
            )
            if node.prev is not None and self.findmin == "heap":
                self._push_pair_key(node.prev)
        self._n += span if count is None else count

    def compact(self) -> int:
        """Merge cheapest adjacent pairs until the working budget holds.

        Returns the number of merges performed.  A no-op on summaries
        already within ``working_buckets``.
        """
        merges = 0
        while len(self._list) > self.working_buckets:
            if self.findmin == "heap":
                self._merge_min_pair()
            else:
                self._merge_min_pair_linear()
            merges += 1
        return merges

    # -- queries -----------------------------------------------------------

    @property
    def items_seen(self) -> int:
        """Number of stream values processed so far."""
        return self._n

    @property
    def metrics(self) -> Optional[SummaryMetrics]:
        """Instrumentation facade, or ``None`` when not instrumented."""
        return self._metrics

    @property
    def bucket_count(self) -> int:
        """Current number of working buckets."""
        return len(self._list)

    @property
    def error(self) -> float:
        """Current summary error ``err(S)`` -- the largest bucket error."""
        if not self._list:
            raise EmptySummaryError("no values inserted yet")
        return max(node.bucket.error for node in self._list)

    def buckets_snapshot(self) -> list[Bucket]:
        """Copy of the current buckets, in stream order."""
        return [
            Bucket(b.beg, b.end, b.min, b.max) for b in self._list.buckets()
        ]

    def histogram(self) -> Histogram:
        """The current piecewise-constant approximation."""
        if not self._list:
            raise EmptySummaryError("no values inserted yet")
        segments = [
            Segment(b.beg, b.end, b.representative, b.representative)
            for b in self._list.buckets()
        ]
        return Histogram(segments, self.error)

    def memory_bytes(self) -> int:
        """Accounted memory: buckets plus heap entries (Section 2.1.1)."""
        return self._model.buckets(len(self._list)) + self._model.heap_entries(
            len(self._heap)
        )

    # -- invariants (used by tests) -----------------------------------------

    def check_min_merge_property(self) -> None:
        """Assert that merging any adjacent pair has error >= err(S).

        This is the invariant behind Lemma 1; the paper's induction shows it
        holds after every completed insert (before the summary fills, all
        buckets are singletons with err(S) = 0 and it holds vacuously).
        """
        if len(self._list) < 2:
            return
        current = self.error
        for node in self._list:
            if node.next is None:
                continue
            pair_error = node.bucket.merge_error_with(node.next.bucket)
            if pair_error >= current:
                continue
            raise AssertionError(
                f"min-merge property violated: pair at [{node.bucket.beg},"
                f"{node.next.bucket.end}] merges with error {pair_error} "
                f"< err(S) = {current}"
            )

    def check_heap_consistency(self) -> None:
        """Assert every adjacent pair has a correct key in the heap (tests)."""
        if self.findmin == "linear":
            if len(self._heap) != 0:
                raise AssertionError("linear FINDMIN must not populate the heap")
            return
        self._heap.check_invariant()
        pairs = 0
        for node in self._list:
            if node.next is None:
                if node.pair_handle is not None:
                    raise AssertionError("tail node holds a pair handle")
                continue
            pairs += 1
            if node.pair_handle is None:
                raise AssertionError(
                    f"pair at [{node.bucket.beg}, {node.next.bucket.end}] "
                    "missing from heap"
                )
            key, tiebreak = self._heap.key_of(node.pair_handle)
            expected = node.bucket.merge_error_with(node.next.bucket)
            if key != expected or tiebreak != node.bucket.beg:
                raise AssertionError(
                    f"stale heap key {(key, tiebreak)} != merge error "
                    f"{(expected, node.bucket.beg)}"
                )
        if pairs != len(self._heap):
            raise AssertionError(
                f"heap holds {len(self._heap)} keys for {pairs} pairs"
            )

    # -- internals -----------------------------------------------------------

    def _push_pair_key(self, left: BucketNode) -> None:
        """Insert the merge key for the pair (left, left.next).

        The key is the tuple ``(merge_error, left.bucket.beg)``: the start
        index breaks ties between equal merge errors, making FINDMIN a pure
        function of the bucket list (leftmost cheapest pair) rather than of
        the heap's insertion history.  Determinism matters because the
        batched ingest path and checkpoint restore rebuild the heap in a
        different order than item-at-a-time inserts did.
        """
        key = left.bucket.merge_error_with(left.next.bucket)
        left.pair_handle = self._heap.push((key, left.bucket.beg), left)

    def _update_pair_key(self, left: BucketNode) -> None:
        """Recompute (left, left.next)'s key in place (handle preserved).

        Every key is the unique tuple ``(merge_error, left.bucket.beg)``,
        so FINDMIN is a pure function of the bucket list and in-place
        sifting is bit-identical to the remove + push it replaces -- at
        half the heap traffic (the steady-state ingest hot spot).
        """
        key = left.bucket.merge_error_with(left.next.bucket)
        self._heap.update(left.pair_handle, (key, left.bucket.beg))

    def _merge_min_pair(self) -> None:
        """FINDMIN + MERGE: collapse the cheapest adjacent pair.

        Of the up-to-three keys a merge invalidates, two are recycled in
        place: the (left.prev, left) key is updated (same node, new
        error), and the dying (right, right.next) entry is repointed to
        the merged pair (left, new next) -- so a steady-state merge costs
        one pop plus two sifts instead of three removes and two pushes.
        """
        heap = self._heap
        _key, left = heap.pop_min()
        left.pair_handle = None
        right = left.next
        right_handle = right.pair_handle
        left.bucket = left.bucket.merged_with(right.bucket)
        self._list.remove(right)
        if left.prev is not None:
            self._update_pair_key(left.prev)
        if left.next is not None:
            # ``right`` was not the tail, so its handle is live: reuse its
            # entry for the merged bucket's right-hand pair.
            key = left.bucket.merge_error_with(left.next.bucket)
            heap.update(right_handle, (key, left.bucket.beg), item=left)
            left.pair_handle = right_handle
        elif right_handle is not None:  # pragma: no cover - defensive
            heap.remove(right_handle)

    def _merge_min_pair_linear(self) -> None:
        """FINDMIN by O(B) scan -- the paper's footnote-4 implementation."""
        best = None
        best_key = None
        for node in self._list:
            if node.next is None:
                break
            key = node.bucket.merge_error_with(node.next.bucket)
            if best_key is None or key < best_key:
                best_key = key
                best = node
        right = best.next
        best.bucket = best.bucket.merged_with(right.bucket)
        self._list.remove(right)
