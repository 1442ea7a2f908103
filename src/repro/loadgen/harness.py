"""Load-generation harness: hundreds of concurrent clients, verified.

:class:`LoadGenerator` drives a live service (single-process server or
cluster router -- they speak the same protocol) with ``clients``
concurrent threads.  Each client owns one stream, speaks one of the
binary TCP or REST transports, appends deterministic value batches, and
interleaves queries -- the mixed traffic shape of the CI ``load-slo``
gate (``benchmarks/bench_load.py``).

Every batch's fate is recorded in a per-stream ledger:

* ``acked`` -- the server acknowledged it, which (on a durable engine)
  means journaled + fsynced + applied.
* ``ambiguous`` -- the connection or worker failed mid-request; the
  batch may be fully applied or fully absent (batch atomicity), never
  torn.  The harness does **not** retry ambiguous appends (a retry could
  double-apply); it records them and moves on.

:func:`verify_stream` then checks the final served histogram against the
serial oracle (the one-shot ``summarize()`` path) for *every consistent
interpretation* of the ledger: all acked batches in order, each
ambiguous batch either fully present or fully absent.  A match proves
zero acknowledged appends were lost and no batch was torn -- even across
a worker kill and adoption.  Backpressure responses are safe to retry
(the engine rejects before enqueueing anything) and the harness does,
with backoff, counting the retries.

Determinism: stream contents depend only on the stream index, and each
stream's first value is ``universe - 1`` so the oracle's inferred
universe equals the service-side configuration.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import summarize
from repro.exceptions import BackpressureError, InvalidParameterError, ReproError
from repro.loadgen.latency import LatencySummary, summarize_latencies
from repro.service.client import ServiceClient, ServiceError
from repro.service.errors import UnavailableError

#: Ledger statuses (see module docs).
ACKED = "acked"
AMBIGUOUS = "ambiguous"

#: Refuse to enumerate oracle candidates past this many ambiguous
#: batches per stream (2^k interpretations); more than this means the
#: run saw repeated failures and should fail loudly, not combinatorially.
MAX_AMBIGUOUS = 6


class LoadVerificationError(ReproError):
    """The served state is inconsistent with every ledger interpretation."""


@dataclass
class BatchRecord:
    """One append batch and what became of it."""

    values: List[int]
    status: str = ACKED
    retries: int = 0


@dataclass
class ClientResult:
    """Everything one client thread did and observed."""

    stream: str
    method: str
    transport: str
    batches: List[BatchRecord] = field(default_factory=list)
    append_seconds: List[float] = field(default_factory=list)
    query_seconds: List[float] = field(default_factory=list)
    backpressure_retries: int = 0
    reconnects: int = 0
    errors: List[str] = field(default_factory=list)
    served_segments: Optional[list] = None
    served_error: Optional[float] = None
    served_items: Optional[int] = None

    @property
    def acked_items(self) -> int:
        """Total items in batches the server acknowledged."""
        return sum(
            len(b.values) for b in self.batches if b.status == ACKED
        )

    @property
    def ambiguous_batches(self) -> int:
        """Batches whose fate a link failure left unknown."""
        return sum(1 for b in self.batches if b.status == AMBIGUOUS)


@dataclass
class LoadReport:
    """Aggregate outcome of one load run (``to_dict`` feeds the JSON)."""

    clients: int
    batch_size: int
    batches_per_client: int
    elapsed_seconds: float
    append: LatencySummary
    query: LatencySummary
    acked_items: int
    ambiguous_batches: int
    backpressure_retries: int
    reconnects: int
    errors: List[str]
    per_client: List[ClientResult]

    @property
    def throughput_items_per_second(self) -> float:
        """Acked items per wall-clock second of the load phase."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.acked_items / self.elapsed_seconds

    def to_dict(self) -> dict:
        """Plain data for the JSON report (per-client detail elided)."""
        return {
            "clients": self.clients,
            "batch_size": self.batch_size,
            "batches_per_client": self.batches_per_client,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_items_per_second": self.throughput_items_per_second,
            "append": self.append.to_dict(),
            "query": self.query.to_dict(),
            "acked_items": self.acked_items,
            "ambiguous_batches": self.ambiguous_batches,
            "backpressure_retries": self.backpressure_retries,
            "reconnects": self.reconnects,
            "errors": self.errors[:20],
        }


def stream_values(
    stream_index: int, count: int, *, universe: int = 4096
) -> List[int]:
    """The deterministic value sequence of stream ``stream_index``.

    The first value is pinned to ``universe - 1`` so the one-shot
    oracle infers exactly the universe the service was configured with.
    """
    out = [universe - 1]
    for j in range(1, count):
        out.append((37 * j + 101 * stream_index + (j * j) % 89) % universe)
    return out


class LoadGenerator:
    """Drive one service endpoint with concurrent verified traffic.

    Parameters
    ----------
    host / port:
        The front listener (a :class:`~repro.service.StreamServer` or a
        :class:`~repro.service.cluster.ClusterRouter` -- indistinguishable
        on the wire).
    clients:
        Concurrent client threads; each owns stream ``load-<i>``.
    batches_per_client / batch_size:
        Workload volume: every client appends this many batches of this
        many values, querying its stream every ``query_every`` batches.
    methods:
        Registry methods cycled across clients (stream ``i`` uses
        ``methods[i % len(methods)]``).
    transports:
        Client transports cycled across clients: ``"binary"`` (the
        default) for TCP frames, ``"rest"`` -- with ``http_port`` -- for
        the HTTP facade of :mod:`repro.service.http`.
    http_port:
        The REST facade's port, required when ``transports`` includes
        ``"rest"``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        clients: int = 200,
        batches_per_client: int = 10,
        batch_size: int = 100,
        buckets: int = 16,
        universe: int = 4096,
        methods: Sequence[str] = ("min-merge", "min-increment"),
        transports: Sequence[str] = ("binary",),
        query_every: int = 3,
        connect_retries: int = 20,
        http_port: Optional[int] = None,
    ) -> None:
        unknown = set(transports) - {"binary", "rest"}
        if unknown:
            raise InvalidParameterError(
                f"unknown transport(s) {sorted(unknown)}; expected "
                '"binary" or "rest"'
            )
        if "rest" in transports and http_port is None:
            raise InvalidParameterError(
                'transports includes "rest" but no http_port was given'
            )
        self.host = host
        self.port = port
        self.http_port = http_port
        self.clients = clients
        self.batches_per_client = batches_per_client
        self.batch_size = batch_size
        self.buckets = buckets
        self.universe = universe
        self.methods = tuple(methods)
        self.transports = tuple(transports)
        self.query_every = query_every
        self.connect_retries = connect_retries
        #: Live progress counter (batches acked or ambiguous so far,
        #: across all clients) -- the chaos scheduler in bench_load keys
        #: its mid-load worker kill off this.
        self.batches_done = 0
        self._progress_lock = threading.Lock()

    # -- client workload ------------------------------------------------------

    def stream_name(self, index: int) -> str:
        """The stream owned by client ``index`` (``load-0042`` style)."""
        return f"load-{index:04d}"

    def _connect(self, transport: str, result: ClientResult) -> ServiceClient:
        delay = 0.05
        for attempt in range(self.connect_retries):
            try:
                if transport == "rest":
                    return ServiceClient.from_url(
                        f"http://{self.host}:{self.http_port}"
                    )
                return ServiceClient(self.host, self.port)
            except OSError as exc:
                if attempt == self.connect_retries - 1:
                    raise
                result.errors.append(f"connect: {exc}")
                time.sleep(delay)
                delay = min(delay * 1.6, 1.0)
        raise AssertionError("unreachable")

    def _tick(self) -> None:
        with self._progress_lock:
            self.batches_done += 1

    def _run_client(self, index: int, barrier: threading.Barrier) -> ClientResult:
        stream = self.stream_name(index)
        method = self.methods[index % len(self.methods)]
        transport = self.transports[index % len(self.transports)]
        result = ClientResult(stream=stream, method=method, transport=transport)
        config = {
            "method": method,
            "buckets": self.buckets,
            "universe": self.universe,
        }
        values = stream_values(
            index,
            self.batches_per_client * self.batch_size,
            universe=self.universe,
        )
        client = self._connect(transport, result)
        try:
            barrier.wait(timeout=60.0)
            for b in range(self.batches_per_client):
                batch = values[
                    b * self.batch_size : (b + 1) * self.batch_size
                ]
                record = BatchRecord(values=batch)
                client = self._append_one(client, result, record, config)
                result.batches.append(record)
                self._tick()
                if (b + 1) % self.query_every == 0:
                    client = self._query_one(client, result, transport)
            # Final verified read: drain, then snapshot the served state.
            client = self._final_query(client, result, transport)
        finally:
            client.close()
        return result

    def _append_one(
        self,
        client: ServiceClient,
        result: ClientResult,
        record: BatchRecord,
        config: dict,
    ) -> ServiceClient:
        """Append one batch, classifying its fate (see module docs)."""
        delay = 0.02
        while True:
            start = time.perf_counter()
            try:
                client.append(result.stream, record.values, **config)
                result.append_seconds.append(time.perf_counter() - start)
                return client
            except BackpressureError:
                # Nothing was enqueued: the same batch is safe to retry.
                record.retries += 1
                result.backpressure_retries += 1
                time.sleep(delay)
                delay = min(delay * 1.6, 0.5)
            except UnavailableError as exc:
                # Worker died mid-request; adoption is underway.  The
                # one error that is never auto-retried for appends.
                record.status = AMBIGUOUS
                result.errors.append(f"{result.stream}: {exc}")
                return client
            except (ConnectionError, OSError) as exc:
                # The *front* connection broke; the request outcome is
                # unknowable from here.
                record.status = AMBIGUOUS
                result.errors.append(f"{result.stream}: reconnect after {exc}")
                result.reconnects += 1
                client.close()
                return self._connect(result.transport, result)

    def _query_one(
        self, client: ServiceClient, result: ClientResult, transport: str
    ):
        start = time.perf_counter()
        try:
            client.query(result.stream)
            result.query_seconds.append(time.perf_counter() - start)
        except ServiceError as exc:
            result.errors.append(f"{result.stream}: query: {exc}")
        except (ConnectionError, OSError) as exc:
            result.errors.append(f"{result.stream}: query reconnect: {exc}")
            result.reconnects += 1
            client.close()
            client = self._connect(transport, result)
        return client

    def _final_query(
        self, client: ServiceClient, result: ClientResult, transport: str
    ):
        delay = 0.05
        for _ in range(10):
            try:
                served = client.query(result.stream, drain=True).histogram
                result.served_segments = _segments_as_lists(served)
                result.served_error = served.error
                result.served_items = served.meta.items_seen
                return client
            except ServiceError as exc:
                result.errors.append(f"{result.stream}: final query: {exc}")
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
            except (ConnectionError, OSError) as exc:
                result.errors.append(
                    f"{result.stream}: final query reconnect: {exc}"
                )
                result.reconnects += 1
                client.close()
                client = self._connect(transport, result)
        raise LoadVerificationError(
            f"stream {result.stream}: final query never succeeded "
            f"(last errors: {result.errors[-3:]})"
        )

    # -- orchestration --------------------------------------------------------

    def run(self) -> LoadReport:
        """Run the full workload; returns the aggregated report."""
        barrier = threading.Barrier(self.clients + 1)
        results: List[Optional[ClientResult]] = [None] * self.clients
        failures: List[BaseException] = []

        def worker(i: int) -> None:
            try:
                results[i] = self._run_client(i, barrier)
            except BaseException as exc:  # surfaced after join
                failures.append(exc)
                try:
                    barrier.abort()
                except Exception:
                    pass

        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"loadgen-{i}", daemon=True
            )
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=120.0)  # all clients connected: start the clock
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if failures:
            raise failures[0]
        done = [r for r in results if r is not None]
        return LoadReport(
            clients=self.clients,
            batch_size=self.batch_size,
            batches_per_client=self.batches_per_client,
            elapsed_seconds=elapsed,
            append=summarize_latencies(
                [s for r in done for s in r.append_seconds]
            ),
            query=summarize_latencies(
                [s for r in done for s in r.query_seconds]
            ),
            acked_items=sum(r.acked_items for r in done),
            ambiguous_batches=sum(r.ambiguous_batches for r in done),
            backpressure_retries=sum(r.backpressure_retries for r in done),
            reconnects=sum(r.reconnects for r in done),
            errors=[e for r in done for e in r.errors],
            per_client=done,
        )


# -- verification -------------------------------------------------------------


def _segments_as_lists(histogram) -> List[list]:
    """``[[beg, end, left, right], ...]`` -- the bit-identity comparison form."""
    return [[s.beg, s.end, s.left, s.right] for s in histogram.segments]


def ledger_candidates(
    batches: Sequence[BatchRecord],
) -> List[Tuple[Tuple[int, ...], List[int]]]:
    """Every consistent value sequence a ledger admits.

    Returns ``(included_ambiguous_indices, values)`` pairs: acked
    batches always present in order, each ambiguous batch either fully
    present (at its position) or fully absent.
    """
    ambiguous = [i for i, b in enumerate(batches) if b.status == AMBIGUOUS]
    if len(ambiguous) > MAX_AMBIGUOUS:
        raise LoadVerificationError(
            f"{len(ambiguous)} ambiguous batches on one stream "
            f"(> {MAX_AMBIGUOUS}); the run is too degraded to verify"
        )
    out = []
    for included in itertools.chain.from_iterable(
        itertools.combinations(ambiguous, k)
        for k in range(len(ambiguous) + 1)
    ):
        chosen = set(included)
        seq: List[int] = []
        for i, batch in enumerate(batches):
            if batch.status == ACKED or i in chosen:
                seq.extend(batch.values)
        out.append((tuple(sorted(chosen)), seq))
    return out


def verify_stream(result: ClientResult, *, buckets: int) -> dict:
    """Check one stream's served state against the serial oracle.

    The served histogram must be bit-identical (segments and error) to
    ``summarize()`` of at least one consistent ledger interpretation,
    and the served ``items_seen`` must cover every acked item.  Raises
    :class:`LoadVerificationError` otherwise; returns a small summary
    of which interpretation matched.
    """
    if result.served_segments is None:
        raise LoadVerificationError(
            f"stream {result.stream}: no final served state recorded"
        )
    if result.served_items is not None and result.served_items < result.acked_items:
        raise LoadVerificationError(
            f"stream {result.stream}: served items_seen "
            f"{result.served_items} < acked {result.acked_items} -- "
            "acknowledged appends were lost"
        )
    for included, seq in ledger_candidates(result.batches):
        oracle = summarize(seq, buckets, method=result.method)
        if (
            _segments_as_lists(oracle) == result.served_segments
            and oracle.error == result.served_error
            and len(seq) == result.served_items
        ):
            return {
                "stream": result.stream,
                "method": result.method,
                "items": len(seq),
                "ambiguous_included": list(included),
                "ambiguous_total": result.ambiguous_batches,
            }
    raise LoadVerificationError(
        f"stream {result.stream} ({result.method}): served histogram "
        f"matches no consistent ledger interpretation "
        f"({result.ambiguous_batches} ambiguous batches, "
        f"{result.acked_items} acked items, served error "
        f"{result.served_error}, served items {result.served_items})"
    )


def verify_report(report: LoadReport, *, buckets: int) -> Dict[str, dict]:
    """Verify every stream of a load run; ``{stream: match_info}``."""
    return {
        r.stream: verify_stream(r, buckets=buckets)
        for r in report.per_client
    }
