"""REST smoke gate: race the HTTP facade against the binary transport.

Boots one engine fronted by both the TCP server and the HTTP/REST
facade (:mod:`repro.service.http`), streams the same dataset through
each transport family, and checks two things:

* **bit identity** -- the histograms served over REST, over binary TCP,
  and by the one-shot ``summarize()`` oracle are segment-for-segment
  identical (the facade is a view of the same engine, not a fork);
* **latency** -- REST append p50 stays within ``--max-ratio`` (default
  5x) of the binary transport's p50.  HTTP/1.1 framing costs real
  parsing per request, but the octet-stream body reuses the zero-copy
  float64 decode path, so the gap must stay bounded; a blowout means
  the facade started copying or boxing values.

Exit status is non-zero on any mismatch or a ratio breach, so the
script doubles as the CI ``rest-smoke`` gate (``make rest-smoke``)::

    python benchmarks/bench_rest_smoke.py --items 60000 \
        --json BENCH_REST.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.api import summarize
from repro.loadgen.latency import summarize_latencies
from repro.service import (
    HttpFrontend,
    ServiceClient,
    StreamEngine,
    StreamServer,
)

SCHEMA = "repro-bench-rest/1"


def _dataset(n: int) -> list:
    return [4095] + [(37 * i + (i * i) % 89) % 4096 for i in range(1, n)]


def _segments(histogram) -> list:
    return [[s.beg, s.end, s.left, s.right] for s in histogram.segments]


def _drive(client, stream: str, values, *, chunk: int) -> dict:
    """Append ``values`` in chunks, then query; per-op latencies."""
    append_seconds = []
    for lo in range(0, len(values), chunk):
        start = time.perf_counter()
        client.append(
            stream,
            values[lo : lo + chunk],
            method="min-merge",
            buckets=16,
            universe=4096,
        )
        append_seconds.append(time.perf_counter() - start)
    start = time.perf_counter()
    served = client.query(stream, drain=True).histogram
    query_seconds = time.perf_counter() - start
    summary = summarize_latencies(append_seconds).to_dict()
    summary["query_ms"] = query_seconds * 1e3
    summary["items_per_second"] = len(values) / max(
        summary["total_seconds"], 1e-9
    )
    return {"summary": summary, "histogram": served}


def run(items: int, *, chunk: int, max_ratio: float, attempts: int) -> dict:
    """Race both transports over one engine; returns the report.

    The p50 ratio is taken from the best attempt (benchmarks on shared
    CI runners are noisy; the gate asks "can the facade keep up", not
    "did the scheduler hiccup").  Raises ``SystemExit`` on a bit-
    identity mismatch or when every attempt breaches the ratio.
    """
    values = _dataset(items)
    oracle = summarize(values, 16, method="min-merge")
    engine = StreamEngine()
    server = StreamServer(engine).start_in_background()
    front = HttpFrontend(engine).start_in_background()
    best = None
    try:
        for attempt in range(attempts):
            with ServiceClient(port=server.port, transport="binary") as tcp:
                binary = _drive(
                    tcp, f"bin-{attempt}", values, chunk=chunk
                )
            with ServiceClient.from_url(
                f"http://127.0.0.1:{front.port}"
            ) as rest_client:
                rest = _drive(
                    rest_client, f"rest-{attempt}", values, chunk=chunk
                )
            for tag, served in (("binary", binary), ("rest", rest)):
                if (
                    _segments(served["histogram"]) != _segments(oracle)
                    or served["histogram"].error != oracle.error
                ):
                    raise SystemExit(
                        f"{tag} histogram diverges from summarize() "
                        f"(served error {served['histogram'].error}, "
                        f"oracle {oracle.error})"
                    )
            ratio = rest["summary"]["p50_ms"] / max(
                binary["summary"]["p50_ms"], 1e-9
            )
            if best is None or ratio < best["p50_ratio"]:
                best = {
                    "transports": {
                        "binary": binary["summary"],
                        "rest": rest["summary"],
                    },
                    "p50_ratio": ratio,
                    "attempt": attempt,
                }
    finally:
        front.stop()
        server.stop()
        engine.close()
    report = {
        "schema": SCHEMA,
        "items": items,
        "chunk": chunk,
        "attempts": attempts,
        "max_ratio": max_ratio,
        "bit_identical": True,  # a mismatch raised SystemExit above
        "generated_unix": time.time(),
        **best,
    }
    if best["p50_ratio"] > max_ratio:
        report["gate"] = "FAIL"
        return report
    report["gate"] = "PASS"
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=60_000)
    parser.add_argument("--chunk", type=int, default=2_000)
    parser.add_argument(
        "--max-ratio", type=float, default=5.0,
        help="REST append p50 must stay within this multiple of binary",
    )
    parser.add_argument(
        "--attempts", type=int, default=3,
        help="race repetitions; the gate takes the best attempt",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the machine-readable report here",
    )
    args = parser.parse_args(argv)
    report = run(
        args.items,
        chunk=args.chunk,
        max_ratio=args.max_ratio,
        attempts=args.attempts,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, allow_nan=False)
            handle.write("\n")
    binary = report["transports"]["binary"]
    rest = report["transports"]["rest"]
    print(
        f"binary: p50 {binary['p50_ms']:.3f} ms  "
        f"({binary['items_per_second']:,.0f} items/s)"
    )
    print(
        f"rest:   p50 {rest['p50_ms']:.3f} ms  "
        f"({rest['items_per_second']:,.0f} items/s)"
    )
    print(
        f"p50 ratio {report['p50_ratio']:.2f}x "
        f"(gate: <= {report['max_ratio']:g}x) -> {report['gate']}"
    )
    if report["gate"] != "PASS":
        print(
            "REST latency gate FAILED: the facade fell more than "
            f"{report['max_ratio']:g}x behind the binary transport",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
