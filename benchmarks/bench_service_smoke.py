"""Service smoke gate: boot the server, stream 100k values over the wire,
and diff the served histogram against one-shot ``summarize()``.

The CI job runs this after every change (see ``.github/workflows/ci.yml``
and ``make service-smoke``): it is the end-to-end check that the wire
front, the engine's inline journal-then-apply path, checkpoint-on-ingest,
and the one-shot API all agree bit for bit.

Every batch travels as a binary ``OP_APPEND`` frame, the service's one
TCP append path.

Exit status is non-zero on any mismatch, so the script doubles as a
release gate::

    python benchmarks/bench_service_smoke.py --items 100000 \
        --json BENCH_SERVICE.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

from repro.api import summarize
from repro.service import ServiceClient, StreamEngine, StreamServer

#: Wire methods exercised by the smoke run (streaming methods only; the
#: merge family's histogram is deterministic for serial feeds, and the
#: ladder methods are deterministic outright, so bit-equality is fair).
METHODS = ("min-merge", "min-increment", "pwl", "pwl-min-merge")


def _dataset(n: int) -> list:
    return [(37 * i + (i * i) % 89) % 4096 for i in range(n)]


def _check_served(method: str, served, oracle, items: int) -> None:
    """Exit non-zero if the served histogram diverges from the oracle."""
    oracle_segments = list(oracle.segments)
    if list(served.segments) != oracle_segments or served.error != oracle.error:
        raise SystemExit(
            f"{method}: served histogram diverges from summarize() "
            f"(served error {served.error}, oracle {oracle.error})"
        )
    if served.meta.items_seen != items:
        raise SystemExit(
            f"{method}: served items_seen {served.meta.items_seen} != {items}"
        )


def run_smoke(items: int, *, chunk: int = 5_000) -> dict:
    """Stream ``items`` values per method over TCP; return the report.

    Raises ``SystemExit`` on the first divergence between the served
    histogram and the one-shot oracle.
    """
    values = _dataset(items)
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        engine = StreamEngine(
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=max(1, items // 4),
        )
        server = StreamServer(engine).start_in_background()
        report = {"items": items, "chunk": chunk, "methods": {}}
        try:
            with ServiceClient(port=server.port) as client:
                if not client.ping():
                    raise SystemExit("server did not answer ping")
                for method in METHODS:
                    start = time.perf_counter()
                    for lo in range(0, items, chunk):
                        client.append(
                            method,
                            values[lo : lo + chunk],
                            method=method,
                            buckets=16,
                            universe=4096,
                        )
                    served = client.query(method, drain=True).histogram
                    elapsed = time.perf_counter() - start
                    oracle = summarize(values, 16, method=method)
                    _check_served(method, served, oracle, items)
                    report["methods"][method] = {
                        "seconds": elapsed,
                        "items_per_second": items / elapsed,
                        "error": served.error,
                        "buckets": len(served.segments),
                    }
                stats = client.stats()
                report["checkpoints"] = stats["checkpoints"]
                if stats["checkpoints"] < len(METHODS):
                    raise SystemExit(
                        "periodic checkpoints never fired "
                        f"({stats['checkpoints']} snapshots)"
                    )
        finally:
            server.stop()
            engine.close()
    return report


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=100_000)
    parser.add_argument("--chunk", type=int, default=5_000)
    parser.add_argument(
        "--json", default=None, help="also write the report to this path"
    )
    args = parser.parse_args(argv)
    report = run_smoke(args.items, chunk=args.chunk)
    for method, row in report["methods"].items():
        print(
            f"{method:<16} {row['seconds']:.3f} s "
            f"({row['items_per_second']:,.0f} items/s over the wire), "
            f"error={row['error']:g}, buckets={row['buckets']}"
        )
    print(
        f"checkpoints: {report['checkpoints']}; "
        "served histograms are bit-identical to summarize()"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
