"""Durable-ingest overhead: the journaled engine's CPU cost vs in-memory.

Streams the same min-merge data (B = 32, 5k-value float64 batches, as
the binary wire delivers them) through an in-memory ``StreamEngine`` and
a durable one (``checkpoint_dir`` with ``checkpoint_every=50_000``: every
append journaled and fsynced, a snapshot every 50k items) in one
process, and compares their process CPU time, best of three runs.
Before timing anything it checks that both engines -- and a fresh
engine recovered from the durable one's directory -- serve the
histogram ``summarize()`` computes over the whole stream.

The gate (CI ``bench-smoke``, ``make bench-smoke``) fails when durable ÷
in-memory CPU exceeds ``MAX_RATIO``::

    PYTHONPATH=src python benchmarks/bench_durable_ingest.py \
        --smoke --json BENCH_DURABLE.json

CPU time, not wall time, is compared: an fsync waits on the disk
without using the CPU, and the disk's latency is not the code's cost.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import summarize
from repro.service import StreamEngine

from bench_service_smoke import _dataset

BUCKETS = 32
BATCH = 5_000
CHECKPOINT_EVERY = 50_000
SMOKE_ITEMS = 200_000
FULL_ITEMS = 1_000_000
REPEATS = 3
#: Gate on durable ÷ in-memory CPU.  With the JSON-lines journal this
#: read 8.8--11.2; with binary segments, about 1.4.
MAX_RATIO = 2.5


def _batches(items: int) -> list:
    values = np.asarray(_dataset(items), dtype=np.float64)
    return [values[lo : lo + BATCH] for lo in range(0, items, BATCH)]


def _ingest(batches: list, checkpoint_dir) -> tuple:
    """``(cpu_s, wall_s, histogram)`` of one engine fed every batch."""
    engine = StreamEngine(
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=CHECKPOINT_EVERY if checkpoint_dir else None,
    )
    try:
        handle = engine.stream("s", method="min-merge", buckets=BUCKETS)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for batch in batches:
            handle.append(batch)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        return cpu, wall, handle.histogram()
    finally:
        engine.close()


def _same(served, oracle) -> bool:
    return (
        list(served.segments) == list(oracle.segments)
        and served.error == oracle.error
    )


def run(items: int, repeats: int, max_ratio: float, json_path) -> int:
    batches = _batches(items)
    oracle = summarize(np.concatenate(batches), BUCKETS, method="min-merge")
    rows = {"in_memory": [], "durable": []}
    for _ in range(repeats):
        cpu, wall, served = _ingest(batches, None)
        if not _same(served, oracle):
            raise SystemExit("in-memory engine diverges from summarize()")
        rows["in_memory"].append((cpu, wall))
        with tempfile.TemporaryDirectory(prefix="bench-durable-") as root:
            cpu, wall, served = _ingest(batches, root)
            if not _same(served, oracle):
                raise SystemExit("durable engine diverges from summarize()")
            rows["durable"].append((cpu, wall))
            with StreamEngine(checkpoint_dir=root) as recovered:
                if not _same(recovered.histogram("s"), oracle):
                    raise SystemExit("recovered engine diverges from summarize()")
    report = {
        "benchmark": "durable_ingest",
        "items": items,
        "batch": BATCH,
        "buckets": BUCKETS,
        "checkpoint_every": CHECKPOINT_EVERY,
        "repeats": repeats,
        "max_ratio": max_ratio,
    }
    for mode, samples in rows.items():
        cpu, wall = min(samples)
        report[mode] = {
            "cpu_s": cpu,
            "wall_s": wall,
            "items_per_s": items / wall,
            "cpu_s_all": [c for c, _ in samples],
        }
    ratio = report["durable"]["cpu_s"] / report["in_memory"]["cpu_s"]
    report["cpu_ratio"] = ratio
    report["generated_unix"] = time.time()
    print(
        f"min-merge B={BUCKETS}, {items} values in {BATCH}-value batches, "
        f"best of {repeats}"
    )
    for mode in ("in_memory", "durable"):
        row = report[mode]
        print(
            f"{mode:<10} cpu {row['cpu_s'] * 1e3:8.1f} ms   "
            f"wall {row['items_per_s'] / 1e6:6.2f}M items/s"
        )
    ok = ratio <= max_ratio
    print(f"durable / in-memory CPU: {ratio:.2f}x (gate <= {max_ratio:g}x) "
          f"{'ok' if ok else 'FAIL'}")
    if json_path is not None:
        json_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {json_path}")
    if not ok:
        print(json.dumps(report, indent=2), file=sys.stderr)
    return 0 if ok else 1


def test_durable_engine_serves_the_oracle():
    """``make bench`` surface: a small run, gated only on correctness."""
    assert run(20_000, 1, float("inf"), None) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"stream n={SMOKE_ITEMS} values instead of n={FULL_ITEMS}",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the report here"
    )
    args = parser.parse_args()
    items = SMOKE_ITEMS if args.smoke else FULL_ITEMS
    return run(items, REPEATS, MAX_RATIO, args.json)


if __name__ == "__main__":
    raise SystemExit(main())
