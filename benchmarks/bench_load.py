"""Load-SLO gate: boot a sharded cluster, drive hundreds of concurrent
clients with mixed append/query traffic, and fail on latency or
correctness regressions.

The CI ``load-slo`` job (and ``make load-slo``) runs::

    python benchmarks/bench_load.py --cluster-workers 3 --clients 200 \
        --json BENCH_LOAD.json

which:

1. boots a :class:`~repro.service.cluster.ClusterRouter` with N engine
   worker processes over a shared checkpoint directory;
2. drives ``--clients`` concurrent client threads (binary TCP and REST
   transports, mixed methods, interleaved queries) through the front
   listeners, recording per-operation wall-clock latency;
3. verifies every stream's final served histogram **bit-identically**
   against the serial ``summarize()`` oracle through the per-batch
   ledger (every acked batch present, in order -- zero acknowledged
   appends lost);
4. gates p50/p99 append and query latency against the SLO thresholds;
5. with ``--kill-worker``, SIGKILLs one worker mid-load and additionally
   requires that a survivor adopted its streams and that verification
   still passes (the zero-loss adoption guarantee, end to end).

The report lands in ``BENCH_LOAD.json`` (schema checked by
``benchmarks/validate_bench_json.py``) so runs stay machine-comparable
across PRs.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time

from repro.loadgen import LoadGenerator, verify_report
from repro.service import (
    ClusterRouter,
    HttpFrontend,
    ServiceClient,
    StreamEngine,
    StreamServer,
)

SCHEMA = "repro-bench-load/1"

#: Client transports cycled across the load clients.
TRANSPORTS = ("binary", "rest")


def _pick_victim(router: ClusterRouter, generator: LoadGenerator) -> str:
    """The live worker owning the most load streams (maximum blast radius)."""
    counts = {name: 0 for name in router.workers()}
    for i in range(generator.clients):
        counts[router.owner_of(generator.stream_name(i))] += 1
    return max(counts, key=lambda name: counts[name])


def _schedule_kill(
    router: ClusterRouter, generator: LoadGenerator, at_fraction: float
) -> dict:
    """Arm a chaos thread: kill one worker partway through the load."""
    outcome = {"armed": True, "victim": None, "killed_at_batches": None}
    total = generator.clients * generator.batches_per_client
    threshold = max(1, int(total * at_fraction))

    def chaos() -> None:
        while generator.batches_done < threshold:
            time.sleep(0.01)
        victim = _pick_victim(router, generator)
        outcome["victim"] = victim
        outcome["killed_at_batches"] = generator.batches_done
        router.kill_worker(victim)

    thread = threading.Thread(target=chaos, name="chaos-kill", daemon=True)
    thread.start()
    outcome["thread"] = thread
    return outcome


def _check_slo(report_dict: dict, slos: dict) -> list:
    """Return a list of human-readable SLO violations (empty = pass)."""
    violations = []
    for key, limit in slos.items():
        if not limit:
            continue
        op, _, stat = key.partition("_")  # e.g. "append_p99_ms"
        observed = report_dict[op][f"{stat}_ms" if not stat.endswith("_ms") else stat]
        if observed > limit:
            violations.append(
                f"{op} {stat}: {observed:.1f} ms > SLO {limit:g} ms"
            )
    return violations


def run(args: argparse.Namespace) -> dict:
    """Execute one load run; returns the full report dict.

    Raises ``SystemExit`` on verification failure, SLO breach, or a
    failed kill/adoption expectation.
    """
    slos = {
        "append_p50_ms": args.slo_append_p50_ms,
        "append_p99_ms": args.slo_append_p99_ms,
        "query_p50_ms": args.slo_query_p50_ms,
        "query_p99_ms": args.slo_query_p99_ms,
    }
    timeline = {"started_unix": time.time()}
    report: dict = {
        "schema": SCHEMA,
        "mode": args.mode,
        "config": {
            "cluster_workers": args.cluster_workers,
            "clients": args.clients,
            "batches_per_client": args.batches,
            "batch_size": args.batch_size,
            "buckets": args.buckets,
            "universe": args.universe,
            "methods": args.methods.split(","),
            "transports": list(TRANSPORTS),
            "kill_worker": args.kill_worker,
        },
        "slo": {k: v for k, v in slos.items()},
    }

    with tempfile.TemporaryDirectory(prefix="repro-load-") as state_dir:
        if args.mode == "cluster":
            service = ClusterRouter(
                state_dir,
                workers=args.cluster_workers,
                checkpoint_every=args.checkpoint_every,
                executor_workers=args.router_io_threads,
                http_port=0,
            ).start()
            port, http_port = service.port, service.http_port
        else:
            engine = StreamEngine(max_pending=10_000_000)
            service = StreamServer(
                engine, executor_workers=args.router_io_threads
            ).start_in_background()
            front = HttpFrontend(
                engine, executor_workers=args.router_io_threads
            ).start_in_background()
            port, http_port = service.port, front.port
        try:
            generator = LoadGenerator(
                port=port,
                http_port=http_port,
                transports=TRANSPORTS,
                clients=args.clients,
                batches_per_client=args.batches,
                batch_size=args.batch_size,
                buckets=args.buckets,
                universe=args.universe,
                methods=args.methods.split(","),
            )
            chaos = None
            if args.kill_worker:
                if args.mode != "cluster":
                    raise SystemExit("--kill-worker requires --mode cluster")
                chaos = _schedule_kill(service, generator, args.kill_at)
            timeline["load_started_unix"] = time.time()
            load = generator.run()
            timeline["load_finished_unix"] = time.time()
            report["load"] = load.to_dict()

            # -- correctness: every stream vs the serial oracle ----------
            verification = verify_report(load, buckets=args.buckets)
            timeline["verified_unix"] = time.time()
            report["verification"] = {
                "streams_verified": len(verification),
                "ambiguous_batches": load.ambiguous_batches,
                "bit_identical": True,
            }

            # -- cluster bookkeeping (and the kill expectations) ---------
            if args.mode == "cluster":
                with ServiceClient(port=port) as client:
                    stats = client.stats().data
                report["cluster"] = stats["cluster"]
                if args.kill_worker:
                    chaos["thread"].join(timeout=10.0)
                    report["cluster"]["victim"] = chaos["victim"]
                    if stats["cluster"]["deaths"] != 1:
                        raise SystemExit(
                            "kill-worker run recorded "
                            f"{stats['cluster']['deaths']} deaths (expected 1)"
                        )
                    if not stats["cluster"]["adoptions"]:
                        raise SystemExit(
                            "worker was killed but no streams were adopted"
                        )
        finally:
            service.stop()
            if args.mode != "cluster":
                front.stop()
                engine.close()

    report["timeline"] = timeline
    violations = _check_slo(report["load"], slos)
    report["slo_violations"] = violations
    report["generated_unix"] = time.time()
    if violations:
        for violation in violations:
            print(f"SLO VIOLATION: {violation}", file=sys.stderr)
        # Surface the measured latencies behind the violations in the job
        # log itself, so a CI gate failure is diagnosable without
        # downloading the artifact.
        print("offending report section:", file=sys.stderr)
        print(
            json.dumps(
                {"load": report["load"], "slo": report["slo"]},
                indent=2,
                sort_keys=True,
            ),
            file=sys.stderr,
        )
    return report


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cluster", "single"), default="cluster")
    parser.add_argument("--cluster-workers", type=int, default=3)
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--batches", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=100)
    parser.add_argument("--buckets", type=int, default=16)
    parser.add_argument("--universe", type=int, default=4096)
    parser.add_argument("--methods", default="min-merge,min-increment")
    parser.add_argument("--checkpoint-every", type=int, default=2_000)
    parser.add_argument(
        "--router-io-threads",
        type=int,
        default=32,
        help="front-side executor threads (max in-flight backend requests)",
    )
    parser.add_argument(
        "--kill-worker",
        action="store_true",
        help="SIGKILL one worker mid-load and require zero-loss adoption",
    )
    parser.add_argument(
        "--kill-at",
        type=float,
        default=0.35,
        help="fraction of total batches after which the kill fires",
    )
    # Defaults calibrated on a 1-core container at 200 clients (observed
    # append p50 ~275 ms / p99 ~1.2 s) with ~4x headroom for shared CI
    # runners; override per-run with the flags or the LOAD_SLO_* Make vars.
    parser.add_argument("--slo-append-p50-ms", type=float, default=1_000.0)
    parser.add_argument("--slo-append-p99-ms", type=float, default=5_000.0)
    parser.add_argument("--slo-query-p50-ms", type=float, default=1_000.0)
    parser.add_argument("--slo-query-p99-ms", type=float, default=5_000.0)
    parser.add_argument(
        "--json", default=None, help="also write the report to this path"
    )
    args = parser.parse_args(argv)

    report = run(args)
    load = report["load"]
    print(
        f"{args.mode}: {load['clients']} clients x "
        f"{load['batches_per_client']} batches x {load['batch_size']} values "
        f"in {load['elapsed_seconds']:.2f} s "
        f"({load['throughput_items_per_second']:,.0f} items/s acked)"
    )
    for op in ("append", "query"):
        row = load[op]
        print(
            f"  {op:<7} n={row['count']:<6} p50={row['p50_ms']:.1f} ms  "
            f"p90={row['p90_ms']:.1f} ms  p99={row['p99_ms']:.1f} ms  "
            f"max={row['max_ms']:.1f} ms"
        )
    print(
        f"  verified {report['verification']['streams_verified']} streams "
        f"bit-identical to summarize() "
        f"({report['verification']['ambiguous_batches']} ambiguous batches)"
    )
    if "cluster" in report:
        cluster = report["cluster"]
        print(
            f"  cluster: workers={len(cluster['workers'])} "
            f"deaths={cluster['deaths']} "
            f"adoptions={len(cluster['adoptions'])} "
            f"handoffs={cluster['handoffs']}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    if report["slo_violations"]:
        return 1
    print(
        "  SLOs met: "
        + ", ".join(f"{k}<={v:g}" for k, v in report["slo"].items() if v)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
