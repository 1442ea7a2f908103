"""Cluster worker process: one ``StreamEngine`` shard behind the wire.

Spawned by the router (or ``repro-histogram serve --workers N``) as::

    python -m repro.service.cluster.worker \
        --cluster-dir state/ --name w0 --ring w0,w1,w2

Each worker is a full single-process service -- the same
:class:`~repro.service.StreamEngine` + :class:`~repro.service.StreamServer`
stack, speaking the same binary wire protocol -- pointed at the
cluster's **shared** checkpoint root (``<cluster-dir>/tenants``).  On
startup it recovers only the manifested streams the hash ring assigns to
it (the ``owns`` predicate), binds an ephemeral port, and publishes
``{"port": ..., "pid": ...}`` to ``<cluster-dir>/workers/<name>.json``
for the router to discover.

A worker's engine journals, fsyncs, and applies an append **before**
acknowledging it (the engine's one ingest path), which is
the invariant the cluster's zero-loss adoption guarantee rests on
(``docs/CLUSTER.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Optional, Sequence

from repro.service.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.service.engine import StreamEngine
from repro.service.server import StreamServer

#: Subdirectory of the cluster dir holding every stream's checkpoint
#: store (shared by all workers; each stream dir is written by its owner).
TENANTS_DIR = "tenants"

#: Subdirectory where each worker publishes its bound port and pid.
WORKERS_DIR = "workers"

#: A worker engine's default per-stream in-flight bound (``--max-pending``).
DEFAULT_MAX_PENDING = 1_000_000


def tenants_dir(cluster_dir: str) -> str:
    """The shared per-stream checkpoint root of a cluster directory."""
    return os.path.join(os.fspath(cluster_dir), TENANTS_DIR)


def port_file(cluster_dir: str, name: str) -> str:
    """Where worker ``name`` publishes its ``{"port", "pid"}`` record."""
    return os.path.join(os.fspath(cluster_dir), WORKERS_DIR, f"{name}.json")


def build_worker(
    cluster_dir: str,
    name: str,
    ring_nodes: Sequence[str],
    *,
    host: str = "127.0.0.1",
    checkpoint_every: Optional[int] = None,
    replicas: int = DEFAULT_REPLICAS,
    max_pending: int = DEFAULT_MAX_PENDING,
    recover: bool = True,
) -> tuple[StreamEngine, StreamServer]:
    """Engine + (unstarted) server for one shard; shared by CLI and tests.

    ``recover=False`` (the router's ``--no-recover``) starts the engine
    empty even when the ring would assign it manifested streams: a
    restarted or newly-grown worker must receive state only through
    explicit ``adopt`` requests (handoff), never by racing the current
    live owners for the shared checkpoint directories at startup.
    """
    ring = HashRing(ring_nodes, replicas=replicas)
    if name not in ring:
        raise SystemExit(f"worker name {name!r} is not on the ring {ring.nodes}")
    owns = (
        (lambda stream_id: ring.node_for(stream_id) == name)
        if recover
        else (lambda stream_id: False)
    )
    engine = StreamEngine(
        checkpoint_dir=tenants_dir(cluster_dir),
        checkpoint_every=checkpoint_every,
        max_pending=max_pending,
        owns=owns,
    )
    server = StreamServer(engine, host=host, port=0)
    return engine, server


def publish(cluster_dir: str, name: str, port: int) -> None:
    """Atomically publish this worker's endpoint for the router."""
    path = port_file(cluster_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"name": name, "port": port, "pid": os.getpid()}, handle)
    os.replace(tmp, path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Worker process entry point; serves until SIGTERM/SIGINT."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cluster-dir", required=True)
    parser.add_argument("--name", required=True, help="this worker's ring name")
    parser.add_argument(
        "--ring",
        required=True,
        help="comma-separated names of every worker on the ring",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--checkpoint-every", type=int, default=None)
    parser.add_argument("--replicas", type=int, default=DEFAULT_REPLICAS)
    parser.add_argument(
        "--max-pending", type=int, default=DEFAULT_MAX_PENDING
    )
    parser.add_argument(
        "--no-recover",
        action="store_true",
        help="start empty; state arrives only via adopt (restart/grow)",
    )
    args = parser.parse_args(argv)

    engine, server = build_worker(
        args.cluster_dir,
        args.name,
        [n for n in args.ring.split(",") if n],
        host=args.host,
        checkpoint_every=args.checkpoint_every,
        replicas=args.replicas,
        max_pending=args.max_pending,
        recover=not args.no_recover,
    )

    def _terminate(signum, frame):  # noqa: ANN001 - signal signature
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    server.start_in_background()
    publish(args.cluster_dir, args.name, server.port)
    try:
        server._thread.join()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        server.stop()
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
