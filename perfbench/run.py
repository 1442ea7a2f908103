"""End-to-end benchmark of the streaming histogram service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest-durable --seed 1 --seconds 15 --trace 0

Each run launches the real server (``python3 -m repro serve`` with its
default settings plus the workload's flags) as a subprocess, drives one
workload from this process with at most two connections on two threads,
checks every served histogram against ``repro.summarize`` over the
values the server acknowledged, prints every metric by name and unit,
and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice on the same inputs -- once untraced, once through
``perfbench/traced_serve.py`` -- and reports the per-layer metrics of
the traced run plus ``trace.overhead_ratio``.  Any correctness mismatch
prints the JSON line with ``"correct": false`` and exits 1.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import load as load_spans  # noqa: E402
from spans import summarize_spans  # noqa: E402

WORKLOADS = ("ingest-durable", "ingest-pwl", "tenants-mixed")

#: Bucket budget B of every stream, and the value domain [0, UNIVERSE).
BUCKETS = 32
UNIVERSE = 4096
#: Random-walk step range: uniform integers in [-STEP, STEP].
STEP = 16

#: ``--checkpoint-every`` of the durable workloads.
CHECKPOINT_EVERY = 50_000
#: Durable runs end with this many batches per stream past the newest
#: snapshot, so recovery always replays the same journal tail.
TAIL_BATCHES = 5

#: Fresh launches per run for ``setup_s``; relaunches for recovery.
SETUP_LAUNCHES = 5
RECOVERY_LAUNCHES = 3

#: Batches per stream covered by a closed-loop workload's fingerprint.
FINGERPRINT_BATCHES = 25

#: tenants-mixed: streams, popularity skew, request mix and offered rate.
TENANT_STREAMS = 64
ZIPF_S = 1.1
TENANT_BATCH = 100
QUERY_SHARE = 0.2
OFFERED_RATE = 200.0
#: A tenants-mixed run is invalid when the median backlog of its last
#: quarter exceeds that of its first quarter by more than this.  Medians,
#: so that a stall of the machine which the server then catches up on
#: does not count as growth; a rate above capacity grows it steadily.
BACKLOG_GROWTH_LIMIT = 5.0

#: Spans whose calls, self time and share the traced run reports.
SPAN_NAMES = (
    "journal.append",
    "journal.sync",
    "journal.compact",
    "fsync",
    "store.ingest",
    "store.save",
    "store.recover",
    "checkpoint.state_dict",
    "checkpoint.restore",
    "kernel.extend",
    "kernel.histogram",
    "engine.append",
    "engine.histogram",
    "wire.decode",
    "wire.encode",
    "histogram.to_dict",
)
#: Spans that run only while a relaunched server recovers.
RECOVERY_SPANS = ("store.recover", "checkpoint.restore")

SERVER_START_TIMEOUT = 60.0

#: tenants-mixed: seconds of the schedule that are sent and checked but
#: not timed; an open loop on a fresh server starts out slower.
TENANT_WARMUP_S = 3.0


class CheckFailed(Exception):
    """A correctness or validity violation; the run counts as failed."""


@contextlib.contextmanager
def no_gc_pauses():
    """Keep the load generator's own garbage collector out of the timed
    phase: a full collection over the answers it has kept stops both
    client threads and would show up as server latency."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


# -- inputs --------------------------------------------------------------------


class Walk:
    """A seeded integer random walk reflected into ``[0, UNIVERSE)``.

    Batch ``j`` of a walk depends only on ``(seed, tag, index)`` and the
    batches before it, so every run with the same seed generates the
    same bytes however many batches it ends up sending.
    """

    def __init__(self, seed: int, tag: int, index: int) -> None:
        self.rng = np.random.default_rng([seed, tag, index])
        self.position = int(self.rng.integers(0, UNIVERSE))

    def next(self, n: int) -> np.ndarray:
        path = self.position + np.cumsum(
            self.rng.integers(-STEP, STEP + 1, size=n)
        )
        self.position = int(path[-1])
        period = 2 * (UNIVERSE - 1)
        folded = np.mod(path, period)
        return np.where(
            folded > UNIVERSE - 1, period - folded, folded
        ).astype(np.float64)


class BatchLog:
    """The batches a stream was sent, in order, and how many were acked."""

    def __init__(self, walk: Walk, size: int) -> None:
        self.walk = walk
        self.size = size
        self.batches: list = []
        self.acked = 0

    def batch(self, j: int) -> np.ndarray:
        while len(self.batches) <= j:
            self.batches.append(self.walk.next(self.size))
        return self.batches[j]

    def values(self) -> np.ndarray:
        """Every acknowledged value, in order."""
        return np.concatenate([self.batch(j) for j in range(self.acked)])


def fingerprint(chunks) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


# -- the server process ----------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on ephemeral ports."""

    def __init__(self, root, workdir, flags, *, spans_path=None) -> None:
        python = sys.executable
        if spans_path is None:
            cmd = [python, "-m", "repro", "serve"]
        else:
            cmd = [python, os.path.join(HERE, "traced_serve.py"), spans_path,
                   "serve"]
        cmd += ["--port", "0", *flags]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._log_path = os.path.join(workdir, "server.log")
        self._log = open(self._log_path, "ab")
        self._lines: queue.Queue = queue.Queue()
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = None
        self.http_port = None

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace").strip())
        self._lines.put(None)

    def wait_listening(self) -> "Server":
        deadline = self.started + SERVER_START_TIMEOUT
        while self.port is None:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                line = None
            if line is None:
                raise self._start_failure()
            if line.startswith("REST facade on http://"):
                self.http_port = int(line.rsplit(":", 1)[1].split("/")[0])
            elif line.startswith("listening on "):
                self.port = int(line.rsplit(":", 1)[1])
        return self

    def _start_failure(self) -> RuntimeError:
        """The error for a server that exited or hung before listening,
        with the last lines it wrote to stderr."""
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            pass
        self._log.flush()
        with open(self._log_path, "rb") as handle:
            log = handle.read().decode("utf-8", "replace").strip()
        return RuntimeError(
            f"server did not start (exit code {self.proc.poll()}): "
            + " | ".join(log.splitlines()[-2:])
        )

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server so far, all threads,
        from ``/proc``.  Time the host gave to other guests (steal) and
        time spent waiting to be woken are not in it."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self, sig=signal.SIGTERM) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        self._log.close()


def tcp_client(port):
    from repro.service import ServiceClient

    return ServiceClient(port=port, transport="binary", timeout=60.0)


def http_client(port):
    from repro.service import ServiceClient

    return ServiceClient.from_url(f"http://127.0.0.1:{port}", timeout=60.0)


def launch_until_ping(root, workdir, flags, *, spans_path=None):
    """Launch a server; return ``(server, seconds until the first ping)``."""
    server = Server(root, workdir, flags, spans_path=spans_path)
    try:
        server.wait_listening()
        with tcp_client(server.port) as client:
            if not client.ping():
                raise RuntimeError("ping answered without pong")
    except BaseException:
        server.stop(signal.SIGKILL)
        raise
    return server, time.monotonic() - server.started


def measure_setup(root, workdir, flags_for):
    """``SETUP_LAUNCHES`` fresh launches; keeps the last server running.

    ``flags_for(k)`` gives launch ``k``'s flags (a fresh state directory
    each).  Returns ``(server, median seconds, all seconds)``.
    """
    times = []
    server = None
    for k in range(SETUP_LAUNCHES):
        if server is not None:
            server.stop()
        server, elapsed = launch_until_ping(root, workdir, flags_for(k))
        times.append(elapsed)
    return server, statistics.median(times), times


# -- statistics ------------------------------------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile; ``inf`` samples (failures) sort last."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Samples per window of ``tail_percentile``: ten lie beyond its p99.
TAIL_WINDOW = 1000
TAIL_MAX_WINDOWS = 5


def tail_percentile(samples, q: float = 99) -> tuple:
    """``(median of per-window percentiles, windows)`` of time-ordered
    samples.

    The run is cut into up to ``TAIL_MAX_WINDOWS`` consecutive windows of
    at least ``TAIL_WINDOW`` samples; a stall of the machine then moves
    one window's percentile instead of the run's.  With fewer samples
    than one window the percentile is taken over all of them.
    """
    windows = max(1, min(TAIL_MAX_WINDOWS, len(samples) // TAIL_WINDOW))
    size = len(samples) // windows
    values = [
        percentile(samples[w * size:(w + 1) * size], q) for w in range(windows)
    ]
    return statistics.median(values), windows


def histogram_key(hist):
    return (hist.error, tuple(hist.segments))


def oracle_histogram(values, method: str):
    from repro import summarize

    return summarize(values, BUCKETS, method=method)


def state_bytes(directory) -> tuple:
    """``(journal bytes, snapshot bytes)`` on disk under ``directory``."""
    journal = snapshot = 0
    for dirpath, _dirs, files in os.walk(directory):
        for name in files:
            size = os.stat(os.path.join(dirpath, name)).st_size
            if name.startswith("journal"):
                journal += size
            elif name.startswith("snapshot"):
                snapshot += size
    return journal, snapshot


def host_cpu_ticks() -> tuple:
    """``(steal, total)`` CPU ticks of this machine so far, from
    ``/proc/stat``: steal is time the host ran other guests instead."""
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(x) for x in handle.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before, after) -> float:
    """Share of the machine's CPU time between two ``host_cpu_ticks()``
    readings that the host gave to other guests."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def summary_bytes(port) -> int:
    with tcp_client(port) as client:
        streams = client.stats().data["streams"]
    return sum(int(s["memory_bytes"]) for s in streams.values())


# -- closed-loop ingest (ingest-durable, ingest-pwl) -------------------------------


class _Start(threading.Barrier):
    """Barrier whose last arrival starts the timed phase: it stamps the
    time and the server's CPU time, with no request in flight."""

    def __init__(self, parties: int, server) -> None:
        super().__init__(parties, action=self._stamp)
        self.server = server
        self.t0 = None
        self.cpu0 = None
        self.ticks0 = None

    def _stamp(self) -> None:
        self.t0 = time.monotonic()
        self.cpu0 = self.server.cpu_seconds()
        self.ticks0 = host_cpu_ticks()


INGEST = {
    # name: (method, clients, streams per client, batch size, tag,
    #        untimed warm-up batches per stream)
    "ingest-durable": ("min-merge", 2, 2, 5000, 1, 2 * CHECKPOINT_EVERY // 5000),
    "ingest-pwl": ("pwl-min-merge", 1, 1, 1000, 2, 20),
}


class IngestPass:
    """One server lifetime of a closed-loop ingest workload."""

    def __init__(self, workload, seed):
        method, clients, per_client, batch, tag, warmup = INGEST[workload]
        self.method = method
        self.warmup = warmup
        self.period = CHECKPOINT_EVERY // batch
        self.ids = [f"ingest-{i}" for i in range(clients * per_client)]
        self.logs = {
            sid: BatchLog(Walk(seed, tag, i), batch)
            for i, sid in enumerate(self.ids)
        }
        self.groups = [
            self.ids[c * per_client:(c + 1) * per_client] for c in range(clients)
        ]
        self.samples: list = []
        self.attempted = 0
        self.failed = 0
        self.timed_items = 0
        self.server_cpu_s = 0.0
        self.steal = 0.0
        self.errors: list = []

    def _client(self, client, streams, start, seconds, out) -> None:
        """Warm up, wait for the other clients, then run the closed loop.

        ``out`` gets ``(samples, attempted, failed, timed items)`` with one
        ``(sent, seconds to ack)`` sample per timed append.
        """
        config = {"method": self.method, "buckets": BUCKETS,
                  "universe": UNIVERSE}
        logs = [self.logs[s] for s in streams]
        samples = []
        attempted = failed = items = 0
        clock = time.monotonic
        timed = False
        deadline = None
        try:
            while True:
                if not timed and all(log.acked >= self.warmup for log in logs):
                    timed = True
                    start.wait()
                    deadline = start.t0 + seconds
                if timed and clock() >= deadline and all(
                    log.acked % self.period == TAIL_BATCHES
                    and log.acked > self.period for log in logs
                ):
                    break
                for sid, log in zip(streams, logs):
                    values = log.batch(log.acked)
                    attempted += timed
                    sent = clock()
                    try:
                        result = client.append(
                            sid, values, **(config if log.acked == 0 else {})
                        )
                    except Exception:
                        failed += timed
                        samples.append((sent, float("inf")))
                        raise
                    if timed:
                        samples.append((sent, clock() - sent))
                        items += len(values)
                    if result.accepted != len(values):
                        raise CheckFailed(
                            f"{sid}: {result.accepted} accepted of {len(values)}"
                        )
                    log.acked += 1
        except Exception as exc:  # reported by drive(); the run then fails
            self.errors.append(f"client {streams}: {exc!r}")
            if not timed:
                start.abort()
        out.append((samples, attempted, failed, items))

    def drive(self, server, seconds):
        """Warm-up, then a closed loop until ``seconds`` pass and every
        stream sits ``TAIL_BATCHES`` past a snapshot.  Returns ``(t0, t1)``
        and sets ``server_cpu_s`` to the server's CPU time in between."""
        out: list = []
        start = _Start(len(self.groups), server)
        clients = [tcp_client(server.port) for _ in self.groups]
        try:
            threads = [
                threading.Thread(target=self._client,
                                 args=(client, group, start, seconds, out))
                for client, group in zip(clients, self.groups)
            ]
            with no_gc_pauses():
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            for client in clients:
                client.close()
        t1 = time.monotonic()
        if self.errors:
            raise CheckFailed("; ".join(self.errors))
        self.server_cpu_s = server.cpu_seconds() - start.cpu0
        self.steal = steal_share(start.ticks0, host_cpu_ticks())
        for samples, attempted, failed, items in out:
            self.samples += samples
            self.attempted += attempted
            self.failed += failed
            self.timed_items += items
        self.samples.sort()
        return start.t0, t1

    def latencies_ms(self) -> list:
        return [latency * 1000.0 for _sent, latency in self.samples]

    def served(self, port) -> dict:
        with tcp_client(port) as client:
            return {sid: client.query(sid).histogram for sid in self.ids}

    def fingerprint(self) -> str:
        return fingerprint(
            self.logs[sid].batch(j).tobytes()
            for sid in self.ids
            for j in range(FINGERPRINT_BATCHES)
        )


class Oracles:
    """``summarize()`` results cached by ``(method, stream, acked
    batches)``, shared by every pass of a run over the same inputs."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, method, sid, log):
        key = (method, sid, log.acked)
        if key not in self._cache:
            self._cache[key] = oracle_histogram(log.values(), method)
        return self._cache[key]


def check_served(served, run, oracles, what) -> None:
    for sid in run.ids:
        expect = oracles.get(run.method, sid, run.logs[sid])
        if histogram_key(served[sid]) != histogram_key(expect):
            raise CheckFailed(
                f"{what}: {sid} histogram differs from summarize() over its "
                f"{run.logs[sid].acked} acknowledged batches"
            )


def error_ratio(pairs) -> float:
    """Max over ``(served error, values)`` of served ÷ offline optimum."""
    from repro.offline.optimal import optimal_error

    worst = 0.0
    for served_error, values in pairs:
        optimum = optimal_error(values.tolist(), BUCKETS)
        if optimum == 0.0:
            if served_error != 0.0:
                return float("inf")
            continue
        worst = max(worst, served_error / optimum)
    return worst


def durable_flags(state_dir) -> list:
    return ["--checkpoint-dir", state_dir,
            "--checkpoint-every", str(CHECKPOINT_EVERY)]


def run_ingest(ctx, workload, traced: bool, oracles) -> dict:
    """The full ingest run: setup, append phase, kill, recovery, checks."""
    root, workdir, seed, seconds = ctx
    state = os.path.join(workdir, "state")
    run = IngestPass(workload, seed)
    out = {"fingerprint": run.fingerprint()}
    spans_path = os.path.join(workdir, "spans-ingest.json") if traced else None
    if traced:
        server, setup = launch_until_ping(root, workdir, durable_flags(state),
                                          spans_path=spans_path)
        setup_all = [setup]
    else:
        server, setup, setup_all = measure_setup(
            root, workdir,
            lambda k: durable_flags(
                state if k == SETUP_LAUNCHES - 1
                else os.path.join(workdir, f"setup-{k}")
            ),
        )
    try:
        t0, t1 = run.drive(server, seconds)
        served = run.served(server.port)
        out["summary_bytes"] = summary_bytes(server.port)
        out["server_rss_mb"] = server.peak_rss_mib()
        out["journal_bytes"], out["snapshot_bytes"] = state_bytes(state)
    finally:
        # SIGKILL is the crash under test; a traced server is stopped with
        # SIGTERM instead so it can write its spans.  Either way the state
        # directory is the same: every ack was journaled and fsynced, and
        # shutdown writes no snapshot.
        server.stop(signal.SIGTERM if traced else signal.SIGKILL)
    check_served(served, run, oracles, "served")
    recover_times = []
    recovery_spans = []
    for k in range(RECOVERY_LAUNCHES):
        path = (os.path.join(workdir, f"spans-recover-{k}.json")
                if traced else None)
        relaunched = Server(root, workdir, durable_flags(state),
                            spans_path=path)
        try:
            try:
                relaunched.wait_listening()
            except RuntimeError as exc:
                raise CheckFailed(f"relaunch {k + 1} did not recover: {exc}")
            recovered = run.served(relaunched.port)
            recover_times.append(time.monotonic() - relaunched.started)
        finally:
            relaunched.stop(signal.SIGTERM if traced else signal.SIGKILL)
        check_served(recovered, run, oracles, f"recovered (relaunch {k + 1})")
        if path is not None:
            recovery_spans.append(load_spans(path))
    ratio = error_ratio(
        (served[sid].error, run.logs[sid].values()) for sid in run.ids
    )
    if run.method == "min-merge" and not ratio <= 1.0:
        raise CheckFailed(f"min-merge error_ratio {ratio} > 1 (Theorem 1)")
    latencies_ms = run.latencies_ms()
    p99, windows = tail_percentile(latencies_ms)
    wall = t1 - t0
    out.update(
        setup_s=setup,
        setup_all=setup_all,
        ingest_items_per_s=run.timed_items / wall,
        append_p50_ms=percentile(latencies_ms, 50),
        server_cpu_ms_per_request=run.server_cpu_s * 1000.0 / len(latencies_ms),
        append_p99_ms=p99,
        p99_windows=windows,
        appends=len(latencies_ms),
        recover_s=statistics.median(recover_times),
        recover_all=recover_times,
        error_ratio=ratio,
        attempted=run.attempted,
        failed=run.failed,
        phase=(t0, t1),
        steal=run.steal,
        batches={sid: log.acked for sid, log in run.logs.items()},
        client_service_s=sum(latency for _sent, latency in run.samples),
        requests=len(run.samples),
    )
    if traced:
        out["spans"] = load_spans(spans_path)
        out["recovery_spans"] = recovery_spans
    return out


def reference_ingest(ctx, workload, oracles) -> dict:
    """Untraced pass for ``trace.overhead_ratio``: launch, ingest, check."""
    root, workdir, seed, seconds = ctx
    state = os.path.join(workdir, "reference-state")
    run = IngestPass(workload, seed)
    server, _setup = launch_until_ping(root, workdir, durable_flags(state))
    try:
        run.drive(server, seconds)
        served = run.served(server.port)
    finally:
        server.stop()
    check_served(served, run, oracles, "reference pass")
    shutil.rmtree(state, ignore_errors=True)
    return {"append_p50_ms": percentile(run.latencies_ms(), 50)}


# -- open-loop mixed tenants ----------------------------------------------------------


def zipf_probabilities(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** s
    return weights / weights.sum()


class TenantSchedule:
    """The seeded open-loop request plan of tenants-mixed.

    Streams are split between the two connections so that each carries
    about half the popularity mass; a stream is only ever written and
    read through its own connection, so every response corresponds to a
    known prefix of that stream's batches.  Each connection sends at
    ``OFFERED_RATE / 2`` on a fixed grid, the second offset by half a
    period.  The first ``TENANT_WARMUP_S`` seconds of it are sent and
    checked but not timed; ``first_timed`` is the index of the first
    timed request on each connection.
    """

    def __init__(self, seed, seconds):
        interval = 2.0 / OFFERED_RATE
        self.first_timed = int(OFFERED_RATE / 2.0 * TENANT_WARMUP_S)
        per_conn = self.first_timed + int(OFFERED_RATE / 2.0 * seconds)
        probs = zipf_probabilities(TENANT_STREAMS, ZIPF_S)
        self.ids = [f"tenant-{i:02d}" for i in range(TENANT_STREAMS)]
        owned = ([], [])
        mass = [0.0, 0.0]
        for i in np.argsort(-probs, kind="stable"):
            c = 0 if mass[0] <= mass[1] else 1
            owned[c].append(int(i))
            mass[c] += probs[i]
        self.owned = owned
        walks = [Walk(seed, 3, i) for i in range(TENANT_STREAMS)]
        # Warm-up: one batch per stream creates it before timing starts.
        self.warmup = [walks[i].next(TENANT_BATCH) for i in range(TENANT_STREAMS)]
        rng = np.random.default_rng([seed, 3, TENANT_STREAMS])
        self.plans = []
        for c in (0, 1):
            streams = np.array(owned[c])
            p = probs[streams] / probs[streams].sum()
            picks = rng.choice(streams, size=per_conn, p=p)
            queries = rng.random(per_conn) < QUERY_SHARE
            plan = []
            for k in range(per_conn):
                due = c * interval / 2.0 + k * interval
                sid = int(picks[k])
                values = None if queries[k] else walks[sid].next(TENANT_BATCH)
                plan.append((due, sid, values))
            self.plans.append(plan)

    def fingerprint(self) -> str:
        def chunks():
            for batch in self.warmup:
                yield batch.tobytes()
            for c, plan in enumerate(self.plans):
                for due, sid, values in plan:
                    yield f"{c}:{due!r}:{sid}:".encode()
                    yield b"q" if values is None else values.tobytes()
        return fingerprint(chunks())



def _open_loop(client, plan, t0, ids, out, c) -> None:
    """Send ``plan`` on schedule; ``out[c]`` gets one row per request:
    ``(kind, sid, due, sent, done, ok, answer)``."""
    clock = time.monotonic
    rows = []
    for offset, sid, values in plan:
        due = t0 + offset
        now = clock()
        if now < due:
            time.sleep(due - now)
        sent = clock()
        answer = None
        try:
            if values is None:
                answer = client.query(ids[sid]).histogram
            elif client.append(ids[sid], values).accepted != len(values):
                raise CheckFailed(f"{ids[sid]}: short append")
            ok = True
        except Exception as exc:  # a failed request; the run then fails
            ok = False
            answer = repr(exc)
        rows.append(("q" if values is None else "a", sid, due, sent, clock(),
                     ok, answer))
    out[c] = rows


def backlog_at_due(rows) -> list:
    """For each request of one connection, how many earlier requests were
    due but not yet sent at the moment it fell due."""
    sent = [row[3] for row in rows]
    return [k - bisect.bisect_right(sent, row[2])
            for k, row in enumerate(rows)]


def run_tenants(ctx, traced: bool, *, reference=False) -> dict:
    """Setup, warm-up (one batch per stream, then the untimed start of the
    schedule), open loop, checks."""
    root, workdir, seed, seconds = ctx
    schedule = TenantSchedule(seed, seconds)
    flags = ["--http-port", "0"]
    spans_path = os.path.join(workdir, "spans-tenants.json") if traced else None
    if traced or reference:
        server, setup = launch_until_ping(root, workdir, flags,
                                          spans_path=spans_path)
        setup_all = [setup]
    else:
        server, setup, setup_all = measure_setup(root, workdir, lambda k: flags)
    ids = schedule.ids
    first = schedule.first_timed
    out = [None, None]
    try:
        clients = []
        try:
            clients.append(tcp_client(server.port))
            clients.append(http_client(server.http_port))
            config = {"method": "min-merge", "buckets": BUCKETS,
                      "universe": UNIVERSE}
            for c in (0, 1):
                for sid in schedule.owned[c]:
                    clients[c].append(ids[sid], schedule.warmup[sid], **config)
            with no_gc_pauses():
                t0 = time.monotonic() + 0.05
                threads = [
                    threading.Thread(target=_open_loop,
                                     args=(clients[c], schedule.plans[c], t0,
                                           ids, out, c))
                    for c in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                try:
                    timed_from = t0 + schedule.plans[0][first][0]
                    time.sleep(max(0.0, timed_from - time.monotonic()))
                    cpu0 = server.cpu_seconds()
                    ticks0 = host_cpu_ticks()
                finally:
                    for thread in threads:
                        thread.join()
                cpu = server.cpu_seconds() - cpu0
                steal = steal_share(ticks0, host_cpu_ticks())
        finally:
            for client in clients:
                client.close()
        t1 = max(row[4] for conn in out for row in conn)
        with tcp_client(server.port) as control:
            final = [control.query(sid).histogram for sid in ids]
        memory = summary_bytes(server.port)
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    failures = [row for conn in out for row in conn if not row[5]]
    if failures:
        raise CheckFailed(
            f"{len(failures)} failed request(s), first: {failures[0][6]}"
        )
    backlogs = [backlog_at_due(conn_rows)[first:] for conn_rows in out]
    growth = max(_backlog_growth(backlog) for backlog in backlogs)
    if growth > BACKLOG_GROWTH_LIMIT:
        raise CheckFailed(
            f"invalid run: the open-loop backlog grew by {growth:.1f} "
            f"requests over the run; {OFFERED_RATE:g} req/s is above capacity"
        )
    ratio = _check_tenants(schedule, out, final)
    rows = sorted((row for conn in out for row in conn[first:]),
                  key=lambda row: row[2])
    append_ms = [(r[4] - r[2]) * 1000.0 for r in rows if r[0] == "a"]
    p99, windows = tail_percentile(append_ms)
    query_ms = [(r[4] - r[2]) * 1000.0 for r in rows if r[0] == "q"]
    late_ms = [(r[3] - r[2]) * 1000.0 for r in rows]
    return {
        "fingerprint": schedule.fingerprint(),
        "setup_s": setup,
        "setup_all": setup_all,
        "server_cpu_ms_per_request": cpu * 1000.0 / len(rows),
        "ingest_items_per_s": len(append_ms) * TENANT_BATCH / (t1 - timed_from),
        "append_p50_ms": percentile(append_ms, 50),
        "append_p99_ms": p99,
        "p99_windows": windows,
        "appends": len(append_ms),
        "query_p50_ms": percentile(query_ms, 50),
        "query_p99_ms": percentile(query_ms, 99),
        "queries": len(query_ms),
        "error_ratio": ratio,
        "summary_bytes": memory,
        "server_rss_mb": rss,
        "attempted": len(rows),
        "failed": len(failures),
        "phase": (timed_from, t1),
        "steal": steal,
        "late_p99_ms": percentile(late_ms, 99),
        "backlog_max": max(max(backlog) for backlog in backlogs),
        "client_service_s": sum(r[4] - r[3] for r in rows),
        "requests": len(rows),
        "spans": load_spans(spans_path) if traced else None,
    }


def _backlog_growth(backlog) -> float:
    quarter = max(1, len(backlog) // 4)
    return statistics.median(backlog[-quarter:]) - statistics.median(
        backlog[:quarter]
    )


def _check_tenants(schedule, out, final) -> float:
    """Every in-phase query answer and every final histogram, checked.

    A stream is only touched through its own connection, so the answer
    to a query is the summary of exactly the batches acknowledged before
    it on that connection.  In-phase answers are compared with a summary
    fed those batches one by one (batch ingest is split-invariant); the
    final histogram of each stream with ``summarize()`` over all its
    values.  Returns ``error_ratio``.
    """
    from repro.api import build_summary

    values = {sid: [schedule.warmup[sid]] for sid in range(TENANT_STREAMS)}
    for c, plan in enumerate(schedule.plans):
        summaries = {}
        for (_due, sid, batch), row in zip(plan, out[c]):
            if batch is not None:
                values[sid].append(batch)
                if sid in summaries:
                    summaries[sid].extend(batch)
                continue
            summary = summaries.get(sid)
            if summary is None:
                summary = summaries[sid] = build_summary(
                    "min-merge", buckets=BUCKETS
                )
                summary.extend(np.concatenate(values[sid]))
            if histogram_key(row[6]) != histogram_key(summary.histogram()):
                raise CheckFailed(
                    f"{schedule.ids[sid]}: an in-phase query answer differs "
                    "from the summary of the batches acknowledged before it"
                )
    pairs = []
    for sid in range(TENANT_STREAMS):
        joined = np.concatenate(values[sid])
        expect = oracle_histogram(joined, "min-merge")
        if histogram_key(final[sid]) != histogram_key(expect):
            raise CheckFailed(
                f"{schedule.ids[sid]}: final histogram differs from "
                "summarize() over its acknowledged values"
            )
        pairs.append((final[sid].error, joined))
    ratio = error_ratio(pairs)
    if not ratio <= 1.0:
        raise CheckFailed(f"min-merge error_ratio {ratio} > 1 (Theorem 1)")
    return ratio


# -- per-layer metrics from the traced run ------------------------------------------


def layer_metrics(result, reference) -> dict:
    """The per-layer metrics of one traced run (see README.md)."""
    t0, t1 = result["phase"]
    wall = t1 - t0
    phase = summarize_spans(result["spans"], (t0, t1))
    recovery = {}
    recover_wall = 0.0
    launches = result.get("recovery_spans") or []
    for spans in launches:
        for name, entry in summarize_spans(spans).items():
            total = recovery.setdefault(name, {"calls": 0, "self_s": 0.0})
            total["calls"] += entry["calls"] / len(launches)
            total["self_s"] += entry["self_s"] / len(launches)
    if launches:
        recover_wall = statistics.fmean(result["recover_all"])
    empty = {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "items": 0}
    metrics = {}
    for name in SPAN_NAMES:
        if name in RECOVERY_SPANS:
            entry, base = recovery.get(name, empty), recover_wall
        else:
            entry, base = phase.get(name, empty), wall
        metrics[f"{name}.calls"] = (entry["calls"], "count")
        metrics[f"{name}.self_ms"] = (entry["self_s"] * 1000.0, "ms")
        metrics[f"{name}.share"] = (
            entry["self_s"] / base if base > 0 else 0.0, "1")
    extend = phase.get("kernel.extend", empty)
    served = phase.get("engine.histogram", empty)["calls"]
    computed = phase.get("kernel.histogram", empty)["calls"]
    server_s = sum(entry["self_s"] for entry in phase.values())
    metrics.update({
        "journal.bytes_on_disk": (result.get("journal_bytes", 0), "B"),
        "snapshot.bytes_on_disk": (result.get("snapshot_bytes", 0), "B"),
        "kernel.extend.items_per_s": (
            extend["items"] / extend["busy_s"] if extend["busy_s"] else 0.0,
            "items/s"),
        "engine.query_cache_hit_ratio": (
            1.0 - computed / served if served else 0.0, "1"),
        "transport.self_ms_mean": (
            (result["client_service_s"] - server_s) * 1000.0
            / result["requests"], "ms"),
        "loadgen.late_p99_ms": (result.get("late_p99_ms", 0.0), "ms"),
        "loadgen.backlog_max": (result.get("backlog_max", 0), "count"),
        "trace.overhead_ratio": (
            result["append_p50_ms"] / reference["append_p50_ms"], "1"),
    })
    return metrics


def print_breakdown(metrics, result) -> None:
    """Shares by layer, largest first, and per-request self times."""
    requests = result["requests"]
    rows = sorted(
        ((metrics[f"{n}.share"][0], metrics[f"{n}.self_ms"][0], n)
         for n in SPAN_NAMES if n not in RECOVERY_SPANS),
        reverse=True,
    )
    print("  append-phase self time by span (share of phase wall time):")
    for share, self_ms, name in rows:
        if self_ms > 0:
            print(f"    {name:<22} {share:7.1%}  {self_ms / requests:8.3f} "
                  f"ms/request")
    print(f"    {'transport (derived)':<22} {'':7}  "
          f"{metrics['transport.self_ms_mean'][0]:8.3f} ms/request")


# -- entry point -------------------------------------------------------------------


#: The end-to-end metrics of the machine-readable result: each one is
#: measured on every workload (BENCHMARK.json lists them with bounds).
END_TO_END = (
    ("setup_s", "s"),
    ("server_cpu_ms_per_request", "ms"),
    ("error_ratio", "1"),
    ("summary_bytes", "B"),
    ("server_rss_mb", "MiB"),
)
#: Printed with the others but kept out of the machine-readable result:
#: the query and recovery metrics exist only on some workloads,
#: failed_ratio reads 0 (it is the result's failed/attempted), and the
#: wall-clock rates and latencies move between runs on a shared 2-vCPU
#: machine by more than any bound a regression check could use (see
#: README.md).
PRINTED_ONLY = (
    ("ingest_items_per_s", "items/s"),
    ("append_p50_ms", "ms"),
    ("append_p99_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("recover_s", "s"),
    ("failed_ratio", "1"),
)

REPORT_ORDER = (
    "setup_s", "server_cpu_ms_per_request", "ingest_items_per_s",
    "append_p50_ms", "append_p99_ms",
    "query_p50_ms", "query_p99_ms", "recover_s", "error_ratio",
    "summary_bytes", "server_rss_mb", "failed_ratio",
)


def run_workload(ctx, workload, traced, oracles):
    if workload == "tenants-mixed":
        return run_tenants(ctx, traced)
    return run_ingest(ctx, workload, traced, oracles)


def reference_run(ctx, workload, oracles):
    if workload == "tenants-mixed":
        return run_tenants(ctx, False, reference=True)
    return reference_ingest(ctx, workload, oracles)


def report(workload, seed, result) -> None:
    result["failed_ratio"] = result["failed"] / result["attempted"]
    print(f"workload {workload}  seed {seed}  "
          f"inputs blake2b {result['fingerprint']}")
    samples = {
        "append_p50_ms": f"n={result['appends']}",
        "append_p99_ms": f"n={result['appends']}, median of "
                         f"{result['p99_windows']} window(s)",
        "query_p50_ms": f"n={result.get('queries')}",
        "query_p99_ms": f"n={result.get('queries')}",
        "server_cpu_ms_per_request": f"n={result['requests']}",
        "setup_s": "median of " + ", ".join(
            f"{x:.3f}" for x in result["setup_all"]),
        "recover_s": "median of " + ", ".join(
            f"{x:.3f}" for x in result.get("recover_all", ())),
    }
    units = dict(END_TO_END + PRINTED_ONLY)
    for name in REPORT_ORDER:
        unit = units[name]
        if name in result:
            extra = f"  ({samples[name]})" if name in samples else ""
            print(f"  {name:<26} {result[name]:>14.6g} {unit}{extra}")
    if "batches" in result:
        print(f"  acknowledged batches per stream: {result['batches']}")
    print(f"  host steal during the timed phase: {result['steal']:.1%} of "
          f"the machine's CPU time")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the root of a checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # The two client threads share this process's interpreter lock; a
    # short switch interval keeps one thread's decoding from holding the
    # other past its due time.
    sys.setswitchinterval(0.0005)
    workdir = os.path.join(root, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = (root, workdir, args.seed, args.seconds)
    oracles = Oracles()
    try:
        if args.trace:
            reference = reference_run(ctx, args.workload, oracles)
            result = run_workload(ctx, args.workload, True, oracles)
            report(args.workload, args.seed, result)
            metrics = layer_metrics(result, reference)
            print_breakdown(metrics, result)
        else:
            result = run_workload(ctx, args.workload, False, oracles)
            report(args.workload, args.seed, result)
            metrics = {name: (result[name], unit) for name, unit in END_TO_END}
    except CheckFailed as exc:
        print(f"CORRECTNESS FAILURE: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
