"""Scenario DSL, workload simulator, and differential conformance suite.

``repro.scenarios`` turns a YAML document into a fully deterministic
workload -- arrival pattern, value process (with drift / regime
switches), ordering perturbations, multi-tenant hot/cold mix, and an
optional fault schedule -- and runs it against any registry method
(optionally sharded across workers) or against the live service,
reporting realized error against the offline-optimal oracle alongside
memory / throughput / latency percentiles.

Typical use::

    from repro.scenarios import load_bundled, run_scenario

    spec = load_bundled("bursty-drift")
    report = run_scenario(spec, "min-merge")
    assert report.all_bounds_ok

and from the command line::

    python -m repro scenario list
    python -m repro scenario run bursty-drift --method min-merge

The differential conformance matrix (:func:`check_conformance`) is the
standing correctness harness: every bundled scenario must produce
bit-identical buckets across serial/batched/parallel ingest paths
and bounded error against the exact DP oracle.
"""

from repro.scenarios.catalog import (
    BUNDLED_DIR,
    bundled_path,
    bundled_scenarios,
    conformance_scenarios,
    load_bundled,
    resolve_spec,
)
from repro.scenarios.conformance import (
    CONFORMANCE_WORKERS,
    ConformanceError,
    ConformanceResult,
    Fingerprint,
    check_conformance,
    run_conformance,
)
from repro.scenarios.generate import (
    apply_ordering,
    batch_schedule,
    child_rng,
    fingerprint,
    generate,
    generate_stream,
    schedules,
    stream_lengths,
)
from repro.scenarios.runner import (
    ScenarioReport,
    ScenarioRunner,
    StreamReport,
    reports_to_dict,
    run_scenario,
)
from repro.scenarios.spec import (
    ARRIVAL_PATTERNS,
    DRIFT_KINDS,
    ORDERINGS,
    VALUE_PROCESSES,
    ArrivalSpec,
    DriftSpec,
    OrderingSpec,
    RegimeSpec,
    ScenarioSpec,
    TenantsSpec,
    ValueSpec,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "BUNDLED_DIR",
    "CONFORMANCE_WORKERS",
    "DRIFT_KINDS",
    "ORDERINGS",
    "VALUE_PROCESSES",
    "ArrivalSpec",
    "ConformanceError",
    "ConformanceResult",
    "DriftSpec",
    "Fingerprint",
    "OrderingSpec",
    "RegimeSpec",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "StreamReport",
    "TenantsSpec",
    "ValueSpec",
    "apply_ordering",
    "batch_schedule",
    "bundled_path",
    "bundled_scenarios",
    "check_conformance",
    "child_rng",
    "conformance_scenarios",
    "fingerprint",
    "generate",
    "generate_stream",
    "load_bundled",
    "reports_to_dict",
    "resolve_spec",
    "run_conformance",
    "run_scenario",
    "schedules",
    "stream_lengths",
]
