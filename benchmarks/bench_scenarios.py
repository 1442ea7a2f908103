"""Scenario-suite gate: simulate bundled workloads, verify conformance.

Runs bundled scenarios from ``repro.scenarios`` through the workload
simulator and the differential conformance matrix, then writes the
machine-readable ``BENCH_SCENARIO.json`` artifact CI uploads (validated
by ``validate_bench_json.py``).  The gate fails when any scenario's
realized error exceeds its method's guarantee against the offline
oracle, or when any conformance cell (serial scalar/batched, parallel
vs its serial merge-of-shards reference) is not bit-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke \
        --json BENCH_SCENARIO.json

``--smoke`` runs the fast three-scenario subset used in the per-PR CI
job; the default runs every bundled scenario and the full conformance
matrix (the nightly configuration).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.scenarios import (
    bundled_scenarios,
    load_bundled,
    run_conformance,
    run_scenario,
)

#: The fast per-PR subset: a baseline, a fault schedule, and the
#: sliding-window spec (the one shape the full matrix cannot cover).
SMOKE_SCENARIOS = ("steady-brownian", "crash-recovery", "out-of-order-window")


def _method_for(spec) -> str:
    """Method driven per scenario (windowed specs need a ladder variant)."""
    return "min-increment" if spec.window is not None else "min-merge"


def _fail_section(name: str, section) -> None:
    print(f"gate failure in report section {name!r}:", file=sys.stderr)
    print(
        json.dumps({name: section}, indent=2, sort_keys=True), file=sys.stderr
    )


def run(names, json_path, label) -> int:
    specs = [load_bundled(name) for name in names]
    failures = 0
    scenario_rows = []
    print(f"scenario suite ({label}): {', '.join(names)}")

    for spec in specs:
        method = _method_for(spec)
        start = time.perf_counter()
        report = run_scenario(spec, method)
        elapsed = time.perf_counter() - start
        row = report.to_dict()
        row["suite_seconds"] = elapsed
        scenario_rows.append(row)
        ok = report.all_bounds_ok
        recovered = [
            s.recovered_identical
            for s in report.streams
            if s.recovered_identical is not None
        ]
        if recovered and not all(recovered):
            ok = False
        print(
            f"{spec.name:<24} {method:<14} items={report.items:>6,} "
            f"streams={len(report.streams)} "
            f"worst-ratio={report.worst_error_ratio:6.4f} "
            f"{'ok' if ok else 'FAIL'} ({elapsed:.2f}s)"
        )
        if not ok:
            failures += 1
            _fail_section(spec.name, row)

    cells = 0
    mismatches = []
    checked = 0
    for spec in specs:
        result = run_conformance(spec, _method_for(spec))
        checked += 1
        cells += result.cell_count
        mismatches.extend(result.mismatches)
    bit_identical = not mismatches
    print(
        f"conformance: {checked} scenario(s), {cells} cells, "
        f"{'bit-identical' if bit_identical else 'MISMATCH'}"
    )
    conformance = {
        "scenarios_checked": checked,
        "cells_checked": cells,
        "bit_identical": bit_identical,
        "mismatches": mismatches,
    }
    if not bit_identical:
        failures += 1
        _fail_section("conformance", conformance)

    report_doc = {
        "schema": "scenario-v1",
        "mode": label,
        "scenarios": scenario_rows,
        "conformance": conformance,
        "generated_unix": time.time(),
    }
    if json_path is not None:
        json_path.write_text(
            json.dumps(report_doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {json_path}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fast CI subset instead of every bundled scenario",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only this bundled scenario (repeatable)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, help="write the report to this path"
    )
    args = parser.parse_args()
    if args.scenario:
        names, label = tuple(args.scenario), "custom"
    elif args.smoke:
        names, label = SMOKE_SCENARIOS, "smoke"
    else:
        names, label = bundled_scenarios(), "full"
    return run(names, args.json, label)


if __name__ == "__main__":
    raise SystemExit(main())
