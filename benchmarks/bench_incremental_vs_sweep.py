"""Incremental re-check vs warm full re-sweep after a single-trace append.

The point of the materialized verdict table: once a store has been swept,
the next "are we still compliant?" question should cost what *changed*,
not what *exists*.  This bench stages exactly that situation — a store of
``CASES`` already-swept traces receives one new trace, then both
evaluation styles answer the same freshness question:

- **incremental** — ``run()`` on an evaluator with the materialized table:
  only the new trace's (control, trace) pairs evaluate, everything else is
  a table read,
- **warm sweep** — :func:`warm_sweep` on a second evaluator: every pair
  evaluated through ``prime_frames`` + ``evaluate_pair``, never read from
  the verdict table.  The strongest non-incremental baseline, since trace
  frames are cached and only the new trace's frame rebuilds, yet every
  pair still re-evaluates.

Both must return byte-identical rows (same normalization as the
execution-modes bench).  At full scale the incremental re-check must be at
least **5x** faster; under ``BAL_BENCH_SCALE=tiny`` (the CI smoke run) the
bar drops to "not slower", since fixed per-sweep overheads swamp ratios at
30 traces.

Benchmarked operation: one incremental re-check after a one-trace append.
"""

import dataclasses
import os
import time

from benchmarks.bench_bal_execution_modes import warm_sweep
from repro.controls.evaluator import ComplianceEvaluator
from repro.model.records import RelationRecord
from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.reporting.tables import render_table

TINY = os.environ.get("BAL_BENCH_SCALE") == "tiny"
CASES = 30 if TINY else 300
ROUNDS = 5
MIN_SPEEDUP = 1.0 if TINY else 5.0


def _normalize(results):
    return [
        (
            r.control_name,
            r.trace_id,
            r.status.value,
            r.checked_at,
            tuple(r.alerts),
            tuple(sorted(r.bound_nodes.items())),
            tuple(r.touched_nodes),
        )
        for r in results
    ]


def _clone_trace(store, source_trace, new_trace):
    """A fresh trace: *source_trace*'s records re-identified under a new
    app id (edges rewired to the cloned endpoints)."""
    clones = []
    for record in store.records():
        if record.app_id != source_trace:
            continue
        changes = {
            "record_id": f"{record.record_id}::{new_trace}",
            "app_id": new_trace,
        }
        if isinstance(record, RelationRecord):
            changes["source_id"] = f"{record.source_id}::{new_trace}"
            changes["target_id"] = f"{record.target_id}::{new_trace}"
        clones.append(dataclasses.replace(record, **changes))
    return clones


def test_incremental_vs_sweep(benchmark, artifact):
    sim = hiring.workload().simulate(
        cases=CASES,
        seed=7,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2),
    )
    incremental = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    sweeping = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    # Cold sweeps: both sides materialize their frames (and the
    # incremental side its verdict table) before measurement starts.
    incremental.run(sim.controls)
    warm_sweep(sweeping, sim.controls)

    template_trace = sim.store.app_ids()[0]
    rows = []
    incremental_times = []
    sweep_times = []
    for round_no in range(ROUNDS):
        new_trace = f"Incr{round_no:02d}"
        for record in _clone_trace(sim.store, template_trace, new_trace):
            sim.store.append(record)

        evals_before = incremental.materializer.refreshes
        start = time.perf_counter()
        incr_results = incremental.run(sim.controls)
        incr_sec = time.perf_counter() - start
        evals = incremental.materializer.refreshes - evals_before

        start = time.perf_counter()
        sweep_results = warm_sweep(sweeping, sim.controls)
        sweep_sec = time.perf_counter() - start

        assert _normalize(incr_results) == _normalize(sweep_results), (
            f"incremental re-check diverged from the full sweep after "
            f"appending {new_trace}"
        )
        # Only the appended trace's pairs re-evaluated.
        assert evals == len(sim.controls)
        incremental_times.append(incr_sec)
        sweep_times.append(sweep_sec)
        rows.append(
            (
                new_trace,
                len(incr_results),
                evals,
                f"{incr_sec * 1000:.2f}ms",
                f"{sweep_sec * 1000:.2f}ms",
                f"{sweep_sec / incr_sec:.1f}x",
            )
        )

    median_incr = sorted(incremental_times)[ROUNDS // 2]
    median_sweep = sorted(sweep_times)[ROUNDS // 2]
    speedup = median_sweep / median_incr
    assert speedup >= MIN_SPEEDUP, (
        f"incremental re-check is only {speedup:.2f}x the warm full "
        f"sweep; required >= {MIN_SPEEDUP}x at {CASES} traces"
    )

    columns = (
        "appended trace",
        "result rows",
        "pairs evaluated",
        "incremental",
        "warm sweep",
        "speedup",
    )
    table = render_table(
        columns,
        rows,
        title=(
            f"Incremental re-check vs warm sweep — hiring, start "
            f"{CASES} traces, {len(sim.controls)} controls, +1 trace "
            f"per round"
        ),
    )
    artifact(
        "Incremental vs sweep",
        table,
        data={
            "cases": CASES,
            "controls": len(sim.controls),
            "rounds": ROUNDS,
            "scale": "tiny" if TINY else "full",
            "columns": list(columns),
            "rows": [list(row) for row in rows],
            "seconds": {
                "incremental_median": median_incr,
                "warm_sweep_median": median_sweep,
            },
            "speedup": speedup,
        },
    )

    benchmark(lambda: incremental.run(sim.controls))
