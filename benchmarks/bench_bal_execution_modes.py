"""BAL execution modes — interpreted vs compiled.

The on-demand query frontend of §II.A re-runs full sweeps (every control
× every trace) whenever freshness is wanted, so its steady-state cost is
the repeated-sweep cost.  This bench measures that steady state on the
hiring workload for the sweep mechanisms stacked in
:class:`~repro.controls.evaluator.ComplianceEvaluator`:

- **interpret, rebuilt contexts** — the pre-compilation baseline: AST
  interpretation, every sweep rebuilds every trace graph,
- **interpret, shared contexts** — per-trace frames cached across sweeps,
- **compiled, shared contexts** — closure-codegen rule execution on top.

Every mode must produce identical compliance rows — the sweep mechanisms
change cost, never semantics — and the compiled+shared steady state must
beat the baseline by at least 2x at full scale (run with
``BAL_BENCH_SCALE=tiny`` for the CI smoke variant, which only insists the
compiled path is not slower than the interpreter).

Benchmarked operation: one warm compiled+shared full sweep.
"""

import os
import time

from repro.controls.evaluator import ComplianceEvaluator
from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.reporting.tables import render_table

TINY = os.environ.get("BAL_BENCH_SCALE") == "tiny"
CASES = 30 if TINY else 300
SWEEPS = 5
# Full scale must hit the 2x acceptance bar; the tiny CI smoke run only
# guards the sign of the comparison (noise swamps ratios at 30 traces).
MIN_SPEEDUP = 1.0 if TINY else 2.0

MODES = (
    ("interpret, rebuilt contexts", "interpret", False),
    ("interpret, shared contexts", "interpret", True),
    ("compiled, shared contexts", "compiled", True),
)


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


def _sweep_times(sim, execution_mode, share_contexts):
    # incremental=False: this bench prices the *evaluation* mechanisms, so
    # every sweep must actually re-evaluate every pair.  Verdict
    # memoization (which would make warm re-sweeps near-free) is measured
    # separately in bench_incremental_vs_sweep.
    evaluator = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
        execution_mode=execution_mode,
        share_contexts=share_contexts,
        incremental=False,
    )
    times = []
    results = None
    for __ in range(SWEEPS):
        start = time.perf_counter()
        results = evaluator.run(sim.controls)
        times.append(time.perf_counter() - start)
    return times, results


def test_bal_execution_modes(benchmark, artifact):
    sim = hiring.workload().simulate(
        cases=CASES,
        seed=7,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2),
    )

    measured = []
    reference = None
    for label, execution_mode, share_contexts in MODES:
        times, results = _sweep_times(sim, execution_mode, share_contexts)
        normalized = _normalize(results)
        if reference is None:
            reference = normalized
        # Cost changes, semantics never: every mode emits identical rows.
        assert normalized == reference, f"{label} diverged from baseline"
        measured.append((label, min(times), sorted(times)[len(times) // 2]))

    base_best = measured[0][1]
    compiled_best = measured[2][1]
    speedup = base_best / compiled_best
    assert speedup >= MIN_SPEEDUP, (
        f"compiled+shared sweep is {speedup:.2f}x the interpreted baseline; "
        f"required >= {MIN_SPEEDUP}x at {CASES} traces"
    )

    columns = ("mode", "best sweep", "median sweep", "vs baseline")
    rows = [
        (
            label,
            f"{best * 1000:.1f}ms",
            f"{median * 1000:.1f}ms",
            f"{base_best / best:.2f}x",
        )
        for label, best, median in measured
    ]
    table = render_table(
        columns,
        rows,
        title=(
            f"BAL execution modes — hiring, {CASES} traces, "
            f"{len(sim.controls)} controls, {SWEEPS} sweeps each "
            f"(steady state)"
        ),
    )
    artifact(
        "BAL execution modes",
        table,
        data={
            "cases": CASES,
            "controls": len(sim.controls),
            "sweeps": SWEEPS,
            "scale": "tiny" if TINY else "full",
            "columns": list(columns),
            "rows": [list(row) for row in rows],
            "seconds": {
                label: {"best": best, "median": median}
                for label, best, median in measured
            },
            "compiled_vs_baseline_speedup": speedup,
        },
    )

    warm = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
        incremental=False,
    )
    warm.run(sim.controls)
    benchmark(lambda: warm.run(sim.controls))
