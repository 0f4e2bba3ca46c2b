"""E8 — ablations of the design choices DESIGN.md calls out.

Three knobs, each switched off in isolation on the hiring workload:

1. **the store's indexed query path** (DESIGN.md decision 1) — with
   ``indexed=False`` the store skips the backend's ``query_records``
   (per-APPID lists in memory, SQL push-down on SQLite) and every trace
   query scans the whole table; time the compliance pass both ways,
2. **vocabulary lookup cache** (decision 3) — phrase → member resolution
   is the hottest call of rule evaluation; compare lookup counts, hit
   rates, the end-to-end pass, and the isolated lookup path,
3. **correlation rule set** (decision 2: controls are subgraphs, so the
   edges correlation produces are load-bearing) — drop the
   ``submitter-by-email`` rule and show which verdicts silently change.

Expected shape: (1) is a clear end-to-end speedup with identical verdicts;
(2) gives identical verdicts with a >99% hit rate — the win is on the
isolated lookup path (at this BOM size the end-to-end pass is within
noise, which the table reports honestly); (3) changes verdicts — the
graph, not the raw rows, is what controls see.

Benchmarked operation: the indexed compliance pass (the default config).
"""

from repro.controls.evaluator import ComplianceEvaluator
from repro.metrics.detection import verdict_agreement
from repro.metrics.timing import Stopwatch
from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.reporting.tables import render_table

CASES = 150


def _simulate(indexed=True, cache=True, seed=77):
    workload = hiring.workload()
    plan = ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2)
    return workload.simulate(
        cases=CASES,
        seed=seed,
        violations=plan,
        indexed=indexed,
        cache_vocabulary=cache,
    )


def _timed_pass(sim, repeats=3, execution_mode="compiled"):
    evaluator = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary, execution_mode=execution_mode
    )
    watch = Stopwatch()
    results = None
    with watch.span("pass"):
        for __ in range(repeats):
            results = evaluator.run(sim.controls)
    return watch.seconds("pass") / repeats, results


def test_e8_ablations(benchmark, artifact):
    lines = []

    # -- ablation 1: indexed query path -------------------------------------
    indexed_sim = _simulate(indexed=True)
    scan_sim = _simulate(indexed=False)
    indexed_sec, indexed_results = _timed_pass(indexed_sim)
    scan_sec, scan_results = _timed_pass(scan_sim)
    __, comparisons, disagreements = verdict_agreement(
        indexed_results, scan_results
    )
    assert disagreements == []
    assert comparisons == len(indexed_results)
    speedup = scan_sec / indexed_sec
    assert speedup > 1.0, "the indexed query path must not slow the compliance pass down"
    lines.append(
        render_table(
            ("store config", "pass time", "speedup", "verdicts"),
            [
                ("indexed", f"{indexed_sec:.4f}s", f"{speedup:.1f}x", "ref"),
                ("full scan", f"{scan_sec:.4f}s", "1.0x", "identical"),
            ],
            title=f"E8.1: indexed query path ({CASES} traces)",
        )
    )

    # -- ablation 2: vocabulary cache ------------------------------------------
    # Interpreted execution: the closure back end resolves vocabulary
    # members once at lowering time, so only the interpreter still issues
    # the per-evaluation lookups this cache exists for.
    cached_sim = _simulate(cache=True)
    uncached_sim = _simulate(cache=False)
    cached_sec, cached_results = _timed_pass(
        cached_sim, execution_mode="interpret"
    )
    uncached_sec, uncached_results = _timed_pass(
        uncached_sim, execution_mode="interpret"
    )
    __, __, disagreements = verdict_agreement(
        cached_results, uncached_results
    )
    assert disagreements == []
    hit_rate = (
        cached_sim.vocabulary.cache_hits / cached_sim.vocabulary.lookups
    )
    assert hit_rate > 0.5, "rule evaluation should mostly hit the cache"
    assert uncached_sim.vocabulary.cache_hits == 0
    cached_lookups = cached_sim.vocabulary.lookups
    uncached_lookups = uncached_sim.vocabulary.lookups

    # Isolated lookup path: repeated phrase resolutions, both ways.
    lookup_watch = Stopwatch()
    repeats = 20000
    with lookup_watch.span("cached"):
        for __ in range(repeats):
            cached_sim.vocabulary.find_member(
                "Job Requisition", "general manager"
            )
    with lookup_watch.span("uncached"):
        for __ in range(repeats):
            uncached_sim.vocabulary.find_member(
                "Job Requisition", "general manager"
            )
    cached_lookup = lookup_watch.seconds("cached")
    uncached_lookup = lookup_watch.seconds("uncached")
    assert cached_lookup < uncached_lookup, (
        "the cache must win on the raw lookup path"
    )
    lines.append(
        render_table(
            ("vocabulary config", "pass time", "lookups", "hit rate",
             f"{repeats} raw lookups"),
            [
                (
                    "cached",
                    f"{cached_sec:.4f}s",
                    cached_lookups,
                    f"{hit_rate:.1%}",
                    f"{cached_lookup:.4f}s",
                ),
                (
                    "uncached",
                    f"{uncached_sec:.4f}s",
                    uncached_lookups,
                    "0.0%",
                    f"{uncached_lookup:.4f}s",
                ),
            ],
            title="E8.2: vocabulary lookup cache (interpreted pass)",
        )
    )

    # -- ablation 3: correlation rules are load-bearing -------------------------
    full_sim = _simulate(seed=78)
    full_results = ComplianceEvaluator(
        full_sim.store, full_sim.xom, full_sim.vocabulary
    ).run(full_sim.controls)

    from repro.processes.workload import Workload

    base = hiring.workload()
    reduced = Workload(
        name=base.name,
        build_model=base.build_model,
        build_spec=base.build_spec,
        case_factory=base.case_factory,
        build_mapping=base.build_mapping,
        correlation_rules=lambda: [
            rule
            for rule in hiring.correlation_rules()
            if rule.name != "submitter-by-email"
        ],
        control_specs=base.control_specs,
        ground_truth=base.ground_truth,
        violation_kinds=base.violation_kinds,
    )
    reduced_sim = reduced.simulate(
        cases=CASES,
        seed=78,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2),
    )
    reduced_results = ComplianceEvaluator(
        reduced_sim.store, reduced_sim.xom, reduced_sim.vocabulary
    ).run(reduced_sim.controls)
    __, comparisons, disagreements = verdict_agreement(
        full_results, reduced_results
    )
    flipped = [key for key in disagreements if key[0] == "submitter-known"]
    assert flipped, "dropping submitterOf correlation must flip verdicts"
    assert all(key[0] == "submitter-known" for key in disagreements)
    lines.append(
        render_table(
            ("correlation rules", "pairs compared", "verdicts changed",
             "which control"),
            [
                ("all rules", comparisons, 0, "-"),
                (
                    "without submitter-by-email",
                    comparisons,
                    len(disagreements),
                    "submitter-known (every trace now violated)",
                ),
            ],
            title="E8.3: correlation rules are load-bearing",
        )
    )

    artifact(
        "E8 — ablations",
        "\n\n".join(lines),
        data={
            "correlation_pairs_compared": comparisons,
            "correlation_verdicts_changed": len(disagreements),
            "sections": len(lines),
        },
    )

    sim = _simulate(indexed=True)
    evaluator = ComplianceEvaluator(sim.store, sim.xom, sim.vocabulary)
    benchmark(lambda: evaluator.run(sim.controls))
