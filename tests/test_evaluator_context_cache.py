"""Regression tests for the evaluator's shared per-trace context cache.

PR 1's evaluator rebuilt each trace's graph (and re-wrapped its XOM
objects) on *every* check — ``check_trace`` in a loop paid one
``build_trace_graph`` per call.  These tests pin the fix: all public
entry points route through one frame cache, appends invalidate exactly
the touched trace, historical (``as_of``) views bypass the cache, and
every execution mode returns the same rows.
"""

import dataclasses

import pytest

import repro.controls.evaluator as evaluator_module
from repro.controls.evaluator import ComplianceEvaluator
from repro.graph.build import build_trace_graph
from repro.processes import hiring
from repro.processes.violations import ViolationPlan


@pytest.fixture
def sim():
    return hiring.workload().simulate(
        cases=4,
        seed=9,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.3),
    )


@pytest.fixture
def evaluator(sim):
    return ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )


def _count_builds(monkeypatch):
    """Monkeypatch the evaluator's graph builders to count invocations."""
    calls = {"n": 0}
    real_build = build_trace_graph

    def counting_build(*args, **kwargs):
        calls["n"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(
        evaluator_module, "build_trace_graph", counting_build
    )
    return calls


def _normalize(results):
    return [
        (
            r.control_name, r.trace_id, r.status, r.checked_at,
            tuple(r.alerts), tuple(sorted(r.bound_nodes.items())),
            tuple(r.touched_nodes),
        )
        for r in results
    ]


class TestCheckTraceCaching:
    def test_repeat_checks_build_graph_once(self, sim, evaluator, monkeypatch):
        calls = _count_builds(monkeypatch)
        trace_id = sim.store.app_ids()[0]
        first = evaluator.check_trace(sim.controls[0], trace_id)
        for control in sim.controls:
            evaluator.check_trace(control, trace_id)
        assert calls["n"] == 1
        assert evaluator.graph_builds == 1
        # And the repeat check is deterministic.
        assert evaluator.check_trace(sim.controls[0], trace_id) == first

    def test_distinct_traces_build_once_each(self, sim, evaluator, monkeypatch):
        calls = _count_builds(monkeypatch)
        for trace_id in sim.store.app_ids():
            evaluator.check_trace(sim.controls[0], trace_id)
            evaluator.check_trace(sim.controls[1], trace_id)
        assert calls["n"] == len(sim.store.app_ids())

    def test_run_then_check_trace_reuses_frames(self, sim, evaluator):
        evaluator.run(sim.controls)
        builds_after_sweep = evaluator.graph_builds
        assert builds_after_sweep == len(sim.store.app_ids())
        for trace_id in sim.store.app_ids():
            evaluator.check_trace(sim.controls[0], trace_id)
        evaluator.run(sim.controls)
        assert evaluator.graph_builds == builds_after_sweep

    def test_as_of_bypasses_cache(self, sim, evaluator):
        trace_id = sim.store.app_ids()[0]
        evaluator.check_trace(sim.controls[0], trace_id)
        assert evaluator.graph_builds == 1
        evaluator.check_trace(sim.controls[0], trace_id, as_of=10)
        evaluator.check_trace(sim.controls[0], trace_id, as_of=10)
        # Historical views never enter or read the cache...
        assert evaluator.graph_builds == 3
        # ...and the live frame is still there.
        evaluator.check_trace(sim.controls[1], trace_id)
        assert evaluator.graph_builds == 3

    def test_explicit_graph_skips_cache(self, sim, evaluator):
        trace_id = sim.store.app_ids()[0]
        graph = build_trace_graph(sim.store, trace_id)
        evaluator.check_trace(sim.controls[0], trace_id, graph=graph)
        assert evaluator.graph_builds == 0


class TestInvalidation:
    def test_append_invalidates_only_touched_trace(self, sim, evaluator):
        ids = sim.store.app_ids()
        evaluator.run(sim.controls)
        assert evaluator.graph_builds == len(ids)
        # Grow one trace by cloning one of its existing records.
        victim = ids[0]
        template = max(
            (r for r in sim.store.records() if r.app_id == victim),
            key=lambda r: r.timestamp,
        )
        sim.store.append(
            dataclasses.replace(
                template,
                record_id=f"{template.record_id}-clone",
                timestamp=template.timestamp + 1000,
            )
        )
        evaluator.run(sim.controls)
        # Exactly one frame was rebuilt, and its result sees the append.
        assert evaluator.graph_builds == len(ids) + 1
        refreshed = evaluator.check_trace(sim.controls[0], victim)
        assert refreshed.checked_at == template.timestamp + 1000

    def test_clear_context_cache_rebuilds_everything(self, sim, evaluator):
        evaluator.run(sim.controls)
        evaluator.clear_context_cache()
        evaluator.run(sim.controls)
        assert evaluator.graph_builds == 2 * len(sim.store.app_ids())

    def test_share_contexts_off_rebuilds_every_check(self, sim):
        rebuilding = ComplianceEvaluator(
            sim.store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
            share_contexts=False,
        )
        trace_id = sim.store.app_ids()[0]
        rebuilding.check_trace(sim.controls[0], trace_id)
        rebuilding.check_trace(sim.controls[0], trace_id)
        assert rebuilding.graph_builds == 2


class TestSweepParity:
    def test_modes_produce_identical_rows(self, sim):
        def rows(**kwargs):
            ev = ComplianceEvaluator(
                sim.store, sim.xom, sim.vocabulary,
                observable_types=sim.observable_types, **kwargs
            )
            return _normalize(ev.run(sim.controls))

        reference = rows(execution_mode="interpret", share_contexts=False)
        assert rows(execution_mode="interpret") == reference
        assert rows(execution_mode="compiled") == reference

    def test_restricted_trace_ids_keep_row_order(self, sim, evaluator):
        ids = sim.store.app_ids()[:2]
        # A trace_ids restriction sweeps only those traces; rows still
        # come back in (trace, control) order.
        results = evaluator.run(sim.controls, trace_ids=ids)
        assert [r.trace_id for r in results] == [
            tid for tid in ids for __ in sim.controls
        ]

