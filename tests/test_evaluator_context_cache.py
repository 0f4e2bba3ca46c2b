"""Regression tests for the evaluator's shared per-trace context cache.

PR 1's evaluator rebuilt each trace's graph (and re-wrapped its XOM
objects) on *every* check — ``check_trace`` in a loop paid one
``build_trace_graph`` per call.  These tests pin the fix: all public
entry points route through one frame cache, appends invalidate exactly
the touched trace, historical (``as_of``) views bypass the cache, and
every execution mode returns the same rows.
"""

import dataclasses
import math

import pytest

import repro.controls.evaluator as evaluator_module
from repro.controls.evaluator import ComplianceEvaluator, reference_sweep
from repro.graph.build import build_trace_graph
from repro.processes import expenses, hiring, incidents, procurement
from repro.processes.violations import ViolationPlan
from repro.store.backends import ShardedBackend
from repro.store.store import ProvenanceStore


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


class TestSweepParity:
    def test_modes_produce_identical_rows(self, sim):
        def rows(**kwargs):
            ev = ComplianceEvaluator(
                sim.store, sim.xom, sim.vocabulary,
                observable_types=sim.observable_types, **kwargs
            )
            return _normalize(ev.run(sim.controls))

        reference = _normalize(
            reference_sweep(
                sim.store, sim.xom, sim.vocabulary, sim.controls,
                observable_types=sim.observable_types,
                execution_mode="interpret",
            )
        )
        assert rows(execution_mode="interpret") == reference
        assert rows(execution_mode="compiled") == reference

    @pytest.mark.parametrize(
        "module", [expenses, hiring, incidents, procurement],
        ids=lambda module: module.__name__.rsplit(".", 1)[-1],
    )
    def test_projected_frames_match_reference_sweep_on_sqlite(
        self, module, tmp_path
    ):
        """Frames a cold sweep builds from projected records give the
        rows :func:`reference_sweep` gets from full records.  Every
        workload but incidents bounds its controls' read set, so its
        cold sweep takes the projected scan.  The sweep runs over a
        reopened store: the writing handle's record cache holds every
        row in full, and the projected scan would serve those."""
        workload = module.workload()
        path = str(tmp_path / "p.db")
        sim = workload.simulate(
            cases=60,
            seed=11,
            violations=ViolationPlan.uniform(
                list(workload.violation_kinds), 0.3
            ),
            backend=ShardedBackend.for_sqlite(path, 4),
        )
        sim.store.close()
        store = ProvenanceStore(
            model=sim.store.model,
            backend=ShardedBackend.for_sqlite(path, 4),
        )
        evaluator = ComplianceEvaluator(
            store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
        )
        swept = _normalize(evaluator.run(sim.controls))
        assert evaluator.projected_sweeps == (module is not incidents)
        assert swept == _normalize(
            reference_sweep(
                store, sim.xom, sim.vocabulary, sim.controls,
                observable_types=sim.observable_types,
            )
        )
        store.close()

    def test_restricted_trace_ids_keep_row_order(self, sim, evaluator):
        ids = sim.store.app_ids()[:2]
        # A trace_ids restriction sweeps only those traces; rows still
        # come back in (trace, control) order.
        results = evaluator.run(sim.controls, trace_ids=ids)
        assert [r.trace_id for r in results] == [
            tid for tid in ids for __ in sim.controls
        ]


class TestPrimeFramesCutoff:
    """A sweep scans the store only when at least ``SCAN_SHARE`` of its
    traces lack a frame; fewer missing frames are read trace by trace."""

    CASES = 10

    @staticmethod
    def _grow(store, trace_ids):
        """Append one clone of each trace's latest record."""
        for trace_id in trace_ids:
            template = max(
                (r for r in store.records() if r.app_id == trace_id),
                key=lambda r: r.timestamp,
            )
            store.append(
                dataclasses.replace(
                    template,
                    record_id=f"{template.record_id}-clone",
                    timestamp=template.timestamp + 1000,
                )
            )

    def _sweeps(self, tmp_path, name, dirty_steps):
        """Cold sweep, then per step: grow those traces and sweep again.
        Returns the last sweep's payloads, the evaluator's projected
        sweep count after each sweep, and a cold sweep's payloads."""
        import json

        from repro.store.backends import SQLiteBackend

        sim = hiring.workload().simulate(
            cases=self.CASES,
            seed=9,
            violations=ViolationPlan.uniform(
                list(hiring.VIOLATION_KINDS), 0.3
            ),
            backend=SQLiteBackend(str(tmp_path / f"{name}.db")),
        )
        ids = sim.store.app_ids()
        assert len(ids) == self.CASES

        def evaluator():
            return ComplianceEvaluator(
                sim.store, sim.xom, sim.vocabulary,
                observable_types=sim.observable_types,
            )

        def payloads(results):
            return json.dumps([r.to_payload() for r in results])

        warm = evaluator()
        warm.run(sim.controls)
        scans = [warm.projected_sweeps]
        for step in dirty_steps:
            self._grow(sim.store, [ids[i] for i in step])
            results = warm.run(sim.controls)
            scans.append(warm.projected_sweeps)
        cold = payloads(evaluator().run(sim.controls))
        sim.store.close()
        return payloads(results), scans, cold

    def test_scan_starts_exactly_at_the_cutoff(self, tmp_path):
        at = math.ceil(evaluator_module.SCAN_SHARE * self.CASES)
        assert 2 <= at <= self.CASES
        # Both stores end with the same rows; the first meets them
        # through sweeps whose missing sets stay just below the cutoff.
        below_rows, below_scans, below_cold = self._sweeps(
            tmp_path, "below", [[0], range(1, at)]
        )
        at_rows, at_scans, at_cold = self._sweeps(
            tmp_path, "at", [range(at)]
        )
        # A cold sweep is one projected scan; below the cutoff no sweep
        # scans again, at it the sweep does.
        assert below_scans == [1, 1, 1]
        assert at_scans == [1, 2]
        assert below_rows == at_rows == below_cold == at_cold
