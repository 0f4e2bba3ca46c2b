"""Crash-consistency: the fault-injection harness and the model checker.

Two layers:

- **Targeted schedules** pin each fault primitive deterministically — torn
  flushes commit a clean prefix, crash points kill the right operation,
  dropped fsyncs lose post-freeze commits, snapshots never outrun the rows
  they describe, and a :class:`SimulatedCrash` cannot be swallowed by
  library ``except Exception`` recovery paths.
- **The model checker** (``repro.faults.checker``) runs randomized
  append/evaluate/snapshot/crash/reopen schedules against a never-crashed
  oracle.  ``REPRO_CRASH_SCHEDULES`` scales the count (default 50 per
  backend; CI runs a smaller smoke); every failure message carries the
  replay seed.
"""

import json
import os

import pytest

from repro.controls.evaluator import ComplianceEvaluator
from repro.errors import StoreError
from repro.faults import (
    FaultPlan,
    FaultyBackend,
    SimulatedCrash,
    active_plan,
    run_schedule,
    run_schedules,
)
from repro.faults.plan import FaultInjected
from repro.processes import hiring
from repro.store.backends import MemoryBackend, SQLiteBackend
from repro.store.store import ProvenanceStore

from tests.conftest import derive_seed

CRASH_SCHEDULES = int(os.environ.get("REPRO_CRASH_SCHEDULES", "50"))


@pytest.fixture(scope="module")
def sim():
    """One simulated hiring run shared by the targeted tests."""
    return hiring.workload().simulate(cases=2, seed=29)


def _records(sim):
    return [r for rs in sim.store.records_by_trace().values() for r in rs]


def _faulty_store(sim, plan, tmp_path=None):
    inner = (
        SQLiteBackend(str(tmp_path / "crash.db"))
        if tmp_path is not None
        else MemoryBackend()
    )
    faulty = FaultyBackend(inner, plan)
    return faulty, ProvenanceStore(model=sim.model, backend=faulty)


class TestFaultPrimitives:
    def test_transient_write_failure_is_loud_and_recoverable(self, sim):
        plan = FaultPlan(seed=1).fail_write(nth=2)
        __, store = _faulty_store(sim, plan)
        records = _records(sim)
        store.append(records[0])
        with pytest.raises(FaultInjected):
            store.append(records[1])
        # The failed row is simply absent; the store keeps working.
        store.append(records[2])
        assert records[1].record_id not in store
        assert records[2].record_id in store
        assert "fail-write#2" in plan.describe()

    def test_torn_flush_commits_clean_prefix(self, sim, tmp_path):
        plan = FaultPlan(seed=1).tear_flush(nth=1, keep=2)
        faulty, store = _faulty_store(sim, plan, tmp_path)
        records = _records(sim)
        for record in records[:5]:
            store.append(record)
        with pytest.raises(SimulatedCrash):
            store.flush()
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        assert [r.record_id for r in recovered.rows()] == [
            r.record_id for r in records[:2]
        ]

    def test_crash_before_commit_loses_the_row(self, sim):
        plan = FaultPlan(seed=1).crash_at("before_commit", occurrence=3)
        faulty, store = _faulty_store(sim, plan)
        records = _records(sim)
        with active_plan(plan):
            store.append(records[0])
            store.append(records[1])
            store.flush()
            with pytest.raises(SimulatedCrash):
                store.append(records[2])
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        assert len(recovered) == 2

    def test_staged_rows_die_with_the_process(self, sim):
        plan = FaultPlan(seed=1)
        faulty, store = _faulty_store(sim, plan)
        records = _records(sim)
        store.append(records[0])
        store.flush()
        store.append(records[1])  # staged, never flushed
        assert faulty.staged_count() == 1
        faulty.crash()
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        assert [r.record_id for r in recovered.rows()] == [
            records[0].record_id
        ]

    def test_post_crash_unwinding_cannot_write(self, sim):
        """Code unwinding after a SimulatedCrash (``finally`` blocks,
        bulk exits) is post-mortem; nothing it does may become durable."""
        plan = FaultPlan(seed=1).crash_at(
            "after_commit_before_index", occurrence=2
        )
        faulty, store = _faulty_store(sim, plan)
        records = _records(sim)
        with active_plan(plan):
            with pytest.raises(SimulatedCrash):
                with store.bulk():  # exit path flushes — but we are dead
                    for record in records[:4]:
                        store.append(record)
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        assert len(recovered) == 0

    def test_dropped_fsync_loses_post_freeze_commits(self, sim, tmp_path):
        plan = FaultPlan(seed=1).drop_fsync_after(nth_flush=1)
        faulty, store = _faulty_store(sim, plan, tmp_path)
        records = _records(sim)
        for record in records[:3]:
            store.append(record)
        store.flush()  # flush #1: freezes the durable image at 3 rows
        for record in records[3:6]:
            store.append(record)
        store.flush()  # committed to the live file, lost at crash time
        assert faulty.durable_floor() == 3
        faulty.crash()
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        assert [r.record_id for r in recovered.rows()] == [
            r.record_id for r in records[:3]
        ]

    def test_corrupted_row_is_detected_on_recovery(self, sim, tmp_path):
        plan = FaultPlan(seed=1).corrupt_write(nth=2)
        faulty, store = _faulty_store(sim, plan, tmp_path)
        for record in _records(sim)[:3]:
            store.append(record)
        store.flush()
        faulty.crash()
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        # Opening reads no rows; the first full read meets the torn one.
        with pytest.raises(StoreError):
            list(recovered.records())


class TestSnapshotDurability:
    def test_snapshot_save_flushes_rows_first(self, sim, tmp_path):
        """Write-ahead ordering: a snapshot's cursor must never describe
        rows that are less durable than the snapshot itself."""
        plan = FaultPlan(seed=1)
        faulty, store = _faulty_store(sim, plan, tmp_path)
        evaluator = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
        for record in _records(sim):
            store.append(record)  # staged only — no explicit flush
        evaluator.run(sim.controls)
        evaluator.materializer.save()
        # Power cut immediately after the snapshot commits.
        faulty.crash()
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        restored_eval = ComplianceEvaluator(
            recovered, sim.xom, sim.vocabulary
        )
        for control in sim.controls:
            restored_eval.materializer.register(control)
        assert restored_eval.materializer.restore() is True
        assert restored_eval.materializer.cursor <= recovered.last_seq()

    def test_crash_mid_snapshot_leaves_previous_snapshot(self, sim, tmp_path):
        plan = FaultPlan(seed=1).crash_at("mid_snapshot", occurrence=2)
        faulty, store = _faulty_store(sim, plan, tmp_path)
        evaluator = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
        records = _records(sim)
        with active_plan(plan):
            for record in records:
                store.append(record)
            evaluator.run(sim.controls)
            evaluator.materializer.save()  # snapshot #1 commits
            with pytest.raises(SimulatedCrash):
                evaluator.materializer.save()  # snapshot #2 dies mid-way
        recovered = ProvenanceStore(model=sim.model, backend=faulty.recover())
        restored_eval = ComplianceEvaluator(
            recovered, sim.xom, sim.vocabulary
        )
        for control in sim.controls:
            restored_eval.materializer.register(control)
        assert restored_eval.materializer.restore() is True

    def test_restore_rejects_cursor_past_last_seq(self, sim):
        """A snapshot that outlived its rows (doctored here; a crash in
        the wild) must be rejected, forcing cold re-materialization."""
        store = ProvenanceStore(model=sim.model)
        evaluator = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
        for record in _records(sim):
            store.append(record)
        evaluator.run(sim.controls)
        materializer = evaluator.materializer
        materializer.save()
        key = materializer._state_key()
        snapshot = json.loads(store.load_state(key))
        snapshot["cursor"] = [seq + 10 for seq in store.last_seq().seqs]
        store.save_state(key, json.dumps(snapshot))

        fresh = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
        for control in sim.controls:
            fresh.materializer.register(control)
        assert fresh.materializer.restore() is False
        assert fresh.materializer.cursor <= store.last_seq()


class TestModelChecker:
    @pytest.mark.parametrize(
        "backend,shards",
        (
            ("memory", 1),
            ("sqlite", 1),
            # Sharded runs add per-shard crash points: one shard's death
            # must leave the surviving shards' acknowledged rows intact
            # while global recovery still converges to the oracle.
            ("memory", 4),
            ("sqlite", 4),
        ),
    )
    def test_randomized_crash_schedules(self, backend, shards, tmp_path):
        base_seed = derive_seed(f"crash-schedules:{backend}:{shards}")
        reports = run_schedules(
            CRASH_SCHEDULES,
            base_seed=base_seed,
            backends=(backend,),
            workdir=str(tmp_path),
            shards=shards,
        )
        assert len(reports) == CRASH_SCHEDULES
        assert all(r.shards == shards for r in reports)
        # The scheduler must actually exercise crashes, not only clean
        # closes (statistically certain at any reasonable count).
        if CRASH_SCHEDULES >= 10:
            assert any(r.crashed for r in reports)
            assert any(r.recovered < r.acknowledged for r in reports)

    def test_failure_message_names_replay_seed(self, monkeypatch):
        """Any invariant violation must be replayable from the message."""
        from repro.faults import checker

        def broken_norm(results):
            return [object()]  # never equal across evaluators

        monkeypatch.setattr(checker, "_norm", broken_norm)
        with pytest.raises(checker.CheckFailure) as excinfo:
            run_schedule(0, "memory")
        message = str(excinfo.value)
        assert "seed=0" in message
        assert "FaultPlan(seed=0)" in message
        assert "repro chaos" in message
