"""Tests for the ComplianceRuntime service core and runtime transports.

The contract under test: a runtime's served verdicts are byte-identical
to a cold sweep of the same store at the same instant, under ingestion,
concurrent readers, out-of-band writers, and shutdown/restart cycles.
"""

import dataclasses
import json
import sys
import threading
import time

import pytest

from repro.capture.recorder import RecorderClient
from repro.controls.deployment import ControlDeployment
from repro.controls.evaluator import ComplianceEvaluator
from repro.errors import CaptureError, MappingError, ServiceError
from repro.faults import FaultPlan, SimulatedCrash, active_plan
from repro.model.records import RelationRecord
from repro.processes import expenses, hiring, incidents, procurement
from repro.processes.engine import ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.service import ComplianceRuntime, InProcessTransport
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
)
from repro.store.cursor import cursor_from_wire, cursor_to_wire
from repro.store.store import ProvenanceStore


def _event_stream(workload, cases, seed=11, rate=0.25):
    """A raw application-event stream, store-free (recorder input)."""
    simulator = ProcessSimulator(
        workload.build_spec(),
        workload.case_factory(
            ViolationPlan.uniform(list(workload.violation_kinds), rate)
        ),
        seed=seed,
    )
    return all_events(simulator.run(cases))


def _cold_sweep_payloads(sim):
    """The cold-sweep oracle: a fresh evaluator over the same store."""
    oracle = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    return json.dumps(
        [result.to_payload() for result in oracle.run(sim.controls)]
    )


def _served_payloads(runtime):
    return json.dumps(
        [result.to_payload() for result in runtime.verdicts()]
    )


def _relation_rows(store):
    """``(type, source, target, id)`` of every relation row, sorted."""
    return sorted(
        (r.entity_type, r.source_id, r.target_id, r.record_id)
        for r in store.records()
        if isinstance(r, RelationRecord)
    )


def _assert_no_repeated_edges(rows):
    edges = [row[:3] for row in rows]
    assert len(set(edges)) == len(edges)


def _sqlite_backend(db, shards):
    if shards == 1:
        return SQLiteBackend(db, threadsafe=True)
    return ShardedBackend.for_sqlite(db, shards, threadsafe=True)


def _open_runtime(workload, cases=0, seed=2011, backend=None, **kwargs):
    sim = workload.simulate(cases=cases, seed=seed, backend=backend)
    runtime = ComplianceRuntime.from_simulation(
        sim, workload=workload, **kwargs
    )
    return sim, runtime


class TestRuntimeCore:
    def test_open_reports_startup_sweep(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=6)
        report = runtime.open()
        assert not report.restored
        assert report.traces == 6
        assert report.evaluated == 6 * len(sim.controls)
        with pytest.raises(ServiceError):
            runtime.open()
        runtime.shutdown()

    def test_verdicts_match_cold_sweep_and_filter(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=8)
        runtime.open()
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        one_control = runtime.verdicts(control="gm-approval")
        assert len(one_control) == 8
        assert {r.control_name for r in one_control} == {"gm-approval"}
        one_trace = runtime.verdicts(trace="App03")
        assert {r.trace_id for r in one_trace} == {"App03"}
        by_status = runtime.verdicts(status="satisfied")
        assert all(r.status.value == "satisfied" for r in by_status)
        runtime.shutdown()

    def test_ingest_pipeline_and_dedup(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=5)
        reply = runtime.ingest(events)
        assert reply.recorded > 0
        assert reply.duplicates == 0
        assert reply.correlated > 0  # hiring has correlation rules
        assert len(reply.dispositions) == len(events)
        assert (
            sum(1 for recorded, __ in reply.dispositions if recorded)
            == reply.recorded
        )
        # The same batch again: idempotent capture, everything a duplicate.
        again = runtime.ingest(events)
        assert again.recorded == 0
        assert again.duplicates == reply.recorded
        assert again.correlated == 0
        # Served verdicts over the ingested rows = cold sweep of them.
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_ingest_without_mapping_is_rejected(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=2, seed=2011)
        runtime = ComplianceRuntime.from_simulation(sim)  # no workload
        runtime.open()
        with pytest.raises(ServiceError):
            runtime.ingest(_event_stream(workload, cases=1))
        runtime.shutdown()

    def test_sync_folds_out_of_band_appends(self):
        import dataclasses

        workload = hiring.workload()
        sim = workload.simulate(cases=4, seed=2011)
        # Watch-style read-only runtime: no mapping, no correlation —
        # another pipeline owns the rows; this one only evaluates them.
        runtime = ComplianceRuntime.from_simulation(sim)
        runtime.open()
        # Another handle over the same backend appends behind our back.
        other = ProvenanceStore(backend=sim.store.backend)
        template = next(
            r for r in other.records() if r.app_id == "App02"
        )
        other.append(
            dataclasses.replace(template, record_id="oob-service-1")
        )
        outcome = runtime.sync()
        assert outcome.new_rows == 1
        # Only App02's pairs re-evaluate, one per control.
        assert outcome.refreshed == len(sim.controls)
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_transitions_feed_is_indexed(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        newest, entries = runtime.transitions_since(0)
        assert newest == 0 and entries == []
        runtime.ingest(_event_stream(workload, cases=2))
        runtime.sync()
        newest, entries = runtime.transitions_since(0)
        assert newest == len(entries) > 0
        assert [index for index, __ in entries] == list(
            range(1, newest + 1)
        )
        # A caught-up reader sees nothing new.
        __, tail = runtime.transitions_since(newest)
        assert tail == []
        runtime.shutdown()

    def test_stats_counters(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=3)
        runtime.open()
        stats = runtime.stats()
        assert stats["workload"] == sim.workload_name
        assert stats["traces"] == 3
        assert stats["controls"] == [c.name for c in sim.controls]
        assert stats["dirty_pairs"] == 0
        runtime.ingest(_event_stream(workload, cases=1))
        assert runtime.stats()["ingest_batches"] == 1
        runtime.shutdown()

    def test_shutdown_is_idempotent_and_closes_owned_store(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=2, owns_store=True)
        runtime.open()
        runtime.shutdown()
        runtime.shutdown()  # second call is a no-op
        with pytest.raises(ServiceError):
            runtime.verdicts()


class TestSnapshotResume:
    def _attach_runtime(self, workload, db, **kwargs):
        store = ProvenanceStore(
            model=workload.build_model(), backend=SQLiteBackend(db)
        )
        sim = workload.attach(store)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload, owns_store=True, **kwargs
        )
        return sim, runtime

    def test_restart_resumes_from_cursor(self, tmp_path):
        db = str(tmp_path / "service.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=6)
        half = len(events) // 2

        sim1, first = self._attach_runtime(workload, db)
        report1 = first.open()
        assert not report1.restored
        first.ingest(events[:half])
        first.sync()
        first.shutdown()  # graceful: snapshot + flush + close

        sim2, second = self._attach_runtime(workload, db)
        report2 = second.open()
        # The snapshot covered every row: nothing re-evaluates at startup.
        assert report2.restored
        assert report2.evaluated == 0
        # The stream's tail lands after the restart; correlation id
        # sequences continue where the first process left off.
        second.ingest(events[half:])
        second.sync()
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        restarted = _relation_rows(sim2.store)
        second.shutdown()

        # The same batches through one uninterrupted runtime: the restart
        # neither repeats an edge nor shifts a relation id.
        sim3, reference = self._attach_runtime(
            workload, str(tmp_path / "reference.db")
        )
        reference.open()
        reference.ingest(events[:half])
        reference.sync()
        reference.ingest(events[half:])
        reference.sync()
        assert restarted == _relation_rows(sim3.store)
        _assert_no_repeated_edges(restarted)
        reference.shutdown()

    def test_rows_appended_while_down_reevaluate_only_their_trace(
        self, tmp_path
    ):
        import dataclasses

        db = str(tmp_path / "service.db")
        workload = hiring.workload()

        sim1, first = self._attach_runtime(workload, db)
        first.open()
        first.ingest(_event_stream(workload, cases=5))
        first.shutdown()

        other = ProvenanceStore(backend=SQLiteBackend(db))
        template = next(
            r for r in other.records() if r.app_id == "App01"
        )
        other.append(
            dataclasses.replace(template, record_id="downtime-row-1")
        )
        other.close()

        sim2, second = self._attach_runtime(workload, db)
        report = second.open()
        assert report.restored
        # One touched trace -> one pair per control, not 5 traces' worth.
        assert 0 < report.evaluated <= len(sim2.controls)
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()


class TestOpenReadsNoRows:
    """Opening a runtime over a snapshotted store decodes no row: the
    lanes' correlation keeps no store-wide edge set, and the REL id
    sequence resumes from one backend aggregate."""

    @pytest.mark.parametrize("shards", [1, 4], ids=["plain", "4-shard"])
    def test_restart_with_correlation_decodes_nothing(
        self, shards, tmp_path, monkeypatch
    ):
        from tests.test_store_query import count_decodes

        path = str(tmp_path / "open.db")
        workload = hiring.workload()
        assert workload.correlation_rules()

        def attach():
            if shards == 1:
                backend = SQLiteBackend(path)
            else:
                backend = ShardedBackend.for_sqlite(path, shards)
            store = ProvenanceStore(
                model=workload.build_model(), backend=backend
            )
            return ComplianceRuntime.from_simulation(
                workload.attach(store), workload=workload, owns_store=True
            )

        first = attach()
        first.open()
        assert first.ingest(_event_stream(workload, cases=6)).correlated
        first.shutdown()

        counts = count_decodes(monkeypatch)
        second = attach()
        report = second.open()
        assert report.restored
        assert report.evaluated == 0
        assert counts["decodes"] == 0
        second.shutdown()


class TestConcurrency:
    def test_threaded_ingest_with_live_readers(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=12, seed=23)
        writers = 3
        # Partition whole traces round-robin: each writer owns disjoint
        # traces, so per-trace event order is preserved within a writer.
        trace_ids = sorted({event.app_id for event in events})
        owner = {
            trace: index % writers
            for index, trace in enumerate(trace_ids)
        }
        partitions = [
            [e for e in events if owner[e.app_id] == index]
            for index in range(writers)
        ]
        errors = []
        stop_reading = threading.Event()

        def write(partition):
            try:
                client = RecorderClient(
                    transport=InProcessTransport(runtime)
                )
                # Many small batches maximize interleaving.
                for start in range(0, len(partition), 7):
                    client.process_all(partition[start:start + 7])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            try:
                while not stop_reading.is_set():
                    for result, encoded in runtime.verdict_rows():
                        # Reads mid-ingest must always be coherent rows,
                        # each with its own verdict's bytes.
                        assert result.control_name and result.trace_id
                        assert encoded == json.dumps(
                            result.to_payload()
                        ).encode()
                    runtime.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        reader = threading.Thread(target=read)
        threads = [
            threading.Thread(target=write, args=(partition,))
            for partition in partitions
        ]
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_reading.set()
        reader.join()
        assert errors == []
        runtime.sync()
        assert runtime.stats()["traces"] == len(trace_ids)
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_background_refresh_folds_out_of_band_rows(self):
        import dataclasses
        import time

        workload = hiring.workload()
        sim = workload.simulate(cases=3, seed=2011)
        # Read-only runtime: the out-of-band writer owns correlation.
        runtime = ComplianceRuntime.from_simulation(sim)
        runtime.open()
        runtime.start_background(interval=0.01)
        with pytest.raises(ServiceError):
            runtime.start_background(interval=0.01)
        other = ProvenanceStore(backend=sim.store.backend)
        template = next(
            r for r in other.records() if r.app_id == "App01"
        )
        other.append(
            dataclasses.replace(template, record_id="bg-oob-1")
        )
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if runtime.stats()["rows"] == len(other):
                if runtime.stats()["dirty_pairs"] == 0:
                    break
            time.sleep(0.01)
        assert runtime.stats()["dirty_pairs"] == 0
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()
        assert not runtime.background_running


class TestVerdictCacheTornRead:
    """The verdict read cache is checked without a lock, so its key can
    be read torn: the epoch before a write, the commit vector after.
    Epoch first, commits second makes every torn key a miss."""

    POINT = "runtime.cache_key.between_halves"

    class _WriteBetweenHalves(FaultPlan):
        """At the first torn key: ingest a batch, then (optionally) run
        one full read that refills the cache for the new rows."""

        def __init__(self, runtime, batch, refill):
            super().__init__(seed=0)
            self.runtime, self.batch, self.refill = runtime, batch, refill
            self.done = False

        def reached_point(self, point):
            super().reached_point(point)
            if point == TestVerdictCacheTornRead.POINT and not self.done:
                self.done = True
                self.runtime.ingest(self.batch)
                if self.refill:
                    self.runtime.verdicts()

    @pytest.mark.parametrize("refill", [True, False], ids=["refilled", "stale"])
    def test_torn_cache_key_misses(self, refill):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=6, seed=31)
        late = events[-1].app_id
        runtime.ingest([e for e in events if e.app_id != late])
        stale = _served_payloads(runtime)
        assert _served_payloads(runtime) == stale  # cached
        counters = runtime.stats()["verdict_cache"]

        plan = self._WriteBetweenHalves(
            runtime, [e for e in events if e.app_id == late], refill
        )
        with active_plan(plan):
            torn = _served_payloads(runtime)
        assert plan.done
        after = runtime.stats()["verdict_cache"]
        # The refill (when made) and the torn read each missed; neither
        # was served from the cache.
        assert after["hits"] == counters["hits"]
        assert after["misses"] == counters["misses"] + 1 + refill
        assert torn != stale
        assert torn == _cold_sweep_payloads(sim)
        runtime.shutdown()


class TestStoredVerdictBytes:
    """The materializer encodes each verdict once, when it stores it;
    reads and snapshots join those bytes instead of re-encoding."""

    @staticmethod
    def _simulate():
        return hiring.workload().simulate(
            cases=5, seed=2011,
            violations=ViolationPlan.uniform(
                list(hiring.VIOLATION_KINDS), 0.4
            ),
        )

    def test_bytes_include_the_binders_control_node(self):
        sim = self._simulate()
        deployment = ControlDeployment(
            sim.store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
        )
        for control in sim.controls:
            deployment.deploy(control)
        rows = deployment.materializer.sweep(sim.controls)
        assert len(rows) == 5 * len(sim.controls)
        for result, encoded in rows:
            assert result.control_node_id is not None
            assert encoded == json.dumps(result.to_payload()).encode()
            assert (
                f'"control_node_id": "{result.control_node_id}"'.encode()
                in encoded
            )

    def test_snapshot_text_is_one_dumps_of_the_table(self):
        sim = self._simulate()
        evaluator = ComplianceEvaluator(
            sim.store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
        )
        results = evaluator.run(sim.controls)
        materializer = evaluator.materializer
        materializer.save()
        saved = sim.store.load_state(materializer._state_key())
        assert saved == json.dumps(
            {
                "version": 1,
                "cursor": cursor_to_wire(materializer.cursor),
                "verdicts": [r.to_payload() for r in results],
            }
        )

    def test_served_rows_pair_each_result_with_its_bytes(self):
        sim = self._simulate()
        runtime = ComplianceRuntime.from_simulation(sim)
        runtime.open()
        for control in (None, "gm-approval", "no-such-control"):
            for status in (None, "violated", "satisfied"):
                rows = runtime.verdict_rows(control=control, status=status)
                assert [r for r, __ in rows] == runtime.verdicts(
                    control=control, status=status
                )
                for result, encoded in rows:
                    assert encoded == json.dumps(result.to_payload()).encode()
        runtime.shutdown()


class _LaneContract:
    """Per-shard ingest lanes + the verdict cache, for one store shape.

    Every runtime ingests through one lane per shard, so the same
    contract — served verdicts byte-identical to a cold sweep — holds on
    every shape under lane-parallel writers, mid-stream snapshots,
    simulated lane crashes, restarts, and cache hits.  Subclasses pick
    the shape with :meth:`_medium` / :meth:`_backend`.
    """

    SHARDS = 1

    def _medium(self, tmp_path):
        """What survives a restart: a memory backend or a database path."""
        raise NotImplementedError

    def _backend(self, medium):
        raise NotImplementedError

    def _attach(self, medium, workload):
        store = ProvenanceStore(
            model=workload.build_model(), backend=self._backend(medium)
        )
        sim = workload.attach(store)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload, owns_store=True
        )
        return sim, runtime

    @pytest.fixture
    def attach(self, tmp_path):
        """Opens a fresh runtime over this test's medium on every call,
        so a second call is a restart over the same rows."""
        medium = self._medium(tmp_path)
        return lambda workload: self._attach(medium, workload)

    def test_lane_parallel_ingest_matches_cold_sweep(self, attach):
        """N threads × the lanes, with a mid-stream snapshot: parity."""
        workload = hiring.workload()
        sim, runtime = attach(workload)
        runtime.open()
        assert runtime.lane_count == self.SHARDS
        events = _event_stream(workload, cases=12, seed=29)
        writers = 4
        trace_ids = sorted({event.app_id for event in events})
        owner = {
            trace: index % writers
            for index, trace in enumerate(trace_ids)
        }
        partitions = [
            [e for e in events if owner[e.app_id] == index]
            for index in range(writers)
        ]
        errors = []
        barrier = threading.Barrier(writers + 1)

        def write(partition):
            try:
                client = RecorderClient(
                    transport=InProcessTransport(runtime)
                )
                barrier.wait()
                for start in range(0, len(partition), 7):
                    client.process_all(partition[start:start + 7])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(partition,))
            for partition in partitions
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        # A snapshot while every lane is mid-stream must fold whatever
        # is committed so far without corrupting anything.
        runtime.snapshot()
        for thread in threads:
            thread.join()
        assert errors == []
        runtime.sync()
        stats = runtime.stats()
        # Every event landed in exactly one lane.
        assert len(stats["lanes"]) == self.SHARDS
        assert sum(
            lane["events_routed"] for lane in stats["lanes"]
        ) == len(events)
        assert stats["traces"] == len(trace_ids)
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_verdict_read_cache_hits_until_ingest_invalidates(
        self, attach
    ):
        workload = hiring.workload()
        sim, runtime = attach(workload)
        runtime.open()
        runtime.ingest(_event_stream(workload, cases=3))
        first = _served_payloads(runtime)
        before = runtime.stats()["verdict_cache"]
        # An unchanged runtime serves repeat reads from the cache.
        assert _served_payloads(runtime) == first
        after = runtime.stats()["verdict_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        # New rows bump a lane's commit counter: the next read misses,
        # recomputes, and still matches the cold sweep.
        runtime.ingest(_event_stream(workload, cases=5))
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        assert (
            runtime.stats()["verdict_cache"]["misses"]
            == after["misses"] + 1
        )
        runtime.shutdown()

    def test_read_after_write_reads_only_the_touched_traces(
        self, attach, monkeypatch
    ):
        """A read right after a small ingest builds frames for the traces
        the ingest touched, never from a whole-store scan, and decodes no
        row: the lanes hand the records they committed to the global
        handle, so neither its sync nor the frame builds decode one."""
        from tests.test_store_query import count_decodes

        workload = hiring.workload()
        sim, runtime = attach(workload)
        runtime.open()
        events = _event_stream(workload, cases=34, seed=23)
        late = sorted({event.app_id for event in events})[30:]
        runtime.ingest([e for e in events if e.app_id not in late])
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)

        # Four rounds: each sends half of two late traces' events, so
        # the first round of a pair adds traces and the second appends
        # to traces already in the store.
        rounds = []
        for pair in (late[:2], late[2:]):
            halves = [
                [e for e in events if e.app_id == trace] for trace in pair
            ]
            for part in (0, 1):
                batch = []
                for trace_events in halves:
                    cut = len(trace_events) // 2
                    batch += (
                        trace_events[:cut] if part == 0
                        else trace_events[cut:]
                    )
                rounds.append(batch)

        scans = []
        armed = [False]
        for name in ("records_by_trace", "records_by_trace_projected"):
            original = getattr(ProvenanceStore, name)

            def spy(self, *args, _name=name, _original=original, **kw):
                if armed[0]:
                    scans.append(_name)
                return _original(self, *args, **kw)

            monkeypatch.setattr(ProvenanceStore, name, spy)
        counts = count_decodes(monkeypatch)

        for batch in rounds:
            decodes_before = counts["decodes"]
            armed[0] = True
            runtime.ingest(batch)
            violated = runtime.verdicts(status="violated")
            served = _served_payloads(runtime)
            armed[0] = False
            decoded = counts["decodes"] - decodes_before
            assert scans == []
            assert decoded == 0
            expected = _cold_sweep_payloads(sim)
            assert served == expected
            assert [r.to_payload() for r in violated] == [
                payload for payload in json.loads(expected)
                if payload["status"] == "violated"
            ]
        runtime.shutdown()

    def test_sharded_restart_resumes_with_zero_reevaluations(
        self, attach, tmp_path
    ):
        workload = hiring.workload()
        events = _event_stream(workload, cases=6)

        sim1, first = attach(workload)
        first.open()
        assert first.lane_count == self.SHARDS
        first.ingest(events)
        first.shutdown()  # folds lanes, snapshots, closes the store

        sim2, second = attach(workload)
        report = second.open()
        # The snapshot's cursor covered every lane-committed row.
        assert report.restored
        assert report.evaluated == 0
        # Replaying the stream is absorbed by rebuilt per-lane dedup.
        again = second.ingest(events)
        assert again.recorded == 0
        assert again.duplicates > 0
        second.sync()
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        restarted = _relation_rows(sim2.store)
        second.shutdown()

        # One uninterrupted run over a fresh medium mints the same
        # relations under the same ids, and the replay repeated no edge.
        (tmp_path / "reference").mkdir()
        sim3, reference = self._attach(
            self._medium(tmp_path / "reference"), workload
        )
        reference.open()
        reference.ingest(events)
        reference.sync()
        assert restarted == _relation_rows(sim3.store)
        _assert_no_repeated_edges(restarted)
        reference.shutdown()

    def test_lane_crash_reopen_recovers_to_cold_sweep_parity(self, attach):
        """A lane dying mid-batch loses nothing already committed; a
        rebuilt runtime over the same store replays to parity."""
        workload = hiring.workload()
        events = _event_stream(workload, cases=8, seed=17)

        sim1, first = attach(workload)
        first.open()
        plan = FaultPlan(seed=5).crash_at(
            "sharded.append.shard0", occurrence=2
        )
        with active_plan(plan):
            with pytest.raises(SimulatedCrash):
                for start in range(0, len(events), 5):
                    first.ingest(events[start:start + 5])
        # Simulated process death: abandon the runtime, no shutdown.

        sim2, second = attach(workload)
        report = second.open()
        assert second.lane_count == self.SHARDS
        # Whatever survived the crash is clean, evaluable state.
        assert report.traces >= 0
        second.ingest(events)  # full replay; dedup keeps it idempotent
        second.sync()
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()


class TestShardedLanes(_LaneContract):
    """The lane contract over a 4-shard SQLite store (``serve --shards
    4``): one forked connection per shard file."""

    SHARDS = 4

    def _medium(self, tmp_path):
        return str(tmp_path / "sharded-service.db")

    def _backend(self, medium):
        return ShardedBackend.for_sqlite(
            medium, self.SHARDS, threadsafe=True
        )

    def test_memory_shards_share_children_without_forking(self):
        workload = hiring.workload()
        backend = ShardedBackend(
            [MemoryBackend() for __ in range(self.SHARDS)]
        )
        sim, runtime = _open_runtime(workload, backend=backend)
        runtime.open()
        assert runtime.lane_count == self.SHARDS
        assert len(runtime.stats()["lanes"]) == self.SHARDS
        for lane, child in zip(runtime._lanes, backend.shard_backends()):
            assert lane.store.backend.shard_backends() == [child]
            assert not lane.owns_store
        runtime.ingest(_event_stream(workload, cases=4))
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()


class TestMemoryLane(_LaneContract):
    """The lane contract over one plain memory backend: the lane shares
    the backend object, and a restart reopens that same object."""

    def _medium(self, tmp_path):
        return MemoryBackend()

    def _backend(self, medium):
        return medium


class TestSQLiteLane(_LaneContract):
    """The lane contract over one plain SQLite file: the lane writes
    through a forked connection onto it."""

    def _medium(self, tmp_path):
        return str(tmp_path / "service.db")

    def _backend(self, medium):
        return SQLiteBackend(medium, threadsafe=True)


class TestLaneHandles:
    @pytest.mark.parametrize(
        "backend, shard",
        [
            (lambda: SQLiteBackend(":memory:"), 0),
            (
                lambda: ShardedBackend(
                    [MemoryBackend(), SQLiteBackend(":memory:")]
                ),
                1,
            ),
        ],
        ids=["sqlite-memory", "sharded-mixed"],
    )
    def test_open_rejects_a_shard_that_cannot_fork(self, backend, shard):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, backend=backend())
        with pytest.raises(ServiceError, match=f"shard {shard} "):
            runtime.open()
        # The failed open left nothing half-built behind.
        assert runtime.lane_count == 0
        with pytest.raises(ServiceError, match="not open"):
            runtime.verdicts()
        sim.store.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_reads_do_not_wait_for_the_global_lock(self, tmp_path, shards):
        workload = hiring.workload()
        sim, runtime = _open_runtime(
            workload,
            backend=_sqlite_backend(str(tmp_path / "reads.db"), shards),
        )
        runtime.open()
        runtime.ingest(_event_stream(workload, cases=4))
        warm = _served_payloads(runtime)  # fills the read cache
        held = threading.Event()
        release = threading.Event()

        def hold():
            with runtime._lock:
                held.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert held.wait(5.0)
        answers = {}

        def read():
            answers["stats"] = runtime.stats()
            answers["health"] = runtime.health()
            answers["verdicts"] = _served_payloads(runtime)

        reader = threading.Thread(target=read)
        reader.start()
        reader.join(timeout=1.0)
        finished = not reader.is_alive()
        release.set()
        holder.join()
        reader.join()
        assert finished, "a read waited behind the global lock"
        assert answers["stats"]["traces"] == 4
        assert len(answers["stats"]["lanes"]) == shards
        assert answers["health"]["status"] == "ok"
        assert answers["verdicts"] == warm
        runtime.shutdown()


class TestHandoffDecodes:
    """Lanes hand the records they commit to the global handle: a tick
    or read after in-process ingest decodes nothing, and a row another
    handle wrote is decoded once."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_background_sync_after_ingest_decodes_nothing(
        self, tmp_path, shards, monkeypatch
    ):
        from tests.test_store_query import count_decodes

        workload = hiring.workload()
        backend = _sqlite_backend(str(tmp_path / "tick.db"), shards)
        sim, runtime = _open_runtime(workload, backend=backend)
        runtime.open()
        events = _event_stream(workload, cases=8, seed=37)
        runtime.ingest(events[: len(events) // 2])
        runtime.sync()
        counts = count_decodes(monkeypatch)
        runtime.ingest(events[len(events) // 2:])
        outcome = runtime.sync()
        assert outcome.new_rows > 0 and outcome.refreshed > 0
        runtime.verdicts()
        assert counts["decodes"] == 0
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_a_row_from_another_handle_is_decoded_once(
        self, tmp_path, shards, monkeypatch
    ):
        from tests.test_store_query import count_decodes

        workload = hiring.workload()
        db = str(tmp_path / "oob.db")
        sim, runtime = _open_runtime(
            workload, backend=_sqlite_backend(db, shards)
        )
        runtime.open()
        runtime.ingest(_event_stream(workload, cases=6, seed=37))
        runtime.sync()
        other = ProvenanceStore(
            model=workload.build_model(), backend=_sqlite_backend(db, shards)
        )
        template = next(
            record for record in other.records()
            if isinstance(record, RelationRecord)
            and record.entity_type == "notificationFor"
        )
        counts = count_decodes(monkeypatch)
        other.append(dataclasses.replace(template, record_id="oob-1"))
        other.close()
        assert runtime.sync().new_rows == 1
        verdicts = runtime.verdicts()
        # The lane's fold decodes the row; the global sync and the frame
        # build of its trace read the record the lane handed over.
        assert counts["decodes"] == 1
        assert [r.to_payload() for r in verdicts] == json.loads(
            _cold_sweep_payloads(sim)
        )
        runtime.shutdown()

    def test_an_overflowing_handoff_drops_the_oldest_records(
        self, tmp_path, monkeypatch
    ):
        """Between folds a lane keeps at most ``HANDOFF_LIMIT`` records;
        the global sync decodes the rows of the ones it dropped."""
        from repro.service import lanes
        from tests.test_store_query import count_decodes

        monkeypatch.setattr(lanes, "HANDOFF_LIMIT", 5)
        workload = hiring.workload()
        sim, runtime = _open_runtime(
            workload, backend=_sqlite_backend(str(tmp_path / "o.db"), 1)
        )
        runtime.open()
        (lane,) = runtime._lanes
        events = _event_stream(workload, cases=6, seed=37)
        last = events[-1].app_id
        runtime.ingest([event for event in events if event.app_id != last])
        runtime.verdicts()
        counts = count_decodes(monkeypatch)
        reply = runtime.ingest(
            [event for event in events if event.app_id == last]
        )
        written = reply.recorded + reply.correlated
        assert written > 5
        assert len(lane._handoff) == 5
        assert counts["decodes"] == 0
        runtime.verdicts()
        assert counts["decodes"] == written - 5
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_store_sync_caches_the_rows_it_decodes(
        self, tmp_path, shards, monkeypatch
    ):
        """Without lanes (a plain evaluator over a synced store), the
        sync decodes an out-of-band row once and the frame build that
        follows reads the record it cached."""
        from tests.test_store_query import count_decodes

        workload = hiring.workload()
        db = str(tmp_path / "plain.db")
        sim = workload.simulate(
            cases=4, seed=2011, backend=_sqlite_backend(db, shards)
        )
        evaluator = ComplianceEvaluator(
            sim.store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
        )
        evaluator.run(sim.controls)
        other = ProvenanceStore(
            model=workload.build_model(), backend=_sqlite_backend(db, shards)
        )
        template = next(
            record for record in other.records()
            if isinstance(record, RelationRecord)
            and record.entity_type == "notificationFor"
        )
        other.append(dataclasses.replace(template, record_id="oob-2"))
        other.close()
        counts = count_decodes(monkeypatch)
        assert sim.store.sync() == 1
        before = evaluator.materializer.refreshes
        served = evaluator.run(sim.controls)
        assert evaluator.materializer.refreshes == before + len(sim.controls)
        assert counts["decodes"] == 1
        assert [r.to_payload() for r in served] == json.loads(
            _cold_sweep_payloads(sim)
        )
        sim.store.close()

    @pytest.mark.parametrize(
        "module", [expenses, hiring, incidents, procurement],
        ids=lambda module: module.__name__.rsplit(".", 1)[-1],
    )
    def test_handed_records_equal_the_decode_of_their_rows(
        self, tmp_path, module
    ):
        workload = module.workload()
        db = str(tmp_path / "handoff.db")
        sim, runtime = _open_runtime(
            workload, backend=_sqlite_backend(db, 4)
        )
        runtime.open()
        handed = []
        for lane in runtime._lanes:
            original = lane.take_handoff

            def take(_original=original):
                records = _original()
                handed.extend(records)
                return records

            lane.take_handoff = take
        events = _event_stream(workload, cases=6, seed=53)
        for start in range(0, len(events), 9):
            runtime.ingest(events[start:start + 9])
            runtime.sync()
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()
        reader = ProvenanceStore(
            model=workload.build_model(), backend=_sqlite_backend(db, 4)
        )
        rows = {row.record_id: row for row in reader.rows()}
        assert len(handed) == len(rows) > 0
        for record in handed:
            decoded = reader.codec.decode_row(rows[record.record_id])
            assert type(record) is type(decoded)
            assert record == decoded
            assert repr(record) == repr(decoded)
        reader.close()


class _HeldRead:
    """A sqlite3 connection stand-in: the first statement run from a
    thread that does not hold the runtime's global lock stays open — its
    WAL read snapshot pinned — until :attr:`release` is set."""

    def __init__(self, conn, lock):
        self.conn = conn
        self.lock = lock
        self.held = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self.conn, name)

    def execute(self, *args):
        cursor = self.conn.execute(*args)
        if not self.lock._is_owned() and not self.held.is_set():
            self.held.set()
            self.release.wait(10.0)
        return cursor


class TestLockFreeShardReads:
    """``ingest`` replies, ``stats`` and ``health`` run without the global
    lock, so they must not touch the global shard connections, which a
    concurrent snapshot writes through."""

    @pytest.mark.parametrize("call", ["stats", "health", "ingest"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_a_lock_free_read_cannot_break_a_snapshot(
        self, tmp_path, shards, call
    ):
        workload = hiring.workload()
        sim, runtime = _open_runtime(
            workload, backend=_sqlite_backend(str(tmp_path / "r.db"), shards)
        )
        runtime.open()
        events = [
            event
            for event in _event_stream(workload, cases=16, seed=41)
            if runtime._lane_for(event) == 0
        ]
        traces = sorted({event.app_id for event in events})
        assert len(traces) >= 3
        batches = [
            [event for event in events if event.app_id == trace]
            for trace in traces[:3]
        ]
        runtime.ingest(batches[0])
        runtime.snapshot()
        child = runtime.store.backend.shard_backends()[0]
        held = _HeldRead(child._conn, runtime._lock)
        child._conn = held
        errors = []

        def read():
            try:
                if call == "ingest":
                    runtime.ingest(batches[1])
                else:
                    getattr(runtime, call)()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        while reader.is_alive() and not held.held.is_set():
            time.sleep(0.001)
        try:
            # Lane 0 commits past any read snapshot the reader holds on
            # shard 0's global connection, then the snapshot writes
            # through that connection.
            runtime.ingest(batches[2])
            runtime.snapshot()
        finally:
            held.release.set()
            reader.join()
            child._conn = held.conn
        assert errors == []
        assert not held.held.is_set()
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    @pytest.mark.parametrize("owns_store", [False, True])
    def test_health_and_stats_answer_after_shutdown(
        self, tmp_path, owns_store
    ):
        workload = hiring.workload()
        sim, runtime = _open_runtime(
            workload,
            backend=_sqlite_backend(str(tmp_path / "s.db"), 4),
            owns_store=owns_store,
        )
        runtime.open()
        runtime.ingest(_event_stream(workload, cases=5, seed=47))
        runtime.sync()
        before = runtime.stats()
        runtime.shutdown()
        health = runtime.health()
        assert health["status"] == "stopped"
        assert health["traces"] == before["traces"] == 5
        assert health["last_seq"] == before["last_seq"]
        after = runtime.stats()
        assert (after["traces"], after["rows"]) == (
            before["traces"], before["rows"]
        )

    def test_polls_during_snapshots_and_ingest(self, tmp_path):
        workload = hiring.workload()
        sim, runtime = _open_runtime(
            workload, backend=_sqlite_backend(str(tmp_path / "p.db"), 4)
        )
        runtime.open()
        events = _event_stream(workload, cases=12, seed=43)
        stop = threading.Event()
        errors = []
        polls = [0]

        def poll():
            try:
                while not stop.is_set():
                    stats = runtime.stats()
                    health = runtime.health()
                    assert health["status"] == "ok"
                    assert len(stats["lanes"]) == 4
                    polls[0] += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def snapshot():
            try:
                while not stop.is_set():
                    runtime.snapshot()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=poll),
            threading.Thread(target=poll),
            threading.Thread(target=snapshot),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-statement often
        for thread in threads:
            thread.start()
        previous = cursor_from_wire(runtime.stats()["last_seq"])
        try:
            for start in range(0, len(events), 5):
                reply = runtime.ingest(events[start:start + 5])
                # The reply's cursor covers exactly its batch's rows:
                # the events it recorded and the relations it correlated.
                assert reply.last_seq.total() - previous.total() == (
                    reply.recorded + reply.correlated
                )
                previous = reply.last_seq
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert polls[0] > 0
        runtime.sync()
        assert previous == runtime.store.last_seq()
        stats = runtime.stats()
        assert cursor_from_wire(stats["last_seq"]) == previous
        assert stats["traces"] == len({event.app_id for event in events})
        assert stats["rows"] == len(sim.store)
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()


class TestTransportRecorder:
    def test_constructor_requires_exactly_one_backing(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0)
        mapping = workload.build_mapping(sim.model)
        with pytest.raises(CaptureError):
            RecorderClient()  # neither
        with pytest.raises(CaptureError):
            RecorderClient(sim.store)  # store without mapping
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload
        )
        with pytest.raises(CaptureError):
            RecorderClient(
                sim.store, mapping,
                transport=InProcessTransport(runtime),
            )  # both

    def test_remote_recorder_matches_embedded_stats(self):
        workload = hiring.workload()
        events = _event_stream(workload, cases=4, seed=31)

        # Embedded oracle: classic store-backed recorder.
        model = workload.build_model()
        mapping = workload.build_mapping(model)
        oracle_store = ProvenanceStore(model=model)
        embedded = RecorderClient(oracle_store, mapping)
        embedded_envelopes = embedded.process_all(events + events[:5])

        # Remote: same stream through a served runtime.
        sim, runtime = _open_runtime(workload)
        runtime.open()
        remote = RecorderClient(
            transport=InProcessTransport(runtime), mapping=mapping
        )
        remote_envelopes = remote.process_all(events + events[:5])

        for field in (
            "seen", "recorded", "dropped_irrelevant",
            "dropped_unmapped", "duplicates",
        ):
            assert (
                getattr(remote.stats, field)
                == getattr(embedded.stats, field)
            ), field
        assert [
            (envelope.recorded, envelope.dropped_reason)
            for envelope in remote_envelopes
        ] == [
            (envelope.recorded, envelope.dropped_reason)
            for envelope in embedded_envelopes
        ]
        oracle_store.close()
        runtime.shutdown()

    def test_unknown_kind_is_dropped_by_the_server(self):
        from repro.capture.events import ApplicationEvent, EventSource

        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        stray = ApplicationEvent(
            event_id="stray-1",
            source=EventSource.MANUAL,
            kind="totally.unknown",
            app_id="App99",
        )
        # Without a client-side mapping, everything ships; the server's
        # relevance filter rejects the unknown kind and the client folds
        # the disposition into its own counters.
        lenient = RecorderClient(transport=InProcessTransport(runtime))
        (envelope,) = lenient.process_all([stray])
        assert not envelope.recorded
        assert lenient.stats.dropped_irrelevant == 1
        # With the scope's mapping the client filters before the wire:
        # same outcome, nothing shipped.
        mapping = workload.build_mapping(sim.model)
        local_filter = RecorderClient(
            transport=InProcessTransport(runtime), mapping=mapping
        )
        (envelope,) = local_filter.process_all([stray])
        assert not envelope.recorded
        assert local_filter.stats.dropped_irrelevant == 1
        runtime.shutdown()

    def test_strict_client_raises_on_remote_unmapped_disposition(self):
        from repro.capture.events import ApplicationEvent, EventSource
        from repro.service.transport import IngestReply

        class StubTransport:
            def __init__(self, dispositions):
                self.reply = IngestReply(
                    recorded=0, duplicates=0, dropped_irrelevant=0,
                    dropped_unmapped=len(dispositions), correlated=0,
                    dispositions=dispositions, last_seq=0,
                )

            def ingest(self, events):
                return self.reply

        stray = ApplicationEvent(
            "stray-2", EventSource.MANUAL, "x.y", app_id="App01"
        )
        unmapped = [(False, "no mapping rule for kind 'x.y'")]
        lenient = RecorderClient(transport=StubTransport(unmapped))
        (envelope,) = lenient.process_all([stray])
        assert not envelope.recorded
        assert lenient.stats.dropped_unmapped == 1
        strict = RecorderClient(
            transport=StubTransport(unmapped), strict=True
        )
        with pytest.raises(MappingError):
            strict.process_all([stray])

    def test_disposition_count_mismatch_is_a_capture_error(self):
        from repro.capture.events import ApplicationEvent, EventSource
        from repro.service.transport import IngestReply

        class ShortTransport:
            def ingest(self, events):
                return IngestReply(
                    recorded=0, duplicates=0, dropped_irrelevant=0,
                    dropped_unmapped=0, correlated=0,
                    dispositions=[], last_seq=0,
                )

        client = RecorderClient(transport=ShortTransport())
        with pytest.raises(CaptureError):
            client.process_all([
                ApplicationEvent(
                    "m-1", EventSource.MANUAL, "a.b", app_id="App01"
                )
            ])

    def test_remote_recorder_scrubs_before_the_wire(self):
        from repro.capture.filters import SensitiveDataScrubber

        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=1)
        # Tag one payload field as sensitive on the recording side.
        poisoned = [
            event.with_payload(salary_band="SB9") for event in events
        ]
        client = RecorderClient(
            transport=InProcessTransport(runtime),
            scrubber=SensitiveDataScrubber(
                sensitive_fields=("salary_band",)
            ),
        )
        client.process_all(poisoned)
        assert client.stats.scrubbed_fields == len(poisoned)
        # Nothing that reached the store mentions the scrubbed value.
        for row in runtime.store.rows():
            assert "SB9" not in row.xml
        runtime.shutdown()
