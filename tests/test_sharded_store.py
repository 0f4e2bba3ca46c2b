"""Sharded provenance store: routing, vector cursors, snapshots, writers.

The sharded backend's *contract* (same store semantics as any other
backend) is pinned by the conformance suites; this module tests what is
new about sharding itself:

- deterministic trace→shard routing, stable across processes,
- vector-cursor algebra, and the restore boundary where a pre-sharding
  ``int`` cursor (in a snapshot or a wire reply) is coerced once,
- the composite change feed's mid-stream resumability,
- the uniqueness rule: an append probes only its record's home shard,
  once, offline and served alike,
- snapshot compatibility: a verdict snapshot written before every store
  was sharded restores into the one-shard store over the same file,
- a multi-writer smoke: two handles appending to disjoint shards of the
  same on-disk layout, folded together by a reader whose incremental
  verdicts match a cold unsharded sweep,
- the ``store-stats`` CLI subcommand.
"""

import io
import json
import os
import sqlite3

import pytest

from repro.controls.authoring import ControlAuthoringTool
from repro.controls.evaluator import ComplianceEvaluator
from repro.errors import BackendError, DuplicateRecordId
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
)
from repro.store.backends.sharded import shard_index_for, sqlite_shard_path
from repro.store.cursor import (
    VectorCursor,
    coerce_cursor,
    cursor_covers,
    cursor_from_wire,
    cursor_to_wire,
)
from repro.store.locks import FileLock, NullLock
from repro.store.store import ProvenanceStore

from tests.conftest import build_hiring_trace
from tests.test_controls_evaluation import GM_CONTROL
from tests.test_incremental_core import norm
from tests.test_store_store import sample_records


def sharded_memory(shards):
    return ShardedBackend([MemoryBackend() for __ in range(shards)])


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_routing_is_deterministic_and_in_range(self):
        ids = [f"App{i:03d}" for i in range(200)]
        for n in (1, 2, 4, 7):
            first = [shard_index_for(app_id, n) for app_id in ids]
            assert all(0 <= index < n for index in first)
            assert [shard_index_for(a, n) for a in ids] == first
        # Not all traces on one shard (crc32 actually spreads them).
        assert len({shard_index_for(a, 4) for a in ids}) == 4

    def test_backend_and_store_agree_with_module_routing(self):
        backend = sharded_memory(4)
        store = ProvenanceStore(backend=backend)
        assert store.shard_count() == 4
        for app_id in ("App01", "App02", "App99"):
            expected = shard_index_for(app_id, 4)
            assert backend.shard_index(app_id) == expected
            assert store.shard_index(app_id) == expected
        store.close()

    def test_whole_trace_lands_on_one_shard(self):
        backend = sharded_memory(4)
        store = ProvenanceStore(backend=backend)
        store.extend(sample_records("App01"))
        store.extend(sample_records("App02"))
        store.flush()
        for app_id in ("App01", "App02"):
            home = backend.shard_index(app_id)
            for index, child in enumerate(backend.shard_backends()):
                rows = [
                    r for r in child.iter_rows() if r.app_id == app_id
                ]
                assert bool(rows) == (index == home)
        store.close()

    def test_sqlite_shard_paths_are_distinct(self, tmp_path):
        base = str(tmp_path / "prov.db")
        paths = [sqlite_shard_path(base, i) for i in range(3)]
        assert len(set(paths)) == 3
        backend = ShardedBackend.for_sqlite(base, 3)
        assert [child.path for child in backend.shard_backends()] == paths
        backend.close()

    def test_empty_shard_list_rejected(self):
        with pytest.raises(BackendError):
            ShardedBackend([])


# ---------------------------------------------------------------------------
# Vector cursors
# ---------------------------------------------------------------------------


class TestVectorCursor:
    def test_totals_and_distance(self):
        cursor = VectorCursor((3, 0, 5))
        assert cursor.total() == 8
        assert VectorCursor((8,)).total() == 8

    def test_covers_componentwise(self):
        high = VectorCursor((3, 4))
        low = VectorCursor((3, 2))
        assert cursor_covers(high, low)
        assert not cursor_covers(low, high)
        assert high >= low and low <= high
        # Different shard layouts never cover each other, not even at
        # the empty position.
        assert not cursor_covers(high, VectorCursor((0,)))
        assert not cursor_covers(VectorCursor((0, 0)), VectorCursor((0,)))
        # A vector never equals a bare int: ints are coerced first.
        assert VectorCursor((7,)) != 7

    def test_advance_and_coerce(self):
        stepped = VectorCursor((1, 1)).advance(1)
        assert stepped == VectorCursor((1, 2))
        # The restore boundary: pre-sharding int cursors and wire lists.
        assert coerce_cursor(0, 3) == VectorCursor((0, 0, 0))
        assert coerce_cursor(5, 1) == VectorCursor((5,))
        assert coerce_cursor([2, 3], 2) == VectorCursor((2, 3))
        with pytest.raises(ValueError):
            coerce_cursor(5, 2)  # non-zero int is ambiguous across shards
        with pytest.raises(ValueError):
            coerce_cursor([0, 0], 3)  # another shard layout

    def test_wire_roundtrip(self):
        assert cursor_to_wire(VectorCursor((6,))) == [6]
        # A bare int is a reply from a server that predates sharding:
        # its one store was one shard.
        assert cursor_from_wire(6) == VectorCursor((6,))
        vector = VectorCursor((2, 0, 9))
        assert cursor_to_wire(vector) == [2, 0, 9]
        assert cursor_from_wire([2, 0, 9]) == vector
        assert str(vector) == "2|0|9"

    def test_cursors_are_immutable(self):
        cursor = VectorCursor((1, 2))
        with pytest.raises(AttributeError):
            cursor.seqs = (9, 9)


# ---------------------------------------------------------------------------
# Composite change feed
# ---------------------------------------------------------------------------


class TestCompositeFeed:
    def test_last_seq_mirrors_child_counts(self):
        backend = sharded_memory(4)
        store = ProvenanceStore(backend=backend)
        for i in range(12):
            store.extend(sample_records(f"App{i:02d}"))
        store.flush()
        cursor = store.last_seq()
        assert isinstance(cursor, VectorCursor)
        assert cursor.seqs == tuple(
            child.count() for child in backend.shard_backends()
        )
        assert cursor.total() == 36
        store.close()

    def test_midstream_resume_replays_exact_suffix(self):
        store = ProvenanceStore(backend=sharded_memory(3))
        for i in range(8):
            store.extend(sample_records(f"App{i:02d}"))
        feed = list(store.changes_since(VectorCursor((0, 0, 0))))
        assert len(feed) == 24
        for position in (0, 5, 11, 22):
            cursor, __ = feed[position]
            resumed = list(store.changes_since(cursor))
            assert [
                (seq, r.record_id) for seq, r in resumed
            ] == [(seq, r.record_id) for seq, r in feed[position + 1:]]
        store.close()


# ---------------------------------------------------------------------------
# One uniqueness rule: a record id is unique within its home shard
# ---------------------------------------------------------------------------


class ProbeCountingMemory(MemoryBackend):
    """A memory shard that records every id it is asked to probe."""

    def __init__(self):
        super().__init__()
        self.probed = []

    def contains(self, record_id):
        self.probed.append(record_id)
        return super().contains(record_id)


def _retried_batches(workload):
    """Hiring events in batches of five, every third batch sent twice
    (a client retrying a batch whose reply it never saw)."""
    from tests.test_service_runtime import _event_stream

    events = _event_stream(workload, cases=10, seed=23)
    batches = []
    for number, start in enumerate(range(0, len(events), 5)):
        batch = events[start:start + 5]
        batches.append(batch)
        if number % 3 == 2:
            batches.append(batch)
    return batches


def _shard_rows(children):
    """Per shard: the non-relation rows verbatim, the relation rows as
    ``(type, source, target, appid)`` (served lanes number REL ids in
    batch order, offline capture after the last event)."""
    from repro.model.records import RecordClass

    shards = []
    for child in children:
        rows = list(child.iter_rows())
        shards.append((
            [
                (r.record_id, r.record_class, r.app_id, r.xml)
                for r in rows
                if r.record_class is not RecordClass.RELATION
            ],
            sorted(
                (r.entity_type, r.source_id, r.target_id, r.app_id)
                for r in child.iter_records()
                if r.record_class is RecordClass.RELATION
            ),
        ))
    return shards


class TestUniquenessRule:
    def test_offline_capture_probes_each_row_once_on_its_home_shard(self):
        from repro.processes import hiring

        children = [ProbeCountingMemory() for __ in range(4)]
        sim = hiring.workload().simulate(
            cases=20, seed=7, backend=ShardedBackend(children)
        )
        assert len(sim.store) > 0
        for child in children:
            # Recorder appends and correlation's relation appends alike:
            # one probe per row, on the shard the row lives on.
            assert child.probed == [
                row.record_id for row in child.iter_rows()
            ]

    def test_offline_and_served_capture_agree_under_retries(self):
        from repro.capture.correlation import CorrelationAnalytics
        from repro.capture.recorder import RecorderClient
        from repro.processes import hiring
        from tests.test_service_runtime import _open_runtime

        workload = hiring.workload()
        batches = _retried_batches(workload)

        offline_children = [ProbeCountingMemory() for __ in range(4)]
        offline = ProvenanceStore(
            model=workload.build_model(),
            backend=ShardedBackend(offline_children),
        )
        recorder = RecorderClient(
            offline, workload.build_mapping(offline.model)
        )
        for batch in batches:
            recorder.process_all(batch)
        analytics = CorrelationAnalytics(offline)
        for rule in workload.correlation_rules():
            analytics.add_rule(rule)
        analytics.run()

        served_children = [ProbeCountingMemory() for __ in range(4)]
        __, runtime = _open_runtime(
            workload, backend=ShardedBackend(served_children)
        )
        runtime.open()
        served_duplicates = sum(
            runtime.ingest(batch).duplicates for batch in batches
        )
        runtime.sync()
        runtime.shutdown()

        assert recorder.stats.duplicates > 0
        assert served_duplicates == recorder.stats.duplicates
        assert _shard_rows(served_children) == _shard_rows(offline_children)
        # Each append, recorded or refused as a duplicate, made one probe.
        for children in (offline_children, served_children):
            rows = sum(child.count() for child in children)
            probes = sum(len(child.probed) for child in children)
            assert probes == rows + recorder.stats.duplicates

    def test_duplicate_id_is_refused_on_its_home_shard(self):
        store = ProvenanceStore(backend=sharded_memory(4))
        records = sample_records("App01")
        store.extend(records)
        with pytest.raises(DuplicateRecordId):
            store.append(records[1])
        assert len(store) == 3


# ---------------------------------------------------------------------------
# Snapshot compatibility across the sharding boundary
# ---------------------------------------------------------------------------


def _forge_int_cursor(db):
    """Rewrite the verdict snapshot in SQLite file *db* to the bare-int
    cursor that stores wrote before every store was sharded."""
    conn = sqlite3.connect(db)
    try:
        rows = conn.execute(
            "SELECT key, payload FROM aux_state WHERE key LIKE 'verdicts:%'"
        ).fetchall()
        assert len(rows) == 1
        key, payload = rows[0]
        snapshot = json.loads(payload)
        (seq,) = snapshot["cursor"]
        snapshot["cursor"] = seq
        conn.execute(
            "UPDATE aux_state SET payload = ? WHERE key = ?",
            (json.dumps(snapshot), key),
        )
        conn.commit()
    finally:
        conn.close()


class TestSnapshotCompatibility:
    def _controls(self, hiring_vocabulary):
        tool = ControlAuthoringTool(hiring_vocabulary)
        tool.author("gm-approval", GM_CONTROL)
        tool.deploy("gm-approval")
        return [tool.control("gm-approval")]

    def test_pre_sharding_snapshot_restores_under_composite(
        self, tmp_path, hiring_model, hiring_xom, hiring_vocabulary
    ):
        """A snapshot saved with an int cursor (a plain SQLite store,
        before every store was sharded) must restore into the one-shard
        store over the same file, re-evaluating nothing."""
        db = str(tmp_path / "legacy.db")
        store = ProvenanceStore(
            model=hiring_model, backend=SQLiteBackend(db)
        )
        for app_id in ("App01", "App02", "App03"):
            graph = build_hiring_trace(
                app_id, with_approval=(app_id != "App02")
            )
            for record in sorted(graph.nodes(), key=lambda r: r.record_id):
                store.append(record)
            for edge in sorted(graph.edges(), key=lambda r: r.record_id):
                store.append(edge)
        controls = self._controls(hiring_vocabulary)
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        expected = norm(evaluator.run(controls))
        assert isinstance(evaluator.materializer.cursor, VectorCursor)
        evaluator.materializer.save()
        store.close()
        _forge_int_cursor(db)

        # Reopen the same file as the only shard of a composite.
        sharded = ProvenanceStore(
            model=hiring_model,
            backend=ShardedBackend([SQLiteBackend(db)]),
        )
        assert isinstance(sharded.last_seq(), VectorCursor)
        controls = self._controls(hiring_vocabulary)
        revaluator = ComplianceEvaluator(
            sharded, hiring_xom, hiring_vocabulary
        )
        materializer = revaluator.materializer
        for control in controls:
            materializer.register(control)
        assert materializer.restore() is True
        # Nothing changed since the snapshot: the sweep is pure table
        # reads, zero re-evaluations.
        assert norm(revaluator.run(controls)) == expected
        assert materializer.refreshes == 0
        sharded.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_existing_db_opens_in_place_and_restores(self, tmp_path, shards):
        """A ``--db`` from before every store was sharded opens in place
        (one shard is the file itself, N shards are ``.shard-NN`` files)
        and ``check --incremental`` restores its snapshot: at one shard
        from the bare-int cursor those stores wrote."""
        from repro.cli import main

        db = str(tmp_path / "legacy.db")
        argv = ["check", "hiring", "--cases", "8", "--backend", "sqlite",
                "--db", db, "--shards", str(shards), "--incremental"]
        first = io.StringIO()
        main(argv, out=first)
        assert "incremental: no snapshot (cold sweep)" in first.getvalue()
        files = (
            [db] if shards == 1
            else [sqlite_shard_path(db, i) for i in range(shards)]
        )
        assert all(os.path.exists(path) for path in files)
        assert not os.path.exists(sqlite_shard_path(db, shards))
        if shards == 1:
            _forge_int_cursor(db)
        second = io.StringIO()
        main(argv, out=second)
        assert "incremental: snapshot restored; 0 of" in second.getvalue()
        # Below the banner the dashboard is the cold run's.
        assert (
            second.getvalue().split("\n", 1)[1]
            == first.getvalue().split("\n", 1)[1]
        )

    def test_layout_change_forces_cold_rematerialization(
        self, tmp_path, hiring_model, hiring_xom, hiring_vocabulary
    ):
        """A snapshot taken under one shard layout must not restore under
        another: the cursor shapes are incomparable, so restore() declines
        and the caller re-materializes from scratch."""
        base = str(tmp_path / "prov.db")
        store = ProvenanceStore(
            model=hiring_model,
            backend=ShardedBackend.for_sqlite(base, 2),
        )
        graph = build_hiring_trace("App01")
        for record in sorted(graph.nodes(), key=lambda r: r.record_id):
            store.append(record)
        for edge in sorted(graph.edges(), key=lambda r: r.record_id):
            store.append(edge)
        controls = self._controls(hiring_vocabulary)
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        evaluator.run(controls)
        evaluator.materializer.save()
        store.close()

        # Aux state lives on shard 0; reopen shard 0 alone as a plain
        # store.  The snapshot's 2-vector cursor is incomparable with the
        # single file's feed, so restore() must refuse.
        solo = ProvenanceStore(
            model=hiring_model,
            backend=SQLiteBackend(sqlite_shard_path(base, 0)),
        )
        controls = self._controls(hiring_vocabulary)
        revaluator = ComplianceEvaluator(solo, hiring_xom, hiring_vocabulary)
        for control in controls:
            revaluator.materializer.register(control)
        assert revaluator.materializer.restore() is False
        solo.close()


# ---------------------------------------------------------------------------
# Multi-writer smoke (the full fork demo lives in bench_multiwriter.py)
# ---------------------------------------------------------------------------


class TestMultiWriter:
    def test_disjoint_shard_writers_fold_into_one_feed(
        self, tmp_path, hiring_model, hiring_xom, hiring_vocabulary
    ):
        base = str(tmp_path / "multi.db")
        shards = 2
        app_ids = [f"App{i:02d}" for i in range(1, 9)]
        by_shard = {
            index: [
                a for a in app_ids if shard_index_for(a, shards) == index
            ]
            for index in range(shards)
        }
        assert all(by_shard.values())  # the smoke needs both writers busy

        # Two concurrently open handles over the same shard files, each
        # appending only traces homed on "its" shard.
        writers = [
            ProvenanceStore(
                model=hiring_model,
                backend=ShardedBackend.for_sqlite(base, shards),
            )
            for __ in range(shards)
        ]
        try:
            for index, writer in enumerate(writers):
                for app_id in by_shard[index]:
                    graph = build_hiring_trace(
                        app_id, with_approval=(app_id != "App02")
                    )
                    for record in sorted(
                        graph.nodes(), key=lambda r: r.record_id
                    ):
                        writer.append(record)
                    for edge in sorted(
                        graph.edges(), key=lambda r: r.record_id
                    ):
                        writer.append(edge)
                writer.flush()
        finally:
            for writer in writers:
                writer.close()

        reader = ProvenanceStore(
            model=hiring_model,
            backend=ShardedBackend.for_sqlite(base, shards),
        )
        assert sorted(reader.app_ids()) == app_ids
        controls_tool = ControlAuthoringTool(hiring_vocabulary)
        controls_tool.author("gm-approval", GM_CONTROL)
        controls_tool.deploy("gm-approval")
        controls = [controls_tool.control("gm-approval")]
        actual = norm(
            ComplianceEvaluator(
                reader, hiring_xom, hiring_vocabulary
            ).run(controls, trace_ids=sorted(reader.app_ids()))
        )

        # Cold oracle: the same records in one unsharded memory store.
        oracle = ProvenanceStore(model=hiring_model)
        for app_id in app_ids:
            graph = build_hiring_trace(
                app_id, with_approval=(app_id != "App02")
            )
            for record in sorted(graph.nodes(), key=lambda r: r.record_id):
                oracle.append(record)
            for edge in sorted(graph.edges(), key=lambda r: r.record_id):
                oracle.append(edge)
        expected = norm(
            ComplianceEvaluator(
                oracle, hiring_xom, hiring_vocabulary
            ).run(controls, trace_ids=app_ids)
        )
        assert actual == expected
        reader.close()
        oracle.close()


# ---------------------------------------------------------------------------
# File locks
# ---------------------------------------------------------------------------


class TestFileLock:
    def test_lock_excludes_second_holder(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        import os

        path = str(tmp_path / "shard.lock")
        lock = FileLock(path)
        with lock:
            probe = os.open(path, os.O_RDWR)
            try:
                with pytest.raises(OSError):
                    fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(probe)
        # Released: a non-blocking acquire now succeeds.
        probe = os.open(path, os.O_RDWR)
        try:
            fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(probe, fcntl.LOCK_UN)
        finally:
            os.close(probe)

    def test_lock_reusable_and_nulllock_noop(self, tmp_path):
        lock = FileLock(str(tmp_path / "again.lock"))
        for __ in range(3):
            with lock:
                pass
        with NullLock():
            pass


# ---------------------------------------------------------------------------
# store-stats CLI
# ---------------------------------------------------------------------------


class TestStoreStatsCli:
    def test_per_shard_stats_over_simulated_db(self, tmp_path):
        from repro.cli import main

        db = str(tmp_path / "stats.db")
        assert (
            main(
                ["simulate", "hiring", "--cases", "6", "--backend",
                 "sqlite", "--db", db, "--shards", "2"],
                out=io.StringIO(),
            )
            == 0
        )
        out = io.StringIO()
        assert (
            main(
                ["store-stats", "--backend", "sqlite", "--db", db,
                 "--shards", "2"],
                out=out,
            )
            == 0
        )
        text = out.getvalue()
        lines = text.strip().splitlines()
        # Each shard contributes a row-count line and a columnar line;
        # totals close the listing.
        assert lines[0].startswith("shard 0:")
        assert lines[1].startswith("shard 0: columnar:")
        assert lines[2].startswith("shard 1:")
        assert lines[3].startswith("shard 1: columnar:")
        assert lines[-2].startswith("total:")
        assert "2 shard(s)" in lines[-2]
        assert lines[-1].startswith("total: columnar:")
        assert sqlite_shard_path(db, 0) in text
        assert sqlite_shard_path(db, 1) in text

    def test_stats_on_memory_backend(self):
        from repro.cli import main

        out = io.StringIO()
        assert main(["store-stats"], out=out) == 0
        assert "in memory" in out.getvalue()

    def test_shards_flag_rejects_nonpositive(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                ["simulate", "hiring", "--shards", "0"], out=io.StringIO()
            )
