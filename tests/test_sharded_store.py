"""Sharded provenance store: routing, vector cursors, snapshots, writers.

The sharded backend's *contract* (same store semantics as any other
backend) is pinned by the conformance suites; this module tests what is
new about sharding itself:

- deterministic trace→shard routing, stable across processes,
- vector-cursor algebra, including the N=1 degenerate case that keeps
  pre-sharding ``int`` cursors (and the snapshots carrying them) valid,
- the composite change feed's mid-stream resumability,
- snapshot compatibility: a verdict snapshot written by a plain SQLite
  store restores under a single-shard composite over the same file,
- a multi-writer smoke: two handles appending to disjoint shards of the
  same on-disk layout, folded together by a reader whose incremental
  verdicts match a cold unsharded sweep,
- the ``store-stats`` CLI subcommand.
"""

import io

import pytest

from repro.controls.authoring import ControlAuthoringTool
from repro.controls.evaluator import ComplianceEvaluator
from repro.errors import BackendError
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
)
from repro.store.backends.sharded import shard_index_for, sqlite_shard_path
from repro.store.cursor import (
    VectorCursor,
    advance_cursor,
    coerce_cursor,
    cursor_covers,
    cursor_from_wire,
    cursor_to_wire,
    cursor_total,
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
        assert cursor_total(cursor) == 8
        assert cursor_total(8) == 8

    def test_degenerate_single_shard_equals_int(self):
        assert VectorCursor((7,)) == 7
        assert 7 == VectorCursor((7,))
        assert hash(VectorCursor((7,))) == hash(7)
        assert VectorCursor((0, 0)) == 0
        assert VectorCursor((1, 2)) != 3

    def test_covers_componentwise(self):
        high = VectorCursor((3, 4))
        low = VectorCursor((3, 2))
        assert cursor_covers(high, low)
        assert not cursor_covers(low, high)
        # Incomparable shapes never cover (except the empty int 0).
        assert cursor_covers(high, 0)
        assert not cursor_covers(high, 5)
        assert cursor_covers(VectorCursor((5,)), 4)
        assert not cursor_covers(3, VectorCursor((1, 1)))
        assert cursor_covers(0, VectorCursor((0, 0)))

    def test_advance_and_coerce(self):
        assert advance_cursor(3, 0) == 4
        with pytest.raises(ValueError):
            advance_cursor(3, 1)  # int cursors only know shard 0
        stepped = advance_cursor(VectorCursor((1, 1)), 1)
        assert stepped == VectorCursor((1, 2))
        assert coerce_cursor(0, 3) == VectorCursor((0, 0, 0))
        assert coerce_cursor(5, 1) == VectorCursor((5,))
        with pytest.raises(ValueError):
            coerce_cursor(5, 2)  # non-zero int is ambiguous across shards

    def test_wire_roundtrip(self):
        assert cursor_to_wire(6) == 6
        assert cursor_from_wire(6) == 6
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
        assert cursor_total(cursor) == 36
        store.close()

    def test_midstream_resume_replays_exact_suffix(self):
        store = ProvenanceStore(backend=sharded_memory(3))
        for i in range(8):
            store.extend(sample_records(f"App{i:02d}"))
        feed = list(store.changes_since(0))
        assert len(feed) == 24
        for position in (0, 5, 11, 22):
            cursor, __ = feed[position]
            resumed = list(store.changes_since(cursor))
            assert [
                (seq, r.record_id) for seq, r in resumed
            ] == [(seq, r.record_id) for seq, r in feed[position + 1:]]
        store.close()


# ---------------------------------------------------------------------------
# Snapshot compatibility across the sharding boundary
# ---------------------------------------------------------------------------


class TestSnapshotCompatibility:
    def _controls(self, hiring_vocabulary):
        tool = ControlAuthoringTool(hiring_vocabulary)
        tool.author("gm-approval", GM_CONTROL)
        tool.deploy("gm-approval")
        return [tool.control("gm-approval")]

    def test_pre_sharding_snapshot_restores_under_composite(
        self, tmp_path, hiring_model, hiring_xom, hiring_vocabulary
    ):
        """A snapshot saved with an int cursor (plain SQLite store, before
        sharding existed) must restore cleanly through the composite-cursor
        code path — the N=1 degenerate case."""
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
        assert isinstance(evaluator.materializer.cursor, int)
        evaluator.materializer.save()
        store.close()

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
