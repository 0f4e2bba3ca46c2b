"""Backend-conformance suite: store invariants over every storage backend.

The storage seam promises that swapping the backend never changes store
semantics — only durability and cost.  This suite parametrizes the core
invariants (duplicate-id rejection, append-order iteration, byte-identical
rows across dump/load, observer ordering, E5 incremental-recheck counts,
verdict equality) over:

- the in-memory backend,
- SQLite in-memory (``:memory:``),
- SQLite on disk (plus a close-and-reopen durability pass),
- sharded composites (one shard, four SQLite file shards, and shards
  wrapped in fault-free ``FaultyBackend`` proxies).

Sharded backends keep per-trace append order but enumerate traces in
shard-grouped order rather than global first-seen order, so the handful
of globally order-sensitive assertions relax to the per-trace contract
for the multi-shard kinds.
"""

import pytest

from repro.controls.deployment import ControlDeployment
from repro.controls.evaluator import ComplianceEvaluator
from repro.errors import BackendError, DuplicateRecordId, RecordNotFound
from repro.faults import FaultPlan, FaultyBackend
from repro.model.builder import ModelBuilder
from repro.model.records import DataRecord, RecordClass
from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
    create_backend,
)
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore
from repro.store.xmlcodec import decode_row, encode_row

from tests.test_store_store import sample_records

BACKEND_PARAMS = (
    "memory",
    "sqlite-memory",
    "sqlite-file",
    # A fault-free FaultyBackend must be behaviorally invisible — the
    # crash harness's staging proxy passes the same contract as the real
    # backends it wraps.
    "faulty-memory",
    "faulty-sqlite",
    # Sharded composites must pass the same contract: the degenerate
    # single shard, a four-way SQLite split, and fault-free FaultyBackend
    # proxies around every shard (the chaos harness's composition).
    "sharded-1",
    "sharded-4",
    "sharded-faulty",
)

#: kinds whose iteration order is shard-grouped, not global first-seen.
MULTI_SHARD_KINDS = frozenset({"sharded-4", "sharded-faulty"})


def make_backend(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "sqlite-memory":
        return SQLiteBackend(":memory:")
    if kind == "faulty-memory":
        return FaultyBackend(MemoryBackend(), FaultPlan())
    if kind == "faulty-sqlite":
        return FaultyBackend(
            SQLiteBackend(str(tmp_path / "faulty.db")), FaultPlan()
        )
    if kind == "sharded-1":
        return ShardedBackend([MemoryBackend()])
    if kind == "sharded-4":
        return ShardedBackend.for_sqlite(str(tmp_path / "sharded.db"), 4)
    if kind == "sharded-faulty":
        plan = FaultPlan()
        return ShardedBackend(
            [FaultyBackend(MemoryBackend(), plan) for __ in range(2)]
        )
    return SQLiteBackend(str(tmp_path / "store.db"))


@pytest.fixture(params=BACKEND_PARAMS)
def backend_kind(request):
    return request.param


@pytest.fixture
def store(backend_kind, tmp_path):
    store = ProvenanceStore(
        indexed=True, backend=make_backend(backend_kind, tmp_path)
    )
    store.extend(sample_records("App01"))
    store.extend(sample_records("App02"))
    yield store
    store.close()


class TestConformance:
    def test_len_get_contains(self, store):
        assert len(store) == 6
        assert "D1-App01" in store
        assert store.get("D1-App01").get("type") == "new"
        with pytest.raises(RecordNotFound):
            store.get("nope")

    def test_duplicate_id_rejected(self, store):
        with pytest.raises(DuplicateRecordId):
            store.append(sample_records("App01")[0])
        assert len(store) == 6

    def test_rows_and_records_in_append_order(self, store, backend_kind):
        ids = [row.record_id for row in store.rows()]
        if backend_kind not in MULTI_SHARD_KINDS:
            assert ids[:3] == ["R1-App01", "D1-App01", "E1-App01"]
        # Per-trace append order holds on every kind, sharded included.
        assert [i for i in ids if i.endswith("App01")] == [
            "R1-App01", "D1-App01", "E1-App01"
        ]
        assert [r.record_id for r in store.records()] == ids

    def test_app_ids_first_seen_order(self, store, backend_kind):
        if backend_kind in MULTI_SHARD_KINDS:
            # Shard-grouped canonical order: still deterministic, still
            # consistent with the row stream, just not first-seen.
            assert sorted(store.app_ids()) == ["App01", "App02"]
            first_seen = []
            for row in store.rows():
                if row.app_id not in first_seen:
                    first_seen.append(row.app_id)
            assert store.app_ids() == first_seen
        else:
            assert store.app_ids() == ["App01", "App02"]

    def test_select_paths(self, store):
        data = store.select(RecordQuery(record_class=RecordClass.DATA))
        assert {r.record_id for r in data} == {"D1-App01", "D1-App02"}
        query = RecordQuery(entity_type="jobrequisition").where(
            "reqid", "==", "Req-App02"
        )
        assert [r.record_id for r in store.select(query)] == ["D1-App02"]
        outgoing = store.relations_from("R1-App01")
        assert [r.record_id for r in outgoing] == ["E1-App01"]

    def test_observer_ordering(self, store):
        """Observers fire per append, in subscription order, post-commit."""
        calls = []
        store.subscribe(lambda r: calls.append(("first", r.record_id)))
        store.subscribe(lambda r: calls.append(("second", r.record_id)))
        store.append(DataRecord.create("D9", "App09", "jobrequisition"))
        store.append(DataRecord.create("D10", "App09", "jobrequisition"))
        assert calls == [
            ("first", "D9"),
            ("second", "D9"),
            ("first", "D10"),
            ("second", "D10"),
        ]
        # The observed record is already stored (commit happens first).
        seen_inside = []
        store.subscribe(lambda r: seen_inside.append(r.record_id in store))
        store.append(DataRecord.create("D11", "App09", "jobrequisition"))
        assert seen_inside == [True]

    def test_dump_load_rows_byte_identical(self, store, tmp_path,
                                           backend_kind):
        path = str(tmp_path / "dump.jsonl")
        assert store.dump(path) == 6
        source_rows = [r.as_tuple() for r in store.rows()]
        # Reload into every backend kind; rows stay byte-identical.  A
        # sharded source or target enumerates traces shard-grouped, so
        # compare as sorted multisets there and exactly otherwise.
        for target_kind in BACKEND_PARAMS:
            target_dir = tmp_path / f"reload-{target_kind}"
            target_dir.mkdir()
            loaded = ProvenanceStore.load(
                path, backend=make_backend(target_kind, target_dir)
            )
            loaded_rows = [r.as_tuple() for r in loaded.rows()]
            if (
                backend_kind in MULTI_SHARD_KINDS
                or target_kind in MULTI_SHARD_KINDS
            ):
                assert sorted(loaded_rows) == sorted(source_rows)
            else:
                assert loaded_rows == source_rows
            loaded.close()

    def test_records_by_trace_groups_in_append_order(self, store,
                                                     backend_kind):
        grouped = store.records_by_trace()
        if backend_kind in MULTI_SHARD_KINDS:
            assert sorted(grouped) == ["App01", "App02"]
        else:
            assert list(grouped) == ["App01", "App02"]
        assert [r.record_id for r in grouped["App01"]] == [
            "R1-App01", "D1-App01", "E1-App01"
        ]


class TestUnindexedConformance:
    """The scan paths must match the indexed paths on every backend."""

    def test_scan_equals_index(self, backend_kind, tmp_path):
        indexed = ProvenanceStore(
            indexed=True, backend=make_backend(backend_kind, tmp_path)
        )
        scan_dir = tmp_path / "scan"
        scan_dir.mkdir()
        scanning = ProvenanceStore(
            indexed=False, backend=make_backend(backend_kind, scan_dir)
        )
        for target in (indexed, scanning):
            target.extend(sample_records("App01"))
            target.extend(sample_records("App02"))
        query = RecordQuery(app_id="App02")
        assert [r.record_id for r in indexed.select(query)] == [
            r.record_id for r in scanning.select(query)
        ]
        assert indexed.app_ids() == scanning.app_ids()
        for shard in scanning.backend.shard_backends():
            shard = getattr(shard, "inner", shard)  # unwrap FaultyBackend
            if isinstance(shard, SQLiteBackend):
                # The ablation really scans: SQLite never pushed down.
                assert shard.pushdown_queries == 0
        indexed.close()
        scanning.close()


class TestHighestId:
    """``highest_id`` resumes id sequences after a reopen: numeric order,
    all-digit suffixes only, and rows still in a write buffer count."""

    @pytest.mark.parametrize(
        "kind", ["memory", "sqlite-file", "sharded-4", "faulty-sqlite"]
    )
    def test_highest_numeric_suffix(self, kind, tmp_path):
        backend = make_backend(kind, tmp_path)
        store = ProvenanceStore(backend=backend)
        assert backend.highest_id("REL") == 0

        def append(record_id, app_id):
            store.append(
                DataRecord.create(
                    record_id, app_id, "jobrequisition",
                    attributes={"reqid": record_id},
                )
            )

        for record_id, app_id in (
            ("REL9", "App01"),
            ("RELAY", "App02"),
            ("REL", "App03"),
            ("REL3x", "App04"),
            ("PE12", "App05"),
        ):
            append(record_id, app_id)
        assert backend.highest_id("REL") == 9
        # REL10 is still buffered (unflushed) on SQLite and staged on the
        # faulty proxy, and it beats REL9 as a number, not as a string.
        append("REL10", "App02")
        assert backend.highest_id("REL") == 10
        assert backend.highest_id("PE") == 12
        assert backend.highest_id("App") == 0
        store.flush()
        assert backend.highest_id("REL") == 10
        store.close()


class TestMemorySpecifics:
    def test_answers_are_copies(self):
        """Readers get slices: a caller (or a FaultyBackend appending its
        staged rows) may extend an answer without touching the backend."""
        backend = MemoryBackend()
        store = ProvenanceStore(backend=backend)
        store.extend(sample_records("App01"))
        backend.query_records(RecordQuery(app_id="App01")).clear()
        backend.app_ids().clear()
        assert [
            r.record_id for r in store.select(RecordQuery(app_id="App01"))
        ] == ["R1-App01", "D1-App01", "E1-App01"]
        assert store.app_ids() == ["App01"]
        assert backend.query_records(RecordQuery(app_id="App09")) == []
        assert backend.query_records(RecordQuery()) is None


class TestSQLiteSpecifics:
    def test_reopen_answers_queries_from_backend(self, tmp_path):
        db = str(tmp_path / "prov.db")
        store = ProvenanceStore(backend=SQLiteBackend(db))
        store.extend(sample_records("App01"))
        store.extend(sample_records("App02"))
        rows_before = [r.as_tuple() for r in store.rows()]
        store.close()

        reopened = ProvenanceStore(backend=SQLiteBackend(db))
        assert len(reopened) == 6
        assert [r.as_tuple() for r in reopened.rows()] == rows_before
        # Nothing was hydrated; the backend answers from its own rows.
        assert reopened.app_ids() == ["App01", "App02"]
        assert [
            r.record_id for r in reopened.select(RecordQuery(app_id="App02"))
        ] == ["R1-App02", "D1-App02", "E1-App02"]
        assert [
            r.record_id for r in reopened.relations_from("R1-App01")
        ] == ["E1-App01"]
        with pytest.raises(DuplicateRecordId):
            reopened.append(sample_records("App01")[0])
        reopened.close()

    def test_oracle_codec_store_pushes_down_physical_facets(self, tmp_path):
        """A backend with a decoder bound and no columnar codec (as on a
        SQLite build without JSON support, which never binds one) pushes
        down only the physical ``class``/``appid`` facets."""
        backend = SQLiteBackend(str(tmp_path / "oracle.db"))
        backend.set_decoder(decode_row)
        for record in sample_records("App01") + sample_records("App02"):
            backend.append_row(encode_row(record))
        query = RecordQuery(app_id="App02", entity_type="jobrequisition")
        found = backend.query_records(query)
        assert backend.pushdown_queries == 1
        # The entity-type facet stayed in Python: a superset came back.
        assert [r.record_id for r in found] == [
            "R1-App02", "D1-App02", "E1-App02"
        ]
        assert [r.record_id for r in found if query.matches(r)] == [
            "D1-App02"
        ]
        backend.close()

    def test_pending_rows_visible_before_flush(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "b.db"), batch_size=1000)
        store = ProvenanceStore(backend=backend)
        with store.bulk():
            store.extend(sample_records("App01"))
            # Not yet committed, but reads must see the rows.
            assert "D1-App01" in store
            assert store.get("D1-App01").get("type") == "new"
            assert len(store) == 3
        store.close()

    def test_model_typed_attributes_after_reopen(self, tmp_path):
        model = (
            ModelBuilder("m")
            .data("jobrequisition", "Job Requisition",
                  reqid=str, type=str)
            .build()
        )
        db = str(tmp_path / "typed.db")
        store = ProvenanceStore(model=model, backend=SQLiteBackend(db))
        store.append(
            DataRecord.create(
                "D1", "App01", "jobrequisition",
                attributes={"reqid": "R1", "type": "new"},
            )
        )
        store.close()
        reopened = ProvenanceStore(model=model, backend=SQLiteBackend(db))
        assert reopened.get("D1").get("reqid") == "R1"
        reopened.close()

    def test_closed_backend_rejects_use(self, tmp_path):
        store = ProvenanceStore(backend=SQLiteBackend(str(tmp_path / "c.db")))
        store.extend(sample_records("App01"))
        store.close()
        store.close()  # idempotent
        with pytest.raises(BackendError):
            store.append(sample_records("App02")[0])

    def test_create_backend_registry(self, tmp_path):
        assert isinstance(create_backend("memory"), MemoryBackend)
        sqlite = create_backend("sqlite", path=str(tmp_path / "r.db"))
        assert isinstance(sqlite, SQLiteBackend)
        sqlite.close()
        with pytest.raises(BackendError):
            create_backend("cassandra")
        with pytest.raises(BackendError):
            create_backend("memory", path="nope.db")


class TestDeployedChecking:
    """E5 invariants: incremental recheck counts are backend-independent."""

    def test_incremental_recheck_counts_match_memory(
        self, backend_kind, tmp_path, hiring_model, hiring_xom,
        hiring_vocabulary
    ):
        from repro.controls.authoring import ControlAuthoringTool
        from tests.conftest import build_hiring_trace
        from tests.test_controls_evaluation import GM_CONTROL

        tool = ControlAuthoringTool(hiring_vocabulary)
        tool.author("gm-approval", GM_CONTROL)
        tool.deploy("gm-approval")
        control = tool.control("gm-approval")

        store = ProvenanceStore(
            model=hiring_model, backend=make_backend(backend_kind, tmp_path)
        )
        deployment = ControlDeployment(
            store, hiring_xom, hiring_vocabulary,
            bind_results=False, immediate=False,
        )
        deployment.deploy(control)
        assert deployment.rechecks == 0

        trace = build_hiring_trace("App60")
        for record in sorted(trace.nodes(), key=lambda r: r.record_id):
            store.append(record)
        for relation in sorted(trace.edges(), key=lambda r: r.record_id):
            store.append(relation)
        # A burst of relevant records dirties the pair exactly once.
        assert deployment.dirty_count == 1
        results = deployment.flush()
        assert len(results) == 1
        assert deployment.rechecks == 1
        assert deployment.dirty_count == 0
        assert deployment.flush() == []
        store.close()


class TestWorkloadBackendEquivalence:
    """simulate(backend=...) reproduces the memory run exactly."""

    def test_verdicts_and_rows_identical(self, tmp_path):
        workload = hiring.workload()
        plan = ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.3)
        memory_sim = workload.simulate(cases=8, seed=11, violations=plan)
        sqlite_sim = workload.simulate(
            cases=8, seed=11, violations=plan,
            backend=SQLiteBackend(str(tmp_path / "w.db")),
        )
        assert [r.as_tuple() for r in sqlite_sim.store.rows()] == [
            r.as_tuple() for r in memory_sim.store.rows()
        ]
        expected = ComplianceEvaluator(
            memory_sim.store, memory_sim.xom, memory_sim.vocabulary
        ).run(memory_sim.controls)
        actual = ComplianceEvaluator(
            sqlite_sim.store, sqlite_sim.xom, sqlite_sim.vocabulary
        ).run(sqlite_sim.controls)
        assert [
            (r.control_name, r.trace_id, r.status) for r in expected
        ] == [(r.control_name, r.trace_id, r.status) for r in actual]
        sqlite_sim.store.close()

    def test_attach_reproduces_simulated_verdicts(self, tmp_path):
        db = str(tmp_path / "audit.db")
        workload = hiring.workload()
        plan = ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.4)
        sim = workload.simulate(
            cases=6, seed=3, violations=plan, backend=SQLiteBackend(db)
        )
        expected = [
            (r.control_name, r.trace_id, r.status)
            for r in ComplianceEvaluator(
                sim.store, sim.xom, sim.vocabulary
            ).run(sim.controls)
        ]
        sim.store.close()

        # Re-audit the rows later, in another "process".
        reopened = ProvenanceStore(
            model=workload.build_model(), backend=SQLiteBackend(db)
        )
        attached = workload.attach(reopened)
        assert attached.runs == []
        assert attached.store is reopened
        actual = [
            (r.control_name, r.trace_id, r.status)
            for r in ComplianceEvaluator(
                attached.store, attached.xom, attached.vocabulary
            ).run(attached.controls)
        ]
        assert actual == expected
        reopened.close()


class TestCliBackendFlags:
    """--backend sqlite --db: simulate once, audit many times."""

    def test_check_over_db_matches_memory_check(self, tmp_path):
        import io

        from repro.cli import main

        db = str(tmp_path / "cli.db")
        out = io.StringIO()
        code = main(
            ["simulate", "hiring", "--cases", "6", "--violation-rate",
             "0.5", "--backend", "sqlite", "--db", db],
            out=out,
        )
        assert code == 0

        sqlite_out = io.StringIO()
        sqlite_code = main(
            ["check", "hiring", "--backend", "sqlite", "--db", db],
            out=sqlite_out,
        )
        memory_out = io.StringIO()
        memory_code = main(
            ["check", "hiring", "--cases", "6", "--violation-rate", "0.5"],
            out=memory_out,
        )
        assert sqlite_code == memory_code
        assert sqlite_out.getvalue() == memory_out.getvalue()

    def test_db_requires_sqlite_backend(self):
        import io

        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["simulate", "hiring", "--db", "x.db"], out=io.StringIO())
