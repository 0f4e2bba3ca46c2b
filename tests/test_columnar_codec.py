"""Differential fuzz suite for the columnar row representation.

The ``cols`` payload and the SQL predicate push-down are fast paths over
the Table-I XML, never a second source of truth — so every assertion here
is differential: whatever the columnar path produces must equal what the
pure ElementTree decode-then-filter oracle produces, record for record,
across every backend kind (memory, sqlite, sharded, fault-proxied) and
across databases written before the columnar schema existed.
"""

import random
import sqlite3

import pytest

from repro.errors import CodecError
from repro.model.builder import ModelBuilder
from repro.model.records import (
    DataRecord,
    RecordClass,
    RelationRecord,
    TaskRecord,
)
from repro.store.columnar import ColumnarCodec, compile_query
from repro.store.backends.sqlite import SQLiteBackend
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore
from repro.store.xmlcodec import StoredRow, XmlCodec, decode_row

from tests.test_store_backends import (
    BACKEND_PARAMS,
    make_backend,
)

#: the v1 (pre-columnar) SQLite schema, verbatim — used to fabricate
#: legacy database files for the migration tests.
V1_SCHEMA = """
CREATE TABLE provenance (
    id    TEXT PRIMARY KEY,
    class TEXT NOT NULL,
    appid TEXT NOT NULL,
    xml   TEXT NOT NULL
);
CREATE INDEX idx_provenance_class ON provenance(class);
CREATE INDEX idx_provenance_appid ON provenance(appid);
CREATE TABLE aux_state (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
"""


def fuzz_model():
    return (
        ModelBuilder("colfuzz")
        .data(
            "jobrequisition",
            "Job Requisition",
            reqid=str,
            type=str,
            headcount=int,
            budget=float,
            urgent=bool,
        )
        .task("approval", "Approval", approver=str, level=int)
        .relation("approvalOf", RecordClass.TASK, RecordClass.DATA)
        .build()
    )


# Deliberately hostile strings: XML-escaped characters, unicode, empty,
# and wire-unstable shapes (padding, tabs) that must force the row back
# onto the XML path without changing any query answer.
_STRINGS = (
    "new",
    "replacement",
    "",
    "naïve café ☕",
    "a&b<c>\"d'",
    " padded ",
    "tab\tseparated",
    "multi\nline",
    "x" * 64,
)

_INTS = (0, 1, 7, -3, 41, 2**63 - 1, -(2**63), 2**63)
_FLOATS = (0.0, 1.5, -2.25, 1e300, 0.1)
_TIMESTAMPS = (0, 1, 50, 1700000000, 2**62)


def fuzz_records(app_id, rng):
    records = []
    for i in range(rng.randrange(4, 10)):
        ts = rng.choice(_TIMESTAMPS)
        shape = rng.random()
        if shape < 0.5:
            attrs = {
                "reqid": f"Req-{app_id}-{i}",
                "type": rng.choice(("new", "replacement")),
                "headcount": rng.choice(_INTS),
                "budget": rng.choice(_FLOATS),
                "urgent": rng.random() < 0.5,
            }
            if rng.random() < 0.4:
                # Undeclared attribute: decodes as a raw wire string.
                attrs["note"] = rng.choice(_STRINGS)
            records.append(
                DataRecord.create(
                    f"D{i}-{app_id}", app_id, "jobrequisition",
                    timestamp=ts, attributes=attrs,
                )
            )
        elif shape < 0.8:
            records.append(
                TaskRecord.create(
                    f"T{i}-{app_id}", app_id, "approval", timestamp=ts,
                    attributes={
                        "approver": rng.choice(_STRINGS),
                        "level": rng.randrange(-5, 5),
                    },
                )
            )
        else:
            records.append(
                RelationRecord.create(
                    f"R{i}-{app_id}", app_id, "approvalOf",
                    source_id=f"T0-{app_id}", target_id=f"D0-{app_id}",
                    timestamp=ts,
                )
            )
    return records


def query_bank(app_id):
    """Queries covering every push-down clause shape plus residual cases."""
    jr = RecordQuery(entity_type="jobrequisition")
    return [
        RecordQuery(),
        RecordQuery(record_class=RecordClass.DATA),
        RecordQuery(record_class=RecordClass.RELATION),
        RecordQuery(app_id=app_id),
        RecordQuery(app_id=app_id, entity_type="jobrequisition"),
        jr.where("type", "==", "new"),
        jr.where("type", "!=", "new"),
        jr.where("headcount", ">", 0),
        jr.where("headcount", "<=", 7),
        jr.where("headcount", "==", 2**63 - 1),
        jr.where("budget", ">=", 0.0),
        jr.where("budget", "<", 1.0),
        jr.where("urgent", "==", True),
        jr.where("urgent", "!=", False),
        jr.where("note", "exists"),
        jr.where("note", "absent"),
        jr.where("note", "==", " padded "),
        jr.where("headcount", "==", "7"),  # cross-type: matches nothing
        jr.where("headcount", ">", 1.5),  # int column, float bound
        RecordQuery(entity_type="approval").where("level", "<", 2),
        RecordQuery(app_id=app_id, since=1, until=1700000000),
        RecordQuery(since=2**62),
    ]


def populate(store, app_ids, seed=20260808):
    rng = random.Random(seed)
    for app_id in app_ids:
        for record in fuzz_records(app_id, rng):
            store.append(record)
    store.flush()


class TestDifferentialQueries:
    """select() == pure-ET decode-then-filter, on every backend kind."""

    @pytest.mark.parametrize("kind", BACKEND_PARAMS)
    def test_pushdown_matches_full_scan(self, kind, tmp_path):
        """Push-down must be invisible next to the backend's own scan.

        The universe comes from an unconstrained select — which never
        pushes down — so any divergence the compiled WHERE clauses
        introduce (type coercion, collation, NULL handling) shows up as
        a record-level mismatch.
        """
        model = fuzz_model()
        store = ProvenanceStore(
            model=model, backend=make_backend(kind, tmp_path)
        )
        app_ids = [f"App{i:02d}" for i in range(6)]
        populate(store, app_ids)
        universe = store.select(RecordQuery())
        for query in query_bank(app_ids[0]):
            expected = [r for r in universe if query.matches(r)]
            assert store.select(query) == expected
        store.close()

    def test_cold_reopen_matches_xml_oracle(self, tmp_path):
        """On a cold store every answer must equal pure ET decode-then-filter.

        A reopened database has no append-time record cache, so each row
        is materialized from its columnar payload (or its XML when the
        payload was refused) — and both must reproduce the ElementTree
        oracle exactly.
        """
        model = fuzz_model()
        path = str(tmp_path / "u.db")
        store = ProvenanceStore(model=model, backend=SQLiteBackend(path))
        populate(store, ["U1", "U2"])
        store.close()
        backend = SQLiteBackend(path)
        reopened = ProvenanceStore(model=model, backend=backend)
        oracle = [decode_row(row, model) for row in reopened.rows()]
        for query in query_bank("U1"):
            assert reopened.select(query) == [
                r for r in oracle if query.matches(r)
            ]
        assert backend.pushdown_queries > 0
        reopened.close()


class TestCodecRoundTrip:
    def test_cols_roundtrip_equals_et_decode(self):
        model = fuzz_model()
        codec = ColumnarCodec(model)
        xml_codec = XmlCodec(model)
        rng = random.Random(7)
        encoded = 0
        for app_id in ("A1", "A2", "A3"):
            for record in fuzz_records(app_id, rng):
                row = xml_codec.encode_row(record)
                cols = codec.encode_cols(row, record, verify_xml=True)
                if cols is None:
                    continue
                encoded += 1
                assert codec.decode_cols(row, cols) == decode_row(row, model)
        assert encoded > 0 and codec.encoded == encoded

    def test_encode_refuses_divergent_rows(self):
        model = fuzz_model()
        codec = ColumnarCodec(model)
        xml_codec = XmlCodec(model)
        # Wire-unstable attribute value: XML decode strips the padding,
        # the columnar copy would not.
        padded = DataRecord.create(
            "D1", "App01", "jobrequisition", attributes={"note": " padded "}
        )
        assert codec.encode_cols(xml_codec.encode_row(padded), padded) is None
        # Out-of-int64 integers round to REAL under json_extract.
        huge = DataRecord.create(
            "D2", "App01", "jobrequisition", attributes={"headcount": 2**63}
        )
        assert codec.encode_cols(xml_codec.encode_row(huge), huge) is None

    def test_verify_xml_refuses_non_canonical_rows(self):
        model = fuzz_model()
        codec = ColumnarCodec(model)
        record = DataRecord.create(
            "D1", "App01", "jobrequisition", attributes={"reqid": "R1"}
        )
        row = XmlCodec(model).encode_row(record)
        tampered = StoredRow(
            record_id=row.record_id,
            record_class=row.record_class,
            app_id=row.app_id,
            xml=row.xml + " ",
        )
        assert codec.encode_cols(tampered, record, verify_xml=True) is None
        assert codec.encode_cols(row, record, verify_xml=True) is not None

    def test_stale_crc_rejects_payload(self):
        model = fuzz_model()
        codec = ColumnarCodec(model)
        record = DataRecord.create(
            "D1", "App01", "jobrequisition", attributes={"reqid": "R1"}
        )
        row = XmlCodec(model).encode_row(record)
        cols = codec.encode_cols(row, record)
        edited = StoredRow(
            record_id=row.record_id,
            record_class=row.record_class,
            app_id=row.app_id,
            xml=row.xml.replace("R1", "R2"),
        )
        assert codec.decode_cols(row, cols) == record
        assert codec.decode_cols(edited, cols) is None
        assert codec.cols_rejects == 1


class TestCompiledQueryShapes:
    def test_pushed_and_residual_counting(self):
        query = RecordQuery(
            record_class=RecordClass.DATA,
            app_id="App01",
            entity_type="jobrequisition",
        ).where("headcount", ">", 3).where("weird-name", "==", "x")
        compiled = compile_query(query)
        assert compiled.pushed == 1  # headcount
        assert compiled.residual == 1  # weird-name is not a safe JSON path
        assert compiled.physical == ("class = ?", "appid = ?")
        sql, params = compiled.where_clause(include_null_branch=True)
        assert "cols IS NULL OR" in sql
        assert params[-1] == 3
        sql_tight, __ = compiled.where_clause(include_null_branch=False)
        assert "cols IS NULL" not in sql_tight

    def test_empty_query_has_no_constraints(self):
        compiled = compile_query(RecordQuery())
        assert not compiled.has_constraints
        assert compile_query(
            RecordQuery(app_id="App01")
        ).has_constraints


class TestMigration:
    """Pre-columnar database files open, upgrade, and answer identically."""

    def _legacy_db(self, tmp_path, model, app_ids):
        """A v1-schema database holding fuzz rows, built with raw SQL."""
        source = ProvenanceStore(model=model, backend=SQLiteBackend())
        populate(source, app_ids, seed=99)
        rows = [
            (r.record_id, r.record_class.value, r.app_id, r.xml)
            for r in source.rows()
        ]
        source.close()
        path = str(tmp_path / "legacy.db")
        conn = sqlite3.connect(path)
        conn.executescript(V1_SCHEMA)
        conn.executemany(
            "INSERT INTO provenance (id, class, appid, xml) "
            "VALUES (?, ?, ?, ?)",
            rows,
        )
        conn.commit()
        conn.close()
        return path

    def test_v1_file_backfills_and_matches_oracle(self, tmp_path):
        model = fuzz_model()
        path = self._legacy_db(tmp_path, model, ["M1", "M2", "M3"])
        backend = SQLiteBackend(path)
        store = ProvenanceStore(model=model, backend=backend)
        assert backend.migrated_cols > 0
        with_cols, total = backend.columnar_coverage()
        assert total == len(store)
        assert 0 < with_cols <= total
        oracle = [decode_row(row, model) for row in store.rows()]
        for query in query_bank("M1"):
            assert store.select(query) == [
                r for r in oracle if query.matches(r)
            ]
        assert backend.pushdown_queries > 0
        store.close()

        # The backfill is bounded by a cursor marker: reopening the
        # now-migrated file rescans nothing.
        backend_again = SQLiteBackend(path)
        again = ProvenanceStore(model=model, backend=backend_again)
        assert backend_again.migrated_cols == 0
        again.close()

    def test_verbatim_reload_writes_payloads(self, tmp_path):
        model = fuzz_model()
        dump = str(tmp_path / "dump.jsonl")
        source = ProvenanceStore(model=model, backend=SQLiteBackend())
        populate(source, ["V1", "V2"])
        source.dump(dump)
        source.close()
        backend = SQLiteBackend(str(tmp_path / "reloaded.db"))
        loaded = ProvenanceStore.load(dump, model=model, backend=backend)
        with_cols, total = backend.columnar_coverage()
        assert total == len(loaded) and with_cols > 0
        oracle = [decode_row(row, model) for row in loaded.rows()]
        for query in query_bank("V1"):
            assert loaded.select(query) == [
                r for r in oracle if query.matches(r)
            ]
        loaded.close()


class TestTamperConfinement:
    def test_tampered_xml_still_raises_and_stays_confined(self, tmp_path):
        model = fuzz_model()
        path = str(tmp_path / "t.db")
        store = ProvenanceStore(model=model, backend=SQLiteBackend(path))
        for app_id in ("Good", "Evil"):
            store.append(
                DataRecord.create(
                    f"D-{app_id}", app_id, "jobrequisition",
                    attributes={"reqid": f"R-{app_id}", "type": "new"},
                )
            )
        store.close()
        # At-rest corruption: truncate one trace's XML, leaving the (now
        # stale) columnar payload in place.
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE provenance SET xml = substr(xml, 1, 30) "
            "WHERE appid = 'Evil'"
        )
        conn.commit()
        conn.close()
        reopened = ProvenanceStore(model=model, backend=SQLiteBackend(path))
        # The stale payload must not mask the tampering: the CRC check
        # sends the row to the XML decoder, which reports it as always.
        with pytest.raises(CodecError):
            reopened.select(RecordQuery(app_id="Evil"))
        # ...and the damage stays confined to the tampered trace.
        good = reopened.select(RecordQuery(app_id="Good"))
        assert [r.record_id for r in good] == ["D-Good"]
        reopened.close()


class TestCacheConfiguration:
    def test_cache_and_pushdown_counters(self, tmp_path):
        model = fuzz_model()
        path = str(tmp_path / "c.db")
        store = ProvenanceStore(model=model, backend=SQLiteBackend(path))
        store.append(
            DataRecord.create(
                "D1", "App01", "jobrequisition",
                attributes={"reqid": "R1", "type": "new"},
            )
        )
        store.close()
        backend = SQLiteBackend(path)
        reopened = ProvenanceStore(model=model, backend=backend)
        hits_before = backend.cache_hits
        reopened.get("D1")  # cold: decoded and cached
        reopened.get("D1")  # hot
        assert backend.cache_misses >= 1
        assert backend.cache_hits > hits_before
        assert backend.pushdown_queries == 0
        reopened.select(RecordQuery(entity_type="jobrequisition"))
        assert backend.pushdown_queries == 1
        reopened.close()


class TestProjectedSweeps:
    def test_projected_sweep_matches_memory_verdicts(self, tmp_path):
        from repro.controls.evaluator import ComplianceEvaluator
        from repro.processes import hiring
        from repro.processes.violations import ViolationPlan

        workload = hiring.workload()
        plan = ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.3)
        memory_sim = workload.simulate(cases=8, seed=11, violations=plan)
        sqlite_sim = workload.simulate(
            cases=8, seed=11, violations=plan,
            backend=SQLiteBackend(str(tmp_path / "w.db")),
        )
        expected = ComplianceEvaluator(
            memory_sim.store, memory_sim.xom, memory_sim.vocabulary
        ).run(memory_sim.controls)
        evaluator = ComplianceEvaluator(
            sqlite_sim.store, sqlite_sim.xom, sqlite_sim.vocabulary
        )
        actual = evaluator.run(sqlite_sim.controls)
        assert [
            (r.control_name, r.trace_id, r.status) for r in expected
        ] == [(r.control_name, r.trace_id, r.status) for r in actual]
        # The sqlite sweep actually ran projected (hiring's controls have
        # bounded attribute read sets); the memory sweep above, over full
        # records, is its unprojected reference.
        assert evaluator.projected_sweeps >= 1
        sqlite_sim.store.close()
