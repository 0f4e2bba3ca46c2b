"""Unit tests for the provenance store, its query paths, and persistence."""

import pytest

from repro.errors import DuplicateRecordId, RecordNotFound, SchemaViolation
from repro.model.builder import ModelBuilder
from repro.model.records import (
    DataRecord,
    RecordClass,
    RelationRecord,
    ResourceRecord,
)
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore


def sample_records(app_id="App01"):
    person = ResourceRecord.create(
        "R1-" + app_id, app_id, "person", attributes={"name": "Joe Doe"}
    )
    requisition = DataRecord.create(
        "D1-" + app_id,
        app_id,
        "jobrequisition",
        timestamp=5,
        attributes={"reqid": "Req-" + app_id, "type": "new"},
    )
    relation = RelationRecord.create(
        "E1-" + app_id,
        app_id,
        "submitterOf",
        source_id=person.record_id,
        target_id=requisition.record_id,
    )
    return [person, requisition, relation]


@pytest.fixture(params=[True, False], ids=["indexed", "scan"])
def store(request):
    store = ProvenanceStore(indexed=request.param)
    store.extend(sample_records("App01"))
    store.extend(sample_records("App02"))
    return store


class TestAppend:
    def test_len(self, store):
        assert len(store) == 6

    def test_duplicate_id_rejected(self, store):
        with pytest.raises(DuplicateRecordId):
            store.append(sample_records("App01")[0])

    def test_get_and_contains(self, store):
        assert "D1-App01" in store
        assert store.get("D1-App01").get("type") == "new"

    def test_get_missing_raises(self, store):
        with pytest.raises(RecordNotFound):
            store.get("nope")

    def test_rows_kept_in_append_order(self, store):
        ids = [row.record_id for row in store.rows()]
        assert ids[:3] == ["R1-App01", "D1-App01", "E1-App01"]

    def test_app_ids_first_seen_order(self, store):
        assert store.app_ids() == ["App01", "App02"]

    def test_observer_called_on_append(self):
        store = ProvenanceStore()
        seen = []
        store.subscribe(seen.append)
        store.extend(sample_records())
        assert len(seen) == 3


class TestValidation:
    def test_model_validation_on_append(self):
        model = (
            ModelBuilder("m").data("jobrequisition", "Job Requisition").build()
        )
        store = ProvenanceStore(model=model)
        store.append(DataRecord.create("D1", "App01", "jobrequisition"))
        with pytest.raises(SchemaViolation):
            store.append(DataRecord.create("D2", "App01", "invoice"))


class TestSelect:
    def test_select_by_class(self, store):
        data = store.select(RecordQuery(record_class=RecordClass.DATA))
        assert {r.record_id for r in data} == {"D1-App01", "D1-App02"}

    def test_select_by_app(self, store):
        records = store.select(RecordQuery(app_id="App02"))
        assert all(r.app_id == "App02" for r in records)
        assert len(records) == 3

    def test_select_by_app_and_class(self, store):
        records = store.select(
            RecordQuery(app_id="App01", record_class=RecordClass.RESOURCE)
        )
        assert [r.record_id for r in records] == ["R1-App01"]

    def test_select_by_type_and_attribute(self, store):
        query = RecordQuery(entity_type="jobrequisition").where(
            "reqid", "==", "Req-App02"
        )
        records = store.select(query)
        assert [r.record_id for r in records] == ["D1-App02"]

    def test_select_by_time_window(self, store):
        query = RecordQuery(record_class=RecordClass.DATA, since=1, until=10)
        assert len(store.select(query)) == 2

    def test_select_one(self, store):
        record = store.select_one(RecordQuery(app_id="App01"))
        assert record is not None and record.record_id == "R1-App01"
        assert store.select_one(RecordQuery(app_id="AppXX")) is None

    def test_find_data_convenience(self, store):
        hits = store.find_data("App01", "jobrequisition", type="new")
        assert [r.record_id for r in hits] == ["D1-App01"]

    def test_relations_from_to(self, store):
        outgoing = store.relations_from("R1-App01")
        assert [r.record_id for r in outgoing] == ["E1-App01"]
        incoming = store.relations_to("D1-App01")
        assert [r.record_id for r in incoming] == ["E1-App01"]
        assert store.relations_from("D1-App01") == []


class TestPersistence:
    def test_dump_load_roundtrip(self, store, tmp_path):
        path = str(tmp_path / "store.jsonl")
        count = store.dump(path)
        assert count == 6
        loaded = ProvenanceStore.load(path)
        assert len(loaded) == 6
        assert loaded.get("D1-App02").get("reqid") == "Req-App02"
        relation = loaded.get("E1-App01")
        assert isinstance(relation, RelationRecord)
        assert relation.source_id == "R1-App01"

    def test_load_missing_file_raises(self, tmp_path):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            ProvenanceStore.load(str(tmp_path / "missing.jsonl"))
