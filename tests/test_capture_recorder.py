"""Unit tests for event mapping and the recorder client."""

import pytest

from repro.capture.events import ApplicationEvent, EventSource
from repro.capture.filters import RelevanceFilter, SensitiveDataScrubber
from repro.capture.mapping import EventMapping
from repro.capture.recorder import RecorderClient
from repro.errors import MappingError
from repro.model.builder import ModelBuilder
from repro.model.records import RecordClass
from repro.store.cursor import VectorCursor
from repro.store.store import ProvenanceStore


@pytest.fixture
def model():
    return (
        ModelBuilder("hiring")
        .data("jobrequisition", "Job Requisition", reqid=str, type=str)
        .task("submission", "Submission", start=int, actor=str)
        .build()
    )


@pytest.fixture
def mapping(model):
    return (
        EventMapping(model)
        .rule(
            kind="requisition.submitted",
            record_class=RecordClass.DATA,
            entity_type="jobrequisition",
            fields={"reqid": "reqid", "type": "position_type"},
            key="reqid",
        )
        .rule(
            kind="task.completed",
            record_class=RecordClass.TASK,
            entity_type="submission",
            fields={"start": "started_at", "actor": "actor"},
            when=lambda e: e.get("task") == "submit",
        )
    )


def submitted_event(event_id="E1", app_id="App01", reqid="Req001"):
    return ApplicationEvent(
        event_id=event_id,
        source=EventSource.WORKFLOW,
        kind="requisition.submitted",
        timestamp=5,
        app_id=app_id,
        payload={"reqid": reqid, "position_type": "new", "noise": "zzz"},
    )


class TestMappingRule:
    def test_applies_to_kind(self, mapping):
        rule = mapping.match(submitted_event())
        assert rule is not None
        assert rule.entity_type == "jobrequisition"

    def test_guard_respected(self, mapping):
        wrong = ApplicationEvent(
            "E2", EventSource.WORKFLOW, "task.completed",
            payload={"task": "other"},
        )
        assert mapping.match(wrong) is None

    def test_key_based_record_id(self, mapping):
        record = mapping.map(submitted_event())
        assert record.record_id == "App01:jobrequisition:Req001"

    def test_event_id_fallback_when_key_missing(self, mapping):
        event = submitted_event()
        event = ApplicationEvent(
            event.event_id, event.source, event.kind, event.timestamp,
            event.app_id, {"position_type": "new"},
        )
        record = mapping.map(event)
        assert record.record_id == "evt:E1"

    def test_fields_typed_via_model(self, mapping):
        event = ApplicationEvent(
            "E3", EventSource.WORKFLOW, "task.completed", 9, "App01",
            {"task": "submit", "started_at": "7", "actor": "joe"},
        )
        record = mapping.map(event)
        assert record.get("start") == 7
        assert record.get("actor") == "joe"

    def test_missing_fields_omitted(self, mapping):
        event = ApplicationEvent(
            "E3", EventSource.WORKFLOW, "task.completed", 9, "App01",
            {"task": "submit"},
        )
        record = mapping.map(event)
        assert not record.has("start")

    def test_unmapped_kind_raises(self, mapping):
        with pytest.raises(MappingError):
            mapping.map(
                ApplicationEvent("E9", EventSource.EMAIL, "mail.sent")
            )

    def test_kinds_listing(self, mapping):
        assert mapping.kinds() == ["requisition.submitted", "task.completed"]

    def test_unattributed_event_gets_placeholder_app(self, mapping):
        record = mapping.map(submitted_event(app_id=""))
        assert record.app_id == "unattributed"


class TestRecorderClient:
    def test_records_mapped_event(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(store, mapping)
        envelope = recorder.process(submitted_event())
        assert envelope.recorded
        assert len(store) == 1
        assert recorder.stats.recorded == 1

    def test_default_relevance_from_mapping_kinds(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(store, mapping)
        envelope = recorder.process(
            ApplicationEvent("E9", EventSource.EMAIL, "mail.sent")
        )
        assert not envelope.recorded
        assert recorder.stats.dropped_irrelevant == 1
        assert len(store) == 0

    def test_duplicate_artifact_skipped(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(store, mapping)
        recorder.process(submitted_event(event_id="E1"))
        envelope = recorder.process(submitted_event(event_id="E2"))
        assert not envelope.recorded
        assert envelope.dropped_reason == "duplicate artifact"
        assert recorder.stats.duplicates == 1
        assert len(store) == 1

    def test_scrubber_counts_fields(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(
            store,
            mapping,
            scrubber=SensitiveDataScrubber(sensitive_fields=["noise"]),
        )
        envelope = recorder.process(submitted_event())
        assert envelope.recorded
        assert envelope.scrubbed_fields == 1
        assert recorder.stats.scrubbed_fields == 1

    def test_strict_mode_raises_on_unmapped(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(
            store,
            mapping,
            relevance=RelevanceFilter(),  # admit everything
            strict=True,
        )
        with pytest.raises(MappingError):
            recorder.process(
                ApplicationEvent("E9", EventSource.EMAIL, "mail.sent")
            )

    def test_nonstrict_drops_unmapped(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(
            store, mapping, relevance=RelevanceFilter()
        )
        envelope = recorder.process(
            ApplicationEvent("E9", EventSource.EMAIL, "mail.sent")
        )
        assert not envelope.recorded
        assert recorder.stats.dropped_unmapped == 1

    def test_process_all(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(store, mapping)
        envelopes = recorder.process_all(
            [submitted_event(reqid=f"R{i}", event_id=f"E{i}") for i in range(3)]
        )
        assert len(envelopes) == 3
        assert recorder.stats.seen == 3
        assert recorder.stats.as_dict()["recorded"] == 3

    def test_last_seq_checkpoints_change_feed(self, model, mapping):
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(store, mapping)
        assert recorder.stats.last_seq == VectorCursor([0])
        recorder.process(submitted_event(reqid="R1", event_id="E1"))
        assert recorder.stats.last_seq == store.last_seq() == VectorCursor([1])
        # Dropped events don't advance the checkpoint.
        recorder.process(
            ApplicationEvent("E9", EventSource.EMAIL, "mail.sent")
        )
        assert recorder.stats.last_seq == VectorCursor([1])
        recorder.process(submitted_event(reqid="R2", event_id="E2"))
        assert recorder.stats.as_dict()["last_seq"] == [2]
        # The checkpoint is a valid changes_since cursor.
        assert list(store.changes_since(recorder.stats.last_seq)) == []
