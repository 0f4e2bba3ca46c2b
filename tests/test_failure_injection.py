"""Failure-injection tests: the messy realities of unmanaged capture.

Partially managed processes do not just drop events — they deliver them
out of order, duplicated across overlapping recorder clients, corrupted at
rest, or attributed to no trace at all.  These tests pin how each layer
degrades: explicitly, loudly where data integrity is at stake, and never
by inventing facts.
"""

import pytest

from repro.capture.recorder import RecorderClient
from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.status import ComplianceStatus
from repro.errors import CodecError
from repro.processes import hiring
from repro.processes.engine import ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore
from repro.store.xmlcodec import StoredRow, decode_row


def hiring_pipeline(events, seed_stack=None):
    """Run events through recorder + correlation; return (stack, store)."""
    workload = hiring.workload()
    stack = seed_stack or workload.simulate(cases=0)
    model = workload.build_model()
    store = ProvenanceStore(model=model)
    RecorderClient(store, workload.build_mapping(model)).process_all(events)
    from repro.capture.correlation import CorrelationAnalytics

    analytics = CorrelationAnalytics(store, model)
    for rule in workload.correlation_rules():
        analytics.add_rule(rule)
    analytics.run()
    return stack, store


def simulate_events(cases=5, seed=9):
    workload = hiring.workload()
    simulator = ProcessSimulator(
        workload.build_spec(),
        workload.case_factory(ViolationPlan.none(), new_ratio=1.0),
        seed=seed,
    )
    return simulator.run(cases)


class TestOutOfOrderDelivery:
    def test_reversed_event_order_same_verdicts(self):
        runs = simulate_events()
        ordered = all_events(runs)
        stack, store_ordered = hiring_pipeline(ordered)
        __, store_reversed = hiring_pipeline(
            list(reversed(ordered)), seed_stack=stack
        )
        evaluator_a = ComplianceEvaluator(
            store_ordered, stack.xom, stack.vocabulary
        )
        evaluator_b = ComplianceEvaluator(
            store_reversed, stack.xom, stack.vocabulary
        )
        verdicts_a = {
            (r.control_name, r.trace_id): r.status
            for r in evaluator_a.run(stack.controls)
        }
        verdicts_b = {
            (r.control_name, r.trace_id): r.status
            for r in evaluator_b.run(stack.controls)
        }
        assert verdicts_a == verdicts_b

    def test_interleaved_traces_stay_separated(self):
        runs = simulate_events(cases=3)
        interleaved = []
        streams = [list(run.events) for run in runs]
        while any(streams):
            for stream in streams:
                if stream:
                    interleaved.append(stream.pop(0))
        stack, store = hiring_pipeline(interleaved)
        for run in runs:
            requisitions = store.find_data(run.app_id, "jobrequisition")
            assert len(requisitions) == 1
            assert requisitions[0].get("reqid") == run.case["reqid"]


class TestDuplicateDelivery:
    def test_overlapping_recorders_store_once(self):
        runs = simulate_events(cases=3)
        events = all_events(runs)
        stack, store_once = hiring_pipeline(events)
        __, store_twice = hiring_pipeline(events + events, seed_stack=stack)
        assert len(store_once) == len(store_twice)

    def test_duplicate_stats_counted(self):
        workload = hiring.workload()
        model = workload.build_model()
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(store, workload.build_mapping(model))
        events = all_events(simulate_events(cases=1))
        recorder.process_all(events)
        recorded = recorder.stats.recorded
        recorder.process_all(events)
        assert recorder.stats.recorded == recorded
        assert recorder.stats.duplicates == recorded


class TestCorruptedRows:
    def test_tampered_xml_detected_on_load(self, tmp_path):
        runs = simulate_events(cases=1)
        __, store = hiring_pipeline(all_events(runs))
        rows = store.rows()
        victim = rows[0]
        tampered = StoredRow(
            record_id=victim.record_id,
            record_class=victim.record_class,
            app_id="AppFAKE",  # column no longer matches embedded appid
            xml=victim.xml,
        )
        with pytest.raises(CodecError):
            decode_row(tampered)

    def test_truncated_xml_detected(self):
        runs = simulate_events(cases=1)
        __, store = hiring_pipeline(all_events(runs))
        victim = store.rows()[0]
        truncated = StoredRow(
            victim.record_id,
            victim.record_class,
            victim.app_id,
            victim.xml[: len(victim.xml) // 2],
        )
        with pytest.raises(CodecError):
            decode_row(truncated)

    @staticmethod
    def _tampered_db(tmp_path, cases=2):
        """A SQLite store with one trace's row truncated at rest."""
        import sqlite3

        from repro.store.backends import SQLiteBackend

        path = str(tmp_path / "tampered.db")
        sim = hiring.workload().simulate(
            cases=cases, seed=17, backend=SQLiteBackend(path)
        )
        sim.store.close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE provenance SET xml = substr(xml, 1, 20) "
                "WHERE appid = 'App01' AND rowid = "
                "(SELECT max(rowid) FROM provenance WHERE appid = 'App01')"
            )
        conn.close()
        return path, sim

    def test_open_defers_tampered_row_to_its_trace(self, tmp_path):
        from repro.errors import StoreError
        from repro.store.backends import SQLiteBackend
        from repro.store.store import ProvenanceStore as Store

        path, sim = self._tampered_db(tmp_path)
        # Opening reads no rows, so it cannot trip over the damage; the
        # tampered trace's own query does, and only that one.
        store = Store(model=sim.model, backend=SQLiteBackend(path))
        with pytest.raises(StoreError):
            store.select(RecordQuery(app_id="App01"))
        assert store.select(RecordQuery(app_id="App02"))
        store.close()

    def test_tampered_row_surfaces_as_error_verdict(self, tmp_path):
        """Through the materializer, a tampered row becomes an explicit
        ERROR verdict (with a transition), never a silent skip — and the
        failure stays confined to the tampered trace."""
        from repro.store.backends import SQLiteBackend
        from repro.store.store import ProvenanceStore as Store

        path, sim = self._tampered_db(tmp_path)
        # Opening decodes nothing, so evaluation is where the tampering
        # surfaces.
        store = Store(model=sim.model, backend=SQLiteBackend(path))
        evaluator = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
        transitions = []
        evaluator.materializer.subscribe(transitions.append)
        results = evaluator.run(sim.controls)

        by_trace = {}
        for result in results:
            by_trace.setdefault(result.trace_id, []).append(result)
        assert all(
            r.status is ComplianceStatus.ERROR for r in by_trace["App01"]
        )
        assert any(
            "evaluation failed" in alert
            for r in by_trace["App01"]
            for alert in r.alerts
        )
        # The intact trace still evaluates normally.
        assert all(
            r.status is not ComplianceStatus.ERROR
            for r in by_trace["App02"]
        )
        # Listeners saw the integrity failure as a transition.
        assert any(
            t.result.status is ComplianceStatus.ERROR for t in transitions
        )
        store.close()

    def test_tampered_clean_trace_does_not_poison_dirty_reads(
        self, tmp_path, monkeypatch
    ):
        """A sweep after appends to two clean traces reads those traces
        only: the tampered trace is never decoded again, so its damage
        cannot fail the shared read, and it keeps its verdicts."""
        import dataclasses
        import json

        from repro.store.backends import SQLiteBackend
        from repro.store.columnar import ColumnarCodec
        from repro.store.store import ProvenanceStore as Store
        from repro.store.xmlcodec import XmlCodec

        path, sim = self._tampered_db(tmp_path, cases=10)
        store = Store(model=sim.model, backend=SQLiteBackend(path))
        assert len(store.app_ids()) == 10
        evaluator = ComplianceEvaluator(store, sim.xom, sim.vocabulary)

        def by_trace(results):
            grouped = {}
            for result in results:
                grouped.setdefault(result.trace_id, []).append(
                    json.dumps(result.to_payload())
                )
            return grouped

        before = by_trace(evaluator.run(sim.controls))
        assert all('"status": "error"' in row for row in before["App01"])

        dirty = ["App02", "App03"]
        for trace_id in dirty:
            template = max(
                store.select(RecordQuery(app_id=trace_id)),
                key=lambda r: r.timestamp,
            )
            store.append(
                dataclasses.replace(
                    template,
                    record_id=f"{template.record_id}-late",
                    timestamp=template.timestamp + 1000,
                )
            )

        decoded_traces = set()
        for cls, name in (
            (XmlCodec, "decode_row"),
            (ColumnarCodec, "decode_cols"),
        ):
            original = getattr(cls, name)

            def spy(self, row, *args, _original=original, **kwargs):
                decoded_traces.add(row.app_id)
                return _original(self, row, *args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
        primed = []
        original_prime = ComplianceEvaluator.prime_frames

        def prime(self, *args, **kwargs):
            try:
                original_prime(self, *args, **kwargs)
            except Exception as exc:
                primed.append(exc)
                raise
            primed.append(None)

        monkeypatch.setattr(ComplianceEvaluator, "prime_frames", prime)

        after = by_trace(evaluator.run(sim.controls))
        # The StoreError fallback was never needed.
        assert primed == [None]
        assert "App01" not in decoded_traces
        assert after["App01"] == before["App01"]
        cold = by_trace(
            ComplianceEvaluator(store, sim.xom, sim.vocabulary).run(
                sim.controls
            )
        )
        for trace_id in dirty:
            assert not any('"status": "error"' in r for r in after[trace_id])
        assert after == cold
        store.close()


class TestUnattributedEvents:
    def test_traceless_events_quarantined_not_mixed(self):
        from repro.capture.events import ApplicationEvent, EventSource

        workload = hiring.workload()
        model = workload.build_model()
        store = ProvenanceStore(model=model)
        recorder = RecorderClient(store, workload.build_mapping(model))
        orphan = ApplicationEvent(
            event_id="ORPHAN",
            source=EventSource.WORKFLOW,
            kind="workflow.requisition.submitted",
            timestamp=5,
            app_id="",  # the emitting system knows no trace
            payload={"reqid": "ReqX", "type": "new"},
        )
        envelope = recorder.process(orphan)
        assert envelope.recorded
        assert store.app_ids() == ["unattributed"]
        # Controls over real traces never see the orphan.
        assert store.find_data("App01", "jobrequisition") == []


class TestPartialTraceDegradation:
    def test_missing_requisition_means_not_applicable_not_violated(self):
        runs = simulate_events(cases=1)
        events = [
            event
            for event in all_events(runs)
            if event.kind != "workflow.requisition.submitted"
        ]
        stack, store = hiring_pipeline(events)
        evaluator = ComplianceEvaluator(store, stack.xom, stack.vocabulary)
        results = evaluator.run(stack.controls)
        assert results, "trace still has records"
        for result in results:
            assert result.status is ComplianceStatus.NOT_APPLICABLE

    def test_missing_approval_event_reads_as_violation(self):
        # The honest failure mode the paper accepts: absent evidence on a
        # present subject is indistinguishable from non-compliance.
        runs = simulate_events(cases=1)
        events = [
            event
            for event in all_events(runs)
            if event.kind != "workflow.approval.recorded"
        ]
        stack, store = hiring_pipeline(events)
        evaluator = ComplianceEvaluator(store, stack.xom, stack.vocabulary)
        statuses = {
            r.control_name: r.status for r in evaluator.run(stack.controls)
        }
        assert statuses["gm-approval"] is ComplianceStatus.VIOLATED
