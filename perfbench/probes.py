"""Which entry points of ``repro`` the traced run wraps, and how.

Span names are ``<layer>.<operation>``, where the layer is the module
under ``repro`` the code lives in.  ``ComplianceResult.to_payload`` is
counted under ``service.http`` because that is where the server encodes
each verdict for the wire.

Only public entry points are wrapped, plus the HTTP handler's ``do_GET``
and ``do_POST`` (the root of every server-side request span) and two
per-row decode functions, which are counted rather than spanned.
"""

from __future__ import annotations

import http.client

from spans import Tracer


def _events(args, result) -> int:
    return len(args[1])


def _size(args, result) -> int:
    return len(result) if result is not None else 0


def _grouped_rows(args, result) -> int:
    return sum(len(records) for records in result.values()) if result else 0


def _store_rows(args, result) -> int:
    return len(args[0].store)


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side layers (call before ``repro.cli.main``)."""
    from repro.capture.correlation import CorrelationAnalytics
    from repro.capture.recorder import RecorderClient
    from repro.controls.evaluator import ComplianceEvaluator
    from repro.controls.materializer import VerdictMaterializer
    from repro.controls.status import ComplianceResult
    from repro.service import http as service_http
    from repro.service.lanes import IngestLane
    from repro.service.runtime import ComplianceRuntime
    from repro.store.columnar import ColumnarCodec
    from repro.store.store import ProvenanceStore
    from repro.store.xmlcodec import XmlCodec

    handler = service_http._RuntimeRequestHandler
    tracer.patch(handler, "do_GET", "service.http.request")
    tracer.patch(handler, "do_POST", "service.http.request")
    tracer.patch(service_http, "event_from_wire", "service.http.decode")
    tracer.patch(ComplianceResult, "to_payload", "service.http.encode_verdict")

    for method in ("open", "ingest", "sync", "verdicts", "shutdown"):
        tracer.patch(
            ComplianceRuntime, method, f"service.runtime.{method}",
            work=_store_rows if method == "open" else None,
        )
    tracer.patch(IngestLane, "ingest", "service.lanes.ingest", work=_events)
    tracer.patch(IngestLane, "correlate", "service.lanes.correlate")
    tracer.patch(
        RecorderClient, "process_all", "capture.recorder.process_all",
        work=_events,
    )
    tracer.patch(CorrelationAnalytics, "__init__", "capture.correlation.init")
    tracer.patch(CorrelationAnalytics, "run", "capture.correlation.run", work=_size)
    tracer.patch(ProvenanceStore, "__init__", "store.open")
    tracer.patch(ProvenanceStore, "flush", "store.flush")
    tracer.patch(ProvenanceStore, "sync", "store.sync")
    tracer.patch(
        ProvenanceStore, "records_by_trace_projected", "store.scan_projected",
        work=_grouped_rows,
    )
    tracer.patch(
        VerdictMaterializer, "refresh", "controls.materializer.refresh",
        work=_size,
    )
    tracer.patch(VerdictMaterializer, "save", "controls.materializer.save")
    tracer.patch(VerdictMaterializer, "restore", "controls.materializer.restore")
    tracer.patch(ComplianceEvaluator, "run", "controls.evaluator.run")
    tracer.patch(
        ComplianceEvaluator, "prime_frames", "controls.evaluator.prime_frames",
        probe=lambda args: args[0].graph_builds,
    )
    tracer.patch(
        ComplianceEvaluator, "evaluate_pair", "controls.evaluator.evaluate_pair"
    )

    XmlCodec.decode_row = tracer.counting("decoded", XmlCodec.decode_row)
    ColumnarCodec.decode_cols = tracer.counting(
        "decoded", ColumnarCodec.decode_cols, when=lambda record: record is not None
    )


def install_client(tracer: Tracer) -> None:
    """Wrap the load generator's side of the wire (after the untraced pass)."""
    from repro.service import transport

    tracer.patch(transport, "event_to_wire", "service.transport.encode")
    http.client.HTTPConnection.connect = tracer.counting(
        "connects", http.client.HTTPConnection.connect
    )
