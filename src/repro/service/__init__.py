"""The long-lived compliance service.

:class:`ComplianceRuntime` is the explicit engine behind every evaluation
front end — store + recorder pipeline + correlation + verdict
materializer behind one thread-safe session API.  It splits ingest into
one :class:`IngestLane` pipeline per shard (:mod:`repro.service.lanes`)
so concurrent writers scale with shards.
:mod:`repro.service.http` serves it over stdlib HTTP (``repro serve``);
:mod:`repro.service.transport` is how recorder clients reach it, in
process or across the wire.
"""

from repro.service.http import ComplianceHTTPServer
from repro.service.lanes import IngestLane, LaneResult
from repro.service.runtime import (
    ComplianceRuntime,
    StartupReport,
    SyncOutcome,
)
from repro.service.transport import (
    HTTPTransport,
    IngestReply,
    InProcessTransport,
    TransportError,
)

__all__ = [
    "ComplianceHTTPServer",
    "ComplianceRuntime",
    "HTTPTransport",
    "IngestLane",
    "IngestReply",
    "InProcessTransport",
    "LaneResult",
    "StartupReport",
    "SyncOutcome",
    "TransportError",
]
