"""Application events.

"Business activities span across systems and organizations integrating
legacy and newly developed applications" (§I): the raw material of business
provenance is whatever heterogeneous IT systems emit — workflow engine
steps, document repository saves, e-mails, database writes.  An
:class:`ApplicationEvent` is the least common denominator: a source system,
an event kind, a payload of raw string fields, and the trace (application)
id when the emitting system knows one.

Events deliberately carry *more* than the provenance store should keep
(including sensitive fields like salary bands); the recorder client's
filters decide what survives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class EventSource(enum.Enum):
    """The class of IT system an event originated from."""

    WORKFLOW = "workflow"  # a (partially) managed process engine
    DOCUMENT = "document"  # document repository / shared drive
    EMAIL = "email"  # mail system
    DATABASE = "database"  # application database change capture
    DIRECTORY = "directory"  # HR/LDAP-style master data
    MANUAL = "manual"  # human-entered evidence (e.g. scanned forms)


@dataclass(frozen=True)
class ApplicationEvent:
    """One raw event produced by an IT system.

    Attributes:
        event_id: unique id assigned by the emitting system.
        source: which class of system produced it.
        kind: source-specific event name, e.g. ``task.completed``,
            ``document.saved``, ``mail.sent``.
        timestamp: simulated occurrence time.
        app_id: the trace/application id when the system knows one; empty for
            systems (mail, documents) that are not trace-aware — correlation
            analytics later attribute those by content.
        payload: raw string fields.  Everything the system knows, including
            fields the provenance store must never keep.
    """

    event_id: str
    source: EventSource
    kind: str
    timestamp: int = 0
    app_id: str = ""
    payload: Dict[str, str] = field(default_factory=dict)

    def get(self, name: str, default: str = "") -> str:
        """Payload field *name*, or *default*."""
        return self.payload.get(name, default)

    def with_payload(self, **extra: str) -> "ApplicationEvent":
        """A copy with additional payload fields (events stay immutable)."""
        merged = dict(self.payload)
        merged.update(extra)
        return ApplicationEvent(
            event_id=self.event_id,
            source=self.source,
            kind=self.kind,
            timestamp=self.timestamp,
            app_id=self.app_id,
            payload=merged,
        )


def event_to_wire(event: ApplicationEvent) -> Dict:
    """JSON-serializable form of an event; round-trips via
    :func:`event_from_wire`.

    This is the interchange format recorder clients ship to a served
    :class:`~repro.service.runtime.ComplianceRuntime` — deliberately the
    event's raw fields, nothing typed: typing per the data model happens
    server-side, where the mapping lives.
    """
    return {
        "event_id": event.event_id,
        "source": event.source.value,
        "kind": event.kind,
        "timestamp": event.timestamp,
        "app_id": event.app_id,
        "payload": dict(event.payload),
    }


def event_from_wire(payload: Dict) -> ApplicationEvent:
    """Rebuild an event dumped by :func:`event_to_wire`.

    Raises ``KeyError``/``ValueError``/``TypeError`` on a malformed
    event, including a ``payload`` field that is not a JSON object.
    """
    fields = payload.get("payload")
    if fields is None:
        fields = {}
    elif not isinstance(fields, dict):
        raise TypeError(
            f"event payload must be an object, not {type(fields).__name__}"
        )
    return ApplicationEvent(
        event_id=str(payload["event_id"]),
        source=EventSource(payload["source"]),
        kind=str(payload["kind"]),
        timestamp=int(payload.get("timestamp", 0)),
        app_id=str(payload.get("app_id", "")),
        payload={str(k): str(v) for k, v in fields.items()},
    )


@dataclass(frozen=True)
class EventEnvelope:
    """An event together with recorder-side disposition metadata.

    The recorder wraps each processed event so that capture statistics
    (dropped-by-relevance, scrubbed fields) are observable without logging
    the sensitive content itself.
    """

    event: ApplicationEvent
    recorded: bool
    dropped_reason: str = ""
    scrubbed_fields: int = 0
