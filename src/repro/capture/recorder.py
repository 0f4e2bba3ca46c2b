"""The recorder client.

Pipeline per §II.A: application event → relevance filter → sensitive-data
scrubbing → typing per the data model → append to the provenance store.

The recorder is also where *idempotent capture* happens: the same business
artifact observed twice (a document saved, then re-opened by an auditor)
maps to the same record id, and the recorder skips the duplicate rather
than failing — recording clients on different systems routinely overlap.
The store's append is the one duplicate probe: the recorder counts a
duplicate when the append refuses the id, so each event costs one probe
of its trace's home shard, embedded or served.

Since the service refactor the client is **transport-pluggable**: built
with a *store* it runs the whole pipeline locally (the original embedded
mode); built with a *transport* (:mod:`repro.service.transport`) it runs
only the client-side stages — relevance and scrubbing, which must happen
before anything leaves the emitting system — and ships the surviving
events to a :class:`~repro.service.runtime.ComplianceRuntime`, which owns
typing, dedup, and correlation.  Either way :meth:`process` returns the
same per-event :class:`~repro.capture.events.EventEnvelope` dispositions
and :attr:`stats` accumulates the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.capture.events import ApplicationEvent, EventEnvelope
from repro.capture.filters import RelevanceFilter, SensitiveDataScrubber
from repro.capture.mapping import EventMapping
from repro.errors import CaptureError, DuplicateRecordId, MappingError
from repro.store.cursor import VectorCursor, cursor_to_wire
from repro.store.store import ProvenanceStore

#: server-side disposition reasons a remote recorder folds into its stats.
_REASON_DUPLICATE = "duplicate artifact"
_REASON_UNMAPPED_PREFIX = "no mapping rule"


@dataclass
class RecorderStats:
    """Capture statistics exposed for monitoring the recorder itself."""

    seen: int = 0
    recorded: int = 0
    dropped_irrelevant: int = 0
    dropped_unmapped: int = 0
    duplicates: int = 0
    scrubbed_fields: int = 0
    #: Store change-feed position after the last append — the checkpoint an
    #: incremental consumer (``changes_since``) resumes from.  Empty (no
    #: shard) until the recorder knows a store position.
    last_seq: VectorCursor = VectorCursor(())

    def as_dict(self) -> dict:
        return {
            "seen": self.seen,
            "recorded": self.recorded,
            "dropped_irrelevant": self.dropped_irrelevant,
            "dropped_unmapped": self.dropped_unmapped,
            "duplicates": self.duplicates,
            "scrubbed_fields": self.scrubbed_fields,
            "last_seq": cursor_to_wire(self.last_seq),
        }

    @classmethod
    def aggregate(
        cls, parts: Iterable["RecorderStats"], last_seq: VectorCursor
    ) -> "RecorderStats":
        """Sum counters across recorders (one per ingest lane).

        ``last_seq`` is caller-provided: per-lane recorders each track
        their own shard's cursor, and only the caller knows the combined
        store position the aggregate should report.
        """
        total = cls(last_seq=last_seq)
        for part in parts:
            total.seen += part.seen
            total.recorded += part.recorded
            total.dropped_irrelevant += part.dropped_irrelevant
            total.dropped_unmapped += part.dropped_unmapped
            total.duplicates += part.duplicates
            total.scrubbed_fields += part.scrubbed_fields
        return total


class RecorderClient:
    """Transforms application events into provenance records.

    Exactly one of *store* / *transport* selects the mode:

    - **embedded** (*store* + *mapping*): the full §II.A pipeline runs
      in-process and appends to the store directly,
    - **remote** (*transport*): relevance and scrubbing run here, the
      surviving events ship over the transport, and the served runtime's
      dispositions fold back into :attr:`stats`.

    Args:
        store: the provenance store appended to (embedded mode).
        mapping: the event mapping (typing rules) of the business scope.
            Required with *store*; optional with *transport*, where it
            only seeds the default relevance filter — typing itself is
            the server's job.
        relevance: optional relevance filter; defaults to "kinds some
            mapping rule claims" — anything unmappable is irrelevant.
            With a transport and no mapping, everything is shipped.
        scrubber: optional sensitive-data scrubber.  Always client-side:
            scrubbed fields never reach the store *or* the wire.
        strict: when True, an event passing relevance but matching no
            mapping rule raises instead of being dropped (useful in
            tests).  Honoured in both modes — remote dispositions citing
            a missing mapping rule raise the same :class:`MappingError`.
        transport: a runtime transport (remote mode) — e.g.
            :class:`~repro.service.transport.HTTPTransport` against a
            ``repro serve`` endpoint, or
            :class:`~repro.service.transport.InProcessTransport` for an
            embedded runtime.
    """

    def __init__(
        self,
        store: Optional[ProvenanceStore] = None,
        mapping: Optional[EventMapping] = None,
        relevance: Optional[RelevanceFilter] = None,
        scrubber: Optional[SensitiveDataScrubber] = None,
        strict: bool = False,
        transport=None,
    ) -> None:
        if (store is None) == (transport is None):
            raise CaptureError(
                "RecorderClient takes exactly one of store= or transport="
            )
        if store is not None and mapping is None:
            raise CaptureError(
                "a store-backed RecorderClient requires an event mapping"
            )
        self.store = store
        self.transport = transport
        self.mapping = mapping
        if relevance is not None:
            self.relevance = relevance
        elif mapping is not None:
            self.relevance = RelevanceFilter(mapping.kinds())
        else:
            self.relevance = RelevanceFilter()
        self.scrubber = scrubber
        self.strict = strict
        self.stats = RecorderStats()
        if store is not None:
            self.stats.last_seq = store.last_seq()
        # Compile the store's per-type XML codecs up front: the first event
        # of each record type should not pay codec generation inside the
        # ingest loop, and every subsequent append reuses the compiled
        # encoder instead of re-deriving schema lookups per row.
        codec = getattr(store, "codec", None)
        if codec is not None:
            codec.prime()

    # -- client-side stages (both modes) -------------------------------------

    def _admit(
        self, event: ApplicationEvent
    ) -> Tuple[Optional[ApplicationEvent], int, Optional[EventEnvelope]]:
        """Relevance + scrubbing.

        Returns ``(event to keep, fields scrubbed, drop envelope)`` —
        the envelope is set (and the event ``None``) when relevance
        rejected it.
        """
        self.stats.seen += 1
        admitted, reason = self.relevance.admit(event)
        if not admitted:
            self.stats.dropped_irrelevant += 1
            return None, 0, EventEnvelope(
                event, recorded=False, dropped_reason=reason
            )
        scrubbed_count = 0
        if self.scrubber is not None:
            event, scrubbed_count = self.scrubber.scrub(event)
            self.stats.scrubbed_fields += scrubbed_count
        return event, scrubbed_count, None

    # -- embedded mode --------------------------------------------------------

    def _process_local(self, event: ApplicationEvent) -> EventEnvelope:
        event, scrubbed_count, dropped = self._admit(event)
        if dropped is not None:
            return dropped

        rule = self.mapping.match(event)
        if rule is None:
            if self.strict:
                raise MappingError(
                    f"no mapping rule for event kind {event.kind!r}"
                )
            self.stats.dropped_unmapped += 1
            return EventEnvelope(
                event,
                recorded=False,
                dropped_reason=f"no mapping rule for {event.kind!r}",
                scrubbed_fields=scrubbed_count,
            )

        record = rule.build_record(event, self.mapping.model)
        try:
            self.store.append(record)
        except DuplicateRecordId:
            self.stats.duplicates += 1
            return EventEnvelope(
                event,
                recorded=False,
                dropped_reason=_REASON_DUPLICATE,
                scrubbed_fields=scrubbed_count,
            )
        self.stats.recorded += 1
        self.stats.last_seq = self.store.last_seq()
        return EventEnvelope(
            event, recorded=True, scrubbed_fields=scrubbed_count
        )

    # -- remote mode -----------------------------------------------------------

    def _fold_disposition(
        self,
        event: ApplicationEvent,
        recorded: bool,
        reason: str,
        scrubbed_count: int,
    ) -> EventEnvelope:
        """One server disposition → local stats + envelope."""
        if recorded:
            self.stats.recorded += 1
        elif reason == _REASON_DUPLICATE:
            self.stats.duplicates += 1
        elif reason.startswith(_REASON_UNMAPPED_PREFIX):
            if self.strict:
                raise MappingError(reason)
            self.stats.dropped_unmapped += 1
        else:
            # The server's own relevance stage (normally redundant with
            # the client's) or any future drop reason.
            self.stats.dropped_irrelevant += 1
        return EventEnvelope(
            event,
            recorded=recorded,
            dropped_reason=reason,
            scrubbed_fields=scrubbed_count,
        )

    def _process_all_remote(
        self, events: Iterable[ApplicationEvent]
    ) -> List[EventEnvelope]:
        envelopes: List[Optional[EventEnvelope]] = []
        shipped: List[ApplicationEvent] = []
        shipped_slots: List[int] = []
        shipped_scrubbed: List[int] = []
        for event in events:
            kept, scrubbed_count, dropped = self._admit(event)
            if dropped is not None:
                envelopes.append(dropped)
            else:
                shipped_slots.append(len(envelopes))
                envelopes.append(None)
                shipped.append(kept)
                shipped_scrubbed.append(scrubbed_count)
        if shipped:
            reply = self.transport.ingest(shipped)
            dispositions = reply.dispositions
            if len(dispositions) != len(shipped):
                raise CaptureError(
                    f"transport returned {len(dispositions)} dispositions "
                    f"for {len(shipped)} events"
                )
            for slot, event, scrubbed_count, (recorded, reason) in zip(
                shipped_slots, shipped, shipped_scrubbed, dispositions
            ):
                envelopes[slot] = self._fold_disposition(
                    event, recorded, reason, scrubbed_count
                )
            self.stats.last_seq = reply.last_seq
        return list(envelopes)

    # -- public API ------------------------------------------------------------

    def process(self, event: ApplicationEvent) -> EventEnvelope:
        """Process one event; returns its disposition envelope."""
        if self.transport is not None:
            return self._process_all_remote([event])[0]
        return self._process_local(event)

    def process_all(
        self, events: Iterable[ApplicationEvent]
    ) -> List[EventEnvelope]:
        """Process many events, in order; returns all envelopes.

        Embedded mode runs the stream inside one
        :meth:`ProvenanceStore.bulk` section, so storage backends with
        write batching (SQLite) commit the burst in wide transactions
        instead of one per record.  Remote mode ships all surviving
        events as **one** transport call — the batching that makes a
        networked recorder viable.  Filter, scrub, duplicate and observer
        semantics are per-event regardless.
        """
        if self.transport is not None:
            return self._process_all_remote(events)
        with self.store.bulk():
            return [self._process_local(event) for event in events]
