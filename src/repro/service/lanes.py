"""Per-shard ingest lanes of the service runtime.

An :class:`IngestLane` is the runtime-side mirror of one shard: it owns
a store handle of its own over that shard, its own recorder pipeline
(typing + dedup), and its own incremental correlation, all guarded by
its own lock.  Correlation keeps no edge set between batches: each pass
reads the touched traces' rows, their existing relations included, so
building a lane reads no rows.  The runtime routes events to lanes with
the same APPID hash the backend uses, so ingest calls for traces on
different shards never touch shared state and proceed in parallel.  A
one-shard store has one lane.  Cross-shard state — the
materializer, the verdict table, snapshots — stays behind the runtime's
global lock, which folds lane output in through the store's change feed.

Lane ownership rules (see EXTENDING.md for the operator-facing version):

- a lane's store handle, recorder, analytics, and pending-correlation
  set are touched only while holding ``lane.lock``;
- ``lane.commits`` is bumped by the lane-store observer on every
  append/fold and read without the lock (a single int update under the
  GIL) — it is the lane's contribution to the runtime's read-cache key;
- the same observer collects every record the lane's store commits or
  folds; the runtime's fold takes them (:meth:`IngestLane.take_handoff`,
  under the lane lock) and hands them to the global store handle's
  record cache, so the global sync and the frame builds after it decode
  no lane-written row.  Handed-over records are immutable and shared by
  both handles; they are always full records — projected records never
  enter a cache.  At most :data:`HANDOFF_LIMIT` records wait between
  folds;
- the lane's store is a one-shard store over its handle, so its cursor
  (``lane.store.last_seq()``) has one component, the shard's; it is
  read without the lock, like ``commits``: ingest replies and ``/stats``
  answer the change-feed position from it instead of querying a shard;
- lane locks nest *inside* the runtime's global lock (global → lane),
  never the reverse: the lane ingest path takes only its own lock, and
  the global fold/snapshot paths take the global lock first.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.capture.correlation import CorrelationAnalytics
from repro.capture.events import ApplicationEvent
from repro.capture.recorder import RecorderClient
from repro.faults.points import crash_point
from repro.ids import IdFactory
from repro.model.records import ProvenanceRecord, RelationRecord
from repro.store.store import ProvenanceStore

#: records a lane keeps for the next fold: the SQLite record cache's
#: default capacity, past which the cache they go to would evict them
#: anyway.  Older ones are dropped; the global sync decodes their rows.
HANDOFF_LIMIT = 4096


@dataclass
class LaneResult:
    """Per-batch deltas one lane contributes to an ingest reply."""

    recorded: int = 0
    duplicates: int = 0
    dropped_irrelevant: int = 0
    dropped_unmapped: int = 0
    correlated: int = 0
    #: per-event ``(recorded, drop reason)`` in the lane batch's order.
    dispositions: List[Tuple[bool, Optional[str]]] = field(
        default_factory=list
    )


class IngestLane:
    """One shard's ingest pipeline: recorder + correlation under one lock.

    Args:
        index: the shard this lane mirrors.
        store: the lane's own :class:`ProvenanceStore` over the shard (a
            forked SQLite handle, or the shared memory backend).
        mapping: event mapping; ``None`` leaves the lane read-only.
        correlation_rules: rules run incrementally over traces this lane
            touched; empty disables correlation.
        rel_ids: the runtime's *shared* relation-id factory (see
            :func:`~repro.capture.correlation.relation_ids`).  ``next()``
            is GIL-atomic, so lanes mint globally unique REL ids without
            any cross-lane locking.
        owns_store: whether the lane owns (and must flush + close) its
            store handle — True for forked SQLite handles.

    Each batch fires the crash point ``sharded.append.shard<index>``,
    named like the sharded backend's own per-shard append points so the
    chaos harness can crash a specific lane.  The lane store's one-shard
    wrapper also fires ``sharded.append.shard0`` and
    ``sharded.flush.shard0`` on every row and flush, whatever the lane's
    index.
    """

    def __init__(
        self,
        index: int,
        store: ProvenanceStore,
        mapping=None,
        correlation_rules: Sequence = (),
        rel_ids: Optional[IdFactory] = None,
        owns_store: bool = False,
    ) -> None:
        self.index = index
        self.store = store
        self.lock = threading.Lock()
        self.owns_store = owns_store
        self.crash_tag = "sharded.append.shard%d" % index
        self.recorder = (
            RecorderClient(store, mapping) if mapping is not None else None
        )
        self.analytics: Optional[CorrelationAnalytics] = None
        if correlation_rules:
            self.analytics = CorrelationAnalytics(
                store, store.model, ids=rel_ids
            )
            for rule in correlation_rules:
                self.analytics.add_rule(rule)
        #: traces with new non-relation rows since correlation last ran.
        self._pending: Dict[str, None] = {}
        #: monotonic append/fold counter (read lock-free by cache keys).
        self.commits = 0
        #: records committed or folded since the last handoff.
        self._handoff: Deque[ProvenanceRecord] = deque(maxlen=HANDOFF_LIMIT)
        #: counters surfaced per-lane by ``/stats`` and ``store-stats``.
        self.events_routed = 0
        self.batches = 0
        self.correlation_batches = 0
        self.correlated_rows = 0
        #: ``(traces, rows)`` counted when the lane closed.
        self._closed_shape: Optional[Tuple[int, int]] = None
        store.subscribe(self._on_append)

    # -- store observer ------------------------------------------------------

    def _on_append(self, record) -> None:
        self.commits += 1
        self._handoff.append(record)
        # Relation rows are correlation *products*; re-correlating their
        # traces every batch would never converge.  Everything else marks
        # its trace for the next correlation pass.
        if not isinstance(record, RelationRecord):
            self._pending.setdefault(record.app_id)

    # -- pipeline (caller holds ``self.lock``) -------------------------------

    def ingest(self, events: Sequence[ApplicationEvent]) -> LaneResult:
        """Run one routed batch through this lane's pipeline."""
        # Lane appends go through the lane's one-shard store, whose
        # wrapper numbers its only shard 0, not through the global
        # sharded backend; fire this shard's own append point here,
        # before any append of the batch lands (a crashed batch is
        # all-or-nothing and a re-send after reopen dedups cleanly).
        crash_point(self.crash_tag)
        stats = self.recorder.stats
        before = (
            stats.recorded,
            stats.duplicates,
            stats.dropped_irrelevant,
            stats.dropped_unmapped,
        )
        envelopes = self.recorder.process_all(events)
        correlated = self.correlate()
        if self.owns_store:
            # Forked handles buffer appends; commit the batch so the
            # global view (and other processes) can fold it immediately.
            self.store.flush()
        self.events_routed += len(events)
        self.batches += 1
        return LaneResult(
            recorded=stats.recorded - before[0],
            duplicates=stats.duplicates - before[1],
            dropped_irrelevant=stats.dropped_irrelevant - before[2],
            dropped_unmapped=stats.dropped_unmapped - before[3],
            correlated=correlated,
            dispositions=[
                (envelope.recorded, envelope.dropped_reason)
                for envelope in envelopes
            ],
        )

    def correlate(self) -> int:
        """One correlation pass over traces touched since the last one."""
        if self.analytics is None or not self._pending:
            self._pending.clear()
            return 0
        touched = list(self._pending)
        self._pending.clear()
        created = self.analytics.run(app_ids=touched)
        self.correlation_batches += 1
        self.correlated_rows += len(created)
        return len(created)

    def sync(self) -> int:
        """Fold rows other handles appended to this lane's shard."""
        return self.store.sync()

    def take_handoff(self) -> Deque[ProvenanceRecord]:
        """The records committed or folded since the last call, oldest
        first; the lane starts collecting afresh."""
        records = self._handoff
        self._handoff = deque(maxlen=HANDOFF_LIMIT)
        return records

    # -- observability -------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def shape(self) -> Tuple[int, int]:
        """``(traces, rows)`` of this lane's shard, counted through the
        lane's own handle (caller holds ``self.lock``); after
        :meth:`close`, the count taken when it closed."""
        if self._closed_shape is not None:
            return self._closed_shape
        return len(self.store.app_ids()), len(self.store)

    def counters(self) -> Dict:
        """The per-lane counter payload (stats endpoint, aux state)."""
        return {
            "lane": self.index,
            "events_routed": self.events_routed,
            "batches": self.batches,
            "dedup_hits": (
                self.recorder.stats.duplicates
                if self.recorder is not None
                else 0
            ),
            "correlation_batches": self.correlation_batches,
            "correlated_rows": self.correlated_rows,
            "commits": self.commits,
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the lane's store handle when the lane owns it (caller
        holds ``self.lock``).  :meth:`shape` keeps answering."""
        self._closed_shape = self.shape()
        if self.owns_store:
            self.store.close()
