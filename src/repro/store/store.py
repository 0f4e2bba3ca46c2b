"""The append-only provenance store.

"The recorder client processes application events, transforms them into
provenance events and records them in the provenance store" (§II.A).  The
store is the *coordination layer* over a pluggable storage backend
(:mod:`repro.store.backends`):

- the physical rows (Table I layout) live in the backend — in-memory lists
  by default, a SQLite table when durability or scale is needed — kept
  verbatim so the table can be re-printed at any time,
- the store enforces append policy (duplicate-id rejection, optional model
  validation) and notifies registered observers (frame caches, verdict
  materializers, deployments) on every append,
- the backend is always a
  :class:`~repro.store.backends.sharded.ShardedBackend` of N >= 1 shards
  (a plain backend is wrapped as one shard), and a record id is unique
  within its APPID's home shard: an append probes that shard once,
- finding a trace's rows is the backend's job: :meth:`select` hands each
  :class:`~repro.store.query.RecordQuery` to the backend's
  ``query_records`` (SQL push-down on SQLite, a per-APPID record list in
  memory) and re-applies the query to whatever candidates come back.

Opening a store over a backend that already holds rows (e.g. a SQLite file
written by an earlier run) reads none of them: there is no store-side
index to hydrate, so the open costs the same for ten rows as for a
million.

The store also fronts the backend's **change feed**: every committed row
has a monotonic sequence number (its append position), :meth:`last_seq`
reports the newest one this store has seen, :meth:`changes_since` replays
decoded records after a cursor, and :meth:`sync` folds in rows another
handle wrote to the same backend out-of-band — firing observers exactly as
if the records had been appended here.  Incremental consumers (the verdict
materializer, deployed controls, the served runtime's background loop)
are all views over this one feed.  Positions in it are
:class:`~repro.store.cursor.VectorCursor` values, one sequence per
shard.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import DuplicateRecordId, QueryError
from repro.faults.points import crash_point
from repro.model.attributes import AttributeValue
from repro.model.records import (
    ProvenanceRecord,
    RecordClass,
    RelationRecord,
)
from repro.model.schema import ProvenanceDataModel
from repro.store.backends import (
    ShardedBackend,
    StorageBackend,
    create_backend,
)
from repro.store.columnar import ColumnarCodec
from repro.store.cursor import VectorCursor
from repro.store.query import RecordQuery
from repro.store.xmlcodec import StoredRow, XmlCodec

BackendSpec = Union[None, str, StorageBackend]


class ProvenanceStore:
    """Append-only store of provenance records with query access.

    Args:
        model: optional data model; when given, appends are validated.
        indexed: whether queries use the backend's indexed path (E8
            ablation knob); ``False`` answers every query by a scan.
        backend: where the physical rows live — a
            :class:`~repro.store.backends.base.StorageBackend` instance, a
            registry name (``"memory"``, ``"sqlite"``), or ``None`` for the
            in-memory default.  Anything but a
            :class:`~repro.store.backends.sharded.ShardedBackend` is
            wrapped as its single shard.

    Rows are encoded and decoded by the compiled per-(CLASS, record-type)
    codecs of :class:`~repro.store.xmlcodec.XmlCodec`, which fall back to
    the ElementTree reference codec for anything they do not cover.
    """

    def __init__(
        self,
        model: Optional[ProvenanceDataModel] = None,
        indexed: bool = True,
        backend: BackendSpec = None,
    ) -> None:
        self.model = model
        self.codec = XmlCodec(model)
        self._indexed = indexed
        if backend is None:
            backend = create_backend("memory")
        elif isinstance(backend, str):
            backend = create_backend(backend)
        if not isinstance(backend, ShardedBackend):
            backend = ShardedBackend([backend])
        self._backend: ShardedBackend = backend
        self._backend.set_decoder(self._decode)
        # Columnar sidecar: only worthwhile when the backend persists it.
        self.columnar: Optional[ColumnarCodec] = None
        if self._backend.accepts_cols():
            self.columnar = ColumnarCodec(model)
            self._backend.bind_columnar(self.columnar)
        self._observers: List[Callable[[ProvenanceRecord], None]] = []
        self._seen_seq = self._backend.last_seq()

    @property
    def backend(self) -> ShardedBackend:
        """The sharded backend holding the physical rows."""
        return self._backend

    @property
    def indexed(self) -> bool:
        """Whether queries use the backend's indexed path (E8 ablation)."""
        return self._indexed

    def _decode(self, row: StoredRow) -> ProvenanceRecord:
        return self.codec.decode_row(row)

    def _encode(self, record: ProvenanceRecord) -> StoredRow:
        return self.codec.encode_row(record)

    # -- append ------------------------------------------------------------

    def append(self, record: ProvenanceRecord) -> StoredRow:
        """Append one record; returns its physical row.

        Raises :class:`DuplicateRecordId` when the record's home shard
        already holds its id and, when a model is attached,
        :class:`~repro.errors.SchemaViolation` on nonconforming records.
        Observers run after the row commits.
        """
        home = self._backend.shard_index(record.app_id)
        if self._backend.shard(home).contains(record.record_id):
            raise DuplicateRecordId(record.record_id)
        if self.model is not None:
            self.model.validate(record)
        row = self._encode(record)
        cols = (
            self.columnar.encode_cols(row, record)
            if self.columnar is not None
            else None
        )
        self._commit(home, row, record, cols)
        return row

    def _commit(
        self,
        home: int,
        row: StoredRow,
        record: ProvenanceRecord,
        cols: Optional[str] = None,
    ) -> None:
        """Persist an already-validated (row, record) pair routed to shard
        *home*, and fan out."""
        crash_point("store.append.before_commit")
        self._backend.append_row(row, record, cols)
        crash_point("store.append.after_commit_before_index")
        self._seen_seq = self._seen_seq.advance(home)
        for observer in self._observers:
            observer(record)

    def extend(self, records: Iterable[ProvenanceRecord]) -> int:
        """Append many records; returns the count appended."""
        count = 0
        with self.bulk():
            for record in records:
                self.append(record)
                count += 1
        return count

    @contextmanager
    def bulk(self):
        """Batch backend commits across a run of appends.

        Semantics are unchanged — duplicate checks and observers still
        fire per append — only the backend's transaction boundaries
        widen, which is what makes SQLite appends stream-fast.  Nestable.
        """
        self._backend.begin_bulk()
        crash_point("store.bulk.enter")
        try:
            yield self
        finally:
            # A crash here may supersede an in-flight exception — as a
            # real process death would.
            crash_point("store.bulk.exit")
            self._backend.end_bulk()

    def subscribe(self, observer: Callable[[ProvenanceRecord], None]) -> None:
        """Register a callback invoked after every append."""
        self._observers.append(observer)

    # -- sharding ------------------------------------------------------------

    def shard_count(self) -> int:
        """Number of physical partitions in the backend (N >= 1)."""
        return self._backend.shard_count()

    def shard_index(self, app_id: str) -> int:
        """The shard a trace's rows route to."""
        return self._backend.shard_index(app_id)

    # -- change feed --------------------------------------------------------

    def last_seq(self) -> VectorCursor:
        """Position of the newest record this store has committed or
        synced: one 1-based append position per shard, all zero for an
        empty store."""
        return self._seen_seq

    def changes_since(
        self, seq: VectorCursor
    ) -> Iterator[Tuple[VectorCursor, ProvenanceRecord]]:
        """Decoded records appended after *seq*, as ``(seq, record)`` pairs.

        This is the replay face of the feed: a consumer that remembers the
        cursor it last processed asks for exactly the rows it missed —
        including rows written by *other* handles on the same backend.
        """
        for position, row in self._backend.changes_since(seq):
            yield position, self._decode(row)

    def sync(self) -> int:
        """Fold in rows another handle appended to the shared backend.

        Rows past this store's cursor are announced to observers exactly
        as a local append would be — deployments and materializers
        downstream of this store catch up without a rescan.  Returns the
        number of rows folded in.

        Each row's record comes from the backend's record cache when the
        backend already holds it (:meth:`StorageBackend.cached_record
        <repro.store.backends.base.StorageBackend.cached_record>`): the
        memory backend holds every record, and a served runtime's lanes
        hand the records they committed to the global handle before it
        syncs.  Only true out-of-band rows are decoded, and those are
        cached too, so a frame built from the same rows right after
        decodes none of them again.  Records are immutable and may be
        shared between handles; projected records never enter a cache.

        The local handle is flushed first so its own pending rows get
        their seqs before foreign rows are numbered after them; callers
        interleaving unflushed local writes with foreign appends on one
        file should flush at the handoff points.  The delta folds every
        shard's tail, shard by shard.
        """
        self._backend.flush()
        # Cheap short-circuit for the background loop's ticks: comparing
        # the backend tip against our cursor costs one MAX(rowid) per
        # shard — no tail scan, no row decoding.
        if self._backend.last_seq() == self._seen_seq:
            return 0
        # Snapshot the delta and advance the cursor past it *before* firing
        # observers: an observer that appends (a binder writing control
        # rows) re-enters _commit, and the counter must already be past the
        # foreign rows for that append to be numbered correctly.
        delta = list(self._backend.changes_since(self._seen_seq))
        if not delta:
            return 0
        self._seen_seq = delta[-1][0]
        backend = self._backend
        for __, row in delta:
            record = backend.cached_record(row)
            if record is None:
                record = self._decode(row)
                backend.cache_records((record,))
            for observer in self._observers:
                observer(record)
        return len(delta)

    # -- auxiliary state ----------------------------------------------------

    def load_state(self, key: str) -> Optional[str]:
        """Auxiliary state blob from the backend (None when absent)."""
        return self._backend.load_state(key)

    def save_state(self, key: str, payload: str) -> None:
        """Persist an auxiliary state blob with the backend's durability.

        Pending row appends are flushed first: auxiliary state typically
        *describes* the rows (a materialized-verdict snapshot carries a
        change-feed cursor), so the rows must never be less durable than
        the state referring to them.  Without this write-ahead ordering a
        crash after the state commit but before the row commit would
        leave a snapshot whose cursor points past the end of the table.
        """
        self._backend.flush()
        self._backend.save_state(key, payload)

    # -- direct access -----------------------------------------------------

    def __len__(self) -> int:
        return self._backend.count()

    def __contains__(self, record_id: str) -> bool:
        return self._backend.contains(record_id)

    def get(self, record_id: str) -> ProvenanceRecord:
        """Record by id; raises :class:`RecordNotFound` when absent."""
        return self._backend.get(record_id)

    def records(self) -> Iterator[ProvenanceRecord]:
        """All records in append order."""
        return self._backend.iter_records()

    def rows(self) -> List[StoredRow]:
        """The physical rows in append order (Table I regeneration)."""
        return list(self._backend.iter_rows())

    def app_ids(self) -> List[str]:
        """Distinct application ids in the backend's first-seen order.

        On sharded backends "first-seen" means the canonical shard-grouped
        order.  Either way every handle on the same rows — local writer or
        foreign reader — computes the same list.
        """
        return self._backend.app_ids()

    def records_by_trace(self) -> Dict[str, List[ProvenanceRecord]]:
        """trace id → its records in append order, from one backend scan.

        This is the sweep-friendly access path: evaluating every control
        over every trace costs one sequential pass instead of one indexed
        point-lookup chain per trace (which on lazy backends would decode
        row by row).
        """
        grouped: Dict[str, List[ProvenanceRecord]] = {}
        for record in self._backend.iter_records():
            grouped.setdefault(record.app_id, []).append(record)
        return grouped

    def records_by_trace_projected(
        self, attributes: FrozenSet[str]
    ) -> Optional[Dict[str, List[ProvenanceRecord]]]:
        """Like :meth:`records_by_trace`, materializing only *attributes*.

        ``None`` means the backend has no projection fast path; callers
        fall back to the full grouping.  Projected records carry class,
        type, timestamp, relation endpoints, and the named attributes —
        callers must not read any other attribute off them.
        """
        projected = self._backend.iter_records_projected(
            frozenset(attributes)
        )
        if projected is None:
            return None
        grouped: Dict[str, List[ProvenanceRecord]] = {}
        for record in projected:
            grouped.setdefault(record.app_id, []).append(record)
        return grouped

    # -- querying ----------------------------------------------------------

    def _candidates(
        self, query: RecordQuery
    ) -> Iterable[ProvenanceRecord]:
        """A superset of *query*'s matches, in append order.

        Indexed stores ask the backend first: SQLite compiles the query
        into an indexed ``WHERE`` clause, memory answers a trace from its
        per-APPID list.  select()/select_one() still apply query.matches
        to every candidate (superset rule).  A backend without a path for
        this query, or an unindexed store (the E8 ablation), scans.
        """
        if self._indexed:
            pushed = self._backend.query_records(query)
            if pushed is not None:
                return pushed
        if query.app_id is not None:
            # The physical row carries APPID (Table I), so a trace query
            # filters on the column and decodes only that trace's rows —
            # other traces' XML is never touched, and a corrupt row
            # elsewhere stays that trace's problem.
            return (
                self._decode(row)
                for row in self._backend.iter_rows()
                if row.app_id == query.app_id
            )
        return self.records()

    def select(self, query: RecordQuery) -> List[ProvenanceRecord]:
        """All records matching *query*, in append order."""
        return [r for r in self._candidates(query) if query.matches(r)]

    def select_one(self, query: RecordQuery) -> Optional[ProvenanceRecord]:
        """First match or None; raises on ambiguity-free usage patterns only."""
        for record in self._candidates(query):
            if query.matches(record):
                return record
        return None

    def find_data(
        self,
        app_id: str,
        entity_type: str,
        **attribute_equals: AttributeValue,
    ) -> List[ProvenanceRecord]:
        """Convenience: Data records of a type in a trace, by attribute."""
        query = RecordQuery(
            record_class=RecordClass.DATA,
            app_id=app_id,
            entity_type=entity_type,
        )
        for name, value in attribute_equals.items():
            query = query.where(name, "==", value)
        return self.select(query)

    def relations_from(self, source_id: str) -> List[RelationRecord]:
        """All relation records whose source is *source_id*."""
        return [
            record
            for record in self.records()
            if isinstance(record, RelationRecord)
            and record.source_id == source_id
        ]

    def relations_to(self, target_id: str) -> List[RelationRecord]:
        """All relation records whose target is *target_id*."""
        return [
            record
            for record in self.records()
            if isinstance(record, RelationRecord)
            and record.target_id == target_id
        ]

    # -- persistence -------------------------------------------------------

    def flush(self) -> None:
        """Make pending backend writes durable (no-op for memory)."""
        crash_point("store.flush")
        self._backend.flush()

    def close(self) -> None:
        """Flush and release backend resources.  Idempotent."""
        crash_point("store.close")
        self._backend.close()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def dump(self, path: str) -> int:
        """Write the physical rows to *path* as JSON lines; returns count."""
        count = 0
        with open(path, "w", encoding="utf-8") as handle:
            for row in self._backend.iter_rows():
                handle.write(
                    json.dumps(
                        {
                            "id": row.record_id,
                            "class": row.record_class.value,
                            "appid": row.app_id,
                            "xml": row.xml,
                        }
                    )
                )
                handle.write("\n")
                count += 1
        return count

    @classmethod
    def load(
        cls,
        path: str,
        model: Optional[ProvenanceDataModel] = None,
        indexed: bool = True,
        backend: BackendSpec = None,
    ) -> "ProvenanceStore":
        """Rebuild a store from a file written by :meth:`dump`.

        The dumped rows are committed *verbatim* into the target backend —
        byte-identical regardless of which backend wrote the dump — while
        still passing duplicate and model validation.
        """
        if not os.path.exists(path):
            raise QueryError(f"no store file at {path!r}")
        store = cls(model=model, indexed=indexed, backend=backend)
        with open(path, "r", encoding="utf-8") as handle, store.bulk():
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                row = StoredRow(
                    record_id=payload["id"],
                    record_class=RecordClass.from_wire(payload["class"]),
                    app_id=payload["appid"],
                    xml=payload["xml"],
                )
                store.append_row(row)
        return store

    def append_row(self, row: StoredRow) -> ProvenanceRecord:
        """Append a physical row verbatim (replication/load path).

        The row is decoded for validation and observers, but the
        stored bytes are *row*'s exactly — not a re-encoding — so replicas
        and reloaded dumps stay byte-identical to their source.
        """
        home = self._backend.shard_index(row.app_id)
        if self._backend.shard(home).contains(row.record_id):
            raise DuplicateRecordId(row.record_id)
        record = self._decode(row)
        if self.model is not None:
            self.model.validate(record)
        # verify_xml: this row's bytes were NOT produced by our encoder, so
        # the columnar payload is only written when a canonical re-encode
        # matches byte-for-byte (otherwise the row stays XML-decoded).
        cols = (
            self.columnar.encode_cols(row, record, verify_xml=True)
            if self.columnar is not None
            else None
        )
        self._commit(home, row, record, cols)
        return record
