"""The storage-backend contract of the provenance store.

Table I is literally a relational table — ``(ID, CLASS, APPID, XML)`` — so
the physical home of those rows should be swappable: an in-memory list for
tests and small runs, SQLite for durable single-node deployments.
:class:`StorageBackend` is that seam.  The
:class:`~repro.store.store.ProvenanceStore` stays the coordination layer
(validation, observers, queries) and delegates row custody to a backend.
The store always holds a
:class:`~repro.store.backends.sharded.ShardedBackend`, which routes each
row by APPID to one of N >= 1 plain backends; a plain backend is one
shard, and the store wraps one given on its own as a single-shard
composite.

A backend owns exactly four things:

- the physical rows, in append order, byte-identical forever,
- the materialization of rows back into records (eagerly for the memory
  backend, lazily with caching for SQLite),
- finding rows: :meth:`StorageBackend.query_records` answers a
  :class:`~repro.store.query.RecordQuery` from whatever index the
  backend keeps, and :meth:`StorageBackend.app_ids` lists the traces, and
- the **change feed**: every row carries an implicit monotonic sequence
  number — its 1-based append position, a plain ``int`` — and
  :meth:`changes_since` replays the rows after a position.  Seqs are
  contiguous and identical across backends holding the same rows, so a
  position taken against one backend resumes against any replica.  On
  SQLite the feed is the table itself (``rowid`` order), which is what
  lets a reopened database hand incremental consumers exactly the rows
  they missed.  The sharded composite numbers its feed with one such
  position per shard (a :class:`~repro.store.cursor.VectorCursor`).

Backends may additionally persist small named *auxiliary state* blobs
(:meth:`save_state` / :meth:`load_state`) next to the rows — materialized
verdict snapshots use this so an incremental evaluation survives a close
and reopen.  Durability follows the backend: the memory backend keeps the
blobs for the life of the object, SQLite writes them to disk.

Everything else — duplicate-id policy, schema validation, observer
fan-out — is store policy and must NOT be reimplemented in a
backend.  Backends may assume the store has already rejected duplicates
before :meth:`StorageBackend.append_row` is called: a record id is
unique within its APPID's home shard, and the store probes that shard.

Row→record decoding needs the store's data model (attribute typing), so the
store injects a decoder via :meth:`StorageBackend.set_decoder` right after
construction; backends that keep live record objects (memory) may ignore
it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.model.records import ProvenanceRecord
from repro.store.query import RecordQuery
from repro.store.xmlcodec import StoredRow

RowDecoder = Callable[[StoredRow], ProvenanceRecord]


class StorageBackend(ABC):
    """Abstract home of the physical Table I rows.

    Subclasses implement :meth:`append_row`, :meth:`get`, :meth:`contains`,
    :meth:`iter_rows`, :meth:`iter_records`, :meth:`count`, and
    :meth:`close`; the bulk/flush/decoder hooks have no-op defaults.
    """

    #: short name used by :func:`repro.store.backends.create_backend` and
    #: reported in diagnostics.
    name: str = "abstract"

    # -- wiring --------------------------------------------------------------

    def set_decoder(self, decoder: RowDecoder) -> None:
        """Install the row→record decoder (model-aware).  Default: ignore."""

    # -- columnar representation ---------------------------------------------

    def accepts_cols(self) -> bool:
        """Whether this backend persists columnar ``cols`` payloads.

        ``False`` (the default) tells the store not to bother computing
        them; backends that store XML only, or keep live record objects,
        gain nothing from the sidecar.
        """
        return False

    def bind_columnar(self, codec) -> None:
        """Attach a :class:`~repro.store.columnar.ColumnarCodec`.

        Called by the store right after the decoder is installed.
        Backends that persist ``cols`` use the codec to decode payloads
        on read paths and to backfill payloads for rows written before
        the columnar schema existed.  Default: ignore.
        """

    # -- writes --------------------------------------------------------------

    @abstractmethod
    def append_row(
        self,
        row: StoredRow,
        record: Optional[ProvenanceRecord] = None,
        cols: Optional[str] = None,
    ) -> None:
        """Persist one physical row.

        *record* is the already-materialized record when the caller has one
        (the normal append path); backends may keep it to avoid a decode.
        *cols* is the row's columnar payload when the store computed one
        (only meaningful to backends whose :meth:`accepts_cols` is true;
        others ignore it).  The store guarantees the row's id is not
        already present.
        """

    # -- reads ---------------------------------------------------------------

    @abstractmethod
    def get(self, record_id: str) -> ProvenanceRecord:
        """Record by id; raises :class:`~repro.errors.RecordNotFound`."""

    @abstractmethod
    def contains(self, record_id: str) -> bool:
        """Whether a row with *record_id* exists (flushed or pending)."""

    @abstractmethod
    def iter_rows(self) -> Iterator[StoredRow]:
        """All physical rows, in append order."""

    @abstractmethod
    def iter_records(self) -> Iterator[ProvenanceRecord]:
        """All records, in append order."""

    @abstractmethod
    def count(self) -> int:
        """Number of rows stored."""

    def app_ids(self) -> List[str]:
        """Distinct APPIDs in first-seen order.

        Every uncached verdict read asks, so real backends must answer
        without a scan (memory keeps the list, SQLite extends a cached one
        from its rowid tail).  The default scans the rows.
        """
        seen: Dict[str, None] = {}
        for row in self.iter_rows():
            seen.setdefault(row.app_id)
        return list(seen)

    def highest_id(self, prefix: str) -> int:
        """The largest *n* among row ids ``<prefix><n>``; 0 when none.

        Only ids whose suffix is one or more ASCII digits count, compared
        as numbers (``REL10`` beats ``REL9``); rows not yet flushed count
        too.  Id sequences resume from this after a reopen, so real
        backends should answer without decoding rows.  The default scans
        the row ids.
        """
        highest = 0
        for row in self.iter_rows():
            if row.record_id.startswith(prefix):
                suffix = row.record_id[len(prefix):]
                if suffix.isascii() and suffix.isdigit():
                    highest = max(highest, int(suffix))
        return highest

    def query_records(
        self, query: RecordQuery
    ) -> Optional[List[ProvenanceRecord]]:
        """Candidate records for *query* via predicate push-down.

        This is the store's only indexed path.  ``None`` means "no
        push-down path for this query" (the default) and the store scans.
        A non-None result must be a **superset** of the true matches, in
        this backend's scan order, as a list the caller may keep — the
        store re-applies ``query.matches`` to every candidate, so false
        positives are fine and false negatives are forbidden.
        """
        return None

    def iter_records_projected(
        self, attributes: FrozenSet[str]
    ) -> Optional[Iterator[ProvenanceRecord]]:
        """All records in append order, materializing only *attributes*.

        ``None`` (the default) means "no projection fast path"; callers
        fall back to :meth:`iter_records`.  Records yielded by a
        projecting backend carry class, type, timestamp, relation
        endpoints, and the named attributes — other attributes may be
        absent, which is only safe for callers that declared they will
        not read them.
        """
        return None

    # -- record cache --------------------------------------------------------

    def cached_record(self, row: StoredRow) -> Optional[ProvenanceRecord]:
        """The full record this handle already holds for *row*, or ``None``.

        Answers without decoding; :meth:`ProvenanceStore.sync
        <repro.store.store.ProvenanceStore.sync>` asks before it decodes a
        delta row.  Default: nothing held.
        """
        return None

    def cache_records(self, records: Iterable[ProvenanceRecord]) -> None:
        """Hold full *records* for later reads of their rows.

        The records must equal the decode of their stored rows: records
        another handle over the same rows committed, or rows this handle
        decoded out-of-band.  They are immutable and may be shared
        between handles.  Projected records must never be passed here.
        Default: ignore.
        """

    # -- handles -------------------------------------------------------------

    def fork_handle(self) -> Optional["StorageBackend"]:
        """An independent handle over the same physical rows, or ``None``.

        A fork shares the durable medium (e.g. the SQLite file) but owns
        its own connection, write buffer, and decode cache, so one thread
        can write through the fork while others read through the original.
        Backends without a forkable medium return ``None`` (the default).
        """
        return None

    # -- change feed ---------------------------------------------------------

    def last_seq(self) -> int:
        """Sequence number of the newest row; 0 when empty.

        A row's seq is its 1-based append position.  The store is
        append-only, so seqs are contiguous, monotonic, and — because they
        are positional — identical across backends holding the same rows.
        Backends with a write buffer flush before answering so that every
        numbered row is actually replayable.

        The sharded composite returns a
        :class:`~repro.store.cursor.VectorCursor` of its children's
        positions instead.
        """
        self.flush()
        return self.count()

    def changes_since(self, seq: int) -> Iterator[Tuple[int, StoredRow]]:
        """``(seq, row)`` for every row appended after *seq*, in order.

        ``changes_since(0)`` replays the whole table;
        ``changes_since(last_seq())`` yields nothing.  The default derives
        the feed from :meth:`iter_rows`; backends with a cheaper tail scan
        (SQLite's ``rowid > ?``) override it.
        """
        for position, row in enumerate(self.iter_rows(), start=1):
            if position > seq:
                yield position, row

    # -- auxiliary state -----------------------------------------------------

    def load_state(self, key: str) -> Optional[str]:
        """The auxiliary state blob stored under *key*, or ``None``.

        Default: no auxiliary storage (always ``None``).
        """
        return None

    def save_state(self, key: str, payload: str) -> None:
        """Persist *payload* under *key*, replacing any previous value.

        Default: dropped.  Callers that need to know whether state will
        survive should check :meth:`load_state` round-trips.
        """

    # -- batching ------------------------------------------------------------

    def begin_bulk(self) -> None:
        """Enter a bulk-append section (nestable).  Backends with write
        batching defer commits until the outermost :meth:`end_bulk`."""

    def end_bulk(self) -> None:
        """Leave a bulk-append section; flush at the outermost exit."""

    def flush(self) -> None:
        """Make pending writes durable/visible.  Default: nothing pending."""

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush and release resources.  Idempotent."""
        self.flush()

    def abort(self) -> None:
        """Release resources WITHOUT flushing pending writes.

        This is the process-death path: crash simulation
        (:class:`~repro.faults.backend.FaultyBackend`) and unrecoverable
        error handling use it to model "the buffer never reached disk".
        Backends without pending state need not override it.  Idempotent.
        """
