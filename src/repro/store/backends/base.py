"""The storage-backend contract of the provenance store.

Table I is literally a relational table — ``(ID, CLASS, APPID, XML)`` — so
the physical home of those rows should be swappable: an in-memory list for
tests and small runs, SQLite for durable single-node deployments, and, down
the road, sharded or client/server stores.  :class:`StorageBackend` is that
seam.  The :class:`~repro.store.store.ProvenanceStore` stays the
coordination layer (validation, secondary indexes, observers, queries) and
delegates row custody to a backend.

A backend owns exactly three things:

- the physical rows, in append order, byte-identical forever,
- the materialization of rows back into records (eagerly for the memory
  backend, lazily with caching for SQLite), and
- the **change feed**: every row carries an implicit monotonic sequence
  number — its 1-based append position — and :meth:`changes_since`
  replays the rows after a cursor.  Seqs are contiguous and identical
  across backends holding the same rows, so a cursor taken against one
  backend resumes against any replica.  On SQLite the feed is the table
  itself (``rowid`` order), which is what lets a reopened database hand
  incremental consumers exactly the rows they missed.

Backends may additionally persist small named *auxiliary state* blobs
(:meth:`save_state` / :meth:`load_state`) next to the rows — materialized
verdict snapshots use this so an incremental evaluation survives a close
and reopen.  Durability follows the backend: the memory backend keeps the
blobs for the life of the object, SQLite writes them to disk.

Everything else — duplicate-id policy, schema validation, indexing,
continuous queries — is store policy and must NOT be reimplemented in a
backend.  Backends may assume the store has already rejected duplicates
before :meth:`StorageBackend.append_row` is called.

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

    def bind_columnar(
        self, codec, indexed_attributes: Iterable[str] = ()
    ) -> None:
        """Attach a :class:`~repro.store.columnar.ColumnarCodec`.

        Called by the store right after the decoder is installed.
        Backends that persist ``cols`` use the codec to decode payloads
        on read paths and to backfill payloads for rows written before
        the columnar schema existed; *indexed_attributes* names get
        expression indexes.  Default: ignore.
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

        The default scans the rows; backends with a cheaper path (SQLite's
        ``GROUP BY``) override it.
        """
        seen: Dict[str, None] = {}
        for row in self.iter_rows():
            seen.setdefault(row.app_id)
        return list(seen)

    def query_records(
        self, query: RecordQuery
    ) -> Optional[List[ProvenanceRecord]]:
        """Candidate records for *query* via predicate push-down.

        ``None`` means "no push-down path" (the default) and the store
        falls back to its index/scan candidate generation.  A non-None
        result must be a **superset** of the true matches, in this
        backend's append order — the store re-applies ``query.matches``
        to every candidate, so false positives are fine and false
        negatives are forbidden.
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

    # -- sharding ------------------------------------------------------------

    def fork_handle(self) -> Optional["StorageBackend"]:
        """An independent handle over the same physical rows, or ``None``.

        A fork shares the durable medium (e.g. the SQLite file) but owns
        its own connection, write buffer, and decode cache, so one thread
        can write through the fork while others read through the original.
        Backends without a forkable medium return ``None`` (the default).
        """
        return None

    def shard_backends(self) -> List["StorageBackend"]:
        """The physical partitions, in shard order.  Plain backends are
        their own single shard."""
        return [self]

    def shard_count(self) -> int:
        """Number of physical partitions.  Plain backends are one shard."""
        return 1

    def shard_index(self, app_id: str) -> int:
        """The shard a row with *app_id* routes to (always 0 unsharded)."""
        return 0

    # -- change feed ---------------------------------------------------------

    def last_seq(self) -> int:
        """Sequence number of the newest row; 0 when empty.

        A row's seq is its 1-based append position.  The store is
        append-only, so seqs are contiguous, monotonic, and — because they
        are positional — identical across backends holding the same rows.
        Backends with a write buffer flush before answering so that every
        numbered row is actually replayable.

        Sharded backends return a
        :class:`~repro.store.cursor.VectorCursor` (one component per
        shard) instead of an ``int``; both shapes flow through the same
        call sites via the helpers in :mod:`repro.store.cursor`.
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
