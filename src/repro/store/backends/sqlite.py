"""SQLite storage backend — Table I as an actual relational table.

The paper's provenance table is ``(ID, CLASS, APPID, XML)``; this backend
stores it verbatim::

    CREATE TABLE provenance (
        id    TEXT PRIMARY KEY,
        class TEXT NOT NULL,
        appid TEXT NOT NULL,
        xml   TEXT NOT NULL
    )

with secondary SQL indexes on ``class`` and ``appid``.  Append order is the
implicit ``rowid`` order, so dumps and re-printed Table I artifacts are
byte-identical to the memory backend's.

Throughput and latency choices:

- **WAL journal + NORMAL synchronous** on file databases, so readers never
  block the appender and commits avoid a full fsync per transaction.
- **Batched transactions**: appends accumulate in a pending buffer and are
  committed ``executemany``-style every *batch_size* rows (a much larger
  threshold inside :meth:`begin_bulk`/:meth:`end_bulk` sections, which the
  recorder client wraps around event streams).  Reads see pending rows —
  point lookups consult the buffer, scans flush first — so batching is
  invisible to store semantics.
- **Lazy decoding with an LRU record cache**: rows are only materialized
  into records when fetched, and the hot ids (point lookups, fresh
  appends, records a sibling handle committed and handed over through
  :meth:`cache_records`) stay cached.  Full scans read through the cache
  but do not populate it, so sweeps cannot evict the hot set.
- **The table is the change log**: the store never deletes, so ``rowid``
  is exactly the row's 1-based append position — the backend-neutral
  sequence number.  :meth:`changes_since` is a ``rowid > ?`` tail scan,
  which makes catching up after a reopen (or after another handle on the
  same file appended out-of-band) cost O(new rows), not O(table).
- **Trace list from the tail**: :meth:`app_ids` keeps the first-seen
  APPID list and extends it from the rows past the rowid it last saw,
  instead of a whole-table ``GROUP BY`` on every call.
- **Auxiliary state** (``aux_state`` table): small named blobs —
  materialized verdict snapshots — persisted next to the rows so
  incremental consumers survive a close/reopen.
- **Columnar sidecar + predicate push-down**: each row optionally
  carries a ``cols`` JSON payload (:mod:`repro.store.columnar`) with
  generated columns ``etype``/``ts`` extracted from it, so
  :meth:`query_records` compiles :class:`~repro.store.query.RecordQuery`
  facets into indexed ``WHERE`` clauses, and scans decode via the
  payload instead of parsing XML.  This push-down is the store's only
  indexed query path; without a bound codec it still narrows on the
  physical ``class``/``appid`` columns.  Databases created before the
  columnar schema migrate in place on open (``ALTER TABLE``), and rows
  written by pre-columnar code are backfilled — once, bounded by a cursor
  marker — when a codec is bound.  XML remains the source of truth; any
  row whose payload is missing or stale (CRC mismatch) decodes from XML
  exactly as before.
"""

from __future__ import annotations

import sqlite3
from collections import OrderedDict
from dataclasses import replace
from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import BackendError, RecordNotFound
from repro.faults.points import crash_point
from repro.model.records import ProvenanceRecord, RecordClass
from repro.store.backends.base import StorageBackend
from repro.store.columnar import ColumnarCodec, compile_query
from repro.store.locks import FileLock, NullLock
from repro.store.query import RecordQuery
from repro.store.xmlcodec import StoredRow

_SCHEMA_BASE = """
CREATE TABLE IF NOT EXISTS provenance (
    id    TEXT PRIMARY KEY,
    class TEXT NOT NULL,
    appid TEXT NOT NULL,
    xml   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_provenance_class ON provenance(class);
CREATE INDEX IF NOT EXISTS idx_provenance_appid ON provenance(appid);
CREATE TABLE IF NOT EXISTS aux_state (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL
);
"""

# Schema v2 adds the columnar sidecar: the cols payload plus VIRTUAL
# generated columns over it (they cost nothing per row — extraction
# happens at read time, and the etype index stores only the extracted
# values).  Applied as ALTERs so v1 files upgrade in place; databases
# opened by a SQLite built without generated-column/JSON support simply
# stay on the v1 schema (and the columnar fast paths stay off).
_SCHEMA_COLUMNAR = (
    "ALTER TABLE provenance ADD COLUMN cols TEXT",
    "ALTER TABLE provenance ADD COLUMN etype TEXT GENERATED ALWAYS AS "
    "(json_extract(cols, '$.t')) VIRTUAL",
    "ALTER TABLE provenance ADD COLUMN ts INTEGER GENERATED ALWAYS AS "
    "(json_extract(cols, '$.ts')) VIRTUAL",
)
_COLUMNAR_INDEX = (
    "CREATE INDEX IF NOT EXISTS idx_provenance_etype ON provenance(etype)"
)

#: aux-state marker bounding the columnar backfill: rows at or below this
#: rowid have been offered a payload already (encodable or not), so a
#: reopen never rescans them.
_BACKFILL_MARKER = "columnar.backfill.cursor"

class SQLiteBackend(StorageBackend):
    """Durable Table I rows in a SQLite database.

    Args:
        path: database file, or ``":memory:"`` (default) for an ephemeral
            in-process database.
        batch_size: pending appends per transaction outside bulk sections.
        bulk_batch_size: pending appends per transaction inside bulk
            sections (recorder streams).
        cache_size: capacity of the LRU record cache (decoded rows).
        write_lock: optional context manager (a
            :class:`~repro.store.locks.FileLock`) taken around each flush
            transaction, serializing multi-process writers fairly instead
            of spinning on ``SQLITE_BUSY``.
        threadsafe: allow the connection to be used from threads other
            than the creating one (``check_same_thread=False``).  The
            caller must serialize all access externally — the service
            runtime does, holding its lock around every store touch; the
            default keeps sqlite3's own thread check for everyone else.
    """

    name = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        batch_size: int = 256,
        bulk_batch_size: int = 8192,
        cache_size: int = 4096,
        write_lock=None,
        threadsafe: bool = False,
    ) -> None:
        if batch_size < 1 or bulk_batch_size < 1 or cache_size < 1:
            raise BackendError("sqlite backend sizes must be >= 1")
        self.path = path
        self.batch_size = batch_size
        self.bulk_batch_size = bulk_batch_size
        self.cache_size = cache_size
        self._write_lock = write_lock if write_lock is not None else NullLock()
        self._conn = sqlite3.connect(
            path, timeout=30.0, check_same_thread=not threadsafe
        )
        try:
            self._conn.executescript(_SCHEMA_BASE)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise BackendError(
                f"cannot open {path!r} as a SQLite provenance store: {exc}"
            ) from exc
        self._columnar_ready = self._migrate_columnar()
        self._select_row = (
            "SELECT id, class, appid, xml, %s FROM provenance"
            % ("cols" if self._columnar_ready else "NULL")
        )
        # Pending (row, record-or-None, cols-or-None) appends, not yet
        # committed, plus an id map so point reads see them without
        # forcing a flush.
        self._pending: List[
            Tuple[StoredRow, Optional[ProvenanceRecord], Optional[str]]
        ] = []
        self._pending_ids: dict = {}
        self._bulk_depth = 0
        self._cache: "OrderedDict[str, ProvenanceRecord]" = OrderedDict()
        self._decoder = None
        self._codec: Optional[ColumnarCodec] = None
        self._closed = False
        #: rows known to lack a cols payload (committed + pending).  May
        #: overcount after aborted batches — safe, it only keeps the
        #: ``OR cols IS NULL`` widening in compiled queries — but never
        #: undercounts.
        self._null_cols = 0
        if self._columnar_ready:
            self._null_cols = self._count_null_cols()
        #: columnar observability (surfaced by ``repro store-stats``).
        self.cache_hits = 0
        self.cache_misses = 0
        self.pushdown_queries = 0
        self.migrated_cols = 0
        #: ``(rowid, APPIDs first seen through it, the same as a set)``,
        #: replaced whole so lock-free readers (``/stats``) never see a
        #: half-extended list.
        self._traces_seen: Tuple[int, Tuple[str, ...], FrozenSet[str]] = (
            0, (), frozenset()
        )

    def _migrate_columnar(self) -> bool:
        """Bring the schema to v2 (cols + generated columns); idempotent.

        Returns whether the columnar schema is available.  A SQLite build
        without generated-column or JSON support leaves the file on the
        v1 schema and this backend degrades to XML-only operation.
        """
        try:
            # table_xinfo, not table_info: VIRTUAL generated columns are
            # "hidden" and table_info omits them, which would make every
            # reopen re-ALTER etype/ts into a duplicate-column error.
            present = {
                row[1]
                for row in self._conn.execute(
                    "PRAGMA table_xinfo(provenance)"
                )
            }
            if "cols" not in present:
                for statement in _SCHEMA_COLUMNAR:
                    self._conn.execute(statement)
            elif "etype" not in present:
                for statement in _SCHEMA_COLUMNAR[1:]:
                    self._conn.execute(statement)
            self._conn.execute(_COLUMNAR_INDEX)
            self._conn.commit()
            return True
        except sqlite3.OperationalError:
            self._conn.rollback()
            return False

    def fork_handle(self) -> Optional["SQLiteBackend"]:
        """A second connection over the same file (None for ``:memory:``).

        The fork is created threadsafe — it is meant to be owned by one
        worker thread — and duplicates the file write lock (flock is per
        open-file-description, so the fork contends with other processes
        exactly like the original).  In-memory databases are private to
        their connection and cannot be forked.
        """
        if self.path == ":memory:":
            return None
        write_lock = None
        if isinstance(self._write_lock, FileLock):
            write_lock = FileLock(self._write_lock.path)
        fork = SQLiteBackend(
            self.path,
            batch_size=self.batch_size,
            bulk_batch_size=self.bulk_batch_size,
            cache_size=self.cache_size,
            write_lock=write_lock,
            threadsafe=True,
        )
        # The fork starts from this handle's trace list, so its first
        # app_ids() reads only the rows past it instead of grouping the
        # whole table once more.
        self.app_ids()
        fork._traces_seen = self._traces_seen
        return fork

    def _count_null_cols(self) -> int:
        (nulls,) = self._conn.execute(
            "SELECT COUNT(*) FROM provenance WHERE cols IS NULL"
        ).fetchone()
        return int(nulls)

    def set_decoder(self, decoder) -> None:
        self._decoder = decoder

    # -- columnar representation ---------------------------------------------

    def accepts_cols(self) -> bool:
        return self._columnar_ready

    def bind_columnar(self, codec: ColumnarCodec) -> None:
        """Attach the codec and backfill payloads for old rows.

        The backfill decodes (via the bound row decoder) every row that
        has no payload and was never offered one — bounded by an aux-state
        rowid marker, so a reopened v2 database pays O(1), not O(table).
        Rows that cannot be encoded (tampered, non-canonical) are skipped
        and never retried; they keep decoding from XML.
        """
        if not self._columnar_ready or self._closed:
            return
        self._codec = codec
        if self._decoder is not None:
            self._backfill_cols(codec)
        self._null_cols = self._count_null_cols() + sum(
            1 for __, __, cols in self._pending if cols is None
        )

    def _backfill_cols(self, codec: ColumnarCodec) -> None:
        marker = self.load_state(_BACKFILL_MARKER)
        try:
            floor = int(marker) if marker is not None else 0
        except ValueError:
            floor = 0
        (ceiling,) = self._conn.execute(
            "SELECT COALESCE(MAX(rowid), 0) FROM provenance"
        ).fetchone()
        if ceiling <= floor:
            return
        updates: List[Tuple[str, int]] = []
        cursor = self._conn.execute(
            "SELECT rowid, id, class, appid, xml FROM provenance "
            "WHERE cols IS NULL AND rowid > ? ORDER BY rowid",
            (floor,),
        )
        for rowid, *found in cursor.fetchall():
            row = self._row_from_sql(tuple(found))
            try:
                record = self._decode(row)
            except Exception:
                # Undecodable rows (tampering, schema drift) stay NULL and
                # keep raising from the XML path when actually queried.
                continue
            cols = codec.encode_cols(row, record, verify_xml=True)
            if cols is not None:
                updates.append((cols, int(rowid)))
        with self._write_lock:
            if updates:
                self._conn.executemany(
                    "UPDATE provenance SET cols = ? WHERE rowid = ?",
                    updates,
                )
            self._conn.execute(
                "INSERT OR REPLACE INTO aux_state (key, payload) "
                "VALUES (?, ?)",
                (_BACKFILL_MARKER, str(int(ceiling))),
            )
            self._conn.commit()
        self.migrated_cols += len(updates)

    # -- writes --------------------------------------------------------------

    def append_row(
        self,
        row: StoredRow,
        record: Optional[ProvenanceRecord] = None,
        cols: Optional[str] = None,
    ) -> None:
        self._check_open()
        if not self._columnar_ready:
            cols = None
        elif cols is None:
            self._null_cols += 1
        self._pending.append((row, record, cols))
        self._pending_ids[row.record_id] = len(self._pending) - 1
        if record is not None:
            self._cache_put(row.record_id, record)
        threshold = (
            self.bulk_batch_size if self._bulk_depth else self.batch_size
        )
        if len(self._pending) >= threshold:
            self.flush()

    def flush(self) -> None:
        """Commit all pending appends in one transaction."""
        if not self._pending:
            return
        self._check_open()
        with self._write_lock:
            if self._columnar_ready:
                self._conn.executemany(
                    "INSERT INTO provenance (id, class, appid, xml, cols) "
                    "VALUES (?, ?, ?, ?, ?)",
                    [
                        (r.record_id, r.record_class.value, r.app_id, r.xml, c)
                        for r, __, c in self._pending
                    ],
                )
            else:
                self._conn.executemany(
                    "INSERT INTO provenance (id, class, appid, xml) "
                    "VALUES (?, ?, ?, ?)",
                    [
                        (r.record_id, r.record_class.value, r.app_id, r.xml)
                        for r, __, __c in self._pending
                    ],
                )
            # A death between the INSERTs and the COMMIT must roll the
            # whole batch back — this is the transaction-boundary
            # guarantee the crash model checker exercises.
            crash_point("sqlite.flush.before_commit")
            self._conn.commit()
            crash_point("sqlite.flush.after_commit")
        self._pending.clear()
        self._pending_ids.clear()

    def begin_bulk(self) -> None:
        self._bulk_depth += 1

    def end_bulk(self) -> None:
        if self._bulk_depth > 0:
            self._bulk_depth -= 1
        if self._bulk_depth == 0:
            self.flush()

    # -- reads ---------------------------------------------------------------

    def get(self, record_id: str) -> ProvenanceRecord:
        self._check_open()
        cached = self._cache.get(record_id)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(record_id)
            return cached
        self.cache_misses += 1
        position = self._pending_ids.get(record_id)
        if position is not None:
            row, record, cols = self._pending[position]
            if record is None:
                record = self._materialize(row, cols)
            self._cache_put(record_id, record)
            return record
        found = self._conn.execute(
            self._select_row + " WHERE id = ?", (record_id,)
        ).fetchone()
        if found is None:
            raise RecordNotFound(record_id)
        record = self._materialize(self._row_from_sql(found[:4]), found[4])
        self._cache_put(record_id, record)
        return record

    def _materialize(
        self,
        row: StoredRow,
        cols: Optional[str],
        projection: Optional[FrozenSet[str]] = None,
    ) -> ProvenanceRecord:
        """Row → record, preferring the columnar payload over XML.

        A missing or stale payload falls back to the XML decoder, so the
        result is always exactly what the oracle path would produce.
        """
        if cols is not None and self._codec is not None:
            record = self._codec.decode_cols(row, cols, projection=projection)
            if record is not None:
                return record
        return self._decode(row)

    def contains(self, record_id: str) -> bool:
        self._check_open()
        if record_id in self._pending_ids or record_id in self._cache:
            return True
        found = self._conn.execute(
            "SELECT 1 FROM provenance WHERE id = ?", (record_id,)
        ).fetchone()
        return found is not None

    def iter_rows(self) -> Iterator[StoredRow]:
        self._check_open()
        self.flush()
        cursor = self._conn.execute(
            "SELECT id, class, appid, xml FROM provenance ORDER BY rowid"
        )
        for found in cursor:
            yield self._row_from_sql(found)

    def iter_records(self) -> Iterator[ProvenanceRecord]:
        # Reads through the cache but does not populate it: a full sweep
        # must not evict the hot point-lookup entries.
        if self._columnar_ready and self._codec is not None:
            for row, cols in self._iter_rows_with_cols():
                cached = self._cache.get(row.record_id)
                yield cached if cached is not None else self._materialize(
                    row, cols
                )
            return
        for row in self.iter_rows():
            cached = self._cache.get(row.record_id)
            yield cached if cached is not None else self._decode(row)

    def _iter_rows_with_cols(
        self,
    ) -> Iterator[Tuple[StoredRow, Optional[str]]]:
        self._check_open()
        self.flush()
        cursor = self._conn.execute(
            "SELECT id, class, appid, xml, cols FROM provenance "
            "ORDER BY rowid"
        )
        for found in cursor:
            yield self._row_from_sql(found[:4]), found[4]

    def iter_records_projected(
        self, attributes: FrozenSet[str]
    ) -> Optional[Iterator[ProvenanceRecord]]:
        if not self._columnar_ready or self._codec is None:
            return None
        if self._decoder is None:
            return None

        def generate() -> Iterator[ProvenanceRecord]:
            # No cache read-through: a projected record must never leak
            # into (or be served from) the full-record cache.
            for row, cols in self._iter_rows_with_cols():
                yield self._materialize(row, cols, projection=attributes)

        return generate()

    def query_records(
        self, query: RecordQuery
    ) -> Optional[List[ProvenanceRecord]]:
        """Push *query* facets down into an indexed SQL WHERE clause.

        Returns a superset of the true matches in append order (the store
        re-applies ``query.matches``), or ``None`` when no decoder is
        bound or the query has no compilable constraint.  Without a bound
        codec only the physical ``class``/``appid`` facets push down.
        """
        if self._decoder is None:
            return None
        self._check_open()
        compiled = compile_query(query)
        if self._codec is None:
            compiled = replace(compiled, cols=(), cols_params=())
        if not compiled.has_constraints:
            return None
        self.flush()
        where, params = compiled.where_clause(
            include_null_branch=self._null_cols > 0
        )
        self.pushdown_queries += 1
        cursor = self._conn.execute(
            f"{self._select_row} WHERE {where} ORDER BY rowid", params
        )
        results: List[ProvenanceRecord] = []
        for found in cursor:
            row = self._row_from_sql(found[:4])
            cached = self._cache.get(row.record_id)
            results.append(
                cached if cached is not None else self._materialize(
                    row, found[4]
                )
            )
        return results

    def cached_record(self, row: StoredRow) -> Optional[ProvenanceRecord]:
        return self._cache.get(row.record_id)

    def cache_records(self, records: Iterable[ProvenanceRecord]) -> None:
        for record in records:
            self._cache_put(record.record_id, record)

    def columnar_coverage(self) -> Tuple[int, int]:
        """``(rows with a cols payload, total rows)`` including pending."""
        self._check_open()
        if not self._columnar_ready:
            return 0, self.count()
        with_cols, total = self._conn.execute(
            "SELECT COUNT(cols), COUNT(*) FROM provenance"
        ).fetchone()
        with_cols = int(with_cols) + sum(
            1 for __, __, cols in self._pending if cols is not None
        )
        return with_cols, int(total) + len(self._pending)

    def count(self) -> int:
        self._check_open()
        (total,) = self._conn.execute(
            "SELECT COUNT(*) FROM provenance"
        ).fetchone()
        return int(total) + len(self._pending)

    def app_ids(self) -> List[str]:
        # Every uncached verdict read asks, and a whole-table GROUP BY
        # costs ~4 ms per 13k-row shard against ~0.01 ms for this path
        # (2-vCPU host); only the rows past the last rowid seen can add
        # a trace.  The tip is read first, so rows another handle commits
        # meanwhile wait for the next call.
        self._check_open()
        self.flush()
        seen, ids, known = self._traces_seen
        (tip,) = self._conn.execute(
            "SELECT COALESCE(MAX(rowid), 0) FROM provenance"
        ).fetchone()
        if tip > seen:
            fresh = [
                appid
                for (appid,) in self._conn.execute(
                    "SELECT appid FROM provenance WHERE rowid > ? AND "
                    "rowid <= ? GROUP BY appid ORDER BY MIN(rowid)",
                    (seen, tip),
                )
                if appid not in known
            ]
            if fresh:
                ids += tuple(fresh)
                known = known.union(fresh)
            self._traces_seen = (tip, ids, known)
        return list(ids)

    def highest_id(self, prefix: str) -> int:
        # A primary-key range: every id that continues *prefix* with a
        # digit sorts in [prefix + "0", prefix + ":"), since ":" follows
        # "9".  The GLOB drops suffixes with a non-digit further on.
        self._check_open()
        self.flush()
        start = len(prefix) + 1
        (highest,) = self._conn.execute(
            "SELECT COALESCE(MAX(CAST(SUBSTR(id, ?) AS INTEGER)), 0) "
            "FROM provenance WHERE id >= ? AND id < ? "
            "AND SUBSTR(id, ?) NOT GLOB '*[^0-9]*'",
            (start, prefix + "0", prefix + ":", start),
        ).fetchone()
        return int(highest)

    # -- change feed ---------------------------------------------------------

    def last_seq(self) -> int:
        # Flush so every numbered row is replayable; with no deletes ever,
        # MAX(rowid) == COUNT(*) == the append position of the newest row.
        self._check_open()
        self.flush()
        (seq,) = self._conn.execute(
            "SELECT COALESCE(MAX(rowid), 0) FROM provenance"
        ).fetchone()
        return int(seq)

    def changes_since(self, seq: int) -> Iterator[Tuple[int, StoredRow]]:
        self._check_open()
        self.flush()
        cursor = self._conn.execute(
            "SELECT rowid, id, class, appid, xml FROM provenance "
            "WHERE rowid > ? ORDER BY rowid",
            (seq,),
        )
        for rowid, *found in cursor:
            yield int(rowid), self._row_from_sql(tuple(found))

    # -- auxiliary state -----------------------------------------------------

    def load_state(self, key: str) -> Optional[str]:
        self._check_open()
        found = self._conn.execute(
            "SELECT payload FROM aux_state WHERE key = ?", (key,)
        ).fetchone()
        return found[0] if found is not None else None

    def save_state(self, key: str, payload: str) -> None:
        self._check_open()
        self._conn.execute(
            "INSERT OR REPLACE INTO aux_state (key, payload) VALUES (?, ?)",
            (key, payload),
        )
        self._conn.commit()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._conn.close()
        self._closed = True

    def abort(self) -> None:
        """Process-death close: pending appends are dropped, the open
        transaction (if any) rolls back — exactly what SQLite guarantees
        when the process holding the connection dies.  Idempotent."""
        if self._closed:
            return
        self._pending.clear()
        self._pending_ids.clear()
        self._conn.rollback()
        self._conn.close()
        self._closed = True

    # -- plumbing ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise BackendError(f"sqlite backend {self.path!r} is closed")

    def _decode(self, row: StoredRow) -> ProvenanceRecord:
        if self._decoder is None:
            raise BackendError(
                f"cannot materialize row {row.record_id!r}: no decoder bound"
            )
        return self._decoder(row)

    def _cache_put(self, record_id: str, record: ProvenanceRecord) -> None:
        self._cache[record_id] = record
        self._cache.move_to_end(record_id)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    @staticmethod
    def _row_from_sql(found: tuple) -> StoredRow:
        record_id, class_value, app_id, xml = found
        return StoredRow(
            record_id=record_id,
            record_class=RecordClass.from_wire(class_value),
            app_id=app_id,
            xml=xml,
        )
