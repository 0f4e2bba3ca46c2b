"""In-memory storage backend — the seed behavior, now behind the seam.

Rows live in a Python list, records in an id-keyed dict; :meth:`get` hands
back the very record object that was appended (zero-copy), which is what
the store always did before backends existed.  A per-APPID record list
answers trace-scoped queries and :meth:`app_ids` without a scan, and
:meth:`cached_record` answers from the records it holds, so a store
syncing rows another handle appended here decodes none of them.
Everything is O(1) except the full scans, and nothing survives the
process.

Service ingest lanes share one instance across threads, so every read
copies an append-only list by slice instead of iterating a container
another thread may be growing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import RecordNotFound
from repro.model.records import ProvenanceRecord
from repro.store.backends.base import StorageBackend
from repro.store.query import RecordQuery
from repro.store.xmlcodec import StoredRow


class MemoryBackend(StorageBackend):
    """Rows in a list, records in a dict; the default backend."""

    name = "memory"

    def __init__(self) -> None:
        self._rows: List[StoredRow] = []
        self._records: Dict[str, ProvenanceRecord] = {}
        self._order: List[str] = []
        self._by_app: Dict[str, List[ProvenanceRecord]] = {}
        self._app_order: List[str] = []
        self._state: Dict[str, str] = {}
        self._decoder = None

    def set_decoder(self, decoder) -> None:
        self._decoder = decoder

    def append_row(
        self,
        row: StoredRow,
        record: Optional[ProvenanceRecord] = None,
        cols: Optional[str] = None,
    ) -> None:
        # *cols* is ignored: records live decoded in memory already.
        if record is None:
            if self._decoder is None:
                raise RecordNotFound(
                    f"cannot materialize row {row.record_id!r}: no decoder"
                )
            record = self._decoder(row)
        self._rows.append(row)
        self._records[row.record_id] = record
        self._order.append(row.record_id)
        trace = self._by_app.get(row.app_id)
        if trace is None:
            self._by_app[row.app_id] = [record]
            self._app_order.append(row.app_id)
        else:
            trace.append(record)

    def get(self, record_id: str) -> ProvenanceRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise RecordNotFound(record_id) from None

    def contains(self, record_id: str) -> bool:
        return record_id in self._records

    def cached_record(self, row: StoredRow) -> Optional[ProvenanceRecord]:
        return self._records.get(row.record_id)

    def iter_rows(self) -> Iterator[StoredRow]:
        return iter(self._rows)

    def iter_records(self) -> Iterator[ProvenanceRecord]:
        for record_id in self._order:
            yield self._records[record_id]

    def count(self) -> int:
        return len(self._order)

    def app_ids(self) -> List[str]:
        return self._app_order[:]

    def query_records(
        self, query: RecordQuery
    ) -> Optional[List[ProvenanceRecord]]:
        # A trace's whole record list is the candidate superset; queries
        # spanning traces scan.
        if query.app_id is None:
            return None
        return self._by_app.get(query.app_id, [])[:]

    def fork_handle(self) -> "MemoryBackend":
        # The lists and dicts only ever grow and readers copy lists by
        # slice, so a second writer thread may share them under its own
        # lock: the handle is the backend.
        return self

    def last_seq(self) -> int:
        return len(self._rows)

    def changes_since(self, seq: int) -> Iterator[Tuple[int, StoredRow]]:
        # The row list *is* the change log; replay is a slice.
        start = max(seq, 0)
        for offset, row in enumerate(self._rows[start:], start=start + 1):
            yield offset, row

    def load_state(self, key: str) -> Optional[str]:
        return self._state.get(key)

    def save_state(self, key: str, payload: str) -> None:
        # Survives for the life of the backend object — two stores sharing
        # one MemoryBackend see each other's snapshots, mirroring two
        # SQLite handles on one file.
        self._state[key] = payload

    def close(self) -> None:
        """Nothing to release; kept so stores can close any backend."""
