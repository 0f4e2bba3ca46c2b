"""In-memory storage backend — the seed behavior, now behind the seam.

Rows live in a Python list, records in an id-keyed dict; :meth:`get` hands
back the very record object that was appended (zero-copy), which is what
the store always did before backends existed.  Everything is O(1) except
the full scans, and nothing survives the process.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import RecordNotFound
from repro.model.records import ProvenanceRecord
from repro.store.backends.base import StorageBackend
from repro.store.xmlcodec import StoredRow


class MemoryBackend(StorageBackend):
    """Rows in a list, records in a dict; the default backend."""

    name = "memory"

    def __init__(self) -> None:
        self._rows: List[StoredRow] = []
        self._records: Dict[str, ProvenanceRecord] = {}
        self._order: List[str] = []
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

    def get(self, record_id: str) -> ProvenanceRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise RecordNotFound(record_id) from None

    def contains(self, record_id: str) -> bool:
        return record_id in self._records

    def iter_rows(self) -> Iterator[StoredRow]:
        return iter(self._rows)

    def iter_records(self) -> Iterator[ProvenanceRecord]:
        for record_id in self._order:
            yield self._records[record_id]

    def count(self) -> int:
        return len(self._order)

    def fork_handle(self) -> "MemoryBackend":
        # The lists and dicts only ever grow, so a second writer thread
        # may share them under its own lock: the handle is the backend.
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
