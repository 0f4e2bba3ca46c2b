"""Provenance store.

The store keeps every provenance record in the paper's Table I row shape:
``(ID, CLASS, APPID, XML)``, where the XML column serializes the record's
entity type and attributes as elements under a ``ps:`` namespace.  The store
is append-only; correlation analytics and control deployment append new rows
rather than mutating existing ones.

The physical rows live behind a pluggable storage backend
(:mod:`repro.store.backends`): in-memory by default, SQLite (WAL, batched
transactions, lazy decoding) for durable stores that persist across runs.

Querying comes in the two styles of §II.A:

- :mod:`repro.store.query` — an on-demand query frontend (filter by class,
  APPID, entity type, attribute predicates, XPath-lite paths),
- deployed queries that "emit results in real-time, feeding existing
  dashboard systems" are served by the verdict table of
  :mod:`repro.controls.materializer` and its
  :mod:`repro.controls.deployment` subscribers, fed by the store's
  append observers.
"""

from repro.store.xmlcodec import decode_row, encode_row, StoredRow
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
    StorageBackend,
    create_backend,
)
from repro.store.cursor import (
    VectorCursor,
    cursor_covers,
    cursor_from_wire,
    cursor_to_wire,
)
from repro.store.store import ProvenanceStore
from repro.store.query import AttributePredicate, RecordQuery, xpath_lite

__all__ = [
    "AttributePredicate",
    "MemoryBackend",
    "ProvenanceStore",
    "RecordQuery",
    "ShardedBackend",
    "SQLiteBackend",
    "StorageBackend",
    "StoredRow",
    "VectorCursor",
    "create_backend",
    "cursor_covers",
    "cursor_from_wire",
    "cursor_to_wire",
    "decode_row",
    "encode_row",
    "xpath_lite",
]
