"""Sharded storage backend — Table I partitioned by APPID hash.

The paper's provenance table is naturally partitionable by trace: every
row carries the APPID of the process execution it belongs to, and no
control ever joins rows *across* traces.  :class:`ShardedBackend`
exploits that by routing each row to one of N child backends with a
stable APPID hash, while exposing the ordinary
:class:`~repro.store.backends.base.StorageBackend` protocol to callers.
It is the store's only shape: :class:`~repro.store.store.ProvenanceStore`
wraps any plain backend as a one-shard ``ShardedBackend``, so N >= 1 and
every code path above the backend is the sharded one.

- **Routing** is :func:`shard_index_for` — ``crc32(appid) % N`` — chosen
  over Python's ``hash()`` because it is stable across processes and
  interpreter runs, which is what lets N independent writer processes
  agree on the placement of every trace without coordination.
- **Record ids are unique within their APPID's home shard.**  Appends
  probe only that shard; every id scheme satisfies the rule (keyed ids
  embed the APPID, ``evt:`` ids the event id, and ``REL``/``CTL`` ids
  come from one store-wide ``highest_id`` seed).
- **Iteration order** is shard-grouped: ``iter_rows`` drains shard 0,
  then shard 1, …  Within a shard (and therefore within any one trace)
  append order is preserved exactly; across shards there is no global
  order to preserve, because concurrent writers never had one.
- **The change feed is a vector**: ``last_seq()`` returns a
  :class:`~repro.store.cursor.VectorCursor` with one component per
  shard (each child's own ``int`` position), and ``changes_since`` folds
  the per-shard tails, yielding each row with the composite position
  *after* that row — so a consumer can stop mid-stream and resume from
  the last cursor it saw.
- **Crash points** ``sharded.flush.shard<i>`` / ``sharded.append.shard<i>``
  let a :class:`~repro.faults.plan.FaultPlan` kill one shard mid-flush
  while the others survive; shards flush in index order, so a crash at
  shard *i* leaves shards ``< i`` durable and shards ``>= i`` staged.

Auxiliary state (verdict snapshots) lives on shard 0 — it is global to
the store, not per-partition, and keeping one copy means one commit.
"""

from __future__ import annotations

import zlib
from typing import (
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import BackendError, RecordNotFound
from repro.faults.points import crash_point
from repro.model.records import ProvenanceRecord
from repro.store.backends.base import StorageBackend
from repro.store.cursor import VectorCursor
from repro.store.locks import FileLock
from repro.store.query import RecordQuery
from repro.store.xmlcodec import StoredRow


def shard_index_for(app_id: str, shard_count: int) -> int:
    """The shard *app_id* routes to: ``crc32(appid) % shard_count``.

    Stable across processes and runs (unlike ``hash()``), so concurrent
    writers and later readers always agree on a trace's home shard.
    """
    return zlib.crc32(app_id.encode("utf-8")) % shard_count


def sqlite_shard_path(path: str, index: int) -> str:
    """The database file of shard *index* of a multi-shard store at
    *path* (a one-shard store is the file at *path* itself)."""
    return "%s.shard-%02d" % (path, index)


class ShardedBackend(StorageBackend):
    """N child backends behind one ``StorageBackend`` face.

    Args:
        children: the child backends, one per shard, in shard order.
            Children must be empty or previously populated through a
            sharded backend with the same shard count — rows must sit in
            the shard their APPID hashes to.
    """

    name = "sharded"

    def __init__(self, children: Sequence[StorageBackend]):
        if not children:
            raise BackendError("sharded backend needs at least one child")
        self._children: Tuple[StorageBackend, ...] = tuple(children)
        n = len(self._children)
        self._flush_points = tuple(
            "sharded.flush.shard%d" % i for i in range(n)
        )
        self._append_points = tuple(
            "sharded.append.shard%d" % i for i in range(n)
        )
        self._decoder = None

    @classmethod
    def for_sqlite(
        cls,
        path: str,
        shards: int,
        use_locks: bool = True,
        **options,
    ) -> "ShardedBackend":
        """Sharded SQLite: shard *i* lives at ``<path>.shard-0i``.

        A single shard is the file at *path* itself, so a store written
        before sharding opens in place.  Each shard gets its own
        database file and (when *use_locks*) a sibling ``.lock`` file
        guarding its flush transactions, so N writer processes appending
        to disjoint shards never contend.
        """
        from repro.store.backends.sqlite import SQLiteBackend

        if shards < 1:
            raise BackendError("sharded backend needs shards >= 1")
        children = []
        for i in range(shards):
            shard_path = (
                path if shards == 1 else sqlite_shard_path(path, i)
            )
            lock = FileLock(shard_path + ".lock") if use_locks else None
            children.append(
                SQLiteBackend(shard_path, write_lock=lock, **options)
            )
        return cls(children)

    # -- shard topology ------------------------------------------------------

    def shard_count(self) -> int:
        return len(self._children)

    def shard_index(self, app_id: str) -> int:
        return shard_index_for(app_id, len(self._children))

    def shard(self, index: int) -> StorageBackend:
        """Direct access to one child backend (stats, targeted tests)."""
        return self._children[index]

    def shard_backends(self) -> List[StorageBackend]:
        return list(self._children)

    # -- wiring --------------------------------------------------------------

    def set_decoder(self, decoder) -> None:
        self._decoder = decoder
        for child in self._children:
            child.set_decoder(decoder)

    # -- columnar representation ---------------------------------------------

    def accepts_cols(self) -> bool:
        return any(child.accepts_cols() for child in self._children)

    def bind_columnar(self, codec) -> None:
        for child in self._children:
            child.bind_columnar(codec)

    # -- writes --------------------------------------------------------------

    def append_row(
        self,
        row: StoredRow,
        record: Optional[ProvenanceRecord] = None,
        cols: Optional[str] = None,
    ) -> None:
        index = self.shard_index(row.app_id)
        crash_point(self._append_points[index])
        self._children[index].append_row(row, record, cols)

    def flush(self) -> None:
        # Shards flush in index order; a crash at shard i leaves shards
        # < i durable and >= i staged — the per-shard recovery invariant
        # the model checker asserts.
        for i, child in enumerate(self._children):
            crash_point(self._flush_points[i])
            child.flush()

    def begin_bulk(self) -> None:
        for child in self._children:
            child.begin_bulk()

    def end_bulk(self) -> None:
        for child in self._children:
            child.end_bulk()

    # -- reads ---------------------------------------------------------------

    def get(self, record_id: str) -> ProvenanceRecord:
        # Record ids do not carry their APPID, so point lookups probe the
        # shards in order.  O(N) point reads are acceptable: queries find
        # rows through query_records, and get is off the hot path.
        for child in self._children:
            if child.contains(record_id):
                return child.get(record_id)
        raise RecordNotFound(record_id)

    def contains(self, record_id: str) -> bool:
        return any(child.contains(record_id) for child in self._children)

    def cached_record(self, row: StoredRow) -> Optional[ProvenanceRecord]:
        return self._children[self.shard_index(row.app_id)].cached_record(row)

    def cache_records(self, records: Iterable[ProvenanceRecord]) -> None:
        for record in records:
            self._children[self.shard_index(record.app_id)].cache_records(
                (record,)
            )

    def iter_rows(self) -> Iterator[StoredRow]:
        for child in self._children:
            for row in child.iter_rows():
                yield row

    def iter_records(self) -> Iterator[ProvenanceRecord]:
        for child in self._children:
            for record in child.iter_records():
                yield record

    def iter_records_projected(
        self, attributes: FrozenSet[str]
    ) -> Optional[Iterator[ProvenanceRecord]]:
        if not any(child.accepts_cols() for child in self._children):
            return None

        def generate() -> Iterator[ProvenanceRecord]:
            # Shard-grouped, like iter_records; children without a
            # projection path fall back to full records (a superset of
            # what the projection promises).
            for child in self._children:
                projected = child.iter_records_projected(attributes)
                if projected is None:
                    projected = child.iter_records()
                for record in projected:
                    yield record

        return generate()

    def query_records(
        self, query: RecordQuery
    ) -> Optional[List[ProvenanceRecord]]:
        # An APPID pins the query to its home shard.  Otherwise every
        # shard answers and the answers concatenate in shard order — the
        # order of the scan — unless one shard has no push-down path.
        if query.app_id is not None:
            return self._children[
                self.shard_index(query.app_id)
            ].query_records(query)
        results: List[ProvenanceRecord] = []
        for child in self._children:
            pushed = child.query_records(query)
            if pushed is None:
                return None
            results.extend(pushed)
        return results

    def count(self) -> int:
        return sum(child.count() for child in self._children)

    def highest_id(self, prefix: str) -> int:
        return max(child.highest_id(prefix) for child in self._children)

    def app_ids(self) -> List[str]:
        """Distinct APPIDs in shard-grouped, first-seen-per-shard order.

        Routing puts every APPID in exactly one shard, so concatenating
        the per-shard lists needs no dedup.  The store treats this as the
        canonical trace order for sharded backends.
        """
        result: List[str] = []
        for child in self._children:
            result.extend(child.app_ids())
        return result

    # -- change feed ---------------------------------------------------------

    def last_seq(self) -> VectorCursor:
        return VectorCursor(
            [child.last_seq() for child in self._children]
        )

    def changes_since(
        self, seq: VectorCursor
    ) -> Iterator[Tuple[VectorCursor, StoredRow]]:
        if len(seq) != len(self._children):
            raise BackendError(
                "cursor %s has %d components; backend has %d shards"
                % (seq, len(seq), len(self._children))
            )
        positions = list(seq.seqs)
        for i, child in enumerate(self._children):
            for position, row in child.changes_since(positions[i]):
                positions[i] = position
                yield VectorCursor(positions), row

    # -- auxiliary state -----------------------------------------------------

    def load_state(self, key: str) -> Optional[str]:
        return self._children[0].load_state(key)

    def save_state(self, key: str, payload: str) -> None:
        self._children[0].save_state(key, payload)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for child in self._children:
            child.close()

    def abort(self) -> None:
        for child in self._children:
            child.abort()
