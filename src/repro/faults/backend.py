"""A storage-backend proxy that injects scripted faults and models crashes.

:class:`FaultyBackend` wraps any real
:class:`~repro.store.backends.base.StorageBackend` and runs a
:class:`~repro.faults.plan.FaultPlan` against it.  Its central device is
an explicit **staging buffer**: appended rows are held in the proxy and
only forwarded (and committed) to the inner backend at flush boundaries.
That makes the durability frontier a first-class, inspectable line —

- rows behind the frontier (forwarded + committed) survive a crash,
- rows ahead of it (staged) are lost, exactly like a write buffer in a
  killed process,
- a **torn flush** commits a scripted prefix of the staged batch and
  dies, which is the worst outcome a transactional backend may legally
  produce (a clean prefix — never an interior gap),
- a **dropped fsync** freezes the durable image at a scripted commit
  (for SQLite files: a consistent temp-copy of the database taken with
  the backup API), so later commits reach the live file but vanish at
  crash time — the ``synchronous=NORMAL`` power-loss window.

Reads merge the staging buffer with the inner backend, so a wrapped
store behaves identically to an unwrapped one until a fault actually
fires; the conformance suite runs the full backend contract against a
fault-free :class:`FaultyBackend` to pin that.

Process death is modeled by :meth:`FaultyBackend.crash` (drop staged
rows, abandon the inner backend without flushing) and recovery by
:meth:`FaultyBackend.recover`, which returns a *fresh* backend holding
exactly what would have survived on disk.
"""

from __future__ import annotations

import shutil
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import BackendError, RecordNotFound
from repro.faults.plan import FaultPlan, SimulatedCrash
from repro.model.records import ProvenanceRecord
from repro.store.backends.base import StorageBackend
from repro.store.backends.memory import MemoryBackend
from repro.store.backends.sqlite import SQLiteBackend
from repro.store.query import RecordQuery
from repro.store.xmlcodec import StoredRow


def _truncate(row: StoredRow) -> StoredRow:
    """The at-rest corruption shape: XML cut mid-document."""
    return StoredRow(
        record_id=row.record_id,
        record_class=row.record_class,
        app_id=row.app_id,
        xml=row.xml[: len(row.xml) // 2],
    )


class FaultyBackend(StorageBackend):
    """Fault-injecting proxy around a real storage backend.

    Args:
        inner: the backend rows ultimately live in.  SQLite backends must
            be file-backed for :meth:`recover` (a ``:memory:`` database
            has nothing to recover).
        plan: the scripted fault schedule; shared with the crash-point
            layer via :func:`repro.faults.points.active_plan` when the
            run also wants mid-operation crashes.
    """

    name = "faulty"

    def __init__(self, inner: StorageBackend, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._staged: List[
            Tuple[StoredRow, Optional[ProvenanceRecord], Optional[str]]
        ] = []
        self._staged_ids: Dict[str, int] = {}
        self._bulk_depth = 0
        self._decoder = None
        self._crashed = False
        #: rows known committed in the inner backend (the durability
        #: frontier; updated only after a successful inner flush).
        self._durable_count = inner.count()
        #: mirror of every aux-state write, for memory-backend recovery.
        self._state_written: Dict[str, str] = {}
        #: frozen fsync image: (row count, state copy, sqlite image path).
        self._fsync_image: Optional[Tuple[int, Dict[str, str], Optional[str]]] = None

    # -- wiring --------------------------------------------------------------

    def set_decoder(self, decoder) -> None:
        self._decoder = decoder
        self.inner.set_decoder(decoder)

    def accepts_cols(self) -> bool:
        return not self._dead() and self.inner.accepts_cols()

    def bind_columnar(self, codec) -> None:
        if self._dead():
            return
        self.inner.bind_columnar(codec)

    def _check_alive(self) -> None:
        if self._crashed:
            raise BackendError("faulty backend has crashed; recover() first")

    def _dead(self) -> bool:
        """Whether the process model has died (crash fired or backend
        crashed).  Write-path methods silently drop their work then: the
        Python code still unwinding after a :class:`SimulatedCrash`
        (``finally`` blocks, context-manager exits) is post-mortem — in a
        real crash it never runs, so it must not persist anything."""
        return self._crashed or self.plan.crash_fired

    # -- writes --------------------------------------------------------------

    def append_row(
        self,
        row: StoredRow,
        record: Optional[ProvenanceRecord] = None,
        cols: Optional[str] = None,
    ) -> None:
        if self._dead():
            return
        if self.plan.on_write():
            # Corruption hits the physical row; the columnar payload is
            # dropped too, so reads hit the torn XML — masking the damage
            # behind a healthy sidecar would defeat the fault model.
            row = _truncate(row)
            cols = None
        self._staged.append((row, record, cols))
        self._staged_ids[row.record_id] = len(self._staged) - 1

    def flush(self) -> None:
        if self._dead():
            return
        if not self._staged:
            # Still a durability boundary for the inner backend.
            self.inner.flush()
            self._after_commit()
            return
        keep = self.plan.on_flush(len(self._staged))
        if keep is None:
            self._forward(len(self._staged))
            self._after_commit()
            return
        # Torn flush: commit a prefix, then the process dies.
        self._forward(keep)
        self._after_commit()
        self.crash()
        raise SimulatedCrash("flush.torn")

    def _forward(self, count: int) -> None:
        """Hand *count* staged rows to the inner backend and commit them."""
        batch, rest = self._staged[:count], self._staged[count:]
        for row, record, cols in batch:
            self.inner.append_row(row, record, cols)
        self.inner.flush()
        self._staged = rest
        self._staged_ids = {
            row.record_id: index for index, (row, __, __c) in enumerate(rest)
        }

    def _after_commit(self) -> None:
        """Advance the durability frontier; freeze the fsync image when
        the plan's scripted commit has been reached."""
        self._durable_count = self.inner.count()
        freeze = self.plan.fsync_freeze_after
        if (
            freeze is not None
            and self._fsync_image is None
            and self.plan.flushes >= freeze
        ):
            self._fsync_image = (
                self.inner.count(),
                dict(self._state_written),
                self._snapshot_sqlite_file(),
            )
            self.plan.fired.append(
                f"fsync-freeze@flush#{self.plan.flushes}"
                f"(rows={self._fsync_image[0]})"
            )

    def _snapshot_sqlite_file(self) -> Optional[str]:
        """A consistent copy of the inner SQLite database, if file-backed."""
        inner = self.inner
        if not isinstance(inner, SQLiteBackend) or inner.path == ":memory:":
            return None
        import sqlite3

        image_path = inner.path + ".fsync-image"
        image = sqlite3.connect(image_path)
        try:
            inner._conn.backup(image)
            image.commit()
        finally:
            image.close()
        return image_path

    def begin_bulk(self) -> None:
        self._bulk_depth += 1

    def end_bulk(self) -> None:
        if self._bulk_depth > 0:
            self._bulk_depth -= 1
        if self._bulk_depth == 0:
            self.flush()

    # -- reads (staging buffer merged over the inner backend) ----------------

    def get(self, record_id: str) -> ProvenanceRecord:
        self._check_alive()
        position = self._staged_ids.get(record_id)
        if position is not None:
            row, record, cols = self._staged[position]
            if record is None:
                record = self._decode(row)
                self._staged[position] = (row, record, cols)
            return record
        return self.inner.get(record_id)

    def contains(self, record_id: str) -> bool:
        self._check_alive()
        return record_id in self._staged_ids or self.inner.contains(record_id)

    def iter_rows(self) -> Iterator[StoredRow]:
        self._check_alive()
        yield from self.inner.iter_rows()
        for row, __, __c in list(self._staged):
            yield row

    def iter_records(self) -> Iterator[ProvenanceRecord]:
        self._check_alive()
        yield from self.inner.iter_records()
        for row, record, __ in list(self._staged):
            yield record if record is not None else self._decode(row)

    def iter_records_projected(
        self, attributes: FrozenSet[str]
    ) -> Optional[Iterator[ProvenanceRecord]]:
        self._check_alive()
        inner = self.inner.iter_records_projected(attributes)
        if inner is None:
            return None

        def generate() -> Iterator[ProvenanceRecord]:
            yield from inner
            for row, record, __ in list(self._staged):
                yield record if record is not None else self._decode(row)

        return generate()

    def query_records(
        self, query: RecordQuery
    ) -> Optional[List[ProvenanceRecord]]:
        self._check_alive()
        committed = self.inner.query_records(query)
        if committed is None:
            return None
        # Staged rows are visible to queries; filter on the physical
        # facets BEFORE decoding so a corrupt staged row in another trace
        # stays that trace's problem (the confinement invariant).
        for row, record, __ in list(self._staged):
            if query.app_id is not None and row.app_id != query.app_id:
                continue
            if (
                query.record_class is not None
                and row.record_class is not query.record_class
            ):
                continue
            committed.append(
                record if record is not None else self._decode(row)
            )
        return committed

    def count(self) -> int:
        self._check_alive()
        return self.inner.count() + len(self._staged)

    def last_seq(self) -> int:
        # No flush: staged rows are numbered and replayable through this
        # handle's merged change feed, and forcing durability here would
        # shrink the very crash windows this backend exists to create.
        return self.count()

    def changes_since(self, seq: int) -> Iterator[Tuple[int, StoredRow]]:
        self._check_alive()
        base = self.inner.count()
        for position, row in self.inner.changes_since(seq):
            yield position, row
        for offset, (row, __, __c) in enumerate(
            list(self._staged), start=base + 1
        ):
            if offset > seq:
                yield offset, row

    def _decode(self, row: StoredRow) -> ProvenanceRecord:
        if self._decoder is None:
            raise RecordNotFound(
                f"cannot materialize row {row.record_id!r}: no decoder"
            )
        return self._decoder(row)

    # -- auxiliary state -----------------------------------------------------

    def load_state(self, key: str) -> Optional[str]:
        self._check_alive()
        return self.inner.load_state(key)

    def save_state(self, key: str, payload: str) -> None:
        if self._dead():
            return
        self.inner.save_state(key, payload)
        self._state_written[key] = payload

    # -- crash & recovery ----------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def durable_floor(self) -> int:
        """Rows guaranteed to survive a crash right now: the committed
        frontier, capped by the frozen fsync image when one exists."""
        floor = self._durable_count
        if self._fsync_image is not None:
            floor = min(floor, self._fsync_image[0])
        return floor

    def staged_count(self) -> int:
        """Rows acknowledged to the store but not yet committed."""
        return len(self._staged)

    def crash(self) -> None:
        """Kill the process model: staged rows vanish, the inner backend
        is abandoned without a flush.  Idempotent."""
        if self._crashed:
            return
        self._crashed = True
        self._staged.clear()
        self._staged_ids.clear()
        self.inner.abort()

    def recover(self) -> StorageBackend:
        """A fresh backend holding exactly what survived the crash.

        - File-backed SQLite: reopen the database file (committed
          transactions survive; the torn/uncommitted tail rolled back) —
          or, when the fsync image was frozen, reopen the frozen copy,
          modeling commits lost with the page cache.
        - Memory: rebuild from the rows behind the durability frontier
          (memory has no disk, so the frontier *is* its pretend disk).

        Crashes the backend first if the fault fired outside it (e.g. a
        store-level crash point).
        """
        self.crash()
        inner = self.inner
        if isinstance(inner, SQLiteBackend):
            if inner.path == ":memory:":
                raise BackendError(
                    "cannot recover a ':memory:' SQLite database: "
                    "use a file-backed store for crash schedules"
                )
            if self._fsync_image is not None and self._fsync_image[2]:
                recovered_path = inner.path + ".recovered"
                shutil.copyfile(self._fsync_image[2], recovered_path)
                return SQLiteBackend(recovered_path)
            return SQLiteBackend(inner.path)
        if isinstance(inner, MemoryBackend):
            if self._fsync_image is not None:
                surviving, state, __ = self._fsync_image
            else:
                surviving, state = self._durable_count, self._state_written
            recovered = MemoryBackend()
            pairs = zip(inner.iter_rows(), inner.iter_records())
            for __, (row, record) in zip(range(surviving), pairs):
                recovered.append_row(row, record)
            for key, payload in state.items():
                recovered.save_state(key, payload)
            return recovered
        raise BackendError(
            f"no recovery model for inner backend {inner.name!r}"
        )

    # -- lifecycle -----------------------------------------------------------

    def abort(self) -> None:
        self.crash()

    def close(self) -> None:
        if self._dead():
            return
        self.flush()
        self.inner.close()
