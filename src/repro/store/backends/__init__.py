"""Pluggable storage backends for the provenance store.

The store's physical Table I rows live behind the
:class:`~repro.store.backends.base.StorageBackend` seam; two
implementations ship:

- :class:`~repro.store.backends.memory.MemoryBackend` — rows in a list,
  records in a dict; the zero-copy default.
- :class:`~repro.store.backends.sqlite.SQLiteBackend` — rows in a SQLite
  table (WAL, batched transactions, LRU-cached lazy decoding); durable
  across runs via ``--db``.
- :class:`~repro.store.backends.sharded.ShardedBackend` — a composite
  that routes rows to N >= 1 child backends by stable APPID hash and
  merges their change feeds under a vector cursor (``--shards N``).
  Every store holds one: a plain backend is wrapped as its one shard.

:func:`create_backend` is the name registry used by CLI flags and
:class:`~repro.processes.workload.Workload` parameters; register new
backends there (see ``docs/EXTENDING.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import BackendError
from repro.store.backends.base import StorageBackend
from repro.store.backends.memory import MemoryBackend
from repro.store.backends.sharded import ShardedBackend
from repro.store.backends.sqlite import SQLiteBackend


def _make_memory(path: Optional[str] = None, **options) -> StorageBackend:
    if path is not None:
        raise BackendError("the memory backend takes no --db path")
    return MemoryBackend(**options)


def _make_sqlite(path: Optional[str] = None, **options) -> StorageBackend:
    return SQLiteBackend(path or ":memory:", **options)


def _make_sharded(
    path: Optional[str] = None, shards: int = 2, **options
) -> StorageBackend:
    if shards < 1:
        raise BackendError("sharded backend needs shards >= 1")
    if path is not None:
        return ShardedBackend.for_sqlite(path, shards, **options)
    return ShardedBackend([MemoryBackend(**options) for _ in range(shards)])


BACKENDS: Dict[str, Callable[..., StorageBackend]] = {
    "memory": _make_memory,
    "sqlite": _make_sqlite,
    "sharded": _make_sharded,
}


def create_backend(
    name: str, path: Optional[str] = None, **options
) -> StorageBackend:
    """Instantiate a backend by registry name.

    Args:
        name: one of :data:`BACKENDS` (``"memory"``, ``"sqlite"``).
        path: database path for backends that persist; ``None`` keeps the
            backend ephemeral.
        options: backend-specific keyword arguments (batch sizes, cache
            capacity, …).
    """
    try:
        factory = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise BackendError(
            f"unknown storage backend {name!r} (known: {known})"
        ) from None
    return factory(path=path, **options)


__all__ = [
    "BACKENDS",
    "MemoryBackend",
    "ShardedBackend",
    "SQLiteBackend",
    "StorageBackend",
    "create_backend",
]
