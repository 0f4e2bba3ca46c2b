"""Change-feed cursors: one position per shard.

A cursor names a position in a store's change feed.  Every store is a
:class:`~repro.store.backends.sharded.ShardedBackend` of N >= 1 shards,
so its cursor is a :class:`VectorCursor` holding one 1-based sequence
per shard: the shards advance independently and there is no global
total order to number.  A child backend's own position is a plain
``int`` (its component of the vector).

Snapshots and wire replies written before every store was sharded carry
a bare ``int``.  They are coerced once, where they are read back
(:func:`coerce_cursor`, :func:`cursor_from_wire`); everywhere else a
cursor is a vector.  A cursor from a different shard layout does not
coerce, and callers treat that as a stale snapshot and re-materialize
cold, which is always safe.
"""

from __future__ import annotations

from typing import List, Sequence


class VectorCursor:
    """An immutable per-shard position vector.

    ``seqs[i]`` is the last consumed 1-based sequence in shard ``i``.
    Vectors order by componentwise comparison (a partial order); vectors
    of different lengths are incomparable.
    """

    __slots__ = ("seqs",)

    def __init__(self, seqs: Sequence[int]):
        object.__setattr__(self, "seqs", tuple(int(s) for s in seqs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("VectorCursor is immutable")

    def total(self) -> int:
        """Total rows consumed across all shards."""
        return sum(self.seqs)

    def advance(self, shard: int) -> "VectorCursor":
        """A new cursor with shard ``shard`` advanced by one row."""
        seqs = list(self.seqs)
        seqs[shard] += 1
        return VectorCursor(seqs)

    def __len__(self) -> int:
        return len(self.seqs)

    def __eq__(self, other) -> bool:
        if isinstance(other, VectorCursor):
            return self.seqs == other.seqs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.seqs)

    def __le__(self, other) -> bool:
        return cursor_covers(other, self)

    def __ge__(self, other) -> bool:
        return cursor_covers(self, other)

    def __repr__(self) -> str:
        return "VectorCursor(%r)" % (list(self.seqs),)

    def __str__(self) -> str:
        return "|".join(str(s) for s in self.seqs)


def cursor_covers(a: VectorCursor, b: VectorCursor) -> bool:
    """True when position ``a`` has consumed every row that ``b`` has.

    Componentwise ``>=``.  Vectors of different lengths come from
    different shard layouts and answer ``False``, so callers fall back
    to a cold rebuild instead of replaying a feed that no longer lines
    up.
    """
    if len(a.seqs) != len(b.seqs):
        return False
    return all(x >= y for x, y in zip(a.seqs, b.seqs))


def coerce_cursor(cursor, shard_count: int) -> VectorCursor:
    """A stored cursor as a vector of length ``shard_count``.

    The restore boundary: accepts a vector (or its wire list) of matching
    length, and a pre-sharding ``int`` — zero for any shard count, any
    value for a single shard.  Anything else is a cursor from a different
    sharding layout and raises ``ValueError``.
    """
    if isinstance(cursor, int):
        if cursor == 0:
            return VectorCursor([0] * shard_count)
        if shard_count == 1:
            return VectorCursor([cursor])
        raise ValueError(
            "int cursor %d is ambiguous for a %d-shard backend"
            % (cursor, shard_count)
        )
    vector = (
        cursor if isinstance(cursor, VectorCursor) else VectorCursor(cursor)
    )
    if len(vector) != shard_count:
        raise ValueError(
            "cursor %s has %d components; backend has %d shards"
            % (vector, len(vector), shard_count)
        )
    return vector


def cursor_to_wire(cursor: VectorCursor) -> List[int]:
    """JSON-serializable form: the list of per-shard sequences."""
    return list(cursor.seqs)


def cursor_from_wire(value) -> VectorCursor:
    """Inverse of :func:`cursor_to_wire` (also accepts tuples).

    A bare ``int`` is a reply from a server that predates sharded
    stores, whose one store was one shard: it reads as that shard's
    position.
    """
    if isinstance(value, int):
        return VectorCursor([value])
    return VectorCursor(value)
