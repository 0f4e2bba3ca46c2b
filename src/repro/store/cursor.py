"""Change-feed cursors: plain ints for single backends, vectors for shards.

A cursor names a position in a backend's change feed.  Single backends
use a bare ``int`` (the 1-based sequence of the last consumed row);
:class:`~repro.store.backends.sharded.ShardedBackend` uses a
:class:`VectorCursor` holding one such sequence per shard, because the
shards advance independently and there is no global total order to
number.

The two representations interoperate through the helpers in this module
so that pre-sharding snapshots (``int`` cursors) restore cleanly under
the composite code path: an ``int`` compares against a vector only when
the vector has one component (the N=1 degenerate case) or when one side
is at position zero.  Any other cross-shape comparison is *incompatible*
and :func:`cursor_covers` answers ``False`` — callers treat that as a
stale snapshot and re-materialize cold, which is always safe.
"""

from __future__ import annotations

from typing import List, Sequence, Union


class VectorCursor:
    """An immutable per-shard position vector.

    ``seqs[i]`` is the last consumed 1-based sequence in shard ``i``.
    Vectors order by componentwise comparison (a partial order); use
    :func:`cursor_covers` rather than ``<=`` when one side may be an
    ``int`` from a pre-sharding snapshot.
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
        if isinstance(other, int):
            # An int is comparable as the N=1 degenerate vector, or as
            # zero (the empty position) against any all-zero vector.
            if len(self.seqs) == 1:
                return self.seqs[0] == other
            return other == 0 and not any(self.seqs)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        if len(self.seqs) == 1:
            return hash(self.seqs[0])  # match the degenerate int
        return hash(self.seqs)

    def __le__(self, other) -> bool:
        return cursor_covers(other, self)

    def __ge__(self, other) -> bool:
        return cursor_covers(self, other)

    def __repr__(self) -> str:
        return "VectorCursor(%r)" % (list(self.seqs),)

    def __str__(self) -> str:
        return "|".join(str(s) for s in self.seqs)


Cursor = Union[int, VectorCursor]


def cursor_total(cursor: Cursor) -> int:
    """Total rows consumed at ``cursor`` (sum over shards)."""
    if isinstance(cursor, VectorCursor):
        return cursor.total()
    return int(cursor)


def cursor_covers(a: Cursor, b: Cursor) -> bool:
    """True when position ``a`` has consumed every row that ``b`` has.

    Componentwise ``>=`` for same-shape vectors.  An ``int`` and a
    vector are comparable only in the degenerate cases (one component,
    or a zero side); incompatible shapes — a snapshot taken under a
    different shard count — answer ``False`` so callers fall back to a
    cold rebuild instead of replaying a feed that no longer lines up.
    """
    a_vec = isinstance(a, VectorCursor)
    b_vec = isinstance(b, VectorCursor)
    if a_vec and b_vec:
        if len(a.seqs) != len(b.seqs):
            return False
        return all(x >= y for x, y in zip(a.seqs, b.seqs))
    if not a_vec and not b_vec:
        return int(a) >= int(b)
    # Mixed shapes: normalize the int side where that is unambiguous.
    if a_vec:
        if len(a.seqs) == 1:
            return a.seqs[0] >= int(b)
        return int(b) == 0  # any position covers the empty one
    if len(b.seqs) == 1:
        return int(a) >= b.seqs[0]
    return not any(b.seqs)  # any valid position covers the empty one


def advance_cursor(cursor: Cursor, shard: int) -> Cursor:
    """Advance ``cursor`` by one row in shard ``shard``.

    Int cursors stay ints (they only ever describe shard 0).
    """
    if isinstance(cursor, VectorCursor):
        return cursor.advance(shard)
    if shard != 0:
        raise ValueError(
            "int cursor cannot advance shard %d; expected a VectorCursor"
            % shard
        )
    return int(cursor) + 1


def coerce_cursor(cursor: Cursor, shard_count: int) -> "VectorCursor":
    """Normalize ``cursor`` to a vector of length ``shard_count``.

    Accepts the zero int (empty position) for any shard count, any int
    for a single shard, and a matching-length vector.  Anything else is
    a cursor from a different sharding layout and raises ``ValueError``.
    """
    if isinstance(cursor, VectorCursor):
        if len(cursor.seqs) == shard_count:
            return cursor
        if not any(cursor.seqs):
            return VectorCursor([0] * shard_count)
        raise ValueError(
            "cursor %s has %d components; backend has %d shards"
            % (cursor, len(cursor.seqs), shard_count)
        )
    value = int(cursor)
    if value == 0:
        return VectorCursor([0] * shard_count)
    if shard_count == 1:
        return VectorCursor([value])
    raise ValueError(
        "int cursor %d is ambiguous for a %d-shard backend"
        % (value, shard_count)
    )


def cursor_to_wire(cursor: Cursor) -> Union[int, List[int]]:
    """JSON-serializable form: int stays int, vector becomes a list."""
    if isinstance(cursor, VectorCursor):
        return list(cursor.seqs)
    return int(cursor)


def cursor_from_wire(value) -> Cursor:
    """Inverse of :func:`cursor_to_wire` (also accepts tuples)."""
    if isinstance(value, (list, tuple)):
        return VectorCursor(value)
    return int(value)
