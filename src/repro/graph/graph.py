"""The provenance graph structure.

A directed multigraph whose nodes are Data/Task/Resource/Custom records and
whose edges are Relation records.  The graph is a *view* built from a store;
it holds the records themselves so that queries against node attributes need
no store round-trip.  Compliance verification only asks whether typed edges
exist (§II.C), so the structure is plain nested dicts keyed by record id,
and the rest of the library speaks provenance vocabulary (record classes,
relation types) throughout.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import GraphError
from repro.model.records import (
    ProvenanceRecord,
    RecordClass,
    RelationRecord,
)


class ProvenanceGraph:
    """Typed directed multigraph over provenance records.

    Edges live in insertion-ordered nested dicts: ``_succ[u][v]`` maps a
    relation id to its record, and ``_pred[v][u]`` is the *same* inner
    dict.  Iteration order is therefore source nodes in insertion order,
    then each node's neighbours in first-seen order, then relation ids;
    re-adding a relation id overwrites that edge in place.
    """

    def __init__(self, name: str = "provenance") -> None:
        self.name = name
        self._records: Dict[str, ProvenanceRecord] = {}
        self._succ: Dict[str, Dict[str, Dict[str, RelationRecord]]] = {}
        self._pred: Dict[str, Dict[str, Dict[str, RelationRecord]]] = {}
        self._edge_count = 0
        # Typed-adjacency caches for the rule engine's hot path:
        # node id → relation type → relations, built lazily per node in
        # the uncached path's edge order, invalidated per endpoint on
        # mutation.
        self._in_cache: Dict[str, Dict[str, List[RelationRecord]]] = {}
        self._out_cache: Dict[str, Dict[str, List[RelationRecord]]] = {}

    # -- construction --------------------------------------------------------

    def add_node_record(self, record: ProvenanceRecord) -> None:
        """Add a node record (idempotent for identical records)."""
        if isinstance(record, RelationRecord):
            raise GraphError(
                f"{record.record_id} is a relation; use add_relation_record"
            )
        existing = self._records.get(record.record_id)
        if existing is not None and existing != record:
            raise GraphError(
                f"conflicting node record for id {record.record_id}"
            )
        self._records[record.record_id] = record
        self._succ.setdefault(record.record_id, {})
        self._pred.setdefault(record.record_id, {})

    def add_relation_record(self, relation: RelationRecord) -> None:
        """Add an edge; both endpoints must already be nodes.

        Dangling relations are a fact of life in partially managed processes
        (the node's event was never captured); callers decide whether to
        skip or raise — the graph itself refuses silently-broken edges.
        """
        source, target = relation.source_id, relation.target_id
        if source not in self._records:
            raise GraphError(
                f"relation {relation.record_id}: unknown source {source}"
            )
        if target not in self._records:
            raise GraphError(
                f"relation {relation.record_id}: unknown target {target}"
            )
        keyed = self._succ[source].get(target)
        if keyed is None:
            keyed = self._succ[source][target] = {}
            self._pred[target][source] = keyed
        if relation.record_id not in keyed:
            self._edge_count += 1
        keyed[relation.record_id] = relation
        self._out_cache.pop(source, None)
        self._in_cache.pop(target, None)

    # -- nodes ---------------------------------------------------------------

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._records

    def node(self, record_id: str) -> ProvenanceRecord:
        try:
            return self._records[record_id]
        except KeyError:
            raise GraphError(f"no node {record_id!r} in graph") from None

    def nodes(
        self,
        record_class: Optional[RecordClass] = None,
        entity_type: Optional[str] = None,
    ) -> List[ProvenanceRecord]:
        """All node records, optionally filtered by class and/or type."""
        result = []
        for record in self._records.values():
            if record_class is not None and record.record_class is not record_class:
                continue
            if entity_type is not None and record.entity_type != entity_type:
                continue
            result.append(record)
        return result

    @property
    def node_count(self) -> int:
        return len(self._records)

    # -- edges ---------------------------------------------------------------

    @staticmethod
    def _flatten(
        adjacency: Dict[str, Dict[str, RelationRecord]]
    ) -> List[RelationRecord]:
        return [
            relation
            for keyed in adjacency.values()
            for relation in keyed.values()
        ]

    def edges(
        self, relation_type: Optional[str] = None
    ) -> List[RelationRecord]:
        """All relation records, optionally of one type."""
        result = []
        for adjacency in self._succ.values():
            for relation in self._flatten(adjacency):
                if relation_type is None or relation.entity_type == relation_type:
                    result.append(relation)
        return result

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def _typed(
        self,
        record_id: str,
        relation_type: Optional[str],
        adjacency: Dict[str, Dict[str, Dict[str, RelationRecord]]],
        cache: Dict[str, Dict[str, List[RelationRecord]]],
    ) -> List[RelationRecord]:
        if record_id not in self._records:
            return []
        if relation_type is None:
            return self._flatten(adjacency[record_id])
        per_type = cache.get(record_id)
        if per_type is None:
            per_type = {}
            for relation in self._flatten(adjacency[record_id]):
                per_type.setdefault(relation.entity_type, []).append(relation)
            cache[record_id] = per_type
        return list(per_type.get(relation_type, ()))

    def edges_from(
        self, record_id: str, relation_type: Optional[str] = None
    ) -> List[RelationRecord]:
        """Outgoing relations of a node, optionally of one type."""
        return self._typed(record_id, relation_type, self._succ, self._out_cache)

    def edges_to(
        self, record_id: str, relation_type: Optional[str] = None
    ) -> List[RelationRecord]:
        """Incoming relations of a node, optionally of one type."""
        return self._typed(record_id, relation_type, self._pred, self._in_cache)

    def has_edge(
        self, source_id: str, target_id: str, relation_type: Optional[str] = None
    ) -> bool:
        """Whether an edge (optionally of a type) exists between two nodes.

        This is the primitive compliance verification reduces to: "the
        compliance status of the internal control point is verified by
        checking if the edges specified in the definition […] exist" (§II.C).
        """
        keyed = self._succ.get(source_id, {}).get(target_id)
        if not keyed:
            return False
        if relation_type is None:
            return True
        return any(
            relation.entity_type == relation_type
            for relation in keyed.values()
        )

    # -- derived graphs ------------------------------------------------------

    def subgraph(self, record_ids: List[str]) -> "ProvenanceGraph":
        """A new graph containing only the given nodes and edges among them."""
        sub = ProvenanceGraph(name=f"{self.name}-sub")
        wanted = set(record_ids)
        for record_id in record_ids:
            if record_id in self._records:
                sub.add_node_record(self._records[record_id])
        for relation in self.edges():
            if relation.source_id in wanted and relation.target_id in wanted:
                if relation.source_id in sub._records and (
                    relation.target_id in sub._records
                ):
                    sub.add_relation_record(relation)
        return sub

    def census(self) -> Dict[str, int]:
        """Node/edge counts by class and relation type (Figure 2 stats)."""
        counts: Dict[str, int] = {}
        for record in self._records.values():
            key = f"node:{record.record_class.value}"
            counts[key] = counts.get(key, 0) + 1
        for relation in self.edges():
            key = f"edge:{relation.entity_type}"
            counts[key] = counts.get(key, 0) + 1
        return counts
