"""Linking controls to the provenance graph.

"The internal control is created during the execution of the traces as a
custom node and connected to the Job Requisition, Approval Status and the
Candidate List data nodes" (§II.C); "linking the internal controls to the
provenance graph is done automatically" (§III).

The :class:`ControlBinder` materializes a compliance result as provenance:
a Custom record of type ``controlpoint`` carrying the control name and
status, plus ``checks*`` relation records to every node the rule's
definitions bound.  Because these are ordinary store rows, the control
point *is* a subgraph of the provenance graph, queryable like any other
provenance — which is how dashboards read compliance without a side channel.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.controls.status import ComplianceResult
from repro.errors import BindingError
from repro.ids import IdFactory
from repro.model.records import (
    CustomRecord,
    ProvenanceRecord,
    RecordClass,
    RelationRecord,
)
from repro.model.schema import (
    NodeTypeSpec,
    ProvenanceDataModel,
    RelationTypeSpec,
)
from repro.store.store import ProvenanceStore

CONTROL_NODE_TYPE = "controlpoint"

#: id prefixes control points (``CTL1`` …) and their edges (``CTLE1`` …)
#: are minted under.
_NODE_PREFIX = "CTL"
_EDGE_PREFIX = "CTLE"

# Relation type emitted per record class of the checked node.
_CHECK_RELATIONS = {
    RecordClass.DATA: "checks",
    RecordClass.RESOURCE: "checksResource",
    RecordClass.TASK: "checksTask",
    RecordClass.CUSTOM: "checksCustom",
}


def ensure_control_schema(model: ProvenanceDataModel) -> None:
    """Declare the control-point node and relation types on *model*.

    Idempotent; deployment calls it so business scopes need no manual schema
    work before controls arrive (the Custom class is "an extension point").
    """
    if not model.has_node_type(CONTROL_NODE_TYPE):
        model.add_node_type(
            NodeTypeSpec(
                name=CONTROL_NODE_TYPE,
                record_class=RecordClass.CUSTOM,
                label="Internal Control",
            )
        )
    for record_class, relation_name in _CHECK_RELATIONS.items():
        if not model.has_relation_type(relation_name):
            model.add_relation_type(
                RelationTypeSpec(
                    name=relation_name,
                    source_class=RecordClass.CUSTOM,
                    target_class=record_class,
                    label="checks",
                )
            )


def control_ids(store: ProvenanceStore) -> IdFactory:
    """An id factory continuing *store*'s ``CTL<n>`` and ``CTLE<n>``
    sequences, like :func:`~repro.capture.correlation.relation_ids`: one
    backend aggregate per prefix, no row decoded, and every minted id new
    to every shard."""
    ids = IdFactory()
    for prefix in (_NODE_PREFIX, _EDGE_PREFIX):
        highest = store.backend.highest_id(prefix)
        if highest:
            ids.seed(prefix, highest + 1)
    return ids


class ControlBinder:
    """Writes control-point nodes and their edges into a store.

    Args:
        store: the store the control points are appended to.
        ids: control id factory; defaults to :func:`control_ids`, which
            continues the store's ``CTL<n>``/``CTLE<n>`` sequences.
    """

    def __init__(
        self, store: ProvenanceStore, ids: Optional[IdFactory] = None
    ) -> None:
        self.store = store
        self.ids = ids if ids is not None else control_ids(store)
        if store.model is not None:
            ensure_control_schema(store.model)

    def bind(self, result: ComplianceResult) -> CustomRecord:
        """Materialize *result* as a control-point subgraph; returns the
        custom node.  The result's ``control_node_id`` is filled in."""
        control_node = CustomRecord.create(
            record_id=self.ids.next(_NODE_PREFIX),
            app_id=result.trace_id,
            entity_type=CONTROL_NODE_TYPE,
            timestamp=result.checked_at,
            attributes={
                "control": result.control_name,
                "status": result.status.value,
                "alerts": "; ".join(result.alerts),
            },
        )
        self.store.append(control_node)

        # Edges: definition-bound nodes get their variable name; nodes the
        # conditions navigated to without naming get "condition".
        edges: Dict[str, str] = {}
        for node_id in result.touched_nodes:
            edges[node_id] = "condition"
        for var, node_id in sorted(result.bound_nodes.items()):
            if node_id is not None:
                edges[node_id] = var

        for node_id in sorted(edges):
            try:
                target = self.store.get(node_id)
            except Exception as exc:
                raise BindingError(
                    f"control {result.control_name!r} bound unknown node "
                    f"{node_id!r}"
                ) from exc
            self.store.append(
                RelationRecord.create(
                    record_id=self.ids.next(_EDGE_PREFIX),
                    app_id=result.trace_id,
                    entity_type=_CHECK_RELATIONS[target.record_class],
                    source_id=control_node.record_id,
                    target_id=node_id,
                    timestamp=result.checked_at,
                    attributes={"binds": edges[node_id]},
                )
            )
        result.control_node_id = control_node.record_id
        return control_node

    def bound_results(
        self, trace_id: Optional[str] = None
    ) -> List[ProvenanceRecord]:
        """All control-point nodes in the store (optionally one trace)."""
        from repro.store.query import RecordQuery

        query = RecordQuery(
            record_class=RecordClass.CUSTOM,
            entity_type=CONTROL_NODE_TYPE,
            app_id=trace_id,
        )
        return self.store.select(query)
