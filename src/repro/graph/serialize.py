"""Graph serialization for visualization.

Figure 2 of the paper visualizes a trace "as a graph […] the various icons
such as person, gear, and notepad represent resources, tasks and data items
respectively".  We render to Graphviz DOT (shape per record class: person →
ellipse, task → box ("gear"), data → note ("notepad"), custom → diamond),
to JSON for programmatic use, and to a plain-text census table for the
benchmark harness.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.graph.graph import ProvenanceGraph
from repro.model.records import RecordClass

_SHAPES = {
    RecordClass.RESOURCE: "ellipse",
    RecordClass.TASK: "box",
    RecordClass.DATA: "note",
    RecordClass.CUSTOM: "diamond",
}


def _node_label(record) -> str:
    label = record.entity_type
    name = record.get("name") or record.get("reqid") or record.get("label")
    if name:
        label = f"{label}\\n{name}"
    return label


def to_dot(graph: ProvenanceGraph) -> str:
    """Render the graph as Graphviz DOT text (Figure 2 style)."""
    lines = [f'digraph "{graph.name}" {{', "  rankdir=LR;"]
    for record in sorted(graph.nodes(), key=lambda r: r.record_id):
        shape = _SHAPES.get(record.record_class, "ellipse")
        lines.append(
            f'  "{record.record_id}" '
            f'[label="{_node_label(record)}", shape={shape}];'
        )
    for relation in sorted(graph.edges(), key=lambda r: r.record_id):
        lines.append(
            f'  "{relation.source_id}" -> "{relation.target_id}" '
            f'[label="{relation.entity_type}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def to_json(graph: ProvenanceGraph) -> str:
    """Render the graph as a JSON document (nodes + edges with attributes)."""
    payload = {
        "name": graph.name,
        "nodes": [
            {
                "id": record.record_id,
                "class": record.record_class.value,
                "type": record.entity_type,
                "app_id": record.app_id,
                "timestamp": record.timestamp,
                "attributes": record.attributes,
            }
            for record in sorted(graph.nodes(), key=lambda r: r.record_id)
        ],
        "edges": [
            {
                "id": relation.record_id,
                "type": relation.entity_type,
                "source": relation.source_id,
                "target": relation.target_id,
            }
            for relation in sorted(graph.edges(), key=lambda r: r.record_id)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def trace_census(graph: ProvenanceGraph) -> List[str]:
    """Plain-text census lines: node and edge counts by type.

    The Figure-2 benchmark prints these lines as its regenerated "figure".
    """
    lines = [f"trace graph {graph.name!r}: "
             f"{graph.node_count} nodes, {graph.edge_count} edges"]
    by_class: Dict[str, List[str]] = {}
    for record in graph.nodes():
        by_class.setdefault(record.record_class.value, []).append(
            record.entity_type
        )
    for class_name in ("Resource", "Task", "Data", "Custom"):
        types = by_class.get(class_name, [])
        if not types:
            continue
        counted: Dict[str, int] = {}
        for entity_type in types:
            counted[entity_type] = counted.get(entity_type, 0) + 1
        rendered = ", ".join(
            f"{name} x{count}" if count > 1 else name
            for name, count in sorted(counted.items())
        )
        lines.append(f"  {class_name}: {rendered}")
    edge_counts: Dict[str, int] = {}
    for relation in graph.edges():
        edge_counts[relation.entity_type] = (
            edge_counts.get(relation.entity_type, 0) + 1
        )
    if edge_counts:
        rendered = ", ".join(
            f"{name} x{count}" if count > 1 else name
            for name, count in sorted(edge_counts.items())
        )
        lines.append(f"  Relations: {rendered}")
    return lines
