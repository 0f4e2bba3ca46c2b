"""Unit tests for the provenance graph structure and building."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import GraphError
from repro.graph.build import BuildReport, build_graph, build_trace_graph
from repro.graph.graph import ProvenanceGraph
from repro.model.records import (
    DataRecord,
    RecordClass,
    RelationRecord,
    ResourceRecord,
    TaskRecord,
)
from repro.store.store import ProvenanceStore


def person(record_id="R1", app_id="App01"):
    return ResourceRecord.create(
        record_id, app_id, "person", attributes={"name": "Joe Doe"}
    )


def requisition(record_id="D1", app_id="App01"):
    return DataRecord.create(
        record_id, app_id, "jobrequisition", attributes={"reqid": "Req001"}
    )


def submitter_edge(record_id="E1", source="R1", target="D1", app_id="App01"):
    return RelationRecord.create(
        record_id, app_id, "submitterOf", source_id=source, target_id=target
    )


@pytest.fixture
def graph():
    graph = ProvenanceGraph("t")
    graph.add_node_record(person())
    graph.add_node_record(requisition())
    graph.add_relation_record(submitter_edge())
    return graph


class TestGraphStructure:
    def test_counts(self, graph):
        assert graph.node_count == 2
        assert graph.edge_count == 1

    def test_relation_rejected_as_node(self, graph):
        with pytest.raises(GraphError):
            graph.add_node_record(submitter_edge("E9"))

    def test_idempotent_node_add(self, graph):
        graph.add_node_record(person())
        assert graph.node_count == 2

    def test_conflicting_node_rejected(self, graph):
        conflicting = ResourceRecord.create(
            "R1", "App01", "person", attributes={"name": "Someone Else"}
        )
        with pytest.raises(GraphError):
            graph.add_node_record(conflicting)

    def test_dangling_edge_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.add_relation_record(
                submitter_edge("E2", source="R1", target="MISSING")
            )
        with pytest.raises(GraphError):
            graph.add_relation_record(
                submitter_edge("E3", source="MISSING", target="D1")
            )

    def test_node_lookup(self, graph):
        assert graph.node("R1").get("name") == "Joe Doe"
        with pytest.raises(GraphError):
            graph.node("ZZ")
        assert "R1" in graph
        assert "ZZ" not in graph

    def test_nodes_filtered(self, graph):
        assert [r.record_id for r in graph.nodes(RecordClass.RESOURCE)] == ["R1"]
        assert [
            r.record_id for r in graph.nodes(entity_type="jobrequisition")
        ] == ["D1"]
        assert graph.nodes(RecordClass.TASK) == []

    def test_edges_filtered(self, graph):
        assert len(graph.edges("submitterOf")) == 1
        assert graph.edges("other") == []

    def test_edges_from_to(self, graph):
        assert [r.record_id for r in graph.edges_from("R1")] == ["E1"]
        assert [r.record_id for r in graph.edges_to("D1")] == ["E1"]
        assert graph.edges_from("D1") == []
        assert graph.edges_from("UNKNOWN") == []

    def test_has_edge(self, graph):
        assert graph.has_edge("R1", "D1")
        assert graph.has_edge("R1", "D1", "submitterOf")
        assert not graph.has_edge("R1", "D1", "approvalOf")
        assert not graph.has_edge("D1", "R1")

    def test_parallel_edges_of_different_types(self, graph):
        graph.add_relation_record(
            RelationRecord.create(
                "E2", "App01", "generates", source_id="R1", target_id="D1"
            )
        )
        assert graph.edge_count == 2
        assert graph.has_edge("R1", "D1", "generates")
        assert graph.has_edge("R1", "D1", "submitterOf")

    def test_subgraph(self, graph):
        graph.add_node_record(TaskRecord.create("T1", "App01", "submission"))
        sub = graph.subgraph(["R1", "D1"])
        assert sub.node_count == 2
        assert sub.edge_count == 1
        assert "T1" not in sub

    def test_census(self, graph):
        census = graph.census()
        assert census["node:Resource"] == 1
        assert census["node:Data"] == 1
        assert census["edge:submitterOf"] == 1



class TestEdgeOrder:
    """The iteration-order contract the rule engine and renderers see:
    source nodes in insertion order, then each node's neighbours in
    first-seen order, then relation ids — not global insertion order."""

    @pytest.fixture
    def abc(self):
        graph = ProvenanceGraph("order")
        for record_id in ("A", "B", "C"):
            graph.add_node_record(TaskRecord.create(record_id, "App01", "t"))
        for record_id, target, kind in (
            ("r1", "B", "x"), ("r2", "C", "y"), ("r3", "B", "y"),
        ):
            graph.add_relation_record(
                RelationRecord.create(
                    record_id, "App01", kind, source_id="A", target_id=target
                )
            )
        return graph

    @staticmethod
    def ids(relations):
        return [relation.record_id for relation in relations]

    def test_edges_are_grouped_by_neighbour(self, abc):
        assert self.ids(abc.edges_from("A")) == ["r1", "r3", "r2"]
        assert self.ids(abc.edges()) == ["r1", "r3", "r2"]
        assert self.ids(abc.edges_to("B")) == ["r1", "r3"]
        assert self.ids(abc.edges_to("C")) == ["r2"]
        assert self.ids(abc.edges_from("A", "y")) == ["r3", "r2"]

    def test_edges_to_groups_by_predecessor(self, abc):
        for record_id, source in (("r4", "C"), ("r5", "A")):
            abc.add_relation_record(
                RelationRecord.create(
                    record_id, "App01", "z", source_id=source, target_id="B"
                )
            )
        assert self.ids(abc.edges_to("B")) == ["r1", "r3", "r5", "r4"]
        assert self.ids(abc.edges()) == ["r1", "r3", "r5", "r2", "r4"]

    def test_readding_a_relation_id_overwrites_in_place(self, abc):
        abc.edges_from("A", "x")  # warm the typed cache
        abc.add_relation_record(
            RelationRecord.create(
                "r1", "App01", "w", source_id="A", target_id="B"
            )
        )
        assert abc.edge_count == 3
        assert self.ids(abc.edges_from("A")) == ["r1", "r3", "r2"]
        assert abc.edges_from("A", "x") == []
        assert self.ids(abc.edges_from("A", "w")) == ["r1"]

    def test_typed_has_edge(self, abc):
        assert abc.has_edge("A", "B", "y")
        assert abc.has_edge("A", "B", "x")
        assert not abc.has_edge("A", "C", "x")
        assert not abc.has_edge("B", "A")
        assert not abc.has_edge("UNKNOWN", "A")


def test_cli_and_service_import_without_networkx():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.cli, repro.service; "
            "print('networkx' in sys.modules)",
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    assert completed.stdout.strip() == "False"

class TestBuildGraph:
    @pytest.fixture
    def store(self):
        store = ProvenanceStore()
        store.append(person())
        store.append(requisition())
        store.append(submitter_edge())
        store.append(person("R2", app_id="App02"))
        store.append(requisition("D2", app_id="App02"))
        # Dangling: target was never captured (partial visibility).
        store.append(
            submitter_edge("E2", source="R2", target="GONE", app_id="App02")
        )
        return store

    def test_build_whole_store(self, store):
        report = BuildReport()
        graph = build_graph(store, report=report)
        assert graph.node_count == 4
        assert graph.edge_count == 1
        assert report.dangling_count == 1
        assert report.dangling_relations == ["E2"]

    def test_build_single_trace(self, store):
        graph = build_trace_graph(store, "App01")
        assert graph.node_count == 2
        assert graph.edge_count == 1
        assert graph.name == "App01"

    def test_build_trace_with_dangling(self, store):
        report = BuildReport()
        graph = build_trace_graph(store, "App02", report=report)
        assert graph.node_count == 2
        assert graph.edge_count == 0
        assert report.dangling_count == 1
