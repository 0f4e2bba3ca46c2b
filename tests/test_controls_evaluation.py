"""Integration tests: evaluator, binder, deployment, dashboard.

These exercise the full §III flow: author a control in BAL, evaluate it
against stored traces, materialize control-point subgraphs, and watch the
dashboard.
"""

import pytest

from repro.controls.authoring import ControlAuthoringTool
from repro.controls.binding import CONTROL_NODE_TYPE, ControlBinder
from repro.controls.control import ControlSeverity
from repro.controls.dashboard import ComplianceDashboard
from repro.controls.deployment import ControlDeployment
from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.status import ComplianceStatus
from repro.errors import DeploymentError
from repro.graph.build import build_trace_graph
from repro.store.store import ProvenanceStore
from tests.conftest import build_hiring_trace

GM_CONTROL = """
definitions
  set 'req' to a Job Requisition where the position type of this is "new" ;
if
  all of the following conditions are true :
    - the approval of 'req' is not null ,
    - the candidate list of 'req' is not null
then
  the internal control is satisfied
else
  the internal control is not satisfied ;
  alert "new position without GM approval evidence"
"""


def populate_store(model, traces):
    """Copy prepared trace graphs into a model-validated store."""
    store = ProvenanceStore(model=model)
    for graph in traces:
        for record in sorted(graph.nodes(), key=lambda r: r.record_id):
            store.append(record)
        for relation in sorted(graph.edges(), key=lambda r: r.record_id):
            store.append(relation)
    return store


@pytest.fixture
def store(hiring_model):
    return populate_store(
        hiring_model,
        [
            build_hiring_trace("App01"),  # compliant
            build_hiring_trace("App02", with_approval=False),  # violation
            build_hiring_trace("App03", position_type="existing"),  # n/a
        ],
    )


@pytest.fixture
def tool(hiring_vocabulary):
    tool = ControlAuthoringTool(hiring_vocabulary)
    tool.author(
        "gm-approval",
        GM_CONTROL,
        severity=ControlSeverity.HIGH,
        description="New positions need GM approval before candidate search",
    )
    tool.deploy("gm-approval")
    return tool


class TestComplianceEvaluator:
    def test_statuses_per_trace(self, store, tool, hiring_xom,
                                hiring_vocabulary):
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        control = tool.control("gm-approval")
        results = evaluator.check_all_traces(control)
        statuses = {r.trace_id: r.status for r in results}
        assert statuses == {
            "App01": ComplianceStatus.SATISFIED,
            "App02": ComplianceStatus.VIOLATED,
            "App03": ComplianceStatus.NOT_APPLICABLE,
        }

    def test_run_many_controls(self, store, tool, hiring_xom,
                               hiring_vocabulary):
        tool.author(
            "has-submitter",
            "definitions set 'req' to a Job Requisition ; "
            "if the submitter of 'req' is not null "
            "then the internal control is satisfied",
        )
        tool.deploy("has-submitter")
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        results = evaluator.run(tool.deployed_controls())
        assert len(results) == 6  # 2 controls x 3 traces
        summary = evaluator.summary(results)
        assert summary["has-submitter"]["satisfied"] == 3
        assert summary["gm-approval"]["violated"] == 1

    def test_violations_filter(self, store, tool, hiring_xom,
                               hiring_vocabulary):
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        results = evaluator.check_all_traces(tool.control("gm-approval"))
        violations = evaluator.violations(results)
        assert [v.trace_id for v in violations] == ["App02"]
        assert violations[0].alerts == [
            "new position without GM approval evidence"
        ]

    def test_checked_at_is_trace_horizon(self, store, tool, hiring_xom,
                                         hiring_vocabulary):
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        result = evaluator.check_trace(tool.control("gm-approval"), "App01")
        assert result.checked_at == 30  # candidate list timestamp


class TestControlBinder:
    def test_bind_creates_custom_node_and_edges(
        self, store, tool, hiring_xom, hiring_vocabulary
    ):
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        result = evaluator.check_trace(tool.control("gm-approval"), "App01")
        binder = ControlBinder(store)
        node = binder.bind(result)

        assert result.control_node_id == node.record_id
        assert node.entity_type == CONTROL_NODE_TYPE
        assert node.get("control") == "gm-approval"
        assert node.get("status") == "satisfied"

        edges = store.relations_from(node.record_id)
        targets = {e.target_id for e in edges}
        assert targets == {"App01-D1", "App01-D2", "App01-D3"}
        assert all(e.entity_type == "checks" for e in edges)

    def test_control_point_is_subgraph_of_trace_graph(
        self, store, tool, hiring_xom, hiring_vocabulary
    ):
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        result = evaluator.check_trace(tool.control("gm-approval"), "App01")
        ControlBinder(store).bind(result)
        graph = build_trace_graph(store, "App01")
        control_nodes = graph.nodes(entity_type=CONTROL_NODE_TYPE)
        assert len(control_nodes) == 1
        control_id = control_nodes[0].record_id
        assert graph.has_edge(control_id, "App01-D1", "checks")
        assert graph.has_edge(control_id, "App01-D2", "checks")

    def test_bound_results_query(self, store, tool, hiring_xom,
                                 hiring_vocabulary):
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        binder = ControlBinder(store)
        for result in evaluator.check_all_traces(tool.control("gm-approval")):
            binder.bind(result)
        assert len(binder.bound_results()) == 3
        assert len(binder.bound_results("App02")) == 1
        violated = binder.bound_results("App02")[0]
        assert violated.get("status") == "violated"

    def test_fresh_binder_continues_stored_ids_without_probing(
        self, store, tool, hiring_xom, hiring_vocabulary, monkeypatch
    ):
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        results = evaluator.check_all_traces(tool.control("gm-approval"))
        first = ControlBinder(store)
        for result in results[:2]:
            first.bind(result)
        edges = sum(
            1 for r in store.records() if r.entity_type.startswith("checks")
        )
        probes = []
        child = store.backend.shard(0)
        original = child.contains
        monkeypatch.setattr(
            child, "contains",
            lambda record_id: probes.append(record_id) or original(record_id),
        )
        # A fresh binder over a store already holding CTL rows seeds from
        # the stored ids: one aggregate per prefix, no id probed.
        fresh = ControlBinder(store)
        assert fresh.ids.next("CTL") == "CTL3"
        assert fresh.ids.next("CTLE") == f"CTLE{edges + 1}"
        assert probes == []
        node = ControlBinder(store).bind(results[2])
        assert node.record_id == "CTL3"


class TestControlDeployment:
    def test_deploy_checks_existing_traces(
        self, store, tool, hiring_xom, hiring_vocabulary
    ):
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        deployment.deploy(tool.control("gm-approval"))
        assert deployment.latest("gm-approval", "App01").status is (
            ComplianceStatus.SATISFIED
        )
        assert deployment.latest("gm-approval", "App02").status is (
            ComplianceStatus.VIOLATED
        )

    def test_new_evidence_flips_violation(
        self, hiring_model, tool, hiring_xom, hiring_vocabulary
    ):
        # A trace starts without approval (violated), then the approval
        # arrives and the deployed control re-checks to satisfied.
        incomplete = build_hiring_trace("App10", with_approval=False)
        store = populate_store(hiring_model, [incomplete])
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        deployment.deploy(tool.control("gm-approval"))
        assert deployment.latest("gm-approval", "App10").status is (
            ComplianceStatus.VIOLATED
        )

        complete = build_hiring_trace("App10")
        store.append(complete.node("App10-D2"))
        for relation in complete.edges("approvalOf"):
            store.append(relation)

        assert deployment.latest("gm-approval", "App10").status is (
            ComplianceStatus.SATISFIED
        )

    def test_irrelevant_records_do_not_recheck(
        self, hiring_model, tool, hiring_xom, hiring_vocabulary
    ):
        store = populate_store(hiring_model, [build_hiring_trace("App20")])
        deployment = ControlDeployment(
            store, hiring_xom, hiring_vocabulary, bind_results=False
        )
        deployment.deploy(tool.control("gm-approval"))
        baseline = deployment.rechecks
        # A task record is irrelevant to the control's concepts.
        from repro.model.records import TaskRecord

        store.append(
            TaskRecord.create("App20-T9", "App20", "submission")
        )
        assert deployment.rechecks == baseline

    def test_own_control_rows_do_not_recheck(
        self, store, tool, hiring_xom, hiring_vocabulary
    ):
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        deployment.deploy(tool.control("gm-approval"))
        baseline = deployment.rechecks
        # Binding results appended control rows already; no extra rechecks
        # may have been triggered by them.
        assert deployment.rechecks == baseline

    def test_duplicate_deploy_rejected(self, store, tool, hiring_xom,
                                       hiring_vocabulary):
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        deployment.deploy(tool.control("gm-approval"))
        with pytest.raises(DeploymentError):
            deployment.deploy(tool.control("gm-approval"))

    def test_deploy_with_unbound_parameters_rejected(
        self, store, hiring_vocabulary, hiring_xom
    ):
        tool = ControlAuthoringTool(hiring_vocabulary)
        tool.author(
            "parametrized",
            "definitions set 'req' to a Job Requisition where "
            "the requisition ID of this is <ID> ; "
            "if 'req' is not null then the internal control is satisfied",
        )
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        with pytest.raises(DeploymentError):
            deployment.deploy(tool.control("parametrized"))

    def test_undeploy(self, store, tool, hiring_xom, hiring_vocabulary):
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        deployment.deploy(tool.control("gm-approval"))
        deployment.undeploy("gm-approval")
        with pytest.raises(DeploymentError):
            deployment.undeploy("gm-approval")


class TestDashboard:
    def test_live_feed_via_deployment(self, store, tool, hiring_xom,
                                      hiring_vocabulary):
        dashboard = ComplianceDashboard()
        dashboard.register_control(tool.control("gm-approval"))
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        deployment.subscribe(dashboard.record)
        deployment.deploy(tool.control("gm-approval"))

        kpi = dashboard.kpi("gm-approval")
        assert kpi.satisfied == 1
        assert kpi.violated == 1
        assert kpi.not_applicable == 1
        assert kpi.compliance_rate == 0.5

    def test_recheck_replaces_not_accumulates(self, hiring_model, tool,
                                              hiring_xom, hiring_vocabulary):
        incomplete = build_hiring_trace("App30", with_approval=False)
        store = populate_store(hiring_model, [incomplete])
        dashboard = ComplianceDashboard()
        deployment = ControlDeployment(store, hiring_xom, hiring_vocabulary)
        deployment.subscribe(dashboard.record)
        deployment.deploy(tool.control("gm-approval"))
        assert dashboard.kpi("gm-approval").violated == 1

        complete = build_hiring_trace("App30")
        store.append(complete.node("App30-D2"))
        for relation in complete.edges("approvalOf"):
            store.append(relation)

        kpi = dashboard.kpi("gm-approval")
        assert kpi.violated == 0
        assert kpi.satisfied == 1
        assert kpi.checked == 1

    def test_render_contains_kpis_and_exceptions(self, store, tool,
                                                 hiring_xom,
                                                 hiring_vocabulary):
        dashboard = ComplianceDashboard()
        dashboard.register_control(tool.control("gm-approval"))
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        dashboard.record_all(
            evaluator.check_all_traces(tool.control("gm-approval"))
        )
        text = dashboard.render()
        assert "COMPLIANCE DASHBOARD" in text
        assert "gm-approval" in text
        assert "EXCEPTIONS (1)" in text
        assert "App02" in text
        assert "high" in text

    def test_exceptions_sorted_by_severity(self, store, hiring_vocabulary,
                                           hiring_xom):
        tool = ControlAuthoringTool(hiring_vocabulary)
        tool.author(
            "low-ctl",
            "definitions set 'req' to a Job Requisition ; "
            "if the approval of 'req' is not null "
            "then the internal control is satisfied",
            severity=ControlSeverity.LOW,
        )
        tool.author(
            "critical-ctl",
            "definitions set 'req' to a Job Requisition ; "
            "if the candidate list of 'req' is not null "
            "then the internal control is satisfied",
            severity=ControlSeverity.CRITICAL,
        )
        dashboard = ComplianceDashboard()
        for name in ("low-ctl", "critical-ctl"):
            dashboard.register_control(tool.control(name))
        evaluator = ComplianceEvaluator(store, hiring_xom, hiring_vocabulary)
        bad_store_results = []
        for name in ("low-ctl", "critical-ctl"):
            bad_store_results.extend(
                evaluator.check_all_traces(tool.control(name),
                                           trace_ids=["App02"])
            )
        # App02 lacks approval only; candidate list exists -> only low-ctl
        # violates. Force both by also checking a candidates-free trace.
        dashboard.record_all(bad_store_results)
        exceptions = dashboard.exceptions()
        assert [e.control_name for e in exceptions] == ["low-ctl"]


class TestBatchedDeployment:
    def test_dirty_marking_and_flush(self, hiring_model, tool, hiring_xom,
                                     hiring_vocabulary):
        store = populate_store(hiring_model, [])
        deployment = ControlDeployment(
            store, hiring_xom, hiring_vocabulary,
            bind_results=False, immediate=False,
        )
        deployment.deploy(tool.control("gm-approval"))
        assert deployment.rechecks == 0

        trace = build_hiring_trace("App40")
        for record in sorted(trace.nodes(), key=lambda r: r.record_id):
            store.append(record)
        for relation in sorted(trace.edges(), key=lambda r: r.record_id):
            store.append(relation)
        # Many relevant records arrived, but the pair is dirty only once.
        assert deployment.dirty_count == 1
        assert deployment.latest("gm-approval", "App40") is None

        results = deployment.flush()
        assert len(results) == 1
        assert deployment.rechecks == 1
        assert deployment.latest("gm-approval", "App40").status is (
            ComplianceStatus.SATISFIED
        )
        assert deployment.dirty_count == 0
        # Flushing again is a no-op.
        assert deployment.flush() == []

    def test_undeployed_dirty_pair_skipped(self, hiring_model, tool,
                                           hiring_xom, hiring_vocabulary):
        store = populate_store(hiring_model, [build_hiring_trace("App41")])
        deployment = ControlDeployment(
            store, hiring_xom, hiring_vocabulary,
            bind_results=False, immediate=False,
        )
        deployment.deploy(tool.control("gm-approval"))
        assert deployment.dirty_count == 1
        deployment.undeploy("gm-approval")
        assert deployment.flush() == []

    def test_immediate_mode_rechecks_per_relevant_record(
        self, hiring_model, tool, hiring_xom, hiring_vocabulary
    ):
        store = populate_store(hiring_model, [])
        batched = ControlDeployment(
            store, hiring_xom, hiring_vocabulary,
            bind_results=False, immediate=False,
        )
        batched.deploy(tool.control("gm-approval"))

        store2 = populate_store(hiring_model, [])
        immediate = ControlDeployment(
            store2, hiring_xom, hiring_vocabulary,
            bind_results=False, immediate=True,
        )
        immediate.deploy(tool.control("gm-approval"))

        trace = build_hiring_trace("App42")
        for target in (store, store2):
            graph = build_hiring_trace("App42")
            for record in sorted(graph.nodes(), key=lambda r: r.record_id):
                target.append(record)
            for relation in sorted(graph.edges(),
                                   key=lambda r: r.record_id):
                target.append(relation)
        batched.flush()
        assert batched.rechecks == 1
        assert immediate.rechecks > batched.rechecks
