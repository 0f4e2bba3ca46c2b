"""Integration tests for the three workloads.

The key property: at full visibility, vocabulary-authored controls agree
with the injected ground truth on every (control, trace) pair, for every
workload.  This is the end-to-end guarantee everything else builds on.
"""

import pytest

from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.status import ComplianceStatus
from repro.model.records import RelationRecord
from repro.processes import expenses, hiring, incidents, procurement
from repro.processes.violations import ViolationPlan
from repro.processes.visibility import VisibilityPolicy

WORKLOADS = {
    "hiring": hiring,
    "procurement": procurement,
    "expenses": expenses,
    "incidents": incidents,
}


@pytest.fixture(params=sorted(WORKLOADS), ids=sorted(WORKLOADS))
def module(request):
    return WORKLOADS[request.param]


def run_workload(module, cases=25, seed=5, rate=0.25, visibility=None):
    workload = module.workload()
    plan = ViolationPlan.uniform(list(module.VIOLATION_KINDS), rate)
    sim = workload.simulate(
        cases=cases, seed=seed, violations=plan, visibility=visibility
    )
    evaluator = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    results = evaluator.run(sim.controls)
    truth = sim.ground_truth_for(workload.ground_truth)
    return sim, results, truth


class TestRelationsStayInTrace:
    """Correlation dedups edges per trace.  That is sound only because no
    relation crosses traces: its row and both endpoints share an APPID."""

    def test_relation_and_endpoints_share_an_appid(self, module):
        sim, __, __ = run_workload(module)
        relations = [
            r for r in sim.store.records() if isinstance(r, RelationRecord)
        ]
        assert relations
        for relation in relations:
            source = sim.store.get(relation.source_id)
            target = sim.store.get(relation.target_id)
            assert source.app_id == relation.app_id, relation.record_id
            assert target.app_id == relation.app_id, relation.record_id


class TestFullVisibilityAgreement:
    def test_verdicts_match_ground_truth(self, module):
        __, results, truth = run_workload(module)
        for result in results:
            assert result.status is truth[result.trace_id][
                result.control_name
            ], (result.trace_id, result.control_name)

    def test_every_pair_checked(self, module):
        sim, results, __ = run_workload(module)
        assert len(results) == len(sim.runs) * len(sim.controls)

    def test_clean_run_has_no_violations(self, module):
        workload = module.workload()
        sim = workload.simulate(cases=15, seed=2)
        evaluator = ComplianceEvaluator(sim.store, sim.xom, sim.vocabulary)
        results = evaluator.run(sim.controls)
        assert not [
            r for r in results if r.status is ComplianceStatus.VIOLATED
        ]

    def test_simulation_deterministic(self, module):
        workload = module.workload()
        sim_a = workload.simulate(cases=10, seed=9)
        sim_b = workload.simulate(cases=10, seed=9)
        rows_a = [row.as_tuple() for row in sim_a.store.rows()]
        rows_b = [row.as_tuple() for row in sim_b.store.rows()]
        assert rows_a == rows_b


class TestPartialVisibility:
    def test_dropped_events_counted(self, module):
        sim, __, __ = run_workload(
            module, visibility=VisibilityPolicy.uniform(0.6, seed=4)
        )
        assert sim.dropped_events > 0
        assert sim.visible_events > 0

    def test_detection_degrades_with_lost_visibility(self, module):
        from repro.metrics.detection import detection_report

        __, full_results, truth = run_workload(module, cases=60, rate=0.3)
        full = detection_report(full_results, truth)

        __, partial_results, __ = run_workload(
            module,
            cases=60,
            rate=0.3,
            visibility=VisibilityPolicy.uniform(0.4, seed=8),
        )
        partial = detection_report(partial_results, truth)
        assert full.overall.f1 == 1.0
        assert partial.overall.f1 < full.overall.f1

    def test_zero_visibility_is_all_undetermined_or_na(self, module):
        sim, results, __ = run_workload(
            module, cases=10, visibility=VisibilityPolicy.uniform(0.0)
        )
        assert sim.visible_events == 0
        for result in results:
            assert result.status in (
                ComplianceStatus.UNDETERMINED,
                ComplianceStatus.NOT_APPLICABLE,
            )


class TestHiringSpecifics:
    def test_trace_contains_paper_record_inventory(self):
        sim, __, __ = run_workload(hiring, cases=5, rate=0.0)
        # Find a new-position trace and check §II.C's record inventory.
        new_runs = [
            run for run in sim.runs if run.case["position_type"] == "new"
        ]
        assert new_runs, "seed produced no new-position case"
        trace_id = new_runs[0].app_id
        from repro.graph.build import build_trace_graph

        graph = build_trace_graph(sim.store, trace_id)
        types = {record.entity_type for record in graph.nodes()}
        assert {
            "jobrequisition",
            "approvalstatus",
            "candidatelist",
            "person",
            "submission",
            "approvaltask",
        } <= types
        edge_types = {edge.entity_type for edge in graph.edges()}
        assert {"submitterOf", "approvalOf", "candidatesFor", "actor",
                "generates", "managerOf", "nextTask"} <= edge_types

    def test_skip_approval_only_affects_new_positions(self):
        workload = hiring.workload()
        plan = ViolationPlan.uniform(["skip_approval"], 1.0)
        sim = workload.simulate(cases=20, seed=6, violations=plan)
        for run in sim.runs:
            if run.case["position_type"] == "new":
                assert "approve_reject" not in run.path
            expected = hiring.ground_truth(run.case, "gm-approval")
            if run.case["position_type"] == "new":
                assert expected is ComplianceStatus.VIOLATED
            else:
                assert expected is ComplianceStatus.NOT_APPLICABLE

    def test_sensitive_fields_never_reach_store(self):
        sim, __, __ = run_workload(hiring, cases=10)
        for row in sim.store.rows():
            assert "salary_band" not in row.xml


class TestProcurementSpecifics:
    def test_price_mismatch_changes_invoice_amount(self):
        workload = procurement.workload()
        plan = ViolationPlan.uniform(["price_mismatch"], 1.0)
        sim = workload.simulate(cases=10, seed=3, violations=plan)
        for run in sim.runs:
            invoices = sim.store.find_data(run.app_id, "invoice")
            orders = sim.store.find_data(run.app_id, "purchaseorder")
            assert invoices and orders
            assert invoices[0].get("amount") != orders[0].get("amount")

    def test_below_threshold_orders_not_applicable(self):
        case = {"amount": procurement.APPROVAL_THRESHOLD - 1,
                "violations": set()}
        assert procurement.ground_truth(case, "po-approval") is (
            ComplianceStatus.NOT_APPLICABLE
        )


class TestExpensesSpecifics:
    def test_receipt_threshold_boundaries(self):
        below = {"amount": expenses.RECEIPT_THRESHOLD - 1,
                 "violations": set()}
        at = {"amount": expenses.RECEIPT_THRESHOLD, "violations": set()}
        assert expenses.ground_truth(below, "receipt-required") is (
            ComplianceStatus.NOT_APPLICABLE
        )
        assert expenses.ground_truth(at, "receipt-required") is (
            ComplianceStatus.SATISFIED
        )

    def test_audit_threshold_is_strictly_greater(self):
        at = {"amount": expenses.AUDIT_THRESHOLD, "violations": set()}
        above = {"amount": expenses.AUDIT_THRESHOLD + 1,
                 "violations": set()}
        assert expenses.ground_truth(at, "audit-high-value") is (
            ComplianceStatus.NOT_APPLICABLE
        )
        assert expenses.ground_truth(above, "audit-high-value") is (
            ComplianceStatus.SATISFIED
        )
