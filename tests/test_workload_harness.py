"""Unit tests for the workload harness (repro.processes.workload)."""

import pytest

from repro.controls.status import ComplianceStatus
from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.processes.visibility import VisibilityPolicy
from repro.processes.workload import ControlSpec, Workload


@pytest.fixture
def workload():
    return hiring.workload()


class TestSimulate:
    def test_zero_cases_builds_vocabulary_stack_only(self, workload):
        sim = workload.simulate(cases=0)
        assert len(sim.runs) == 0
        assert len(sim.store) == 0
        assert sim.vocabulary.has_concept("Job Requisition")
        assert len(sim.controls) == 3
        assert sim.tool.deployed_controls() == sim.controls

    def test_controls_are_deployed_in_repository(self, workload):
        sim = workload.simulate(cases=0)
        names = {a.name for a in sim.tool.repository.all_deployed()}
        assert names == {"gm-approval", "sod-approval", "submitter-known"}

    def test_event_accounting(self, workload):
        sim = workload.simulate(cases=10, seed=1)
        assert sim.dropped_events == 0
        assert sim.visible_events > 0

    def test_visibility_reduces_visible_events(self, workload):
        full = workload.simulate(cases=10, seed=1)
        partial = workload.simulate(
            cases=10, seed=1,
            visibility=VisibilityPolicy.uniform(0.5, seed=2),
        )
        assert partial.visible_events < full.visible_events
        assert (
            partial.visible_events + partial.dropped_events
            == full.visible_events
        )

    def test_observable_types_only_with_visibility(self, workload):
        assert workload.simulate(cases=0).observable_types is None
        sim = workload.simulate(
            cases=0, visibility=VisibilityPolicy.uniform(1.0)
        )
        assert sim.observable_types is not None
        assert "jobrequisition" in sim.observable_types

    def test_store_respects_index_and_cache_knobs(self, workload):
        sim = workload.simulate(
            cases=2, indexed=False, cache_vocabulary=False
        )
        assert not sim.store.indexed
        assert not sim.vocabulary.cache_enabled

    def test_ground_truth_table_shape(self, workload):
        plan = ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.5)
        sim = workload.simulate(cases=6, seed=2, violations=plan)
        truth = sim.ground_truth_for(workload.ground_truth)
        assert set(truth) == {run.app_id for run in sim.runs}
        for statuses in truth.values():
            assert set(statuses) == {c.name for c in sim.controls}
            assert all(
                isinstance(v, ComplianceStatus) for v in statuses.values()
            )


class TestCustomWorkloadAssembly:
    def test_control_spec_defaults(self):
        spec = ControlSpec(name="x", text="if 1 is 1 then "
                           "the internal control is satisfied")
        assert spec.severity.value == "medium"
        assert spec.description == ""

    def test_workload_with_subset_of_controls(self, workload):
        reduced = Workload(
            name="hiring-min",
            build_model=workload.build_model,
            build_spec=workload.build_spec,
            case_factory=workload.case_factory,
            build_mapping=workload.build_mapping,
            correlation_rules=workload.correlation_rules,
            control_specs=workload.control_specs[:1],
            ground_truth=workload.ground_truth,
        )
        sim = reduced.simulate(cases=3)
        assert [c.name for c in sim.controls] == ["gm-approval"]

    def test_invalid_control_text_fails_at_simulate(self, workload):
        from repro.errors import BalCompileError

        broken = Workload(
            name="broken",
            build_model=workload.build_model,
            build_spec=workload.build_spec,
            case_factory=workload.case_factory,
            build_mapping=workload.build_mapping,
            correlation_rules=workload.correlation_rules,
            control_specs=(
                ControlSpec(
                    name="bad",
                    text="definitions set 'x' to an Invoice ; "
                    "if 'x' is null then the internal control is satisfied",
                ),
            ),
            ground_truth=workload.ground_truth,
        )
        with pytest.raises(BalCompileError):
            broken.simulate(cases=1)
