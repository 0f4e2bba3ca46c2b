"""Tests for temporal controls via the built-in ``timestamp`` phrase."""

import pytest

from repro.brms.bal.compiler import BalCompiler
from repro.brms.engine import RuleEngine, RuleVerdict
from tests.conftest import build_hiring_trace


@pytest.fixture
def engine(hiring_xom, hiring_vocabulary):
    return RuleEngine(hiring_xom, hiring_vocabulary)


class TestBuiltinTimestamp:
    def test_every_concept_verbalizes_timestamp(self, hiring_vocabulary):
        for concept in hiring_vocabulary.concept_labels():
            member = hiring_vocabulary.find_member(concept, "timestamp")
            assert member is not None, concept

    def test_timestamp_reads_record_time(self, hiring_vocabulary,
                                         hiring_xom):
        trace = build_hiring_trace("App01")
        requisition = hiring_xom.wrap(trace.node("App01-D1"), trace)
        member = hiring_vocabulary.find_member("Job Requisition",
                                               "timestamp")
        assert member.execute(requisition) == 10

    def test_declared_timestamp_attribute_wins(self):
        from repro.brms.verbalization import Verbalizer
        from repro.brms.xom import ExecutableObjectModel
        from repro.model.builder import ModelBuilder

        model = (
            ModelBuilder("m").data("thing", "Thing", timestamp=int).build()
        )
        bom = Verbalizer(ExecutableObjectModel(model)).verbalize()
        member = bom.concept("Thing").member_by_phrase("timestamp")
        assert member.attribute == "timestamp"  # the declared one


class TestOrderingControls:
    APPROVAL_BEFORE_SEARCH = """
    definitions
      set 'req' to a Job Requisition
          where the position type of this Job Requisition is "new" ;
      set 'the approval' to the approval of 'req' ;
      set 'the list' to the candidate list of 'req' ;
    if
      all of the following conditions are true :
        - 'the approval' is not null ,
        - 'the list' is not null ,
        - the timestamp of 'the approval' is before
          the timestamp of 'the list'
    then
      the internal control is satisfied
    else
      the internal control is not satisfied ;
      alert "candidate search started before GM approval"
    """

    def test_compliant_ordering(self, hiring_vocabulary, engine):
        trace = build_hiring_trace("App01")  # approval t=20, list t=30
        compiled = BalCompiler(hiring_vocabulary).compile(
            "order", self.APPROVAL_BEFORE_SEARCH
        )
        outcome = engine.evaluate(compiled, trace)
        assert outcome.verdict is RuleVerdict.SATISFIED

    def test_violated_ordering(self, hiring_vocabulary, engine):
        from repro.model.records import DataRecord, RelationRecord

        # Build a trace where the candidate list PREDATES the approval.
        trace = build_hiring_trace("App02", with_candidates=False)
        trace.add_node_record(
            DataRecord.create(
                "App02-D3",
                "App02",
                "candidatelist",
                timestamp=5,  # before the approval at t=20
                attributes={"reqid": "Req-App02", "count": 2},
            )
        )
        trace.add_relation_record(
            RelationRecord.create(
                "App02-E5",
                "App02",
                "candidatesFor",
                source_id="App02-D3",
                target_id="App02-D1",
            )
        )
        compiled = BalCompiler(hiring_vocabulary).compile(
            "order", self.APPROVAL_BEFORE_SEARCH
        )
        outcome = engine.evaluate(compiled, trace)
        assert outcome.verdict is RuleVerdict.NOT_SATISFIED
        assert outcome.alerts == [
            "candidate search started before GM approval"
        ]

    def test_sla_control_with_arithmetic(self, hiring_vocabulary, engine):
        # Approval must land within 15 time units of submission.
        trace = build_hiring_trace("App03")  # submission t=10, approval t=20
        compiled = BalCompiler(hiring_vocabulary).compile(
            "sla",
            "definitions set 'req' to a Job Requisition ; "
            "set 'the approval' to the approval of 'req' ; "
            "if the timestamp of 'the approval' is at most "
            "the timestamp of 'req' + 15 "
            "then the internal control is satisfied",
        )
        outcome = engine.evaluate(compiled, trace)
        assert outcome.verdict is RuleVerdict.SATISFIED

