"""The correlation planner: classification, equivalence, and accounting.

The planner's contract mirrors the codec's: hash joins and bucket products
change what correlation *costs*, never what it *emits*.  Every test here
pins one side of that contract — plan classification per rule shape, the
differential equivalence of planned vs. naive execution on randomized
traces, the :class:`CorrelationStats` ledger, and the self-pair guard the
disjointness proof is allowed to skip.
"""

import random

from repro.capture.correlation import (
    PLAN_BUCKET_PRODUCT,
    PLAN_HASH_JOIN,
    PLAN_PAIRWISE,
    PLAN_SEQUENCE,
    CorrelationAnalytics,
    CorrelationRule,
    SequenceRule,
    attribute_join,
    co_trace,
    plan_rule,
    queries_provably_disjoint,
)
from repro.model.records import (
    DataRecord,
    RecordClass,
    ResourceRecord,
    TaskRecord,
)
from repro.model.schema import (
    NodeTypeSpec,
    ProvenanceDataModel,
    RelationTypeSpec,
)
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore


def _model() -> ProvenanceDataModel:
    model = ProvenanceDataModel("planner-tests")
    model.add_node_type(NodeTypeSpec("doc", RecordClass.DATA))
    model.add_node_type(NodeTypeSpec("form", RecordClass.DATA))
    model.add_node_type(NodeTypeSpec("step", RecordClass.TASK))
    model.add_node_type(NodeTypeSpec("person", RecordClass.RESOURCE))
    model.add_relation_type(
        RelationTypeSpec("authorOf", RecordClass.RESOURCE, RecordClass.DATA)
    )
    model.add_relation_type(
        RelationTypeSpec("inputTo", RecordClass.DATA, RecordClass.TASK)
    )
    model.add_relation_type(
        RelationTypeSpec("pairedWith", RecordClass.DATA, RecordClass.DATA)
    )
    model.add_relation_type(
        RelationTypeSpec("nextStep", RecordClass.TASK, RecordClass.TASK)
    )
    return model


def _join_rule(source_type="person", target_type="doc"):
    return attribute_join(
        "author-by-email",
        "authorOf",
        RecordQuery(entity_type=source_type),
        RecordQuery(entity_type=target_type),
        "email",
        "author_email",
    )


class TestPlanClassification:
    def test_attribute_join_plans_as_hash_join(self):
        plan = plan_rule(_join_rule())
        assert plan.kind == PLAN_HASH_JOIN
        assert plan.disjoint  # person vs doc: provably disjoint

    def test_co_trace_plans_as_bucket_product(self):
        rule = co_trace(
            "docs-to-steps",
            "inputTo",
            RecordQuery(entity_type="doc"),
            RecordQuery(entity_type="step"),
        )
        plan = plan_rule(rule)
        assert plan.kind == PLAN_BUCKET_PRODUCT
        assert plan.disjoint

    def test_opaque_predicate_plans_as_pairwise(self):
        rule = CorrelationRule(
            name="close-in-time",
            relation_type="inputTo",
            source_query=RecordQuery(entity_type="doc"),
            target_query=RecordQuery(entity_type="step"),
            predicate=lambda s, t: abs(s.timestamp - t.timestamp) < 10,
        )
        plan = plan_rule(rule)
        assert plan.kind == PLAN_PAIRWISE
        assert plan.disjoint

    def test_sequence_rule_plans_as_sequence(self):
        rule = SequenceRule(
            "step-order", "nextStep", RecordQuery(entity_type="step")
        )
        assert plan_rule(rule).kind == PLAN_SEQUENCE

    def test_same_type_join_is_not_disjoint(self):
        plan = plan_rule(_join_rule("doc", "doc"))
        assert plan.kind == PLAN_HASH_JOIN
        assert not plan.disjoint


class TestDisjointnessProof:
    def test_differing_entity_types_prove_disjoint(self):
        assert queries_provably_disjoint(
            RecordQuery(entity_type="doc"), RecordQuery(entity_type="step")
        )

    def test_differing_record_classes_prove_disjoint(self):
        assert queries_provably_disjoint(
            RecordQuery(record_class=RecordClass.DATA),
            RecordQuery(record_class=RecordClass.TASK),
        )

    def test_unpinned_sides_are_not_proven(self):
        assert not queries_provably_disjoint(
            RecordQuery(entity_type="doc"), RecordQuery()
        )
        assert not queries_provably_disjoint(RecordQuery(), RecordQuery())

    def test_same_constants_are_not_proven(self):
        assert not queries_provably_disjoint(
            RecordQuery(entity_type="doc"), RecordQuery(entity_type="doc")
        )


def _random_store(rng: random.Random, model, traces=6, unhashable=False):
    """A store of randomized person/doc/step records across *traces*."""
    store = ProvenanceStore(model=model)
    counter = 0
    for trace in range(traces):
        app_id = f"T{trace}"
        emails = [f"u{rng.randint(0, 4)}@x" for __ in range(3)]
        for email in emails:
            counter += 1
            store.append(
                ResourceRecord.create(
                    f"P{counter}", app_id, "person",
                    timestamp=rng.randint(0, 100),
                    attributes={"email": email},
                )
            )
        for __ in range(rng.randint(0, 5)):
            counter += 1
            attributes = {"author_email": rng.choice(emails + ["nobody@x"])}
            if unhashable and rng.random() < 0.2:
                # Lists are valid attribute payloads but cannot key a
                # dict: the hash join must degrade to the pairwise scan
                # for this (rule, trace), not crash and not diverge.
                attributes["author_email"] = [rng.choice(emails)]
            if rng.random() < 0.3:
                del attributes["author_email"]  # missing join key
            counter += 1
            store.append(
                DataRecord.create(
                    f"D{counter}", app_id,
                    rng.choice(["doc", "form"]),
                    timestamp=rng.randint(0, 100),
                    attributes=attributes,
                )
            )
        for __ in range(rng.randint(0, 3)):
            counter += 1
            store.append(
                TaskRecord.create(
                    f"S{counter}", app_id, "step",
                    timestamp=rng.randint(0, 100),
                )
            )
    return store


def _rules():
    return [
        _join_rule(),
        co_trace(
            "docs-to-steps",
            "inputTo",
            RecordQuery(entity_type="doc"),
            RecordQuery(entity_type="step"),
        ),
        CorrelationRule(
            name="close-in-time",
            relation_type="inputTo",
            source_query=RecordQuery(entity_type="form"),
            target_query=RecordQuery(entity_type="step"),
            predicate=lambda s, t: abs(s.timestamp - t.timestamp) < 25,
        ),
        SequenceRule(
            "step-order", "nextStep", RecordQuery(entity_type="step")
        ),
    ]


def _run(store, model, naive=False):
    analytics = CorrelationAnalytics(store, model)
    for rule in _rules():
        analytics.add_rule(rule)
    created = analytics.run_naive() if naive else analytics.run()
    return created, analytics.stats


class TestPlannerEquivalence:
    def test_planned_equals_naive_on_randomized_traces(self):
        # Ten randomized stores: the planned run and the naive cartesian
        # run must leave byte-identical physical rows (ids, order, XML).
        for seed in range(10):
            model = _model()
            planned_store = _random_store(random.Random(seed), model)
            naive_store = _random_store(random.Random(seed), model)
            assert planned_store.rows() == naive_store.rows()
            planned, __ = _run(planned_store, model)
            naive, __ = _run(naive_store, model, naive=True)
            assert [r.record_id for r in planned] == [
                r.record_id for r in naive
            ]
            assert planned_store.rows() == naive_store.rows(), (
                f"seed {seed}: planned and naive stores diverged"
            )

    def test_unhashable_join_values_fall_back_not_diverge(self):
        for seed in range(5):
            model = _model()
            planned_store = _random_store(
                random.Random(seed), model, unhashable=True
            )
            naive_store = _random_store(
                random.Random(seed), model, unhashable=True
            )
            planned, stats = _run(planned_store, model)
            naive, __ = _run(naive_store, model, naive=True)
            assert planned_store.rows() == naive_store.rows()
            if any(
                isinstance(r.get("author_email"), list)
                for r in planned_store.records()
                if r.entity_type == "doc"  # the join's target side
            ):
                assert stats.hash_fallbacks > 0

    def test_rerun_is_idempotent(self):
        model = _model()
        store = _random_store(random.Random(3), model)
        first, __ = _run(store, model)
        again, stats = _run(store, model)
        assert again == []
        assert stats.pairs_emitted == 0


class TestStatsAccounting:
    def test_rule_classification_counts(self):
        model = _model()
        store = _random_store(random.Random(1), model)
        __, stats = _run(store, model)
        assert stats.rules_hash_join == 1
        assert stats.rules_bucket == 1
        assert stats.rules_pairwise == 1
        assert stats.rules_sequence == 1

    def test_hash_join_considers_fewer_pairs_than_naive(self):
        model = _model()
        store = _random_store(random.Random(2), model)
        __, stats = _run(store, model)
        # The join probes only key-matched pairs; the product and pairwise
        # rules scan everything, so considered < naive strictly requires
        # the join to have pruned something.
        assert stats.pairs_considered < stats.pairs_naive
        assert 0.0 < stats.pairs_reduction < 1.0
        assert stats.pairs_emitted > 0

    def test_emitted_matches_created_relations(self):
        model = _model()
        store = _random_store(random.Random(4), model)
        created, stats = _run(store, model)
        assert stats.pairs_emitted == len(created)

    def test_naive_run_counts_considered_equal_to_naive(self):
        model = _model()
        store = _random_store(random.Random(5), model)
        __, stats = _run(store, model, naive=True)
        # SequenceRule pairs count 1:1 on both ledgers, and the cartesian
        # scan considers exactly what it enumerates.
        assert stats.pairs_considered == stats.pairs_naive
        assert stats.self_checks_skipped == 0

    def test_as_dict_round_trips_every_field(self):
        model = _model()
        store = _random_store(random.Random(6), model)
        __, stats = _run(store, model)
        payload = stats.as_dict()
        assert payload["pairs_reduction"] == stats.pairs_reduction
        for field in (
            "rules_hash_join", "rules_bucket", "rules_pairwise",
            "rules_sequence", "hash_fallbacks", "pairs_naive",
            "pairs_considered", "pairs_emitted", "self_checks_skipped",
        ):
            assert payload[field] == getattr(stats, field)


class TestSelfPairGuard:
    """The bugfix this PR rides along: ``accepts`` may skip the
    ``record_id`` self-comparison only when the planner *proved* the two
    sides disjoint.  A non-disjoint rule must still reject self-pairs."""

    def test_self_pair_rejected_without_disjointness_proof(self):
        model = _model()
        store = ProvenanceStore(model=model)
        # One doc whose author_email equals its own join key on both
        # sides: a doc-to-doc join would pair it with itself.
        store.append(
            DataRecord.create(
                "D1", "T0", "doc",
                attributes={"author_email": "u@x", "email": "u@x"},
            )
        )
        store.append(
            DataRecord.create(
                "D2", "T0", "doc",
                attributes={"author_email": "u@x", "email": "u@x"},
            )
        )
        rule = attribute_join(
            "doc-pairs", "pairedWith",
            RecordQuery(entity_type="doc"),
            RecordQuery(entity_type="doc"),
            "email", "author_email",
        )
        assert not plan_rule(rule).disjoint
        analytics = CorrelationAnalytics(store, model)
        analytics.add_rule(rule)
        created = analytics.run()
        linked = {(r.source_id, r.target_id) for r in created}
        # Cross pairs only — never (D1, D1) or (D2, D2).
        assert linked == {("D1", "D2"), ("D2", "D1")}
        assert analytics.stats.self_checks_skipped == 0

    def test_accepts_rejects_self_pair_directly(self):
        record = DataRecord.create(
            "D1", "T0", "doc", attributes={"email": "u@x"}
        )
        rule = _join_rule("doc", "doc")
        assert not rule.accepts(record, record)
        # The skip is an explicit opt-in for proven-disjoint plans; with
        # it, the guard really is gone (which is why the proof must hold).
        assert rule.accepts(
            record, record, skip_self_check=True
        ) is (record.get("email") == record.get("author_email"))

    def test_disjoint_join_skips_self_checks_and_stays_correct(self):
        model = _model()
        rng = random.Random(8)
        planned_store = _random_store(rng, model)
        analytics = CorrelationAnalytics(planned_store, model)
        analytics.add_rule(_join_rule())  # person → doc: disjoint
        created = analytics.run()
        stats = analytics.stats
        assert stats.self_checks_skipped == stats.pairs_considered > 0
        assert all(r.source_id != r.target_id for r in created)
