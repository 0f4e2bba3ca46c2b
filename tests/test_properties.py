"""Property-based tests on cross-module invariants (hypothesis).

Each property pins an invariant the rest of the system leans on:

- the physical store rows round-trip losslessly (Table I is the source of
  truth),
- BAL rendering is parse-stable (what the editor shows re-parses to the
  same rule),
- graph building conserves records and never invents edges,
- adding query predicates never widens a result set,
- visibility projection is a partition that preserves order,
- subgraph matching only returns bindings that actually satisfy the
  pattern.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.brms.bal import ast
from repro.brms.bal.parser import parse_rule
from repro.capture.events import ApplicationEvent, EventSource
from repro.graph.build import BuildReport, build_graph
from repro.graph.graph import ProvenanceGraph
from repro.graph.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
    match_pattern,
)
from repro.model.records import (
    DataRecord,
    RecordClass,
    RelationRecord,
    record_from_parts,
)
from repro.processes.visibility import VisibilityPolicy
from repro.store.query import AttributePredicate, RecordQuery
from repro.store.store import ProvenanceStore
from repro.store.xmlcodec import decode_row, encode_row

# -- strategies ---------------------------------------------------------------

# Structural BAL words: the lexer has no reserved words (phrases may contain
# ``of``), so a generated identifier or phrase that *is* a structural word
# renders to text the parser reads as grammar ("the of of 0") and the
# render/parse fixpoint legitimately fails.  Real vocabularies never use
# bare structural words as whole names; keep the generator out of them too.
_BAL_STRUCTURAL = frozenset(
    """
    if then else and or not is are was the a an of no any null there exists
    each all at least most more than it this that to as set define true
    false number one satisfied violated internal control
    """.split()
)
identifier = st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True).filter(
    lambda s: s not in _BAL_STRUCTURAL
)
safe_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF
    ),
    min_size=1,
    max_size=12,
)
attribute_value = st.one_of(
    safe_text,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.booleans(),
)

node_records = st.builds(
    lambda rid, app, etype, ts, attrs: record_from_parts(
        RecordClass.DATA, f"D{rid}", f"App{app:02d}", etype, ts, attrs
    ),
    rid=st.integers(min_value=1, max_value=10**6),
    app=st.integers(min_value=1, max_value=20),
    etype=identifier,
    ts=st.integers(min_value=0, max_value=10**9),
    attrs=st.dictionaries(identifier, attribute_value, max_size=4),
)


class TestStoreRoundTrip:
    @given(record=node_records)
    @settings(max_examples=60)
    def test_row_roundtrip_preserves_identity_and_time(self, record):
        back = decode_row(encode_row(record))
        assert back.record_id == record.record_id
        assert back.app_id == record.app_id
        assert back.entity_type == record.entity_type
        assert back.timestamp == record.timestamp
        # Untyped decode yields strings; the wire form must match.
        for name, value in record.attributes.items():
            wire = back.get(name)
            if isinstance(value, bool):
                assert wire == ("true" if value else "false")
            else:
                assert wire == str(value)

    @given(records=st.lists(node_records, max_size=15, unique_by=lambda r: r.record_id))
    @settings(max_examples=25)
    def test_dump_load_preserves_row_sequence(self, records, tmp_path_factory):
        store = ProvenanceStore()
        store.extend(records)
        path = str(tmp_path_factory.mktemp("store") / "rows.jsonl")
        store.dump(path)
        loaded = ProvenanceStore.load(path)
        assert [r.as_tuple() for r in loaded.rows()] == [
            r.as_tuple() for r in store.rows()
        ]


# -- BAL render/parse stability ---------------------------------------------------

literals = st.one_of(
    st.integers(min_value=0, max_value=999).map(ast.Literal),
    safe_text.map(ast.Literal),
    st.booleans().map(ast.Literal),
    st.just(ast.Literal(None)),
)
variables = identifier.map(lambda s: ast.VarRef(name=s))
parameters = identifier.map(lambda s: ast.ParamRef(name=s))
simple_exprs = st.one_of(literals, variables, parameters)


def navigations(children):
    return st.builds(
        ast.Navigation,
        phrase=identifier,
        target=children,
    )


expressions = st.recursive(
    simple_exprs,
    lambda children: st.one_of(
        navigations(children),
        st.builds(ast.CountOf, target=children),
        st.builds(
            ast.Arith,
            op=st.sampled_from(["+", "-", "*", "/"]),
            left=children,
            right=children,
        ),
    ),
    max_leaves=6,
)

comparisons = st.one_of(
    st.builds(
        ast.Comparison,
        op=st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
        left=expressions,
        right=expressions,
    ),
    st.builds(
        ast.Comparison,
        op=st.sampled_from(["is_null", "not_null"]),
        left=expressions,
        right=st.none(),
    ),
)

conditions = st.recursive(
    comparisons,
    lambda children: st.one_of(
        st.builds(
            ast.And,
            conditions=st.tuples(children, children),
            block=st.booleans(),
        ),
        st.builds(
            ast.Or,
            conditions=st.tuples(children, children),
            block=st.booleans(),
        ),
        st.builds(ast.Not, condition=children),
    ),
    max_leaves=4,
)

rules = st.builds(
    ast.Rule,
    definitions=st.lists(
        st.builds(ast.Definition, var=identifier, binder=expressions),
        max_size=2,
        unique_by=lambda d: d.var,
    ).map(tuple),
    condition=conditions,
    then_actions=st.just((ast.SetStatus(satisfied=True),)),
    else_actions=st.one_of(
        st.just(()),
        st.just((ast.SetStatus(satisfied=False),)),
        safe_text.map(lambda s: (ast.Alert(message=s),)),
    ),
)


def _eq(left, right):
    return ast.Comparison("eq", ast.Literal(left), ast.Literal(right))


#: A block conjunction as the left operand of an inline ``and``.  Rendered
#: without parentheses, re-parsing swallowed the trailing ``and 0 is 0``
#: into the block's last bullet.
NESTED_BLOCK_RULE = ast.Rule(
    definitions=(),
    condition=ast.And(
        (
            ast.And(
                (_eq(None, 0), ast.And((_eq(0, 0), _eq(0, 0)), block=True)),
                block=True,
            ),
            _eq(0, 0),
        )
    ),
    then_actions=(ast.SetStatus(satisfied=True),),
    else_actions=(),
)


class TestBalRenderStability:
    @given(rule=rules)
    @example(rule=NESTED_BLOCK_RULE)
    @settings(max_examples=120, deadline=None)
    def test_render_parse_fixpoint(self, rule):
        rendered = rule.render()
        reparsed = parse_rule(rendered)
        # Parse -> render -> parse must be a fixpoint even when the first
        # parse normalizes shapes (e.g. literal folding of bullets).
        assert reparsed.render() == parse_rule(reparsed.render()).render()

    def test_block_operand_of_inline_and_keeps_its_grouping(self):
        reparsed = parse_rule(NESTED_BLOCK_RULE.render())
        assert reparsed.condition == NESTED_BLOCK_RULE.condition

    @given(expr=expressions)
    @settings(max_examples=120, deadline=None)
    def test_expression_render_reparses(self, expr):
        rule_text = (
            f"if {expr.render()} is null "
            f"then the internal control is satisfied"
        )
        reparsed = parse_rule(rule_text)
        assert reparsed.condition.op == "is_null"
        assert reparsed.condition.left.render() == expr.render()


# -- graph building -----------------------------------------------------------------


class TestGraphBuildInvariants:
    @given(
        node_count=st.integers(min_value=0, max_value=12),
        edge_seed=st.integers(min_value=0, max_value=2**30),
        dangling=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_conserved(self, node_count, edge_seed, dangling):
        rng = random.Random(edge_seed)
        store = ProvenanceStore()
        ids = []
        for index in range(node_count):
            record_id = f"N{index}"
            store.append(
                DataRecord.create(record_id, "App01", "thing")
            )
            ids.append(record_id)
        edges = 0
        if len(ids) >= 2:
            for index in range(rng.randint(0, 2 * len(ids))):
                source, target = rng.sample(ids, 2)
                store.append(
                    RelationRecord.create(
                        f"E{index}", "App01", "rel",
                        source_id=source, target_id=target,
                    )
                )
                edges += 1
        for index in range(dangling):
            if not ids:
                break
            store.append(
                RelationRecord.create(
                    f"X{index}", "App01", "rel",
                    source_id=ids[0], target_id=f"GONE{index}",
                )
            )
        report = BuildReport()
        graph = build_graph(store, report=report)
        assert graph.node_count == node_count
        assert graph.edge_count == edges
        assert report.dangling_count == (dangling if ids else 0)

    @given(subset_seed=st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=20, deadline=None)
    def test_subgraph_is_contained(self, subset_seed):
        rng = random.Random(subset_seed)
        graph = ProvenanceGraph()
        ids = [f"N{i}" for i in range(8)]
        for record_id in ids:
            graph.add_node_record(
                DataRecord.create(record_id, "App01", "thing")
            )
        for index in range(10):
            source, target = rng.sample(ids, 2)
            graph.add_relation_record(
                RelationRecord.create(
                    f"E{index}", "App01", "rel",
                    source_id=source, target_id=target,
                )
            )
        chosen = rng.sample(ids, rng.randint(0, len(ids)))
        sub = graph.subgraph(chosen)
        assert sub.node_count == len(chosen)
        for relation in sub.edges():
            assert relation.source_id in chosen
            assert relation.target_id in chosen
            assert graph.has_edge(relation.source_id, relation.target_id)


# -- query narrowing --------------------------------------------------------------------


class TestQueryNarrowing:
    @given(
        records=st.lists(node_records, max_size=25),
        name=identifier,
        value=attribute_value,
    )
    @settings(max_examples=40, deadline=None)
    def test_adding_predicates_never_widens(self, records, name, value):
        store = ProvenanceStore()
        seen = set()
        for record in records:
            if record.record_id not in seen:
                seen.add(record.record_id)
                store.append(record)
        base = RecordQuery(record_class=RecordClass.DATA)
        narrowed = base.where(name, "==", value)
        base_ids = {r.record_id for r in store.select(base)}
        narrowed_ids = {r.record_id for r in store.select(narrowed)}
        assert narrowed_ids <= base_ids

    @given(value=attribute_value)
    def test_exists_absent_partition(self, value):
        record = DataRecord.create(
            "D1", "App01", "thing", attributes={"a": value}
        )
        empty = DataRecord.create("D2", "App01", "thing")
        exists = AttributePredicate("a", "exists")
        absent = AttributePredicate("a", "absent")
        for candidate in (record, empty):
            assert exists.matches(candidate) != absent.matches(candidate)


# -- visibility --------------------------------------------------------------------------


class TestVisibilityPartition:
    @given(
        count=st.integers(min_value=0, max_value=60),
        rate=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**30),
    )
    @settings(max_examples=40, deadline=None)
    def test_projection_partitions_and_preserves_order(
        self, count, rate, seed
    ):
        events = [
            ApplicationEvent(
                event_id=f"E{i}",
                source=EventSource.WORKFLOW,
                kind="w.x",
                timestamp=i,
            )
            for i in range(count)
        ]
        visible, dropped = VisibilityPolicy.uniform(rate, seed=seed).project(
            events
        )
        assert len(visible) + len(dropped) == count
        assert set(e.event_id for e in visible).isdisjoint(
            e.event_id for e in dropped
        )
        timestamps = [e.timestamp for e in visible]
        assert timestamps == sorted(timestamps)


# -- pattern matching ----------------------------------------------------------------------


class TestMatchSoundness:
    @given(seed=st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=30, deadline=None)
    def test_returned_bindings_satisfy_pattern(self, seed):
        rng = random.Random(seed)
        graph = ProvenanceGraph()
        types = ["alpha", "beta"]
        ids = []
        for index in range(6):
            record_id = f"N{index}"
            graph.add_node_record(
                DataRecord.create(
                    record_id,
                    "App01",
                    rng.choice(types),
                    attributes={"k": rng.randint(0, 2)},
                )
            )
            ids.append(record_id)
        for index in range(6):
            source, target = rng.sample(ids, 2)
            graph.add_relation_record(
                RelationRecord.create(
                    f"E{index}", "App01", "rel",
                    source_id=source, target_id=target,
                )
            )
        pattern = GraphPattern(
            nodes=[
                NodePattern("a", entity_type="alpha"),
                NodePattern(
                    "b",
                    predicates=(AttributePredicate("k", ">=", 1),),
                ),
            ],
            edges=[EdgePattern("a", "b", "rel")],
        )
        for binding in match_pattern(graph, pattern):
            node_a = graph.node(binding["a"])
            node_b = graph.node(binding["b"])
            assert node_a.entity_type == "alpha"
            assert node_b.get("k") >= 1
            assert binding["a"] != binding["b"]
            assert graph.has_edge(binding["a"], binding["b"], "rel")
