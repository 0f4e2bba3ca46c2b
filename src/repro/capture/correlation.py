"""Correlation and enrichment analytics.

"Once the provenance data is stored, relations among the entities are
established by running analytics.  The data correlation and enrichment
component links and enriches the collected data to produce the provenance
graph" (§II.A).  A :class:`CorrelationRule` examines pairs of records (or
single records, for enrichment) and emits :class:`RelationRecord` rows.

"Some relations are rather basic on the IT level, like the read and write
between tasks and data.  Other relations are derived from the context"
(§II.B) — the two built-in rule factories reflect that split:

- :func:`attribute_join` — link records whose attributes agree (a Resource
  whose ``email`` equals a Task's ``actor_email`` gets an ``actor`` edge),
- :func:`co_trace` — link records of given types within the same trace
  (e.g. every approval in a trace relates to the trace's requisition).

Execution is driven by a small **planner** (:func:`plan_rule`): instead of
scanning the cartesian product of source × target selections per trace,

- :func:`attribute_join` rules run as *hash joins* — a dict keyed on the
  join attribute is built over the smaller side and probed with the larger,
- :func:`co_trace` rules run as *type-bucket products* over one per-trace
  record fetch,
- rules with opaque predicates fall back to the pairwise scan.

All plans emit relations in exactly the order the naive nested loop would
(relation ids are allocated in emission order, so the plans are
byte-identical to the fallback — the differential tests assert this), and a
:class:`CorrelationStats` report makes the work visible: pairs considered
vs. emitted, and how many rules fell back.

Idempotence is **per trace**.  Every rule is scoped to one APPID, so both
endpoints of an emitted relation — and the relation row itself — carry
the trace's APPID: the analytics link records within one process
execution, never across two.  The edges a trace already has are therefore
exactly its own relation rows, read with the trace's records, and a run
keeps no store-wide edge set.  Relation ids (``REL<n>``) are the only
state spanning traces; :func:`relation_ids` resumes their sequence on a
populated store from one backend aggregate, so a minted id is new to
every shard and the append needs no retry loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import CaptureError
from repro.ids import IdFactory
from repro.model.records import (
    ProvenanceRecord,
    RecordClass,
    RelationRecord,
)
from repro.model.schema import ProvenanceDataModel
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore

PairPredicate = Callable[[ProvenanceRecord, ProvenanceRecord], bool]

#: id prefix relation records are minted under (``REL1``, ``REL2`` …).
_REL_PREFIX = "REL"


def relation_ids(store: ProvenanceStore) -> IdFactory:
    """An id factory continuing *store*'s ``REL<n>`` sequence.

    Correlation over a reopened store must not restart its counter at 1 —
    those ids exist and appends would raise.  The backend answers the
    highest ``REL<digits>`` id without decoding a row.
    """
    ids = IdFactory()
    highest = store.backend.highest_id(_REL_PREFIX)
    if highest:
        ids.seed(_REL_PREFIX, highest + 1)
    return ids


@dataclass(frozen=True)
class CorrelationRule:
    """Declarative pairwise correlation within one trace.

    For every trace (APPID), the rule considers the cartesian product of
    records matching *source_query* × *target_query*, keeps the pairs the
    *predicate* accepts, and emits one relation of *relation_type* per pair.

    Attributes:
        name: rule name (appears in relation record attributes for audit).
        relation_type: the relation type emitted (must exist in the model).
        source_query: selects candidate edge sources.
        target_query: selects candidate edge targets.
        predicate: pairwise condition; None accepts all pairs.
        join_on: optional ``(source_attribute, target_attribute)`` declaring
            that *predicate* is equality on those attributes (with a non-None
            source value) — set by :func:`attribute_join` so the planner can
            run the rule as a hash join.  A rule constructed with ``join_on``
            promises its predicate is exactly that equality.
    """

    name: str
    relation_type: str
    source_query: RecordQuery
    target_query: RecordQuery
    predicate: Optional[PairPredicate] = None
    join_on: Optional[Tuple[str, str]] = None

    def accepts(
        self,
        source: ProvenanceRecord,
        target: ProvenanceRecord,
        skip_self_check: bool = False,
    ) -> bool:
        """Whether the rule links *source* → *target*.

        A record never correlates with itself; *skip_self_check* lets the
        planner drop that guard when it has proved the source and target
        queries disjoint (no record can appear on both sides), saving one
        comparison per pair.
        """
        if not skip_self_check and source.record_id == target.record_id:
            return False
        if self.predicate is None:
            return True
        return self.predicate(source, target)


def attribute_join(
    name: str,
    relation_type: str,
    source_query: RecordQuery,
    target_query: RecordQuery,
    source_attribute: str,
    target_attribute: str,
) -> CorrelationRule:
    """Rule linking records whose named attributes are equal and present."""

    def predicate(source: ProvenanceRecord, target: ProvenanceRecord) -> bool:
        left = source.get(source_attribute)
        right = target.get(target_attribute)
        return left is not None and left == right

    return CorrelationRule(
        name=name,
        relation_type=relation_type,
        source_query=source_query,
        target_query=target_query,
        predicate=predicate,
        join_on=(source_attribute, target_attribute),
    )


def co_trace(
    name: str,
    relation_type: str,
    source_query: RecordQuery,
    target_query: RecordQuery,
) -> CorrelationRule:
    """Rule linking all matching source/target pairs within each trace."""
    return CorrelationRule(
        name=name,
        relation_type=relation_type,
        source_query=source_query,
        target_query=target_query,
    )


@dataclass(frozen=True)
class SequenceRule:
    """Derive control-flow edges: each record to its immediate successor.

    The paper's §II.C relation inventory includes ``next task`` — an edge
    the IT level does not emit; it is "derived from the context" by
    ordering a trace's task records in time and linking neighbours.  A
    SequenceRule does that for any record query: per trace, matching
    records are sorted by (timestamp, record id) and each is linked to the
    next one.

    Attributes:
        name: rule name (kept on the emitted relations for audit).
        relation_type: the emitted relation (e.g. ``nextTask``).
        query: which records participate in the sequence.
    """

    name: str
    relation_type: str
    query: RecordQuery

    def ordered_pairs(self, records):
        """Consecutive (predecessor, successor) pairs in time order."""
        ordered = sorted(records, key=lambda r: (r.timestamp, r.record_id))
        return list(zip(ordered, ordered[1:]))


# -- planning -----------------------------------------------------------------

#: plan kinds (``RulePlan.kind``)
PLAN_HASH_JOIN = "hash_join"
PLAN_BUCKET_PRODUCT = "bucket_product"
PLAN_PAIRWISE = "pairwise"
PLAN_SEQUENCE = "sequence"


@dataclass(frozen=True)
class RulePlan:
    """How the analytics will execute one rule.

    Attributes:
        rule: the planned :class:`CorrelationRule` or :class:`SequenceRule`.
        kind: one of :data:`PLAN_HASH_JOIN`, :data:`PLAN_BUCKET_PRODUCT`,
            :data:`PLAN_PAIRWISE`, :data:`PLAN_SEQUENCE`.
        disjoint: source and target queries are provably disjoint, so the
            per-pair self-correlation guard is skipped.
    """

    rule: object
    kind: str
    disjoint: bool = False


def queries_provably_disjoint(a: RecordQuery, b: RecordQuery) -> bool:
    """Whether no record can match both *a* and *b*.

    A conservative structural proof: both queries pin the entity type (or
    the record class) to different constants.  A record has exactly one
    type and one class, so differing constants cannot both match.  ``False``
    means "not proven", not "overlapping".
    """
    if (
        a.entity_type is not None
        and b.entity_type is not None
        and a.entity_type != b.entity_type
    ):
        return True
    if (
        a.record_class is not None
        and b.record_class is not None
        and a.record_class is not b.record_class
    ):
        return True
    return False


def plan_rule(rule) -> RulePlan:
    """Classify one rule into its execution plan."""
    if isinstance(rule, SequenceRule):
        return RulePlan(rule, PLAN_SEQUENCE)
    disjoint = queries_provably_disjoint(
        rule.source_query, rule.target_query
    )
    if rule.join_on is not None:
        return RulePlan(rule, PLAN_HASH_JOIN, disjoint)
    if rule.predicate is None:
        return RulePlan(rule, PLAN_BUCKET_PRODUCT, disjoint)
    return RulePlan(rule, PLAN_PAIRWISE, disjoint)


@dataclass
class CorrelationStats:
    """Work accounting for one analytics run.

    Attributes:
        rules_hash_join / rules_bucket / rules_pairwise / rules_sequence:
            rule counts per plan kind (classification, once per run).
        hash_fallbacks: hash-join executions that degraded to the pairwise
            scan at runtime (unhashable join values).
        pairs_naive: pairs the cartesian product would have scanned.
        pairs_considered: pairs the plans actually examined.
        pairs_emitted: relations appended.
        self_checks_skipped: pair examinations where the planner's
            disjointness proof elided the self-correlation guard.
    """

    rules_hash_join: int = 0
    rules_bucket: int = 0
    rules_pairwise: int = 0
    rules_sequence: int = 0
    hash_fallbacks: int = 0
    pairs_naive: int = 0
    pairs_considered: int = 0
    pairs_emitted: int = 0
    self_checks_skipped: int = 0

    @property
    def pairs_reduction(self) -> float:
        """pairs_considered / pairs_naive (1.0 when nothing was scanned)."""
        if not self.pairs_naive:
            return 1.0
        return self.pairs_considered / self.pairs_naive

    def as_dict(self) -> dict:
        return {
            "rules_hash_join": self.rules_hash_join,
            "rules_bucket": self.rules_bucket,
            "rules_pairwise": self.rules_pairwise,
            "rules_sequence": self.rules_sequence,
            "hash_fallbacks": self.hash_fallbacks,
            "pairs_naive": self.pairs_naive,
            "pairs_considered": self.pairs_considered,
            "pairs_emitted": self.pairs_emitted,
            "self_checks_skipped": self.self_checks_skipped,
            "pairs_reduction": self.pairs_reduction,
        }


class _TraceBuckets:
    """One trace's records bucketed by entity type and record class.

    Built from a single per-trace fetch (append order); candidate lists for
    a scoped query come from the narrowest bucket, re-filtered with
    :meth:`RecordQuery.matches` — exactly what ``store.select`` would
    return, without re-touching the store per (rule, side).  Relations the
    run emits are folded in so later rules see them, matching the
    fallback's per-rule re-select.
    """

    def __init__(self, records: Iterable[ProvenanceRecord]) -> None:
        self.records: List[ProvenanceRecord] = list(records)
        self.by_type: Dict[str, List[ProvenanceRecord]] = {}
        self.by_class: Dict[RecordClass, List[ProvenanceRecord]] = {}
        for record in self.records:
            self._bucket(record)

    def _bucket(self, record: ProvenanceRecord) -> None:
        self.by_type.setdefault(record.entity_type, []).append(record)
        self.by_class.setdefault(record.record_class, []).append(record)

    def add(self, record: ProvenanceRecord) -> None:
        self.records.append(record)
        self._bucket(record)

    def candidates(self, query: RecordQuery) -> List[ProvenanceRecord]:
        if query.entity_type is not None:
            base = self.by_type.get(query.entity_type, ())
        elif query.record_class is not None:
            base = self.by_class.get(query.record_class, ())
        else:
            base = self.records
        return [record for record in base if query.matches(record)]


class CorrelationAnalytics:
    """Runs correlation rules over a store and appends relation records.

    The analytics are idempotent per run: an edge (type, source, target) that
    already exists in its trace is not emitted again, so re-running after new
    events arrive only adds the genuinely new links.

    Args:
        store: the provenance store read from and appended to.
        model: data model for endpoint validation (defaults to the store's).
        ids: relation id factory; defaults to :func:`relation_ids`, which
            continues the store's ``REL<n>`` sequence.

    :meth:`run` executes each rule through its plan (hash joins, bucket
    products); :meth:`run_naive` is the per-rule cartesian scan it is
    checked against, with byte-identical output.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        model: Optional[ProvenanceDataModel] = None,
        ids: Optional[IdFactory] = None,
    ) -> None:
        self.store = store
        self.model = model if model is not None else store.model
        self.ids = ids if ids is not None else relation_ids(store)
        self._rules: List[CorrelationRule] = []
        #: stats of the most recent :meth:`run` (None before the first run).
        self.stats: Optional[CorrelationStats] = None

    def add_rule(self, rule) -> "CorrelationAnalytics":
        """Register a :class:`CorrelationRule` or :class:`SequenceRule`."""
        if self.model is not None and not self.model.has_relation_type(
            rule.relation_type
        ):
            raise CaptureError(
                f"correlation rule {rule.name!r} emits undeclared relation "
                f"type {rule.relation_type!r}"
            )
        self._rules.append(rule)
        return self

    @property
    def rules(self) -> List:
        return list(self._rules)

    def plan(self) -> List[RulePlan]:
        """The execution plan for every registered rule, in rule order."""
        return [plan_rule(rule) for rule in self._rules]

    def run(
        self, app_ids: Optional[Iterable[str]] = None
    ) -> List[RelationRecord]:
        """Run all rules over the given traces (default: all); returns the
        newly created relation records (already appended to the store)."""
        traces = list(app_ids) if app_ids is not None else self.store.app_ids()
        stats = self.stats = CorrelationStats()
        created: List[RelationRecord] = []
        plans = self.plan()
        for plan in plans:
            if plan.kind == PLAN_HASH_JOIN:
                stats.rules_hash_join += 1
            elif plan.kind == PLAN_BUCKET_PRODUCT:
                stats.rules_bucket += 1
            elif plan.kind == PLAN_PAIRWISE:
                stats.rules_pairwise += 1
            else:
                stats.rules_sequence += 1
        for app_id in traces:
            # One fetch per trace; every rule's candidates come from these
            # buckets instead of a store select per (rule, side).
            buckets = _TraceBuckets(
                self.store.select(RecordQuery(app_id=app_id))
            )
            existing = _edges(buckets.by_class.get(RecordClass.RELATION, ()))
            for plan in plans:
                if plan.kind == PLAN_SEQUENCE:
                    emitted = self._run_sequence_planned(
                        plan.rule, app_id, buckets, existing, stats
                    )
                elif plan.kind == PLAN_HASH_JOIN:
                    emitted = self._run_hash_join(
                        plan, app_id, buckets, existing, stats
                    )
                else:
                    emitted = self._run_product(
                        plan, app_id, buckets, existing, stats
                    )
                for relation in emitted:
                    buckets.add(relation)
                created.extend(emitted)
        return created

    def run_naive(
        self, app_ids: Optional[Iterable[str]] = None
    ) -> List[RelationRecord]:
        """:meth:`run` without plans: every rule scans every (source,
        target) pair of each trace, one store select per rule side.

        The reference path the planner is checked against: same relations,
        same ids, same order, at cartesian cost.
        """
        traces = list(app_ids) if app_ids is not None else self.store.app_ids()
        stats = self.stats = CorrelationStats()
        created: List[RelationRecord] = []
        for app_id in traces:
            existing = _edges(
                self.store.select(
                    RecordQuery(
                        record_class=RecordClass.RELATION, app_id=app_id
                    )
                )
            )
            for rule in self._rules:
                if isinstance(rule, SequenceRule):
                    created.extend(
                        self._run_sequence_on_trace(
                            rule, app_id, existing, stats
                        )
                    )
                else:
                    created.extend(
                        self._run_rule_on_trace(
                            rule, app_id, existing, stats
                        )
                    )
        return created

    # -- emission (shared by every plan) ------------------------------------

    def _emit(
        self,
        rule,
        app_id: str,
        source: ProvenanceRecord,
        target: ProvenanceRecord,
        existing: set,
        stats: CorrelationStats,
    ) -> Optional[RelationRecord]:
        """Append one relation for an accepted pair (None when it exists)."""
        key = (rule.relation_type, source.record_id, target.record_id)
        if key in existing:
            return None
        existing.add(key)
        relation = RelationRecord.create(
            record_id=self.ids.next(_REL_PREFIX),
            app_id=app_id,
            entity_type=rule.relation_type,
            source_id=source.record_id,
            target_id=target.record_id,
            timestamp=max(source.timestamp, target.timestamp),
            attributes={"rule": rule.name},
        )
        if self.model is not None:
            self.model.validate_relation_endpoints(relation, source, target)
        self.store.append(relation)
        stats.pairs_emitted += 1
        return relation

    # -- planned execution ---------------------------------------------------

    def _run_hash_join(
        self,
        plan: RulePlan,
        app_id: str,
        buckets: _TraceBuckets,
        existing: set,
        stats: CorrelationStats,
    ) -> List[RelationRecord]:
        """Equality join via a hash table built on the smaller side.

        Emission order is the nested loop's (sources outer in append
        order, targets inner in append order): probing sources against a
        target-side table yields that order directly; a source-side table
        collects (source position, target position) matches and sorts.
        """
        rule = plan.rule
        sources = buckets.candidates(_scope(rule.source_query, app_id))
        targets = buckets.candidates(_scope(rule.target_query, app_id))
        stats.pairs_naive += len(sources) * len(targets)
        source_attr, target_attr = rule.join_on
        created: List[RelationRecord] = []
        skip_self = plan.disjoint

        def matched_pair(source, target):
            stats.pairs_considered += 1
            if skip_self:
                stats.self_checks_skipped += 1
            elif source.record_id == target.record_id:
                return
            relation = self._emit(
                rule, app_id, source, target, existing, stats
            )
            if relation is not None:
                created.append(relation)

        try:
            if len(targets) <= len(sources):
                table: Dict[object, list] = {}
                for target in targets:
                    value = target.get(target_attr)
                    if value is not None:
                        table.setdefault(value, []).append(target)
                for source in sources:
                    value = source.get(source_attr)
                    if value is None:
                        continue
                    for target in table.get(value, ()):
                        matched_pair(source, target)
            else:
                table = {}
                for position, source in enumerate(sources):
                    value = source.get(source_attr)
                    if value is not None:
                        table.setdefault(value, []).append(
                            (position, source)
                        )
                matches = []
                for position, target in enumerate(targets):
                    value = target.get(target_attr)
                    if value is None:
                        continue
                    for source_position, source in table.get(value, ()):
                        matches.append(
                            (source_position, position, source, target)
                        )
                matches.sort(key=lambda m: (m[0], m[1]))
                for __, __, source, target in matches:
                    matched_pair(source, target)
        except TypeError:
            # Unhashable join value: degrade this (rule, trace) to the
            # pairwise scan.  Nothing was emitted yet (hashing happens
            # before any probe), so the scan starts clean.
            stats.hash_fallbacks += 1
            return self._scan_pairs(
                plan, app_id, sources, targets, existing, stats,
                count_naive=False,
            )
        return created

    def _run_product(
        self,
        plan: RulePlan,
        app_id: str,
        buckets: _TraceBuckets,
        existing: set,
        stats: CorrelationStats,
    ) -> List[RelationRecord]:
        """Bucket product (no predicate) or pairwise scan (opaque one)."""
        rule = plan.rule
        sources = buckets.candidates(_scope(rule.source_query, app_id))
        targets = buckets.candidates(_scope(rule.target_query, app_id))
        return self._scan_pairs(
            plan, app_id, sources, targets, existing, stats
        )

    def _scan_pairs(
        self,
        plan: RulePlan,
        app_id: str,
        sources: List[ProvenanceRecord],
        targets: List[ProvenanceRecord],
        existing: set,
        stats: CorrelationStats,
        count_naive: bool = True,
    ) -> List[RelationRecord]:
        rule = plan.rule
        pairs = len(sources) * len(targets)
        if count_naive:
            stats.pairs_naive += pairs
        stats.pairs_considered += pairs
        if plan.disjoint:
            stats.self_checks_skipped += pairs
        created: List[RelationRecord] = []
        for source in sources:
            for target in targets:
                if not rule.accepts(
                    source, target, skip_self_check=plan.disjoint
                ):
                    continue
                relation = self._emit(
                    rule, app_id, source, target, existing, stats
                )
                if relation is not None:
                    created.append(relation)
        return created

    def _run_sequence_planned(
        self,
        rule: SequenceRule,
        app_id: str,
        buckets: _TraceBuckets,
        existing: set,
        stats: CorrelationStats,
    ) -> List[RelationRecord]:
        records = buckets.candidates(_scope(rule.query, app_id))
        created: List[RelationRecord] = []
        for source, target in rule.ordered_pairs(records):
            stats.pairs_considered += 1
            stats.pairs_naive += 1
            relation = self._emit(
                rule, app_id, source, target, existing, stats
            )
            if relation is not None:
                created.append(relation)
        return created

    # -- naive execution (the planner's differential baseline) ---------------

    def _run_sequence_on_trace(
        self,
        rule: SequenceRule,
        app_id: str,
        existing: set,
        stats: CorrelationStats,
    ) -> List[RelationRecord]:
        records = self.store.select(_scope(rule.query, app_id))
        created: List[RelationRecord] = []
        for source, target in rule.ordered_pairs(records):
            stats.pairs_considered += 1
            stats.pairs_naive += 1
            relation = self._emit(
                rule, app_id, source, target, existing, stats
            )
            if relation is not None:
                created.append(relation)
        return created

    def _run_rule_on_trace(
        self,
        rule: CorrelationRule,
        app_id: str,
        existing: set,
        stats: CorrelationStats,
    ) -> List[RelationRecord]:
        source_query = _scope(rule.source_query, app_id)
        target_query = _scope(rule.target_query, app_id)
        sources = self.store.select(source_query)
        targets = self.store.select(target_query)
        pairs = len(sources) * len(targets)
        stats.pairs_naive += pairs
        stats.pairs_considered += pairs
        created: List[RelationRecord] = []
        for source in sources:
            for target in targets:
                if not rule.accepts(source, target):
                    continue
                relation = self._emit(
                    rule, app_id, source, target, existing, stats
                )
                if relation is not None:
                    created.append(relation)
        return created


def _edges(relations: Iterable[ProvenanceRecord]) -> set:
    """The ``(type, source, target)`` keys of one trace's relation rows."""
    return {(r.entity_type, r.source_id, r.target_id) for r in relations}


def _scope(query: RecordQuery, app_id: str) -> RecordQuery:
    """Restrict *query* to one trace."""
    return RecordQuery(
        record_class=query.record_class,
        app_id=app_id,
        entity_type=query.entity_type,
        predicates=query.predicates,
        since=query.since,
        until=query.until,
    )
