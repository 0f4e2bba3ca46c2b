"""Evaluating internal controls across execution traces.

The :class:`ComplianceEvaluator` is the on-demand (query-frontend) style of
§II.A: given a store and a set of controls, it builds each trace's graph
and runs every control against it, producing
:class:`~repro.controls.status.ComplianceResult` rows.  The deployed
(real-time) style lives in :mod:`repro.controls.deployment`.

Since the incremental-core refactor, both styles are views over one
engine: a :class:`~repro.controls.materializer.VerdictMaterializer` keeps
a materialized (control, trace) verdict table current under store appends,
and the evaluator's public entry points read it —

- :meth:`run` (batch sweep) drains the dirty pairs and assembles the
  table in canonical order; a sweep after one append re-evaluates one
  trace, not the store,
- :meth:`check_trace` (on-demand) is a targeted refresh of one pair,
- deployed controls subscribe to the same table's transition deltas.

Underneath, two sweep-speed mechanisms stack:

- **shared evaluation contexts** — each trace's graph and XOM wrapping are
  built once (a :class:`~repro.brms.bal.evaluate.TraceFrame`), cached, and
  invalidated per trace when the store appends records to that trace.  A
  sweep that finds most traces without a frame (a cold start) builds them
  from one projected store scan; a sweep after a few appends reads only
  the touched traces (:meth:`ComplianceEvaluator.prime_frames`),
- **compiled rule execution** — the engine defaults to the closure-codegen
  back end (``execution_mode="compiled"``).

:func:`reference_sweep` is the reference path both are checked against:
it builds every frame from full records and keeps nothing between calls.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.brms.bal.evaluate import TraceFrame
from repro.brms.bom import MemberKind
from repro.brms.engine import RuleEngine
from repro.brms.vocabulary import Vocabulary
from repro.brms.xom import ExecutableObjectModel
from repro.controls.control import InternalControl
from repro.controls.materializer import VerdictMaterializer
from repro.controls.status import ComplianceResult, ComplianceStatus
from repro.graph.build import build_trace_graph, graph_from_records
from repro.model.records import ProvenanceRecord
from repro.store.store import ProvenanceStore

#: Share of the store's traces that must lack a frame before a sweep
#: scans the store; see :meth:`ComplianceEvaluator.prime_frames`.
SCAN_SHARE = 0.8


def _check_with_frame(
    engine: RuleEngine,
    control: InternalControl,
    frame: TraceFrame,
    parameters: Optional[Dict[str, object]],
    observable_types: Optional[Set[str]],
) -> ComplianceResult:
    """One (control, trace) check against a prebuilt frame.

    The single code path every evaluation funnels through — direct and
    memoized checks and :func:`reference_sweep` produce rows from exactly
    this function, which is what makes their outputs byte-identical.
    """
    outcome = engine.evaluate(
        control.compiled,
        frame.graph,
        parameters=control.resolve_parameters(parameters),
        observable_types=observable_types,
        frame=frame,
    )
    result = ComplianceResult.from_outcome(outcome)
    result.control_name = control.name
    result.checked_at = frame.checked_at
    return result


def referenced_attributes(
    control: InternalControl, vocabulary: Vocabulary
) -> Optional[FrozenSet[str]]:
    """Record attributes *control*'s BAL rule can read, or ``None``.

    Rules touch record attributes only through navigation phrases that
    resolve to ATTRIBUTE members of the BOM, so the union of those
    members' attributes over the rule's phrases bounds the read set —
    which is what lets a sweep materialize projected records.  ``None``
    means the set cannot be bounded: a phrase that resolves to a VIRTUAL
    member (its Python getter may read anything) or resolves nowhere.
    RELATION members traverse graph edges, never attribute values.
    """
    needed: Set[str] = set()
    for phrase in control.compiled.phrases:
        resolved = False
        for bom_class in vocabulary.bom.classes():
            member = bom_class.member_by_phrase(phrase)
            if member is None:
                continue
            resolved = True
            if member.kind is MemberKind.VIRTUAL:
                return None
            if member.kind is MemberKind.ATTRIBUTE:
                needed.add(member.attribute)
        if not resolved:
            return None
    return frozenset(needed)


def reference_sweep(
    store: ProvenanceStore,
    xom: ExecutableObjectModel,
    vocabulary: Vocabulary,
    controls: Sequence[InternalControl],
    trace_ids: Optional[Iterable[str]] = None,
    observable_types: Optional[Set[str]] = None,
    execution_mode: str = "compiled",
) -> List[ComplianceResult]:
    """Every control over every trace, evaluated from scratch.

    The oracle :class:`ComplianceEvaluator` is held to.  Each trace's
    graph is built from its full decoded records, from one store scan,
    with no frame cache, no attribute projection and no verdict table, so
    a defect in any of those cannot hide on both sides of a comparison.
    Rows come in (trace, control) order, like
    :meth:`ComplianceEvaluator.run`.  Nothing is caught: an unreadable
    row or an evaluation error raises.
    """
    engine = RuleEngine(xom, vocabulary, execution_mode=execution_mode)
    grouped = store.records_by_trace()
    ids = list(trace_ids) if trace_ids is not None else store.app_ids()
    results: List[ComplianceResult] = []
    for trace_id in ids:
        frame = TraceFrame(
            graph_from_records(grouped.get(trace_id, ()), name=trace_id)
        )
        for control in controls:
            results.append(
                _check_with_frame(
                    engine, control, frame, None, observable_types
                )
            )
    return results


class ComplianceEvaluator:
    """Runs controls over trace graphs built from a provenance store.

    Per-trace evaluation frames (graph + XOM wraps) are cached across
    checks and invalidated per trace on store appends, and the
    (control, trace) verdicts live in :attr:`materializer`, memoized
    while their traces are clean.  :func:`reference_sweep` is the
    uncached oracle this class is held to.

    Args:
        execution_mode: rule execution back end, ``"compiled"`` (default)
            or ``"interpret"`` — see :class:`~repro.brms.engine.RuleEngine`.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        xom: ExecutableObjectModel,
        vocabulary: Vocabulary,
        observable_types: Optional[Set[str]] = None,
        execution_mode: str = "compiled",
    ) -> None:
        self.store = store
        self.engine = RuleEngine(
            xom, vocabulary, execution_mode=execution_mode
        )
        self.observable_types = observable_types
        self._frames: Dict[str, TraceFrame] = {}
        #: trace id → the attribute projection its cached frame was built
        #: under.  Absent means the frame holds full records and serves
        #: any control; a projected frame only serves controls whose read
        #: set it covers (wider needs rebuild the frame).
        self._frame_projection: Dict[str, FrozenSet[str]] = {}
        #: id(control) → (control, its referenced-attribute set); the
        #: control is kept in the value so the id can never be recycled
        #: while the entry lives.
        self._control_projections: Dict[
            int, Tuple[InternalControl, Optional[FrozenSet[str]]]
        ] = {}
        #: sweeps whose frames were built from projected records.
        self.projected_sweeps = 0
        self.graph_builds = 0  # trace graphs constructed (regression metric)
        # Frame invalidation must run before the materializer's dirty
        # marking (observers fire in subscription order), so a refresh
        # triggered by the same append sees a fresh frame.
        store.subscribe(self._on_store_append)
        self.materializer = VerdictMaterializer(self)

    # -- context cache -------------------------------------------------------

    def _on_store_append(self, record: ProvenanceRecord) -> None:
        # The trace gained a record; its cached frame is stale.
        self._frames.pop(record.app_id, None)
        self._frame_projection.pop(record.app_id, None)

    def clear_context_cache(self) -> None:
        """Drop every cached per-trace frame and dirty the verdict table,
        forcing the next sweep to rebuild and re-evaluate everything."""
        self._frames.clear()
        self._frame_projection.clear()
        self.materializer.invalidate_all()

    def _read_set(
        self, control: InternalControl
    ) -> Optional[FrozenSet[str]]:
        """*control*'s attribute read set, memoized; None = unbounded."""
        key = id(control)
        cached = self._control_projections.get(key)
        if cached is None or cached[0] is not control:
            cached = (
                control,
                referenced_attributes(control, self.engine.vocabulary),
            )
            self._control_projections[key] = cached
        return cached[1]

    def _projection_for(
        self, controls: Sequence[InternalControl]
    ) -> Optional[FrozenSet[str]]:
        """Union of the controls' attribute read sets; None = unbounded."""
        needed: Set[str] = set()
        for control in controls:
            read = self._read_set(control)
            if read is None:
                return None
            needed |= read
        return frozenset(needed)

    def _cached_frame(
        self, trace_id: str, needed: Optional[FrozenSet[str]]
    ) -> Optional[TraceFrame]:
        """The cached frame, when it can serve a read set of *needed*.

        A full frame serves anything; a projected frame only serves
        bounded read sets it covers.  A cached frame too narrow for
        *needed* is evicted (the rebuild will widen it).
        """
        frame = self._frames.get(trace_id)
        if frame is None:
            return None
        built_under = self._frame_projection.get(trace_id)
        if built_under is None:
            return frame
        if needed is not None and built_under >= needed:
            return frame
        self._frames.pop(trace_id, None)
        self._frame_projection.pop(trace_id, None)
        return None

    def _frame_for(
        self,
        trace_id: str,
        needed: Optional[FrozenSet[str]] = None,
    ) -> TraceFrame:
        """The trace's shared frame, built (and cached) on first use.

        *needed* is the caller's attribute read set, used only to decide
        whether a cached *projected* frame suffices; a frame built here
        always holds full records.
        """
        frame = self._cached_frame(trace_id, needed)
        if frame is not None:
            return frame
        self.graph_builds += 1
        frame = TraceFrame(build_trace_graph(self.store, trace_id))
        self._frames[trace_id] = frame
        self._frame_projection.pop(trace_id, None)
        return frame

    def prime_frames(
        self,
        trace_ids: Sequence[str],
        controls: Optional[Sequence[InternalControl]] = None,
    ) -> None:
        """Build the missing frames among *trace_ids* from one store scan,
        when most of the store's traces need one.

        A scan decodes every row of every trace, so it pays only when at
        least :data:`SCAN_SHARE` of the store's traces lack a frame (a
        cold sweep, a restart without a snapshot).  Below that share the
        call returns and :meth:`evaluate_pair` builds each missing frame
        from its own trace through the backend's APPID push-down, so a
        read after a write costs what the write touched, not the store.

        The share comes from building k random traces' frames both ways
        on 4-shard SQLite perfbench fixtures (seed 101, shared 2-vCPU
        host), median ms, scan vs per-trace reads:

        ======  ===============  ===============
        share   1,000 traces     3,000 traces
        ======  ===============  ===============
        10%     481 vs 64        --
        50%     452 vs 301       1,439 vs 934
        70%     622 vs 575       1,484 vs 1,299
        80%     545 vs 517       1,486 vs 1,509
        90%     494 vs 593       1,376 vs 1,608
        100%    485 vs 614       1,504 vs 1,893
        ======  ===============  ===============

        Per-trace reads win up to 70%, the two tie at 80%, and the scan
        wins from 90%.  An unindexed store (the E8 ablation knob) never
        primes: every evaluation there is *supposed* to pay a table scan.

        When *controls* is given and their attribute read set is bounded,
        the scan materializes only the referenced columns (on backends
        with a projection fast path); the cached frames remember their
        projection and rebuild if a wider read set ever shows up.
        """
        if not self.store.indexed:
            return
        projection = (
            self._projection_for(controls) if controls is not None else None
        )
        missing = [
            t
            for t in trace_ids
            if self._cached_frame(t, projection) is None
        ]
        if not missing or len(missing) < SCAN_SHARE * len(
            self.store.app_ids()
        ):
            return
        grouped = (
            self.store.records_by_trace_projected(projection)
            if projection is not None
            else None
        )
        if grouped is None:
            # Full records: the frames serve any control.
            grouped, projection = self.store.records_by_trace(), None
        else:
            self.projected_sweeps += 1
        for trace_id in missing:
            self.graph_builds += 1
            self._frames[trace_id] = TraceFrame(
                graph_from_records(grouped.get(trace_id, ()), name=trace_id)
            )
            if projection is None:
                self._frame_projection.pop(trace_id, None)
            else:
                self._frame_projection[trace_id] = projection

    # -- raw evaluation ------------------------------------------------------

    def evaluate_pair(
        self,
        control: InternalControl,
        trace_id: str,
        parameters: Optional[Dict[str, object]] = None,
    ) -> ComplianceResult:
        """Evaluate one (control, trace) pair, no verdict memoization.

        This is the materializer's refresh primitive; everything above it
        (sweeps, targeted checks, deployed re-checks) is policy about
        *when* to call it.
        """
        frame = self._frame_for(trace_id, needed=self._read_set(control))
        return _check_with_frame(
            self.engine, control, frame, parameters, self.observable_types
        )

    # -- single control -----------------------------------------------------

    def check_trace(
        self,
        control: InternalControl,
        trace_id: str,
        parameters: Optional[Dict[str, object]] = None,
        as_of: Optional[int] = None,
    ) -> ComplianceResult:
        """Check one control against one trace.

        Plain checks are targeted refreshes of the materialized table:
        the pair re-evaluates only if its trace changed since the last
        check (or was never checked), which on an unchanged trace returns
        the identical verdict a fresh evaluation would produce.

        Args:
            as_of: evaluate against the trace *as it looked* at this
                simulated time (records with later timestamps are invisible)
                — the audit question "was this trace compliant on date X?".
                Historical graphs bypass the context cache and the verdict
                table.
        """
        if as_of is not None:
            self.graph_builds += 1
            frame = TraceFrame(
                build_trace_graph(self.store, trace_id, as_of=as_of)
            )
            return _check_with_frame(
                self.engine, control, frame, parameters,
                self.observable_types,
            )
        if parameters is None:
            return self.materializer.check(control, trace_id)
        return self.evaluate_pair(control, trace_id, parameters)

    def check_all_traces(
        self,
        control: InternalControl,
        trace_ids: Optional[Iterable[str]] = None,
        parameters: Optional[Dict[str, object]] = None,
    ) -> List[ComplianceResult]:
        """Check one control against every trace in the store."""
        ids = list(trace_ids) if trace_ids is not None else self.store.app_ids()
        return [self.check_trace(control, trace_id, parameters)
                for trace_id in ids]

    # -- control sets ----------------------------------------------------------

    def run(
        self,
        controls: Sequence[InternalControl],
        trace_ids: Optional[Iterable[str]] = None,
    ) -> List[ComplianceResult]:
        """Check every control against every trace; rows in (trace,
        control) order.

        The sweep drains the materialized table's dirty pairs — traces
        appended to since the last sweep, plus any controls never swept —
        and reads everything else from the table, byte-identical to
        :func:`reference_sweep`.  A cold sweep materializes all its frames
        from one sequential backend scan.
        """
        return [
            result
            for result, __ in self.materializer.sweep(
                controls, trace_ids=trace_ids
            )
        ]

    # -- reporting ------------------------------------------------------------------

    @staticmethod
    def violations(
        results: Iterable[ComplianceResult],
    ) -> List[ComplianceResult]:
        """The exception report: only violated results."""
        return [
            result
            for result in results
            if result.status is ComplianceStatus.VIOLATED
        ]

    @staticmethod
    def summary(
        results: Iterable[ComplianceResult],
    ) -> Dict[str, Dict[str, int]]:
        """Per-control counts by status."""
        table: Dict[str, Dict[str, int]] = {}
        for result in results:
            row = table.setdefault(
                result.control_name,
                {status.value: 0 for status in ComplianceStatus},
            )
            row[result.status.value] += 1
        return table
