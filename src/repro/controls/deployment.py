"""Deployed controls: continuous compliance checking.

The real-time style of §II.A ("a query can be deployed into the provenance
store to emit results in real-time") applied to whole controls: a
:class:`ControlDeployment` subscribes to the store, and whenever a record
arrives whose entity type is *relevant* to a deployed control (one of the
node types behind the control's concepts), that control is re-checked for
the affected trace.  Results are written back as control-point subgraphs
(:mod:`repro.controls.binding`) and streamed to listeners (dashboards).

Under the hood this is the continuous view over the evaluator's
:class:`~repro.controls.materializer.VerdictMaterializer`: deploying a
control registers it on the shared verdict table with a per-control
relevance filter, appends dirty (control, trace) pairs through the store's
observer fan-out, and re-checks drain the dirty set — so only pairs whose
inputs changed re-evaluate, which is what makes the deployed style cheaper
than re-running the evaluator over the whole store (experiment E5 measures
exactly this).  Because the table is shared, a batch ``evaluator.run()``
and the deployment read the same verdicts instead of maintaining rival
caches.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.brms.vocabulary import Vocabulary
from repro.brms.xom import ExecutableObjectModel
from repro.controls.binding import CONTROL_NODE_TYPE, ControlBinder
from repro.controls.control import InternalControl
from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.materializer import VerdictTransition
from repro.controls.status import ComplianceResult
from repro.errors import DeploymentError
from repro.model.records import ProvenanceRecord
from repro.store.store import ProvenanceStore

ResultListener = Callable[[ComplianceResult], None]


def _is_control_artifact(record: ProvenanceRecord) -> bool:
    """Rows written by a binder: control points and their ``checks`` edges.

    These must never dirty the verdict table, or every bound result would
    trigger another evaluation of the same trace — a feedback loop.
    """
    if record.entity_type == CONTROL_NODE_TYPE:
        return True
    return record.entity_type.startswith("checks")


class ControlDeployment:
    """Continuous checking of deployed controls over a live store."""

    def __init__(
        self,
        store: ProvenanceStore,
        xom: ExecutableObjectModel,
        vocabulary: Vocabulary,
        bind_results: bool = True,
        observable_types: Optional[Set[str]] = None,
        immediate: bool = True,
        execution_mode: str = "compiled",
    ) -> None:
        """Args:
            immediate: when True (default), every relevant append re-checks
                the affected controls at once — per-event freshness.  When
                False, appends only mark (control, trace) pairs dirty and
                :meth:`flush` evaluates each dirty pair once — micro-batched
                freshness at a fraction of the evaluations (experiment E5).
            execution_mode: rule execution back end
                (see :class:`~repro.brms.engine.RuleEngine`).  Re-checks
                reuse the engine's per-rule compiled closures, so a deployed
                control is lowered once and re-checked by direct calls.
        """
        self.store = store
        self.vocabulary = vocabulary
        self.evaluator = ComplianceEvaluator(
            store, xom, vocabulary, observable_types,
            execution_mode=execution_mode,
        )
        # The deployment is a view over the evaluator's materialized
        # verdict table; binder artifacts are invisible to dirty tracking.
        self.materializer = self.evaluator.materializer
        self.materializer.ignore = _is_control_artifact
        self.materializer.subscribe(self._on_transition)
        self.binder = ControlBinder(store) if bind_results else None
        self.immediate = immediate
        self._deployed: Set[str] = set()
        self._listeners: List[ResultListener] = []
        self._attached = False

    # -- lifecycle ------------------------------------------------------------

    def deploy(self, control: InternalControl) -> None:
        """Deploy *control*; future appends trigger re-checks.

        Existing traces are checked immediately (history replay), matching
        continuous-query semantics.
        """
        if control.name in self._deployed:
            raise DeploymentError(f"control {control.name!r} already deployed")
        if control.unbound_parameters():
            raise DeploymentError(
                f"control {control.name!r} cannot be deployed with unbound "
                f"parameters {control.unbound_parameters()}; specialize it "
                f"or give defaults"
            )
        relevant_types = {
            self.vocabulary.concept(concept).node_type
            for concept in control.compiled.concepts
        }
        self._deployed.add(control.name)
        # Registration marks every known trace dirty (history replay) and
        # scopes future dirty marking to the control's relevant node types.
        self.materializer.register(control, relevant_types=relevant_types)
        self._attach()
        if self.immediate:
            self.flush()

    def undeploy(self, name: str) -> None:
        if name not in self._deployed:
            raise DeploymentError(f"control {name!r} is not deployed")
        self._deployed.discard(name)
        self.materializer.unregister(name)

    def subscribe(self, listener: ResultListener) -> None:
        """Receive every new compliance result as it is produced."""
        self._listeners.append(listener)

    # -- results ------------------------------------------------------------------

    def latest(
        self, control_name: str, trace_id: str
    ) -> Optional[ComplianceResult]:
        """Most recent result for a (control, trace) pair."""
        return self.materializer.latest(control_name, trace_id)

    def all_latest(self) -> List[ComplianceResult]:
        """Most recent result of every (control, trace) pair."""
        return self.materializer.all_latest()

    @property
    def rechecks(self) -> int:
        """Number of (control, trace) evaluations run through the table."""
        return self.materializer.refreshes

    @property
    def dirty_count(self) -> int:
        """How many (control, trace) pairs await a flush."""
        return self.materializer.dirty_count

    # -- plumbing -------------------------------------------------------------------

    def _attach(self) -> None:
        # The materializer (subscribed at evaluator construction) marks
        # dirty pairs first; this trigger then drains them, so immediate
        # mode stays per-event fresh.
        if not self._attached:
            self.store.subscribe(self._on_append)
            self._attached = True

    def _on_append(self, record: ProvenanceRecord) -> None:
        if _is_control_artifact(record):
            # Our own binder's writes (fired mid-flush) must not re-enter.
            return
        if self.immediate:
            self.flush()

    def _on_transition(self, transition: VerdictTransition) -> None:
        # Every refresh of the shared table lands here: write the control
        # point back into the store, then fan out to listeners.
        result = transition.result
        if self.binder is not None:
            self.binder.bind(result)
        for listener in list(self._listeners):
            listener(result)

    def flush(self) -> List[ComplianceResult]:
        """Evaluate every dirty (control, trace) pair once.

        Immediate mode calls this after every append; batched mode leaves
        it to the caller (e.g. after a correlation run), which is what
        makes it cheaper — a burst of records for one trace costs one
        evaluation, not one per record.
        """
        return self.materializer.refresh()
