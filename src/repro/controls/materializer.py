"""Materialized compliance verdicts — the incremental evaluation core.

§II.A promises that a deployed control "emits results in real-time"; the
run-time-compliance literature frames that as maintaining a *verdict state*
under event arrival rather than recomputing it by sweeps.  The
:class:`VerdictMaterializer` is that state: a materialized
``(control, trace) → ComplianceResult`` table kept current by dirty-pair
tracking driven from store appends (via the store's change feed / observer
fan-out), so that one appended record costs O(affected trace) — never
O(store).

Every existing evaluation style is a *view* over this one table:

- **batch sweep** (:meth:`ComplianceEvaluator.run <repro.controls.
  evaluator.ComplianceEvaluator.run>`, and every served read) —
  :meth:`sweep`: drain the dirty pairs, then read the whole table in
  canonical (trace, control) order,
- **on-demand check** (``check_trace``) — :meth:`check`: a targeted
  refresh of one pair,
- **deployed controls** (:class:`~repro.controls.deployment.
  ControlDeployment`) — :meth:`refresh` after appends, with per-control
  *relevance* filters deciding which appends dirty which controls, and
  listeners receiving each refreshed verdict as a
  :class:`VerdictTransition` delta.

Because a clean pair's stored verdict is exactly what re-evaluating the
unchanged trace would produce (evaluation is deterministic and
``checked_at`` is a function of the trace), the table stays byte-identical
to a cold full sweep — the differential interleaving suite asserts this.

Each stored verdict is also kept JSON-encoded (``json.dumps`` of its
:meth:`~repro.controls.status.ComplianceResult.to_payload`), encoded once
when it is stored; served reads and snapshots join those bytes instead of
re-encoding the table.  A sweep keeps each trace's ``(result, bytes)``
row in control order and assembles the table from those rows, so a read
after a write walks the dirty pairs and the traces, never every pair.

Snapshots: :meth:`save` persists the table plus the feed cursor as backend
auxiliary state keyed by a fingerprint of the registered controls;
:meth:`restore` reloads it and replays ``changes_since(cursor)`` to mark
exactly the traces touched while the snapshot was cold.  On SQLite this
survives close/reopen, so ``check --incremental`` against a ``--db`` only
re-evaluates what changed since the last run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.controls.control import InternalControl
from repro.controls.status import ComplianceResult, ComplianceStatus
from repro.errors import BrmsError, StoreError
from repro.faults.points import crash_point
from repro.model.records import ProvenanceRecord, RelationRecord
from repro.store.cursor import coerce_cursor, cursor_covers, cursor_to_wire

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.controls.evaluator import ComplianceEvaluator

#: Version tag of the snapshot wire format.
_SNAPSHOT_VERSION = 1

#: one materialized verdict and its JSON bytes.
VerdictRow = Tuple[ComplianceResult, bytes]


def _encode(result: ComplianceResult) -> bytes:
    """A verdict's wire bytes; the one encoder for reads and snapshots."""
    return json.dumps(result.to_payload()).encode()


@dataclass(frozen=True)
class VerdictTransition:
    """One verdict delta: a (control, trace) pair got a fresh result.

    ``previous`` is the status the pair held before this refresh (``None``
    for the first materialization).  ``changed`` distinguishes actual
    status flips — what dashboards and audit logs care about — from
    re-confirmations of the same status on new evidence.
    """

    result: ComplianceResult
    previous: Optional[ComplianceStatus]

    @property
    def control_name(self) -> str:
        return self.result.control_name

    @property
    def trace_id(self) -> str:
        return self.result.trace_id

    @property
    def status(self) -> ComplianceStatus:
        return self.result.status

    @property
    def changed(self) -> bool:
        return self.previous is not self.result.status

    def describe(self) -> str:
        """One line: ``gm-approval @ App10: violated -> satisfied``."""
        before = self.previous.value if self.previous else "(new)"
        return (
            f"{self.control_name} @ {self.trace_id}: "
            f"{before} -> {self.status.value}"
        )


TransitionListener = Callable[[VerdictTransition], None]
IgnorePredicate = Callable[[ProvenanceRecord], bool]


class VerdictMaterializer:
    """Maintains the materialized (control, trace) verdict table.

    Args:
        evaluator: the :class:`~repro.controls.evaluator.
            ComplianceEvaluator` whose raw ``evaluate_pair`` computes
            verdicts; the materializer subscribes to its store.
        ignore: optional predicate; records it accepts never dirty
            anything (deployments use it to skip their own binder's
            control-point rows).
    """

    def __init__(
        self,
        evaluator: "ComplianceEvaluator",
        ignore: Optional[IgnorePredicate] = None,
    ) -> None:
        self.evaluator = evaluator
        self.store = evaluator.store
        self.ignore = ignore
        self._controls: Dict[str, InternalControl] = {}
        # Per control: node types whose arrival dirties it; None = every
        # record of the trace does (the exact-sweep-parity default).
        self._relevance: Dict[str, Optional[Set[str]]] = {}
        self._verdicts: Dict[Tuple[str, str], ComplianceResult] = {}
        # Each stored verdict's wire bytes, json.dumps(to_payload()).
        self._encoded: Dict[Tuple[str, str], bytes] = {}
        # Per trace, the sweep's rows for the controls in _row_names, in
        # that order.  Storing a verdict drops its trace's entry; restore
        # and registry changes drop them all.
        self._row_names: Tuple[str, ...] = ()
        self._trace_rows: Dict[str, Tuple[VerdictRow, ...]] = {}
        # Dirty (control, trace) pairs in first-marked order (dict keys:
        # deduped and FIFO, like the deployment's old tracking).
        self._dirty: Dict[Tuple[str, str], None] = {}
        self._listeners: List[TransitionListener] = []
        #: change-feed cursor: the store seq already folded into the table
        #: or the dirty set.
        self.cursor = self.store.last_seq()
        #: (control, trace) evaluations actually run.
        self.refreshes = 0
        #: monotonic transition epoch: bumped whenever the materialized
        #: view (or what it would answer) may have changed — new verdicts,
        #: freshly dirtied pairs, registry changes, snapshot restores.
        #: Read caches key on it to detect staleness without locking.
        self.epoch = 0
        self.store.subscribe(self._on_append)

    # -- control registry ----------------------------------------------------

    def register(
        self,
        control: InternalControl,
        relevant_types: Optional[Set[str]] = None,
    ) -> bool:
        """Track *control*; marks every known trace dirty for it.

        Registering the identical control object again is a no-op (so
        repeated sweeps over the same control set stay incremental); a
        *different* control under the same name replaces it and forces a
        full re-materialization of that control's column.  Returns whether
        anything new was registered.
        """
        existing = self._controls.get(control.name)
        if existing is control:
            if relevant_types is not None:
                self._relevance[control.name] = set(relevant_types)
            return False
        self._controls[control.name] = control
        self._relevance[control.name] = (
            set(relevant_types) if relevant_types is not None else None
        )
        for trace_id in self.store.app_ids():
            self._dirty.setdefault((control.name, trace_id))
        self._trace_rows = {}
        self.epoch += 1
        return True

    def unregister(self, name: str) -> None:
        """Stop tracking a control.  Its materialized verdicts remain
        readable, but dirty pairs for it are skipped at refresh time."""
        self._controls.pop(name, None)
        self._relevance.pop(name, None)
        self._trace_rows = {}
        self.epoch += 1

    def registered(self, name: str) -> bool:
        return name in self._controls

    @property
    def controls(self) -> List[InternalControl]:
        return list(self._controls.values())

    # -- reads ---------------------------------------------------------------

    def latest(
        self, control_name: str, trace_id: str
    ) -> Optional[ComplianceResult]:
        """The materialized verdict of one pair (may be pending-dirty)."""
        return self._verdicts.get((control_name, trace_id))

    def all_latest(self) -> List[ComplianceResult]:
        """Every materialized verdict, in first-materialized order."""
        return list(self._verdicts.values())

    @property
    def dirty_count(self) -> int:
        """How many (control, trace) pairs await a refresh."""
        return len(self._dirty)

    def dirty_traces(self) -> List[str]:
        """Distinct trace ids with at least one dirty pair, FIFO order."""
        seen: Dict[str, None] = {}
        for __, trace_id in self._dirty:
            seen.setdefault(trace_id)
        return list(seen)

    # -- listeners -----------------------------------------------------------

    def subscribe(self, listener: TransitionListener) -> None:
        """Receive a :class:`VerdictTransition` for every refreshed pair."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: TransitionListener) -> None:
        self._listeners.remove(listener)

    # -- dirty tracking ------------------------------------------------------

    def _on_append(self, record: ProvenanceRecord) -> None:
        # Store observers fire once per commit, in order, so the store's
        # cursor at this moment is exactly this record's seq.
        self.cursor = self.store.last_seq()
        self.epoch += 1
        if self.ignore is not None and self.ignore(record):
            return
        for name in self._controls:
            if self._is_relevant(name, record):
                self._dirty.setdefault((name, record.app_id))

    def _is_relevant(self, name: str, record: ProvenanceRecord) -> bool:
        types = self._relevance.get(name)
        if types is None:
            return True
        if isinstance(record, RelationRecord):
            # A new edge can complete a control's subgraph even though its
            # endpoints arrived earlier.
            for node_id in (record.source_id, record.target_id):
                if node_id in self.store:
                    if self.store.get(node_id).entity_type in types:
                        return True
            return False
        return record.entity_type in types

    def mark(self, control_name: str, trace_id: str) -> None:
        """Explicitly dirty one pair (forces re-evaluation on refresh)."""
        self._dirty.setdefault((control_name, trace_id))
        self.epoch += 1

    def invalidate_all(self) -> None:
        """Dirty every (registered control, known trace) pair."""
        for trace_id in self.store.app_ids():
            for name in self._controls:
                self._dirty.setdefault((name, trace_id))
        self.epoch += 1

    # -- refresh -------------------------------------------------------------

    def _refresh_pair(
        self, control: InternalControl, trace_id: str
    ) -> ComplianceResult:
        self.refreshes += 1
        try:
            result = self.evaluator.evaluate_pair(control, trace_id)
        except (StoreError, BrmsError) as exc:
            # The trace's evidence could not be read — e.g. a row
            # tampered with at rest failed to decode — or does not fit
            # the vocabulary, e.g. a cloned row gave a node a second edge
            # where the XOM expects one.  Either must surface as an
            # explicit verdict (and a transition, so deployed listeners
            # hear about it), never as a silent skip or a crashed sweep.
            result = ComplianceResult(
                control_name=control.name,
                trace_id=trace_id,
                status=ComplianceStatus.ERROR,
                alerts=[f"evaluation failed: {exc}"],
            )
        self._store_result(result)
        return result

    def _store_result(self, result: ComplianceResult) -> None:
        key = (result.control_name, result.trace_id)
        previous = self._verdicts.get(key)
        self._verdicts[key] = result
        self.epoch += 1
        transition = VerdictTransition(
            result=result,
            previous=previous.status if previous is not None else None,
        )
        try:
            for listener in list(self._listeners):
                listener(transition)
        finally:
            # Encoded after the listeners: a deployment's binder fills in
            # ``control_node_id`` from its transition listener.
            self._encoded[key] = _encode(result)
            self._trace_rows.pop(result.trace_id, None)

    def refresh(self) -> List[ComplianceResult]:
        """Evaluate every dirty pair once, in first-marked order.

        Pairs whose control was unregistered while dirty are skipped (and
        forgotten).  This is the deployed-controls drain: a burst of
        records for one trace costs one evaluation per affected control,
        not one per record.
        """
        pending, self._dirty = list(self._dirty), {}
        results = []
        done = 0
        try:
            for control_name, trace_id in pending:
                control = self._controls.get(control_name)
                if control is not None:
                    results.append(self._refresh_pair(control, trace_id))
                done += 1
        finally:
            self._redirty(pending[done:])
        return results

    def _redirty(self, keys: Sequence[Tuple[str, str]]) -> None:
        """Put pairs an interrupted refresh did not finish back in front
        of the dirty set, so a retry evaluates them instead of serving
        their stale verdicts as clean."""
        if keys:
            self._dirty = {**dict.fromkeys(keys), **self._dirty}

    def check(
        self, control: InternalControl, trace_id: str
    ) -> ComplianceResult:
        """Targeted refresh of one pair; memoized while the trace is clean.

        Registers the control (so future appends dirty the pair) and
        evaluates only if the pair is dirty or was never materialized —
        otherwise the stored verdict is returned, which on an unchanged
        trace is exactly what re-evaluating would produce.
        """
        self.register(control)
        key = (control.name, trace_id)
        if key in self._dirty:
            del self._dirty[key]
            return self._refresh_pair(control, trace_id)
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        return self._refresh_pair(control, trace_id)

    def sweep(
        self,
        controls: Sequence[InternalControl],
        trace_ids: Optional[Iterable[str]] = None,
    ) -> List[VerdictRow]:
        """The batch view: refresh what is stale, then read the table.

        Returns one ``(result, bytes)`` row per (trace, control) in
        canonical sweep order — traces in first-seen order (or the
        *trace_ids* given), controls in the order passed — byte-identical
        to a cold full sweep; the bytes are exactly
        ``json.dumps(result.to_payload()).encode()``.  Only stale pairs
        are evaluated: the dirty pairs of these controls, and the pairs
        never evaluated, found among the traces without a kept row.  They
        run in canonical order, so transitions arrive in it too.  Their
        frames come from one store scan when most of the store's traces
        are stale, and from each stale trace's own rows otherwise
        (:meth:`~repro.controls.evaluator.ComplianceEvaluator.prime_frames`).
        The table is then joined from the kept per-trace rows; only the
        traces whose verdicts changed build theirs again.
        """
        for control in controls:
            self.register(control)
        ids = (
            list(trace_ids)
            if trace_ids is not None
            else self.store.app_ids()
        )
        names = tuple(control.name for control in controls)
        if names != self._row_names:
            self._row_names = names
            self._trace_rows = {}
        wanted = set(names)
        touched = {
            trace_id for name, trace_id in self._dirty if name in wanted
        }
        touched.update(
            trace_id for trace_id in ids if trace_id not in self._trace_rows
        )
        stale: List[Tuple[InternalControl, str]] = []
        if touched:
            dirty, verdicts = self._dirty, self._verdicts
            for trace_id in [t for t in ids if t in touched]:
                for control in controls:
                    key = (control.name, trace_id)
                    if key in dirty or key not in verdicts:
                        stale.append((control, trace_id))
        for control, trace_id in stale:
            self._dirty.pop((control.name, trace_id), None)
        if stale:
            try:
                self.evaluator.prime_frames(
                    list(dict.fromkeys(t for __, t in stale)),
                    controls=controls,
                )
            except StoreError:
                # An unreadable row anywhere poisons the shared scan; fall
                # through to per-pair refreshes, which confine the failure
                # to the affected trace's verdicts.
                pass
            done = 0
            try:
                for control, trace_id in stale:
                    self._refresh_pair(control, trace_id)
                    done += 1
            finally:
                self._redirty(
                    [(control.name, trace_id)
                     for control, trace_id in stale[done:]]
                )
        # Dirty pairs of controls outside this sweep's set stay dirty; the
        # assembled view reads only the columns asked for.  The kept rows
        # are read after the refreshes, which drop the rows they change.
        kept = self._trace_rows
        table: List[VerdictRow] = []
        for trace_id in ids:
            rows = kept.get(trace_id)
            if rows is None:
                keys = [(name, trace_id) for name in names]
                rows = kept[trace_id] = tuple(
                    (self._verdicts[key], self._encoded[key]) for key in keys
                )
            table.extend(rows)
        return table

    # -- snapshots -----------------------------------------------------------

    def fingerprint(self) -> str:
        """Identity of the materialized state: which controls, which rules.

        Two materializers with the same fingerprint would compute the same
        table over the same rows, so a snapshot saved by one is safe for
        the other.  Controls are fingerprinted by name, BAL source, and
        bound parameter defaults; the evaluator's observable-types
        configuration is included because it changes verdicts.
        """
        observable = self.evaluator.observable_types
        basis = {
            "controls": sorted(
                (
                    control.name,
                    control.source,
                    sorted(
                        (k, repr(v))
                        for k, v in control.parameter_defaults.items()
                    ),
                )
                for control in self._controls.values()
            ),
            "observable": (
                sorted(observable) if observable is not None else None
            ),
        }
        digest = hashlib.sha256(
            json.dumps(basis, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def _state_key(self) -> str:
        return f"verdicts:{self.fingerprint()}"

    def save(self) -> None:
        """Persist the table + cursor as backend auxiliary state.

        Dirty pairs are refreshed first so the snapshot is internally
        consistent: every saved verdict is current as of the saved cursor.
        """
        self.refresh()
        crash_point("materializer.save.mid_snapshot")
        # The text json.dumps of the whole snapshot gives, with the
        # verdicts joined from their stored bytes.
        cursor = json.dumps(cursor_to_wire(self.cursor))
        verdicts = b", ".join([self._encoded[key] for key in self._verdicts])
        payload = (
            f'{{"version": {_SNAPSHOT_VERSION}, "cursor": {cursor}, '
            f'"verdicts": [{verdicts.decode()}]}}'
        )
        self.store.save_state(self._state_key(), payload)

    def restore(self) -> bool:
        """Reload a snapshot and catch up through the change feed.

        Returns False (leaving state untouched) when the backend has no
        snapshot for the current control set.  On success the verdicts and
        cursor are adopted, and every trace appended to after the snapshot
        cursor is marked dirty for every registered control — so the next
        refresh/sweep re-evaluates exactly the rows the snapshot missed,
        never the whole store.

        Call after :meth:`register`-ing the control set (the snapshot key
        depends on it) and before new appends arrive through this handle.
        """
        raw = self.store.load_state(self._state_key())
        if raw is None:
            return False
        snapshot = json.loads(raw)
        if snapshot.get("version") != _SNAPSHOT_VERSION:
            return False
        # A snapshot written before every store was sharded carries a bare
        # int cursor; it reads as a one-shard position here, once, so old
        # snapshots keep restoring into one shard.  A cursor from another
        # shard layout does not coerce, and the caller rebuilds cold.
        try:
            snap_cursor = coerce_cursor(
                snapshot["cursor"], self.store.shard_count()
            )
        except ValueError:
            return False
        if not cursor_covers(self.store.last_seq(), snap_cursor):
            # The snapshot describes rows the store no longer holds — a
            # crash made the aux-state write outlive the row suffix it
            # summarized.  Its verdicts may cite vanished evidence, so the
            # only safe answer is a cold re-materialization.
            return False
        crash_point("materializer.restore.mid_restore")
        self._trace_rows = {}
        for entry in snapshot["verdicts"]:
            result = ComplianceResult.from_payload(entry)
            key = (result.control_name, result.trace_id)
            self._verdicts[key] = result
            self._encoded[key] = _encode(result)
        touched: Dict[str, None] = {}
        for __, record in self.store.changes_since(snap_cursor):
            touched.setdefault(record.app_id)
        for trace_id in touched:
            for name in self._controls:
                self._dirty.setdefault((name, trace_id))
        self.cursor = self.store.last_seq()
        # Traces the snapshot knew were dirtied at registration time; their
        # saved verdicts are current, so only snapshot-missed traces stay
        # dirty.
        for key in list(self._dirty):
            if key[1] not in touched and key in self._verdicts:
                del self._dirty[key]
        self.epoch += 1
        return True
