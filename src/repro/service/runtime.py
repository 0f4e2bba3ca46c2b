"""The long-lived compliance service core.

Every entry point the repo grew so far — ``simulate``/``check`` batch
runs, deployed controls, the served runtime — is an arrangement of
the same four parts: a :class:`~repro.store.store.ProvenanceStore`, a
server-side recorder pipeline, correlation analytics, and the
:class:`~repro.controls.materializer.VerdictMaterializer` behind a
:class:`~repro.controls.evaluator.ComplianceEvaluator`.  The
:class:`ComplianceRuntime` makes that engine explicit: one thread-safe
object that owns all four and exposes a small session API —

- :meth:`ingest` — run event batches through the recorder pipeline
  (typing, dedup) plus incremental correlation,
- :meth:`sync` — fold in rows *other processes* appended to the shared
  backend (the sharded multi-writer path), correlate the touched traces,
  and refresh the affected verdicts,
- :meth:`verdicts` — the materialized (control, trace) table, refreshed
  and read in canonical sweep order, byte-identical to a cold sweep;
  :meth:`verdict_rows` pairs each row with its stored JSON bytes,
- :meth:`stats` / :meth:`health` — observability,
- :meth:`snapshot` — persist the verdict table + feed cursor so a
  restarted runtime resumes from its cursor instead of re-evaluating
  clean traces,
- :meth:`start_background` — the continuous evaluation loop, a daemon
  thread of :meth:`sync` ticks behind a served runtime; callers that
  want their own cadence call :meth:`sync` directly.

Compliance here is an always-on monitoring service over event streams
(Governatori, arXiv 1403.6865), not an offline audit: recorder clients
stream events in over a transport (:mod:`repro.service.transport`) while
readers query verdicts that the background loop keeps fresh.  The HTTP
front end lives in :mod:`repro.service.http`; ``repro serve`` wires both.

Thread safety: the runtime runs one **ingest lane** per shard
(:mod:`repro.service.lanes`; a one-shard store has one lane) — each
lane owns its shard's store handle, recorder pipeline, dedup state, and
incremental correlation under its own lock, and events route to lanes by
the same stable APPID hash the backend uses — so concurrent ``ingest``
calls for different shards proceed in parallel.  The global re-entrant
lock fences only cross-shard state: materializer refreshes, snapshots,
shutdown, and the sync that folds lane output into the global view.
Hot reads (``verdicts``) are served from a read cache keyed by the
materializer's transition epoch plus every lane's commit counter, and
``stats`` / ``health`` / the ``last_seq`` of an ingest reply read lane
cursors, counters, and each lane's own store handle under that lane's
lock only, so none of them waits behind a refresh — or touches a
global shard connection, which only the global lock may use.

The fold hands each lane's committed records to the global store
handle's record cache (:meth:`_fold_lanes_locked`), so neither the
global sync nor the frame builds after it decode a row a lane wrote;
only rows other processes appended are decoded, once.  Handed-over
records are immutable and shared by the lane's handle and the global
one, and they are always full records: projected records never enter a
cache.  A read that misses the cache evaluates only the dirty pairs and
assembles the served table from the materializer's per-trace rows.
"""

from __future__ import annotations

import json
import sys
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.capture.correlation import relation_ids
from repro.capture.events import ApplicationEvent
from repro.capture.recorder import RecorderStats
from repro.controls.control import InternalControl
from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.materializer import (
    TransitionListener,
    VerdictRow,
    VerdictTransition,
)
from repro.controls.status import ComplianceResult, ComplianceStatus
from repro.errors import ServiceError
from repro.faults.points import crash_point
from repro.service.lanes import IngestLane
from repro.service.transport import IngestReply
from repro.store.cursor import VectorCursor, cursor_to_wire
from repro.store.store import ProvenanceStore

#: backend aux-state key the per-lane ingest counters persist under
#: (read offline by ``repro store-stats``).
LANE_STATS_KEY = "runtime:lane-stats"


@dataclass(frozen=True)
class StartupReport:
    """What :meth:`ComplianceRuntime.open` did.

    ``restored`` — whether a persisted verdict snapshot was adopted;
    ``evaluated`` — (control, trace) pairs the startup sweep actually
    re-evaluated (0 when the snapshot covered the whole store — the
    resume-from-cursor guarantee); ``traces`` / ``last_seq`` — store shape
    at startup, for banners.
    """

    restored: bool
    evaluated: int
    traces: int
    last_seq: VectorCursor


@dataclass(frozen=True)
class SyncOutcome:
    """One continuous-evaluation tick: sync → correlate → refresh."""

    new_rows: int
    correlated: int
    refreshed: int
    last_seq: VectorCursor

    def as_dict(self) -> Dict:
        return {
            "new_rows": self.new_rows,
            "correlated": self.correlated,
            "refreshed": self.refreshed,
            "last_seq": cursor_to_wire(self.last_seq),
        }


class ComplianceRuntime:
    """Owns the store, controls, and materializer behind a session API.

    Args:
        store: the provenance store (usually over a durable backend).
        xom / vocabulary / controls / observable_types / execution_mode:
            the evaluation stack, exactly as
            :class:`~repro.controls.evaluator.ComplianceEvaluator` takes
            it; *controls* is the set served and kept fresh.
        mapping: event mapping for :meth:`ingest`; ``None`` makes the
            runtime read-only over the stream.
        correlation_rules: rules run incrementally over traces touched by
            ingest/sync; empty disables correlation (e.g. when an
            upstream pipeline owns it).
        workload_name: label for banners and ``/health``.
        owns_store: close the store on :meth:`shutdown` (servers built
            from a CLI own theirs; embedded runtimes usually do not).
    """

    def __init__(
        self,
        store: ProvenanceStore,
        xom,
        vocabulary,
        controls: Sequence[InternalControl],
        observable_types: Optional[Set[str]] = None,
        execution_mode: str = "compiled",
        mapping=None,
        correlation_rules: Sequence = (),
        workload_name: str = "",
        owns_store: bool = False,
        transition_backlog: int = 1024,
    ) -> None:
        self.store = store
        self.controls = list(controls)
        self.workload_name = workload_name
        self.owns_store = owns_store
        self._lock = threading.RLock()
        self.evaluator = ComplianceEvaluator(
            store, xom, vocabulary,
            observable_types=observable_types,
            execution_mode=execution_mode,
        )
        materializer = self.evaluator.materializer
        if materializer is None:
            raise ServiceError(
                "ComplianceRuntime requires an incremental evaluator "
                "(share_contexts and incremental enabled)"
            )
        self.materializer = materializer
        self._mapping = mapping
        self._correlation_rules: Sequence = list(correlation_rules)
        #: one ingest lane per shard, built in :meth:`open`.
        self._lanes: List[IngestLane] = []
        # Live transition feed (ring buffer, monotonically indexed).
        self._transitions: Deque[Tuple[int, VerdictTransition]] = deque(
            maxlen=transition_backlog
        )
        self._transitions_lock = threading.Lock()
        self._transition_seq = 0
        #: verdict read cache: ((materializer epoch, lane commit vector),
        #: verdict rows).  Written only under the global lock; read
        #: lock-free.
        self._verdict_cache: Optional[Tuple[tuple, List[VerdictRow]]] = None
        self._opened = False
        self._closed = False
        # Background refresh loop.
        self._background: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.background_interval: Optional[float] = None
        #: counters surfaced by :meth:`stats` (small dedicated lock: the
        #: ingest path bumps them outside the global lock).
        self._counter_lock = threading.Lock()
        self.polls = 0
        #: background ticks that raised (logged to stderr, then retried).
        self.tick_failures = 0
        self.ingest_batches = 0
        self.ingest_events = 0
        self.correlated_total = 0
        self.snapshots_saved = 0
        self.verdict_cache_hits = 0
        self.verdict_cache_misses = 0

    @property
    def lane_count(self) -> int:
        return len(self._lanes)

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> StartupReport:
        """Register the controls, adopt any persisted snapshot, and run
        the startup sweep.

        After ``open`` the verdict table is current for every trace in
        the store; the report says how much work that took.  With a
        matching snapshot on the backend only traces appended to while
        the runtime was down re-evaluate — a restarted server resumes
        from its cursor, never from zero.  Lanes keep no store-wide
        state, so building them decodes no row.  Raises
        :class:`ServiceError` when a shard cannot give its lane a store
        handle of its own.
        """
        with self._lock:
            if self._opened:
                raise ServiceError("runtime is already open")
            self._build_lanes()
            self._opened = True
            for control in self.controls:
                self.materializer.register(control)
            restored = self.materializer.restore()
            before = self.materializer.refreshes
            self.evaluator.run(self.controls)
            evaluated = self.materializer.refreshes - before
            # Subscribe after the startup sweep: the live feed carries
            # changes, not the initial materialization.
            self.materializer.subscribe(self._on_transition)
            return StartupReport(
                restored=restored,
                evaluated=evaluated,
                traces=len(self.store.app_ids()),
                last_seq=self.store.last_seq(),
            )

    def _build_lanes(self) -> None:
        """Mirror the store's shard layout with one ingest lane per shard.

        Each lane writes through a store handle of its own: a forked
        SQLite connection onto the shard file, or the memory backend
        itself (safe under the lane lock: its lists only ever grow, and
        readers copy them by slice).  A lane owns — flushes and closes —
        exactly the handles it forked.  The lanes share one relation-id
        factory that continues the stored ``REL<n>`` sequence; seeding it
        is one backend aggregate, and building the lanes reads no rows.
        """
        rel_ids = (
            relation_ids(self.store) if self._correlation_rules else None
        )
        children = self.store.backend.shard_backends()
        handles = []
        for index, child in enumerate(children):
            handle = child.fork_handle()
            if handle is None:
                raise ServiceError(
                    f"shard {index} ({child.name} backend) cannot fork a "
                    f"store handle for its ingest lane; serve a "
                    f"file-backed store"
                )
            handles.append(handle)
        self._lanes = [
            IngestLane(
                index,
                ProvenanceStore(
                    model=self.store.model,
                    backend=handle,
                    fast_codec=self.store.codec is not None,
                ),
                mapping=self._mapping,
                correlation_rules=self._correlation_rules,
                rel_ids=rel_ids,
                owns_store=handle is not child,
            )
            for index, (handle, child) in enumerate(zip(handles, children))
        ]

    def subscribe(self, listener: TransitionListener) -> None:
        """Receive every post-startup :class:`VerdictTransition` live."""
        self.materializer.subscribe(listener)

    def shutdown(self) -> None:
        """Graceful stop: drain, snapshot, flush; idempotent.

        Any straggler rows other writers appended are folded in and
        evaluated, then the verdict table + cursor persist to the
        backend, so the next :meth:`open` restores instead of
        re-sweeping.  Closes the store when the runtime owns it.
        """
        if self._closed:
            return
        # Stop (and join) the background loop before flipping the closed
        # flag: an in-flight background sync must not race into the
        # "runtime is not open" guard mid-shutdown.
        self.stop_background()
        self._closed = True
        with self._lock:
            if self._opened:
                self._sync_locked()
                self._save_snapshot_locked()
            self.store.flush()
            for lane in self._lanes:
                with lane.lock:
                    lane.close()
            if self.owns_store:
                self.store.close()

    # -- transitions ---------------------------------------------------------

    def _on_transition(self, transition: VerdictTransition) -> None:
        with self._transitions_lock:
            self._transition_seq += 1
            self._transitions.append((self._transition_seq, transition))

    # -- session API ---------------------------------------------------------

    def _lane_for(self, event: ApplicationEvent) -> int:
        # Route by the APPID the *record* will carry ("unattributed" is
        # the mapping's fallback for trace-unaware systems), with the
        # same stable hash the sharded backend uses, so every lane writes
        # only rows its shard owns.
        return self.store.shard_index(event.app_id or "unattributed")

    def ingest(self, events: Sequence[ApplicationEvent]) -> IngestReply:
        """Run one event batch through the server-side recorder pipeline.

        Typing per the data model, duplicate suppression, and incremental
        correlation all happen here; verdict refresh is left to the
        reader / background loop (appends only mark dirty pairs, which is
        what keeps ingest throughput independent of control count).

        The batch is partitioned by home shard and each partition runs
        under its lane's lock only — two clients streaming traces on
        different shards never serialize on each other.
        """
        if self._mapping is None:
            raise ServiceError(
                "this runtime has no event mapping; ingestion is disabled"
            )
        self._require_open()
        groups: Dict[int, List[int]] = {}
        for position, event in enumerate(events):
            groups.setdefault(self._lane_for(event), []).append(position)
        dispositions: List[Optional[Tuple[bool, Optional[str]]]] = (
            [None] * len(events)
        )
        recorded = duplicates = 0
        dropped_irrelevant = dropped_unmapped = correlated = 0
        for lane_index in sorted(groups):
            positions = groups[lane_index]
            lane = self._lanes[lane_index]
            batch = [events[position] for position in positions]
            with lane.lock:
                part = lane.ingest(batch)
            recorded += part.recorded
            duplicates += part.duplicates
            dropped_irrelevant += part.dropped_irrelevant
            dropped_unmapped += part.dropped_unmapped
            correlated += part.correlated
            for position, disposition in zip(positions, part.dispositions):
                dispositions[position] = disposition
        with self._counter_lock:
            self.ingest_batches += 1
            self.ingest_events += len(events)
            self.correlated_total += correlated
        return IngestReply(
            recorded=recorded,
            duplicates=duplicates,
            dropped_irrelevant=dropped_irrelevant,
            dropped_unmapped=dropped_unmapped,
            correlated=correlated,
            dispositions=dispositions,
            last_seq=self._lane_cursor(),
        )

    def _lane_cursor(self) -> VectorCursor:
        """The change-feed position every lane's store has reached.

        Lane rows are committed before the global handle folds them, so
        the lanes' own cursors, not the global one, cover every ingest
        reply's batch.  Reading them runs no SQL and needs no lock (each
        is one attribute read).  A lane's store is its one shard, so its
        cursor has one component: the shard's component of the vector.
        """
        if not self._lanes:  # not opened yet: no lane has written anything
            return self.store.last_seq()
        return VectorCursor(
            [lane.store.last_seq().seqs[0] for lane in self._lanes]
        )

    def _fold_lanes_locked(self) -> int:
        """Fold every lane (sync + correlate + commit); global lock held.

        Returns relation rows created.  Lane locks nest inside the global
        lock here — the one sanctioned global→lane ordering.  The records
        each lane committed (or folded) go to the global handle's record
        cache, so the global sync that follows decodes none of their
        rows.
        """
        correlated = 0
        for lane in self._lanes:
            with lane.lock:
                lane.sync()
                correlated += lane.correlate()
                if lane.owns_store:
                    lane.store.flush()
                handed = lane.take_handoff()
            self.store.backend.cache_records(handed)
        if correlated:
            with self._counter_lock:
                self.correlated_total += correlated
        return correlated

    def _sync_locked(self) -> SyncOutcome:
        # Lanes first (their appends + correlation products must be
        # committed), then one global fold brings the materializer's
        # dirty tracking current across every shard.
        correlated = self._fold_lanes_locked()
        new_rows = self.store.sync()
        refreshed = 0
        if new_rows or correlated or self.materializer.dirty_count:
            refreshed = len(self.materializer.refresh())
        return SyncOutcome(
            new_rows=new_rows,
            correlated=correlated,
            refreshed=refreshed,
            last_seq=self.store.last_seq(),
        )

    def sync(self) -> SyncOutcome:
        """One continuous-evaluation tick.

        Folds in rows lanes and other processes appended to the shared
        backend (multi-writer recorders over a sharded store land here),
        correlates the touched traces, and refreshes every dirty
        (control, trace) pair; the background loop runs one per
        interval.  ``new_rows`` counts every row folded into the global
        view, lane-ingested rows included.
        """
        with self._lock:
            self._require_open()
            return self._sync_locked()

    def _cache_key(self) -> tuple:
        # Epoch FIRST, commits SECOND: both are monotonic and every
        # serving-path epoch bump is preceded by a lane-commit bump, so a
        # torn read can only produce a key that *misses* — never a stale
        # hit.
        epoch = self.materializer.epoch
        crash_point("runtime.cache_key.between_halves")
        return (epoch, tuple(lane.commits for lane in self._lanes))

    def _verdict_rows(self) -> List[VerdictRow]:
        cached = self._verdict_cache
        if cached is not None and cached[0] == self._cache_key():
            with self._counter_lock:
                self.verdict_cache_hits += 1
            return cached[1]
        with self._lock:
            self._require_open()
            self._fold_lanes_locked()
            self.store.sync()
            # Snapshot the commit vector after the fold but before the
            # sweep: a lane commit that lands during the sweep bumps a
            # counter past this snapshot and correctly invalidates the
            # entry we are about to store.
            commits = tuple(lane.commits for lane in self._lanes)
            # The sweep pairs each result with its bytes under the lock,
            # so a lock-free reader never sees one verdict's result with
            # a newer verdict's bytes.
            rows = self.materializer.sweep(self.controls)
            epoch = self.materializer.epoch
            self._verdict_cache = ((epoch, commits), rows)
        with self._counter_lock:
            self.verdict_cache_misses += 1
        return rows

    def verdict_rows(
        self,
        control: Optional[str] = None,
        trace: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[VerdictRow]:
        """:meth:`verdicts` with each result's JSON bytes,
        ``json.dumps(result.to_payload()).encode()``, encoded when the
        verdict was stored: what ``GET /verdicts`` joins into its body."""
        self._require_open()
        rows = self._verdict_rows()
        if control is not None:
            rows = [row for row in rows if row[0].control_name == control]
        if trace is not None:
            rows = [row for row in rows if row[0].trace_id == trace]
        if status is not None:
            try:
                wanted = ComplianceStatus(status)
            except ValueError:
                return []
            rows = [row for row in rows if row[0].status is wanted]
        return list(rows)

    def verdicts(
        self,
        control: Optional[str] = None,
        trace: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[ComplianceResult]:
        """The verdict table, fresh, in canonical (trace, control) order.

        Reads fold pending lane output and drain the dirty pairs first,
        so a served verdict is always what a cold sweep of the store at
        this instant would produce — byte-identical, per the
        materializer's parity guarantee.  Repeat reads of an unchanged
        runtime are served from the read cache without taking any lock.
        The optional filters subset the canonical rows without changing
        their order.
        """
        return [
            result
            for result, __ in self.verdict_rows(
                control=control, trace=trace, status=status
            )
        ]

    def transitions_since(
        self, after: int = 0
    ) -> Tuple[int, List[Tuple[int, VerdictTransition]]]:
        """Live transitions with index > *after*; returns (newest, list).

        The backlog is a ring buffer: a reader that falls more than
        ``transition_backlog`` entries behind misses the overwritten
        ones (and can tell, from the gap in indexes).  Reads take only
        the feed's own lock, never the runtime's.
        """
        with self._transitions_lock:
            entries = [
                (index, transition)
                for index, transition in self._transitions
                if index > after
            ]
            return self._transition_seq, entries

    def _lane_shape(self) -> Tuple[int, int]:
        """``(traces, rows)`` counted through every lane's own store
        handle under that lane's lock — never through the global handle,
        whose connections only the global lock may touch.  Lane handles
        see their rows before the global view folds them."""
        traces = rows = 0
        for lane in self._lanes:
            with lane.lock:
                lane_traces, lane_rows = lane.shape()
            traces += lane_traces
            rows += lane_rows
        return traces, rows

    def stats(self) -> Dict:
        """Counters for dashboards and the ``/stats`` endpoint.

        Answered without the global lock — every field is a lane-handle
        read under that lane's lock, a lane cursor, or a GIL-atomic
        counter — so stats polling never stalls behind a refresh (and
        never touches a connection a snapshot may be writing through).
        """
        lanes = self._lanes
        last_seq = self._lane_cursor()
        traces, rows = self._lane_shape()
        recorder = None
        if self._mapping is not None:
            recorder = RecorderStats.aggregate(
                (lane.recorder.stats for lane in lanes),
                last_seq=last_seq,
            ).as_dict()
        return {
            "workload": self.workload_name,
            "traces": traces,
            "rows": rows,
            "shards": self.store.shard_count(),
            "last_seq": cursor_to_wire(last_seq),
            "controls": [control.name for control in self.controls],
            "dirty_pairs": self.materializer.dirty_count,
            "refreshes": self.materializer.refreshes,
            "pending_correlation": sum(
                lane.pending_count for lane in lanes
            ),
            "correlated_rows": self.correlated_total,
            "ingest_batches": self.ingest_batches,
            "ingest_events": self.ingest_events,
            "recorder": recorder,
            "polls": self.polls,
            "tick_failures": self.tick_failures,
            "snapshots_saved": self.snapshots_saved,
            "background_running": self.background_running,
            "verdict_cache": {
                "hits": self.verdict_cache_hits,
                "misses": self.verdict_cache_misses,
            },
            "lanes": [lane.counters() for lane in lanes],
        }

    def health(self) -> Dict:
        """Tiny liveness payload for ``/health``; lock-free like stats.
        After :meth:`shutdown` it reports the traces the lanes counted
        when they closed."""
        return {
            "status": "ok" if self._opened and not self._closed
            else "stopped",
            "workload": self.workload_name,
            "traces": self._lane_shape()[0],
            "last_seq": cursor_to_wire(self._lane_cursor()),
        }

    def _save_lane_stats_locked(self) -> None:
        payload = json.dumps(
            {
                "version": 1,
                "lanes": [lane.counters() for lane in self._lanes],
            }
        )
        self.store.save_state(LANE_STATS_KEY, payload)

    def _save_snapshot_locked(self) -> None:
        self.materializer.save()
        self._save_lane_stats_locked()
        self.snapshots_saved += 1

    def snapshot(self) -> None:
        """Refresh what is dirty, then persist the verdict table + cursor.

        After this the backend alone carries everything a restarted
        runtime needs to resume: rows, auxiliary verdict state, the
        change-feed cursor the state is current as of, and the per-lane
        ingest counters ``store-stats`` reports offline.
        """
        with self._lock:
            self._require_open()
            # The snapshot cursor must cover lane rows already committed
            # to the shard files, or a restart would re-evaluate traces
            # this snapshot already verdicted.
            self._fold_lanes_locked()
            self.store.sync()
            self._save_snapshot_locked()

    def _require_open(self) -> None:
        if not self._opened or self._closed:
            raise ServiceError("runtime is not open")

    # -- continuous evaluation ----------------------------------------------

    @property
    def background_running(self) -> bool:
        return self._background is not None and self._background.is_alive()

    def start_background(
        self,
        interval: float = 1.0,
        snapshot_every: int = 0,
    ) -> None:
        """Run the refresh loop in a daemon thread until :meth:`shutdown`.

        Args:
            interval: seconds between ticks (the stop event interrupts a
                pending wait immediately).
            snapshot_every: persist the verdict snapshot every N ticks;
                0 snapshots only at shutdown.
        """
        with self._lock:
            self._require_open()
            if self.background_running:
                raise ServiceError("background refresh is already running")
            self._stop.clear()
            self.background_interval = interval
            self._background = threading.Thread(
                target=self._background_main,
                args=(interval, snapshot_every),
                name="compliance-runtime-refresh",
                daemon=True,
            )
            self._background.start()

    def _background_main(self, interval: float, snapshot_every: int) -> None:
        ticks = 0
        while not self._stop.is_set():
            try:
                self.sync()
                self.polls += 1
                ticks += 1
                if snapshot_every and ticks % snapshot_every == 0:
                    self.snapshot()
            except Exception:
                # A failed tick must not end the loop: the next one
                # retries, and /stats counts the failures.
                self.tick_failures += 1
                print(
                    f"compliance runtime: background tick failed:\n"
                    f"{traceback.format_exc()}",
                    file=sys.stderr,
                )
            self._stop.wait(interval)

    def stop_background(self) -> None:
        """Stop the background loop and join it.  Idempotent."""
        self._stop.set()
        thread = self._background
        if thread is not None and thread.is_alive():
            thread.join(timeout=30.0)
        self._background = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_simulation(
        cls,
        sim,
        workload=None,
        execution_mode: str = "compiled",
        owns_store: bool = False,
        **kwargs,
    ) -> "ComplianceRuntime":
        """Build a runtime over a
        :class:`~repro.processes.workload.SimulationResult`.

        With *workload* (the :class:`~repro.processes.workload.Workload`
        bundle) the runtime also gets the scenario's event mapping and
        correlation rules, enabling ingestion; without it the runtime is
        a read-only continuous evaluator over the store.
        """
        mapping = None
        correlation_rules: Sequence = ()
        if workload is not None:
            mapping = workload.build_mapping(sim.model)
            correlation_rules = workload.correlation_rules()
        return cls(
            store=sim.store,
            xom=sim.xom,
            vocabulary=sim.vocabulary,
            controls=sim.controls,
            observable_types=sim.observable_types,
            execution_mode=execution_mode,
            mapping=mapping,
            correlation_rules=correlation_rules,
            workload_name=sim.workload_name,
            owns_store=owns_store,
            **kwargs,
        )
