"""Deterministic preloaded stores and the cold-sweep oracle.

A fixture is one simulation of ``preload + stream`` hiring cases from
the workload seed: the first ``preload`` cases are captured into a
4-shard SQLite store (recorder + correlation, as ``repro simulate``
does), optionally followed by one runtime open/shutdown so the store
carries a persisted verdict snapshot; the remaining cases are the stream
of new traces the load generator sends.  The simulator re-emits some
artifacts (a submitter who also approves is registered twice); the
stream leaves out the events a recorder would drop as duplicates, so
every event sent must come back ``recorded``.  The same seed gives the
same files, rows, stream and verdicts.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, replace
from typing import Dict, List, Set

from repro.capture.correlation import CorrelationAnalytics
from repro.capture.recorder import RecorderClient
from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.status import ComplianceStatus
from repro.processes import hiring
from repro.processes.engine import CaseRun, ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.service import ComplianceRuntime
from repro.store.backends import ShardedBackend
from repro.store.store import ProvenanceStore

SHARDS = 4
VIOLATION_RATE = 0.2
#: file name of the store inside a fixture directory (shards add suffixes).
DB_NAME = "store.db"


@dataclass
class Fixture:
    """A built store template plus the stream of cases not yet sent."""

    directory: str
    traces: int
    rows: int
    stream: List[CaseRun]

    @property
    def db(self) -> str:
        return os.path.join(self.directory, DB_NAME)

    def copy(self, destination: str) -> str:
        """A fresh copy of the shard files; returns its ``--db`` path."""
        shutil.copytree(self.directory, destination)
        return os.path.join(destination, DB_NAME)


def simulate(seed: int, cases: int) -> List[CaseRun]:
    workload = hiring.workload()
    plan = ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), VIOLATION_RATE)
    simulator = ProcessSimulator(
        workload.build_spec(), workload.case_factory(plan), seed=seed
    )
    return simulator.run(cases)


def _open(db: str) -> ProvenanceStore:
    return ProvenanceStore(
        model=hiring.workload().build_model(),
        backend=ShardedBackend.for_sqlite(db, SHARDS),
    )


def build(
    directory: str, seed: int, preload: int, stream: int, snapshot: bool
) -> Fixture:
    """Capture *preload* cases into *directory*; keep *stream* more."""
    workload = hiring.workload()
    runs = simulate(seed, preload + stream)
    os.makedirs(directory)
    store = _open(os.path.join(directory, DB_NAME))
    RecorderClient(store, workload.build_mapping(store.model)).process_all(
        all_events(runs[:preload])
    )
    analytics = CorrelationAnalytics(store, store.model)
    for rule in workload.correlation_rules():
        analytics.add_rule(rule)
    analytics.run()
    store.flush()
    rows = len(store)
    if snapshot:
        runtime = ComplianceRuntime.from_simulation(
            workload.attach(store), workload=workload, owns_store=True
        )
        runtime.open()
        runtime.shutdown()
    else:
        store.close()
    return Fixture(directory, preload, rows, _recordable(runs, preload))


def _recordable(runs: List[CaseRun], preload: int) -> List[CaseRun]:
    """``runs[preload:]`` without the events a recorder would deduplicate."""
    if len(runs) == preload:
        return []
    workload = hiring.workload()
    reference = ProvenanceStore(model=workload.build_model())
    recorder = RecorderClient(reference, workload.build_mapping(reference.model))
    recorder.process_all(all_events(runs[:preload]))
    stream = []
    for run in runs[preload:]:
        envelopes = recorder.process_all(run.events)
        stream.append(replace(run, events=[
            event for event, envelope in zip(run.events, envelopes)
            if envelope.recorded
        ]))
    return stream


def cold_sweep(db: str) -> str:
    """The verdict table a fresh evaluator computes over *db*, as JSON."""
    workload = hiring.workload()
    store = _open(db)
    try:
        sim = workload.attach(store)
        evaluator = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
        return json.dumps(
            [result.to_payload() for result in evaluator.run(sim.controls)]
        )
    finally:
        store.close()


def violated_controls(run: CaseRun) -> Set[str]:
    """Controls the injected violations of *run* make fail."""
    workload = hiring.workload()
    return {
        spec.name
        for spec in workload.control_specs
        if workload.ground_truth(run.case, spec.name) is ComplianceStatus.VIOLATED
    }


def last_positions(runs: List[CaseRun]) -> Dict[int, CaseRun]:
    """Position of each run's final event in ``all_events(runs)`` -> run."""
    ends: Dict[int, CaseRun] = {}
    position = -1
    for run in runs:
        position += len(run.events)
        ends[position] = run
    return ends
