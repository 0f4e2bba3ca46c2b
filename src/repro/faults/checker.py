"""The crash-recovery model checker.

One *schedule* is a seeded, randomized interleaving of the operations a
production deployment actually performs — append (plain and bulk), flush,
sweep, targeted check, verdict-snapshot save — run against a
:class:`~repro.faults.backend.FaultyBackend` executing a seeded
:class:`~repro.faults.plan.FaultPlan`, until a scripted fault kills the
process model (or the stream ends and the power is cut).  The store is
then recovered and held to the invariants that make provenance a usable
audit record of last resort:

1. **No torn rows** — every recovered row decodes; a row is either
   wholly there or wholly absent.
2. **Clean prefix** — the recovered rows are byte-identical to a prefix
   of the acknowledged appends (no interior gaps, no duplicates, no
   phantom rows), and the prefix is at least the durability floor (rows
   flushed before the crash, minus any scripted fsync drop).
3. **Snapshot sanity** — a restored materialized-verdict snapshot never
   has a cursor past the recovered ``last_seq``, and never holds a
   verdict for a trace the recovered store does not contain.
4. **Convergence** — a sweep over the recovered store (through whatever
   snapshot survived) is byte-identical to a cold sweep by a
   never-crashed oracle evaluator over exactly the surviving records.

Every violation raises :class:`CheckFailure` whose message carries the
replay seed and the plan's fault log, so a CI failure reproduces with
``python -m repro chaos --seed N --backend B --schedules 1``.

Scenario traffic comes from the real hiring workload simulator (cached
per process), so schedules exercise the same records, controls, and
vocabulary stack as production sweeps.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controls.evaluator import ComplianceEvaluator
from repro.errors import StoreError
from repro.faults.backend import FaultyBackend
from repro.faults.plan import FaultInjected, FaultPlan, SimulatedCrash
from repro.faults.points import active_plan
from repro.model.records import ProvenanceRecord
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
)
from repro.store.backends.sharded import shard_index_for
from repro.store.cursor import cursor_covers
from repro.store.store import ProvenanceStore

#: backends the checker knows how to crash and recover.
BACKEND_KINDS = ("memory", "sqlite")

#: crash points the randomized scheduler arms, per backend kind.  The
#: sqlite transaction-boundary points exist only on the sqlite backend.
_CRASH_POINTS = {
    "memory": (
        "store.append.before_commit",
        "store.append.after_commit_before_index",
        "store.flush",
        "store.bulk.exit",
        "store.close",
        "materializer.save.mid_snapshot",
    ),
    "sqlite": (
        "store.append.before_commit",
        "store.append.after_commit_before_index",
        "store.flush",
        "store.bulk.exit",
        "store.close",
        "materializer.save.mid_snapshot",
        "sqlite.flush.before_commit",
        "sqlite.flush.after_commit",
    ),
}


class CheckFailure(AssertionError):
    """A recovered store broke a crash-consistency invariant.

    The message always embeds the schedule seed and the fault log, so the
    failure is replayable from the test output alone.
    """


@dataclass
class ScheduleReport:
    """What one schedule did and what survived."""

    seed: int
    backend: str
    scenario: str
    crashed: bool
    crash_site: Optional[str]
    fault_log: str
    acknowledged: int
    recovered: int
    durable_floor: int
    snapshot_restored: bool
    verdicts_checked: int
    shards: int = 1

    def describe(self) -> str:
        outcome = (
            f"crash@{self.crash_site}" if self.crashed else "clean close"
        )
        sharding = f" shards={self.shards}" if self.shards > 1 else ""
        return (
            f"seed={self.seed} backend={self.backend}{sharding} "
            f"scenario={self.scenario}: {outcome}; "
            f"{self.recovered}/{self.acknowledged} rows survived "
            f"(floor {self.durable_floor}), "
            f"snapshot {'restored' if self.snapshot_restored else 'cold'}, "
            f"{self.verdicts_checked} verdicts converged"
        )


@dataclass
class _Scenario:
    """A cached workload stack the schedules replay records from."""

    name: str
    model: object
    xom: object
    vocabulary: object
    controls: Sequence[object]
    streams: Dict[str, List[ProvenanceRecord]]


@lru_cache(maxsize=None)
def _scenarios() -> Tuple[_Scenario, ...]:
    """Simulated hiring traffic at several violation mixes, one simulation
    each per process — schedules replay the records, never re-simulate."""
    from repro.processes import hiring
    from repro.processes.violations import ViolationPlan

    bundles = []
    for name, cases, sim_seed, rate in (
        ("clean", 3, 11, 0.0),
        ("mixed", 4, 23, 0.35),
        ("dirty", 3, 41, 0.7),
    ):
        workload = hiring.workload()
        plan = (
            ViolationPlan.uniform(list(workload.violation_kinds), rate)
            if rate > 0
            else ViolationPlan.none()
        )
        sim = workload.simulate(cases=cases, seed=sim_seed, violations=plan)
        streams = {
            trace_id: list(records)
            for trace_id, records in sim.store.records_by_trace().items()
        }
        sim.store.close()
        bundles.append(
            _Scenario(
                name=name,
                model=sim.model,
                xom=sim.xom,
                vocabulary=sim.vocabulary,
                controls=tuple(sim.controls),
                streams=streams,
            )
        )
    return tuple(bundles)


def _norm(results) -> List[tuple]:
    """Every observable field of a sweep, for byte-identity comparison."""
    return [
        (
            r.control_name,
            r.trace_id,
            r.status,
            r.checked_at,
            tuple(r.alerts),
            tuple(sorted(r.bound_nodes.items())),
            tuple(r.touched_nodes),
        )
        for r in results
    ]


def _interleave(rng: random.Random, streams) -> List[ProvenanceRecord]:
    """Order-preserving random merge of per-trace record streams."""
    pending = [list(s) for s in streams]
    merged: List[ProvenanceRecord] = []
    while True:
        candidates = [i for i, s in enumerate(pending) if s]
        if not candidates:
            return merged
        merged.append(pending[rng.choice(candidates)].pop(0))


def _script_faults(
    rng: random.Random,
    plan: FaultPlan,
    backend: str,
    total_records: int,
    points: Optional[Sequence[str]] = None,
) -> None:
    """Arm a seeded mix of faults on *plan*.  A schedule may script no
    crash at all — then the power is cut when the stream ends."""
    if rng.random() < 0.8:
        point = rng.choice(points or _CRASH_POINTS[backend])
        plan.crash_at(point, occurrence=rng.randrange(1, 8))
    if rng.random() < 0.3:
        plan.tear_flush(nth=rng.randrange(1, 5))
    if rng.random() < 0.2:
        plan.fail_write(nth=rng.randrange(1, max(2, total_records)))
    if backend == "sqlite" and rng.random() < 0.25:
        plan.drop_fsync_after(nth_flush=rng.randrange(1, 4))


def run_schedule(
    seed: int,
    backend: str = "memory",
    workdir: Optional[str] = None,
    shards: int = 1,
) -> ScheduleReport:
    """Run one seeded crash schedule and verify the recovery invariants.

    The store is a :class:`ShardedBackend` of *shards* children, each
    individually fault-wrapped: a scripted crash can kill one shard
    mid-flush while the others survive, and the recovery invariants are
    then asserted per shard (each recovered shard holds a clean prefix of
    the appends routed to it, at or above that shard's durability floor)
    as well as globally.

    Raises :class:`CheckFailure` (with the replay seed in the message) on
    any violation; returns a :class:`ScheduleReport` on success.
    """
    if backend not in BACKEND_KINDS:
        raise ValueError(f"unknown backend kind {backend!r}")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return run_schedule(seed, backend, workdir=tmp, shards=shards)

    rng = random.Random(f"chaos:{seed}")
    scenario = _scenarios()[rng.randrange(len(_scenarios()))]
    trace_ids = sorted(scenario.streams)
    chosen = rng.sample(trace_ids, rng.randrange(2, len(trace_ids) + 1))
    records = _interleave(rng, [scenario.streams[t] for t in chosen])

    plan = FaultPlan(seed=seed)
    # Shard-level crash windows: die between one shard's flush and the
    # next, or on the routed append path of one shard.
    points = _CRASH_POINTS[backend] + tuple(
        f"sharded.flush.shard{i}" for i in range(shards)
    ) + tuple(
        f"sharded.append.shard{i}" for i in range(shards)
    )
    _script_faults(rng, plan, backend, len(records), points=points)

    def make_child(index: int):
        if backend == "sqlite":
            return SQLiteBackend(
                os.path.join(workdir, f"chaos-{seed}-shard{index}.db"),
                batch_size=rng.choice((2, 8, 256)),
            )
        return MemoryBackend()

    # One fault proxy per shard, all driven by the one plan (its write
    # and flush counters stay global, like one dying process).
    proxies = [
        FaultyBackend(make_child(i), plan) for i in range(shards)
    ]
    faulty = ShardedBackend(proxies)

    def fail(detail: str) -> CheckFailure:
        shard_arg = f" --shards {shards}" if shards > 1 else ""
        return CheckFailure(
            f"[chaos seed={seed} backend={backend} shards={shards} "
            f"scenario={scenario.name}] {detail}\n"
            f"  {plan.describe()}\n"
            f"  replay: python -m repro chaos --seed {seed} "
            f"--backend {backend}{shard_arg} --schedules 1"
        )

    store = ProvenanceStore(model=scenario.model, backend=faulty)
    evaluator = ComplianceEvaluator(
        store, scenario.xom, scenario.vocabulary
    )
    controls = list(scenario.controls)
    # Every append the faulty store acknowledged, in order.  The oracle
    # stores are built from this list only *after* the schedule: while the
    # plan is active, crash points are global, and a mirror store's own
    # appends must not advance the scripted occurrence counters.
    acked_records: List[ProvenanceRecord] = []

    crashed = False
    crash_site = None
    queue = list(records)
    with active_plan(plan):
        try:
            while queue:
                chunk = [queue.pop(0) for __ in range(
                    min(len(queue), rng.randrange(1, 7))
                )]
                if rng.random() < 0.5:
                    with store.bulk():
                        for record in chunk:
                            _append_acked(store, record, acked_records)
                else:
                    for record in chunk:
                        _append_acked(store, record, acked_records)
                roll = rng.random()
                if roll < 0.25:
                    store.flush()
                elif roll < 0.45:
                    evaluator.run(controls)
                elif roll < 0.55:
                    trace = rng.choice(chosen)
                    evaluator.check_trace(rng.choice(controls), trace)
                elif roll < 0.68:
                    for control in controls:
                        evaluator.materializer.register(control)
                    evaluator.materializer.save()
            if rng.random() < 0.4:
                store.close()
            else:
                # The stream ended before any scripted fault fired: cut
                # the power anyway, so un-flushed tails and frozen fsync
                # images still get exercised.
                crashed = True
                crash_site = "power-cut"
                for proxy in proxies:
                    proxy.crash()
        except SimulatedCrash as crash:
            crashed = True
            crash_site = crash.point
            for proxy in proxies:
                proxy.crash()

    shard_floors = [proxy.durable_floor() for proxy in proxies]
    durable_floor = sum(shard_floors)
    staged_lost = sum(proxy.staged_count() for proxy in proxies)
    del store, evaluator  # the crashed process is gone

    # -- recovery -----------------------------------------------------------
    try:
        recovered_backend = ShardedBackend(
            [proxy.recover() for proxy in proxies]
        )
        recovered = ProvenanceStore(
            model=scenario.model, backend=recovered_backend
        )
        surviving_rows = [
            (r.record_id, r.record_class, r.app_id, r.xml)
            for r in recovered.rows()
        ]
        for row in recovered.rows():
            # Opening reads no rows, so decode each one here: a torn row
            # must be *detected*, not repaired in passing.
            recovered._decode(row)
    except StoreError as exc:
        raise fail(f"recovered store holds undecodable rows: {exc}") from exc

    acked = ProvenanceStore(model=scenario.model)
    for record in acked_records:
        acked.append(record)
    acked_rows = [
        (r.record_id, r.record_class, r.app_id, r.xml)
        for r in acked.rows()
    ]

    # Invariant 2: clean prefix, at or above the durability floor —
    # asserted per shard, because each shard loses its own staged tail
    # independently (one shard is the global check).
    for index in range(shards):
        routed = [
            row for row in acked_rows
            if shard_index_for(row[2], shards) == index
        ]
        child_rows = [
            (r.record_id, r.record_class, r.app_id, r.xml)
            for r in recovered_backend.shard(index).iter_rows()
        ]
        if child_rows != routed[: len(child_rows)]:
            raise fail(
                f"shard {index}: recovered rows are not a prefix of the "
                f"{len(routed)} appends routed to it "
                f"(got {len(child_rows)} rows)"
            )
        if len(child_rows) < shard_floors[index]:
            raise fail(
                f"shard {index}: recovered {len(child_rows)} rows but "
                f"{shard_floors[index]} were flushed before the crash "
                f"({staged_lost} staged rows were legitimately lost)"
            )
    ids = [row[0] for row in surviving_rows]
    if len(set(ids)) != len(ids):
        raise fail("recovered store holds duplicate row ids")

    # Invariant 3: snapshot sanity through the change feed.
    recovered_eval = ComplianceEvaluator(
        recovered, scenario.xom, scenario.vocabulary
    )
    materializer = recovered_eval.materializer
    for control in controls:
        materializer.register(control)
    restored = materializer.restore()
    if not cursor_covers(recovered.last_seq(), materializer.cursor):
        raise fail(
            f"restored materializer cursor {materializer.cursor} is past "
            f"the recovered last_seq {recovered.last_seq()}"
        )
    surviving_traces = set(recovered.app_ids())
    if restored:
        for result in materializer.all_latest():
            if result.trace_id not in surviving_traces:
                raise fail(
                    f"phantom verdict: snapshot holds "
                    f"({result.control_name}, {result.trace_id}) but the "
                    f"recovered store has no such trace"
                )

    # Invariant 4: re-sweep converges to the never-crashed oracle.  The
    # oracle mirrors the shard layout (a sharded memory store) so both
    # sweeps enumerate traces in the same canonical shard-grouped order;
    # the surviving set is the union of per-shard prefixes, selected by
    # recovered row id since it is no longer one global prefix.
    oracle_store = ProvenanceStore(
        model=scenario.model,
        backend=ShardedBackend([MemoryBackend() for _ in range(shards)]),
    )
    surviving_ids = set(ids)
    for record in acked_records:
        if record.record_id in surviving_ids:
            oracle_store.append(record)
    oracle_eval = ComplianceEvaluator(
        oracle_store, scenario.xom, scenario.vocabulary,
        share_contexts=False,
    )
    got = _norm(recovered_eval.run(controls))
    want = _norm(oracle_eval.run(controls))
    if got != want:
        raise fail(
            "post-recovery sweep diverged from the never-crashed oracle "
            f"({sum(1 for g, w in zip(got, want) if g != w)} rows differ)"
        )

    recovered.close()
    oracle_store.close()
    acked.close()
    return ScheduleReport(
        seed=seed,
        backend=backend,
        scenario=scenario.name,
        crashed=crashed,
        crash_site=crash_site,
        fault_log=plan.describe(),
        acknowledged=len(acked_rows),
        recovered=len(surviving_rows),
        durable_floor=durable_floor,
        snapshot_restored=restored,
        verdicts_checked=len(got),
        shards=shards,
    )


def _append_acked(
    store: ProvenanceStore,
    record: ProvenanceRecord,
    acked_records: List[ProvenanceRecord],
) -> None:
    """Append to the faulty store; record the acknowledgement only if the
    append returned (a scripted transient failure is loud, the row is
    simply not stored, and the store stays coherent)."""
    try:
        store.append(record)
    except FaultInjected:
        return
    acked_records.append(record)


def run_schedules(
    count: int,
    base_seed: int = 0,
    backends: Sequence[str] = BACKEND_KINDS,
    workdir: Optional[str] = None,
    on_report=None,
    shards: int = 1,
) -> List[ScheduleReport]:
    """Run *count* schedules per backend kind; seeds are
    ``base_seed + i`` so any failure names the one schedule to replay."""
    reports: List[ScheduleReport] = []
    for kind in backends:
        for i in range(count):
            report = run_schedule(
                base_seed + i, kind, workdir=workdir, shards=shards
            )
            if on_report is not None:
                on_report(report)
            reports.append(report)
    return reports
