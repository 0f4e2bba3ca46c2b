"""Where one dashboard round spends its time, in process, stage by stage.

A dashboard round is what ``perfbench``'s ``dashboard`` workload does
over HTTP: one 10-event write, then a violations read that must show it.
Here the round runs in process against a served runtime over a 4-shard
SQLite store preloaded with ``PRELOAD`` hiring traces and a verdict
snapshot, so the split has no HTTP or client cost in it.  Each stage is
the *self* time of the entry points that do it (time spent in a nested
stage counts only there):

- **ingest** — ``ComplianceRuntime.ingest``: lane routing, typing and
  dedup, correlation, the lane's SQLite commit;
- **fold** — ``ComplianceRuntime._fold_lanes_locked``: lane flushes and
  the handoff of lane records to the global handle;
- **sync** — ``ProvenanceStore.sync``: folding new rows into a store
  handle's change feed (the lanes' and the global one);
- **frames** — ``ComplianceEvaluator._frame_for`` / ``prime_frames``:
  building the touched traces' graphs, decoding rows included;
- **rules** — running the BAL rules against those frames;
- **verdict_store** — ``VerdictMaterializer._store_result``: encoding
  each new verdict and announcing its transition;
- **assembly** — the rest of a cache miss: finding the stale pairs and
  assembling the table (``VerdictMaterializer.sweep``, the runtime's
  read-cache plumbing);
- **filter** — ``ComplianceRuntime.verdict_rows``: the ``status=``
  filter over the table.

``decodes`` counts row decodes (XML or columnar) per round, and
``round_ms`` is the whole round.  After the rounds, the full served
table must be byte-identical to a cold sweep of the same store
(``correct``).

Standalone, the last line of the output is one JSON object in the shape
``benchmarks/history/append.py`` reads, so runs append to
``benchmarks/history/read_after_write.jsonl``::

    PYTHONPATH=src python3 benchmarks/bench_read_after_write.py > run.txt
    python3 benchmarks/history/append.py --commit <sha> --side change \\
        --workload read_after_write --seeds 101 --seconds 0 \\
        --history benchmarks/history/read_after_write.jsonl run.txt

Under pytest it writes ``benchmarks/out/read-after-write-split.*`` and
asserts 0 decodes per round and the byte-identical table;
``BAL_BENCH_SCALE=tiny`` shrinks the run to 40 traces and 12 rounds.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List

from repro.controls import evaluator as evaluator_module
from repro.controls.evaluator import ComplianceEvaluator
from repro.controls.materializer import VerdictMaterializer
from repro.processes import hiring
from repro.processes.engine import ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.service import ComplianceRuntime
from repro.service.http import verdicts_body
from repro.store.backends import ShardedBackend
from repro.store.columnar import ColumnarCodec
from repro.store.store import ProvenanceStore
from repro.store.xmlcodec import XmlCodec

TINY = os.environ.get("BAL_BENCH_SCALE") == "tiny"
PRELOAD = 40 if TINY else 250
ROUNDS = 12 if TINY else 144
SHARDS = 4
BATCH = 10
SEED = 101

#: stage → the (owner, attribute) entry points whose self time it sums.
STAGES = {
    "ingest": [(ComplianceRuntime, "ingest")],
    "fold": [(ComplianceRuntime, "_fold_lanes_locked")],
    "sync": [(ProvenanceStore, "sync")],
    "frames": [
        (ComplianceEvaluator, "_frame_for"),
        (ComplianceEvaluator, "prime_frames"),
    ],
    "rules": [(evaluator_module, "_check_with_frame")],
    "verdict_store": [(VerdictMaterializer, "_store_result")],
    "assembly": [
        (VerdictMaterializer, "sweep"),
        (ComplianceRuntime, "_verdict_rows"),
    ],
    "filter": [(ComplianceRuntime, "verdict_rows")],
}


class _SelfTimer:
    """Self time per stage: a nested stage's time counts only there."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        self._stack: List[float] = []  # child time of each open span

    def wrap(self, stage: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._stack.pop()
                self.totals[stage] += elapsed - children
                if self._stack:
                    self._stack[-1] += elapsed

        return timed

    def take(self) -> Dict[str, float]:
        """Totals since the last call, in ms; resets them."""
        taken = {stage: value * 1e3 for stage, value in self.totals.items()}
        self.totals = {stage: 0.0 for stage in STAGES}
        return taken


def _instrument(timer: _SelfTimer, counts: Dict[str, int]) -> Callable:
    """Patch every stage entry point and both row decoders; returns the
    function that undoes it."""
    undo = []

    def patch(owner, name, replacement):
        original = owner.__dict__[name]
        undo.append((owner, name, original))
        setattr(owner, name, replacement)

    for stage, points in STAGES.items():
        for owner, name in points:
            patch(owner, name, timer.wrap(stage, owner.__dict__[name]))
    for cls, name in ((XmlCodec, "decode_row"), (ColumnarCodec, "decode_cols")):
        original = cls.__dict__[name]

        def counted(*args, _original=original, **kwargs):
            counts["decodes"] += 1
            return _original(*args, **kwargs)

        patch(cls, name, counted)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def _open(db: str, workload) -> ComplianceRuntime:
    store = ProvenanceStore(
        model=workload.build_model(),
        backend=ShardedBackend.for_sqlite(db, SHARDS, threadsafe=True),
    )
    return ComplianceRuntime.from_simulation(
        workload.attach(store), workload=workload, owns_store=True
    )


def _cold_body(runtime: ComplianceRuntime) -> bytes:
    oracle = ComplianceEvaluator(
        runtime.store, runtime.evaluator.engine.xom,
        runtime.evaluator.engine.vocabulary,
        observable_types=runtime.evaluator.observable_types,
        share_contexts=False,
    )
    return json.dumps(
        {"verdicts": [r.to_payload() for r in oracle.run(runtime.controls)]}
    ).encode("utf-8")


def measure() -> Dict:
    """One run: per-round stage times, decodes, and the parity check."""
    workload = hiring.workload()
    simulator = ProcessSimulator(
        workload.build_spec(),
        workload.case_factory(
            ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2)
        ),
        seed=SEED,
    )
    # Hiring traces have at most 10 events and often fewer, so ROUNDS
    # batches of 10 take up to twice ROUNDS traces of stream.
    runs = simulator.run(PRELOAD + 2 * ROUNDS)
    preload = all_events(runs[:PRELOAD])
    stream = all_events(runs[PRELOAD:])[: ROUNDS * BATCH]
    rounds: List[Dict[str, float]] = []
    with tempfile.TemporaryDirectory(prefix="read-after-write-") as work:
        db = os.path.join(work, "store.db")
        runtime = _open(db, workload)
        runtime.open()
        for start in range(0, len(preload), 500):
            runtime.ingest(preload[start:start + 500])
        runtime.shutdown()  # leaves a verdict snapshot, as perfbench's

        runtime = _open(db, workload)
        runtime.open()
        runtime.verdict_rows(status="violated")
        timer = _SelfTimer()
        counts = {"decodes": 0}
        restore = _instrument(timer, counts)
        try:
            for start in range(0, len(stream), BATCH):
                counts["decodes"] = 0
                started = time.perf_counter()
                runtime.ingest(stream[start:start + BATCH])
                runtime.verdict_rows(status="violated")
                round_ms = (time.perf_counter() - started) * 1e3
                stages = timer.take()
                stages["round"] = round_ms
                stages["decodes"] = counts["decodes"]
                rounds.append(stages)
        finally:
            restore()
        served = verdicts_body(runtime.verdict_rows())
        correct = served == _cold_body(runtime)
        traces = len(runtime.store.app_ids())
        runtime.shutdown()
    return {
        "preload": PRELOAD,
        "traces": traces,
        "rounds": rounds,
        "correct": correct,
    }


def _summary(run: Dict) -> Dict[str, float]:
    """Median ms per stage and round, p90 round, mean decodes."""
    rounds = run["rounds"]
    summary = {
        f"{stage}_ms": statistics.median(r[stage] for r in rounds)
        for stage in list(STAGES) + ["round"]
    }
    summary["round_p90_ms"] = statistics.quantiles(
        [r["round"] for r in rounds], n=10, method="inclusive"
    )[-1]
    summary["decodes_per_round"] = statistics.mean(
        r["decodes"] for r in rounds
    )
    return summary


def _history_line(run: Dict) -> Dict:
    """The run in ``perfbench/run.py``'s last-line shape."""
    metrics = {
        name: {
            "value": value,
            "unit": "count" if name == "decodes_per_round" else "ms",
        }
        for name, value in _summary(run).items()
    }
    return {"correct": run["correct"], "failed": 0, "metrics": metrics}


def _render(run: Dict) -> str:
    lines = [
        f"{run['preload']} preloaded traces, {len(run['rounds'])} rounds "
        f"of {BATCH} events, {run['traces']} traces after, "
        f"correct={run['correct']}",
    ]
    for name, value in _summary(run).items():
        lines.append(f"  {name:<20} {value:8.3f}")
    return "\n".join(lines)


def test_read_after_write_split(artifact):
    run = measure()
    assert run["correct"]
    # Lanes hand the records they commit to the global handle, so a
    # round decodes no row: not in the sync, not in the frame builds.
    assert [r["decodes"] for r in run["rounds"]] == [0] * len(run["rounds"])
    shape = {key: value for key, value in run.items() if key != "rounds"}
    artifact(
        "Read after write split",
        _render(run),
        data={**shape, "rounds": len(run["rounds"]), "summary": _summary(run)},
    )


def main() -> int:
    run = measure()
    print(_render(run))
    print(json.dumps(_history_line(run), sort_keys=True))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
