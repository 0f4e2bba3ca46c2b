"""Served ingestion: N recorder client processes against ``repro serve``.

The service runtime turns the batch pipeline into a long-lived process:
recorder clients stream events over HTTP while the runtime types, dedups,
and correlates.  Over a sharded store the runtime splits into per-shard
**ingest lanes** — each shard's recorder pipeline, dedup state, and
incremental correlation run under that lane's own lock, and events route
to lanes by the stable APPID hash — so clients streaming different
traces do not serialize on each other.  This bench forks 1..N client
processes, each streaming its partition of the hiring event stream to
one served runtime over the stdlib keep-alive HTTP transport, and
compares against the in-process baseline (a single direct
``RecorderClient`` over the same store, no wire, no service).

Reported per configuration:

- wall-clock ingest time and events/s,
- **scaling efficiency** — events/s at N clients ÷ events/s at 1 client
  (>1 means concurrent clients actually bought throughput),
- **lane occupancy** — each lane's share of routed events, showing how
  evenly the APPID hash spread the stream over the shards,
- **freshness lag** — how stale a reader is at the moment the writers
  stop: the time for one sync + verdicts round to bring the served table
  current over everything just ingested.

Correctness is checked once on the largest-client-count database: the
verdicts served at the end must be byte-identical to a cold sweep of the
same sharded SQLite files by a fresh evaluator.

The artifact embeds the previous (pre-lane, single-lock) measurement of
this bench as ``baseline_pr8``, so the before/after lives in one file.
The multi-client speedup assertion only arms on a machine with enough
cores to show it (the lanes still funnel into one Python process).

Benchmarked operation: one single-client served ingest at 8 traces.
"""

import json
import multiprocessing
import os
import threading
import time

from repro.capture.recorder import RecorderClient
from repro.controls.evaluator import ComplianceEvaluator
from repro.processes import hiring
from repro.processes.engine import ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.reporting.tables import render_table
from repro.service import ComplianceHTTPServer, ComplianceRuntime, HTTPTransport
from repro.store.backends import ShardedBackend
from repro.store.store import ProvenanceStore

TINY = os.environ.get("BAL_BENCH_SCALE") == "tiny"
CASES = 12 if TINY else 96
CLIENT_COUNTS = (1, 2) if TINY else (1, 2, 4)
BATCH = 10
SHARDS = 4

_SNAPSHOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_e7.json",
)
_SLUG = "e7-serve-ingest-throughput"


def _events(workload, cases):
    simulator = ProcessSimulator(
        workload.build_spec(),
        workload.case_factory(
            ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2)
        ),
        seed=11,
    )
    return all_events(simulator.run(cases))


def _partition(events, clients):
    """Whole traces round-robin across clients: per-trace event order is
    preserved inside exactly one client's stream."""
    trace_ids = sorted({event.app_id for event in events})
    owner = {
        trace: index % clients for index, trace in enumerate(trace_ids)
    }
    return [
        [e for e in events if owner[e.app_id] == index]
        for index in range(clients)
    ]


def _client_main(endpoint, events):
    """One recorder client process streaming its partition in batches."""
    client = RecorderClient(transport=HTTPTransport(endpoint))
    for start in range(0, len(events), BATCH):
        client.process_all(events[start:start + BATCH])


def _serve(workload, db):
    """A served runtime over a *SHARDS*-way sharded *db* on an ephemeral
    port; returns (server, thread).  ``threadsafe`` because each lane
    forks its own connection over its shard file and HTTP handler
    threads share the global fold/read handle."""
    store = ProvenanceStore(
        model=workload.build_model(),
        backend=ShardedBackend.for_sqlite(db, SHARDS, threadsafe=True),
    )
    sim = workload.attach(store)
    runtime = ComplianceRuntime.from_simulation(
        sim, workload=workload, owns_store=True
    )
    runtime.open()
    assert runtime.lane_count == SHARDS, "bench expects one lane per shard"
    # ``repro serve`` always runs the background refresh loop; without it
    # the whole burst's fold cost lands on the first post-burst reader
    # and the freshness number measures a deployment nobody runs.  The
    # tick both folds lane output and refreshes the touched verdicts, so
    # it bounds how stale the first post-burst read can be.
    runtime.start_background(interval=0.1)
    server = ComplianceHTTPServer(runtime)
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    return server, thread


def _run_served(workload, db, events, clients, expected_traces):
    """Fork *clients* processes against one served runtime; returns
    (ingest_seconds, freshness_seconds, served_verdicts_json, lanes)."""
    server, thread = _serve(workload, db)
    endpoint = server.endpoint
    try:
        partitions = _partition(events, clients)
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(
                target=_client_main, args=(endpoint, partition)
            )
            for partition in partitions
        ]
        started = time.perf_counter()
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        ingest = time.perf_counter() - started
        for process in processes:
            assert process.exitcode == 0, (
                f"client exited with {process.exitcode}"
            )
        # Freshness lag: the writers just stopped; how long until a
        # reader sees a verdict table covering everything they sent?
        transport = HTTPTransport(endpoint)
        caught_up = time.perf_counter()
        transport.sync()
        payloads = transport.verdicts()
        freshness = time.perf_counter() - caught_up
        assert len({p["trace"] for p in payloads}) == expected_traces
        lanes = transport.stats().get("lanes") or []
        transport.close()
        return ingest, freshness, json.dumps(payloads), lanes
    finally:
        server.request_shutdown()
        thread.join(timeout=60.0)


def _run_embedded(workload, events):
    """The no-service baseline: direct in-process ingest + full sweep."""
    model = workload.build_model()
    mapping = workload.build_mapping(model)
    store = ProvenanceStore(model=model)
    started = time.perf_counter()
    RecorderClient(store, mapping).process_all(events)
    ingest = time.perf_counter() - started
    sim = workload.attach(store)
    runtime = ComplianceRuntime.from_simulation(sim)
    runtime.open()
    caught_up = time.perf_counter()
    runtime.verdicts()
    freshness = time.perf_counter() - caught_up
    runtime.shutdown()
    store.close()
    return ingest, freshness


def _cold_sweep(workload, db):
    """Fresh store + evaluator over the served shard files: the parity
    oracle."""
    store = ProvenanceStore(
        model=workload.build_model(),
        backend=ShardedBackend.for_sqlite(db, SHARDS),
    )
    sim = workload.attach(store)
    oracle = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
    payloads = json.dumps(
        [result.to_payload() for result in oracle.run(sim.controls)]
    )
    store.close()
    return payloads


def _occupancy(lanes, total_events):
    """Each lane's share of routed events, as ``28/26/24/22%``."""
    if not lanes or not total_events:
        return "n/a"
    shares = [
        round(100 * lane.get("events_routed", 0) / total_events)
        for lane in sorted(lanes, key=lambda lane: lane.get("lane", 0))
    ]
    return "/".join(str(share) for share in shares) + "%"


def _pr8_baseline():
    """The pre-lane measurement this artifact carries as its before.

    Reads the latest entry of the root history that has this bench; once
    that entry is one of ours, the original baseline rides inside it as
    ``baseline_pr8`` and is propagated unchanged.
    """
    try:
        with open(_SNAPSHOT, encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        entry = next(
            entry["artifacts"][_SLUG]["data"]
            for entry in reversed(entries)
            if _SLUG in entry["artifacts"]
        )
    except (OSError, ValueError, KeyError, StopIteration):
        return None
    if "baseline_pr8" in entry:
        return entry["baseline_pr8"]
    return entry


def test_serve_ingest_throughput(benchmark, artifact, tmp_path):
    workload = hiring.workload()
    events = _events(workload, CASES)

    base_ingest, base_freshness = _run_embedded(workload, events)
    results = {}
    served_json = {}
    occupancy = {}
    for clients in CLIENT_COUNTS:
        db = str(tmp_path / f"serve-{clients}.db")
        ingest, freshness, payloads, lanes = _run_served(
            workload, db, events, clients, CASES
        )
        results[clients] = (ingest, freshness)
        served_json[clients] = (db, payloads)
        occupancy[clients] = _occupancy(lanes, len(events))

    # Parity: what the busiest server ended up serving is exactly what a
    # cold sweep of its shard files computes.
    widest = CLIENT_COUNTS[-1]
    db, payloads = served_json[widest]
    assert payloads == _cold_sweep(workload, db), (
        "served verdicts diverge from a cold sweep of the same database"
    )

    single = len(events) / results[CLIENT_COUNTS[0]][0]
    scaling = {
        clients: (len(events) / results[clients][0]) / single
        for clients in CLIENT_COUNTS
    }
    # Lane-parallel ingest should buy real throughput once there are
    # cores to run the lanes on; on a starved box the lanes still work,
    # they just time-slice, so the gate only arms where it can pass.
    if not TINY and 4 in results and (os.cpu_count() or 1) >= 4:
        assert scaling[4] >= 2.0, (
            f"4 served clients reached only {scaling[4]:.2f}x the "
            f"single-client throughput on {os.cpu_count()} cpus"
        )

    columns = (
        "clients", "transport", "ingest", "events/s",
        "scaling eff", "lane occupancy", "freshness lag",
    )
    rows = [
        (
            "1", "embedded", f"{base_ingest:.3f}s",
            f"{len(events) / base_ingest:.0f}",
            "-", "-", f"{base_freshness * 1000:.0f}ms",
        )
    ]
    for clients in CLIENT_COUNTS:
        ingest, freshness = results[clients]
        rows.append(
            (
                str(clients), "http", f"{ingest:.3f}s",
                f"{len(events) / ingest:.0f}",
                f"{scaling[clients]:.2f}x",
                occupancy[clients],
                f"{freshness * 1000:.0f}ms",
            )
        )
    table = render_table(
        columns,
        rows,
        title=(
            f"Served ingest — hiring, {CASES} traces, "
            f"{len(events)} events, batch {BATCH}, {SHARDS} lanes, "
            f"{os.cpu_count()} cpu(s)"
        ),
    )
    artifact(
        "E7 serve ingest throughput",
        table,
        data={
            "cases": CASES,
            "events": len(events),
            "batch": BATCH,
            "shards": SHARDS,
            "cpus": os.cpu_count(),
            "scale": "tiny" if TINY else "full",
            "columns": list(columns),
            "rows": [list(row) for row in rows],
            "embedded_seconds": base_ingest,
            "served_seconds": {
                str(clients): results[clients][0]
                for clients in CLIENT_COUNTS
            },
            "freshness_seconds": {
                str(clients): results[clients][1]
                for clients in CLIENT_COUNTS
            },
            "scaling_efficiency": {
                str(clients): scaling[clients]
                for clients in CLIENT_COUNTS
            },
            "lane_occupancy": {
                str(clients): occupancy[clients]
                for clients in CLIENT_COUNTS
            },
            "verdicts_identical": True,
            "baseline_pr8": _pr8_baseline(),
        },
    )

    def single_client_small(events=_events(workload, 8)):
        db = str(tmp_path / f"bench-{time.monotonic_ns()}.db")
        return _run_served(workload, db, events, 1, 8)[0]

    benchmark(single_client_small)
