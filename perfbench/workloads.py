"""The three workloads, driven over HTTP against ``repro serve``.

Each workload function takes a :class:`Run` (which owns the server
processes, the latency samples and the failure ledger) and a built
fixture.  The load generator holds at most two connections: a writer,
and on ``dashboard`` a reader.  Every loop is closed: the next request
goes out when the previous reply is in.

The work in a run is fixed, not the time: ``--seconds`` sets how many
operations a run issues (:attr:`Workload.ops_per_second`, sized so that
a run measures about ``--seconds`` on a 2-vCPU machine).  A faster or
slower program then still ends with the same store, so memory, restart
and the final sweep stay comparable.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.processes.engine import all_events
from repro.service import HTTPTransport, TransportError

import stats
from fixtures import Fixture, cold_sweep, last_positions, violated_controls
from server import Server

#: events per ``POST /ingest``.
BATCH = 10
#: launches whose ``/health`` times make up ``setup_s`` on a traffic workload.
SETUP_LAUNCHES = 3
#: a measured loop stops early after this many multiples of ``--seconds``.
MAX_STRETCH = 4


class Run:
    """One pass over a workload: servers, samples, and failures.

    With a *tracer* the servers are the traced launcher and the load
    generator's operations are recorded as ``bench.op`` spans.
    """

    def __init__(
        self, root: str, workdir: str, seconds: int, ops: int, tracer=None
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.seconds = seconds
        #: main operations (``cold_start``: cycles) the run issues.
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.servers: List[Server] = []
        self.setup_s: List[float] = []
        self.restart_s: List[float] = []
        self.rss_mb: List[float] = []
        #: seconds per main operation, in the order issued.
        self.latencies: List[float] = []
        #: throughput units completed (events, rounds or verdict rows).
        self.units = 0
        #: seconds the throughput units took.
        self.busy = 0.0
        #: ``/stats`` of every server just before it stopped (traced only).
        self.snapshots: List[Dict] = []
        self.transports = 0
        #: why the pass stopped before its end, if it did.
        self.aborted: Optional[str] = None

    # -- ledger --------------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation or gate; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def timed(self, fn: Callable, *args):
        """Call *fn* as one main operation; None when the wire failed."""
        call = self.tracer.wrap("bench.op", fn) if self.tracer else fn
        started = time.perf_counter()
        try:
            result = call(*args)
        except TransportError as exc:
            self.problems.append(f"transport: {exc}")
            return None
        self.latencies.append(time.perf_counter() - started)
        return result

    def overdue(self, started: float) -> bool:
        """Whether a loop begun at *started* has run far past ``--seconds``."""
        return time.perf_counter() - started >= MAX_STRETCH * self.seconds

    # -- servers -------------------------------------------------------------

    def fresh_copy(self, fixture: Fixture) -> str:
        return fixture.copy(os.path.join(self.workdir, f"copy-{len(self.servers)}"))

    def launch(self, db: str, role: str, since: Optional[float] = None) -> Server:
        index = len(self.servers)
        spans = (
            os.path.join(self.workdir, f"spans-{index}.json") if self.tracer else None
        )
        server = Server(
            self.root, db, os.path.join(self.workdir, "serve.log"), spans, role
        )
        self.servers.append(server)
        ready = server.wait_ready()
        self.transports += 1
        if role == "setup":
            self.setup_s.append(ready)
        else:
            self.restart_s.append(time.perf_counter() - since)
        return server

    def launch_setups(self, db: str) -> Server:
        """``SETUP_LAUNCHES`` starts over *db*; the last one keeps serving."""
        for __ in range(SETUP_LAUNCHES - 1):
            self.stop(self.launch(db, "setup"))
        return self.launch(db, "setup")

    def stop(self, server: Server) -> None:
        if self.tracer is not None:
            self.snapshots.append(server.transport.stats())
        tail = server.stop()
        self.check(
            "stopped; verdict snapshot persisted" in tail,
            f"shutdown did not persist the snapshot: {tail}",
        )

    def restart(self, server: Server, db: str) -> Server:
        """``POST /shutdown`` and relaunch over the same files."""
        since = time.perf_counter()
        self.stop(server)
        relaunch = self.launch(db, "restart", since)
        self.check(
            relaunch.evaluated_at_startup == 0,
            f"relaunch evaluated pairs at startup: {relaunch.banner[:1]}",
        )
        return relaunch

    def verify(self, server: Server, db: str, served: List[Dict]) -> None:
        """Stop *server*; the table it *served* must equal a cold sweep of *db*."""
        self.stop(server)
        self.check(
            json.dumps(served) == cold_sweep(db),
            "served verdict table differs from a cold sweep of its files",
        )

    def close(self) -> None:
        for server in self.servers:
            server.kill()


def _recorded(reply, batch) -> bool:
    return len(reply.dispositions) == len(batch) and all(
        recorded for recorded, __ in reply.dispositions
    )


def _batches(events: List) -> Iterator[List]:
    for position in range(0, len(events), BATCH):
        yield events[position:position + BATCH]


def _resume(run: Run, server: Server, batch: List) -> List[Dict]:
    """Write *batch* after a restart, then read the full table.

    The read must cover the traces just written.  Returns the rows read.
    """
    try:
        reply = server.transport.ingest(batch)
        rows = server.transport.verdicts()
    except TransportError as exc:
        run.problems.append(f"transport: {exc}")
        reply, rows = None, []
    run.check(
        reply is not None and _recorded(reply, batch)
        and {event.app_id for event in batch} <= {row["trace"] for row in rows},
        "write-then-read after the restart failed or read stale",
    )
    return rows


def _restart_and_verify(run: Run, server: Server, db: str, batch: List) -> None:
    run.rss_mb.append(server.peak_rss_mb())
    relaunch = run.restart(server, db)
    run.verify(relaunch, db, _resume(run, relaunch, batch))


def ingest(run: Run, fixture: Fixture) -> None:
    """One writer streams new traces in batches of ``BATCH`` events."""
    db = run.fresh_copy(fixture)
    server = run.launch_setups(db)
    writer = server.transport
    events = all_events(fixture.stream)
    # The last batch is kept for the write that follows the restart.
    batches = _batches(events[:-BATCH])
    started = time.perf_counter()
    for index, batch in zip(range(run.ops), batches):
        reply = run.timed(writer.ingest, batch)
        if run.check(reply is not None and _recorded(reply, batch),
                     f"batch {index} not recorded"):
            run.units += reply.recorded
        if run.overdue(started):
            break
    run.busy = time.perf_counter() - started
    _restart_and_verify(run, server, db, events[-BATCH:])


def dashboard(run: Run, fixture: Fixture) -> None:
    """Rounds of write-then-read: the read must show the write."""
    db = run.fresh_copy(fixture)
    server = run.launch_setups(db)
    writer = server.transport
    reader = HTTPTransport(writer.base_url)
    run.transports += 1
    cases = [case for case in fixture.stream if violated_controls(case)]
    ends = last_positions(cases)
    events = all_events(cases)
    batches = _batches(events[:-BATCH])

    def round_trip(batch):
        return writer.ingest(batch), reader.verdicts(status="violated")

    started = time.perf_counter()
    for index, batch in zip(range(run.ops), batches):
        first = index * BATCH
        completed = [ends[i] for i in range(first, first + len(batch)) if i in ends]
        result = run.timed(round_trip, batch)
        ok = result is not None and _recorded(result[0], batch)
        if ok:
            served: Dict[str, set] = {}
            for row in result[1]:
                served.setdefault(row["trace"], set()).add(row["control"])
            # At least the injected violations: a submitter who is also the
            # general manager fails the separation-of-duties control too.
            ok = all(
                served.get(case.app_id, set()) >= violated_controls(case)
                for case in completed
            )
            run.units += 1
        run.check(ok, f"round {index} failed or read stale")
        if run.overdue(started):
            break
    run.busy = time.perf_counter() - started
    reader.close()
    _restart_and_verify(run, server, db, events[-BATCH:])


def cold_start(run: Run, fixture: Fixture) -> None:
    """Cold start without a snapshot, then a restart from the snapshot.

    Each of the run's cycles starts over a fresh copy.  The main
    operation is the full-table read that follows each start.  There is
    no ingest traffic.
    """
    for cycle in range(run.ops):
        db = run.fresh_copy(fixture)
        server = run.launch(db, "setup")
        _read_all(run, server, fixture.traces)
        run.rss_mb.append(server.peak_rss_mb())
        relaunch = run.restart(server, db)
        served = _read_all(run, relaunch, fixture.traces)
        if cycle < run.ops - 1:
            run.stop(relaunch)
    run.verify(relaunch, db, served)


def _read_all(run: Run, server: Server, traces: int) -> List[Dict]:
    """One timed full-table read; it must cover every stored trace."""
    started = time.perf_counter()
    rows = run.timed(server.transport.verdicts)
    run.busy += time.perf_counter() - started
    if rows is not None:
        run.units += len(rows)
    run.check(
        rows is not None and len({row["trace"] for row in rows}) == traces,
        "full-table read failed or missed traces",
    )
    return rows or []


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    body: Callable[[Run, Fixture], None]
    preload: int
    snapshot: bool
    #: main operations (``cold_start``: cycles) per second of ``--seconds``.
    ops_per_second: float
    #: stream cases to simulate for a run of *ops* operations.
    stream_cases: Callable[[int], int]
    #: percentile reported as ``latency_tail_ms``; None reports the maximum.
    tail: Optional[int]
    #: what one throughput unit is.
    unit: str

    def ops(self, seconds: int) -> int:
        return max(1, round(self.ops_per_second * seconds))


INGEST = Workload(
    "ingest",
    "closed-loop 10-event batches of new traces over 1,000 preloaded ones: "
    "the write path (decode, lanes, correlation, SQLite commit)",
    ingest, preload=1000, snapshot=True, ops_per_second=150,
    # Traces have at least 6 events; one spare batch follows the restart.
    stream_cases=lambda ops: (ops + 1) * BATCH // 6 + 1,
    tail=99, unit="events acknowledged",
)
DASHBOARD = Workload(
    "dashboard",
    "rounds of one 10-event write then a violations read that must show it: "
    "the read-after-write path",
    dashboard, preload=250, snapshot=True, ops_per_second=9,
    # Only violated traces (about 30%) are sent; 4x leaves room.
    stream_cases=lambda ops: 4 * ((ops + 1) * BATCH // 6 + 1),
    tail=90, unit="rounds",
)
COLD_START = Workload(
    "cold_start",
    "3,000 preloaded traces and no snapshot: the startup sweep, a restart "
    "from the snapshot, and a full-table read after each start",
    cold_start, preload=3000, snapshot=False, ops_per_second=1 / 8,
    stream_cases=lambda ops: 0,
    tail=None, unit="verdict rows read",
)
WORKLOADS = {workload.name: workload for workload in (INGEST, DASHBOARD, COLD_START)}


def end_to_end(run: Run, workload: Workload) -> Dict[str, float]:
    """The user-visible metrics of one untraced pass."""
    latencies = run.latencies
    tail = (
        stats.percentile(latencies, workload.tail)
        if workload.tail is not None
        else max(latencies)
    )
    return {
        "setup_s": statistics.median(run.setup_s),
        "restart_s": statistics.median(run.restart_s),
        "rss_peak_mb": statistics.median(run.rss_mb),
        "throughput_per_s": run.units / run.busy,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
    }
