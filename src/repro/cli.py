"""Command-line interface.

Four subcommands wrap the common flows so the system is drivable without
writing Python::

    python -m repro simulate hiring --cases 50 --violation-rate 0.2
    python -m repro check hiring --cases 50 --violation-rate 0.2 \
        --visibility 0.8
    python -m repro vocabulary hiring

- ``simulate`` runs a workload and prints capture statistics plus the
  Table-I rows of the first trace,
- ``check`` runs the workload, evaluates its controls, and prints the
  compliance dashboard (optionally under a visibility projection); with
  ``--incremental`` it restores the materialized verdict snapshot from the
  backend, re-evaluates only traces that changed since it was saved, and
  saves the updated snapshot back,
- ``watch`` tails a (SQLite) store's change feed: rows appended by other
  processes are folded in on each poll and only the affected
  (control, trace) pairs re-evaluate, printing verdict transitions live,
- ``serve`` runs the long-lived compliance service: a
  :class:`~repro.service.runtime.ComplianceRuntime` over the store with a
  background refresh loop and a stdlib HTTP front end — recorder clients
  POST event batches to ``/ingest`` while readers GET fresh verdicts, and
  a graceful shutdown persists the verdict snapshot so a restart resumes
  from its cursor::

      python -m repro serve hiring --backend sqlite --db out.db --port 8787

- ``scenarios`` lists the registered workloads with their control counts
  and ground-truth coverage,
- ``report`` prints a full audit report,
- ``vocabulary`` prints the rule editor's drop-down menus for a workload's
  generated business vocabulary.

Every subcommand takes ``--backend {memory,sqlite}`` and ``--db PATH`` to
pick where the provenance store keeps its physical Table-I rows.  With
``--backend sqlite --db out.db`` the rows persist: a later ``check`` or
``report`` against the same ``--db`` skips simulation entirely and audits
the stored rows — the capture-once / audit-later split of §II.A::

    python -m repro simulate hiring --backend sqlite --db out.db
    python -m repro check hiring --backend sqlite --db out.db

``--shards N`` partitions the store by APPID hash into N child backends
(for SQLite: ``out.db.shard-00`` … files, each with its own write lock),
and ``store-stats`` prints per-shard row counts, feed positions, and
on-disk sizes for eyeballing the balance::

    python -m repro simulate hiring --backend sqlite --db out.db --shards 4
    python -m repro store-stats --backend sqlite --db out.db --shards 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.controls.dashboard import ComplianceDashboard
from repro.errors import BackendError
from repro.controls.evaluator import ComplianceEvaluator
from repro.processes import expenses, hiring, incidents, procurement
from repro.processes.violations import ViolationPlan
from repro.processes.visibility import VisibilityPolicy
from repro.reporting.tables import render_provenance_table
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
    StorageBackend,
)

WORKLOADS = {
    "hiring": hiring,
    "procurement": procurement,
    "expenses": expenses,
    "incidents": incidents,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Internal control points for partially managed processes "
            "(Doganata, ICDE 2011 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend", choices=("memory", "sqlite"), default="memory",
            help="storage backend for the provenance store",
        )
        p.add_argument(
            "--db", default=None, metavar="PATH",
            help=(
                "SQLite database path (implies persistence; a populated "
                "database is reused instead of re-simulating)"
            ),
        )
        p.add_argument(
            "--shards", type=int, default=1, metavar="N",
            help=(
                "partition the store into N shards by APPID hash (for "
                "sqlite: one <db>.shard-0i file per shard, each with its "
                "own write lock)"
            ),
        )
        p.add_argument(
            "--decode-cache", type=int, default=None, metavar="N",
            help=(
                "capacity of the sqlite backend's decoded-record LRU "
                "cache (default: REPRO_DECODE_CACHE env var, else 4096)"
            ),
        )

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "workload", choices=sorted(WORKLOADS),
            help="which simulated business scenario to run",
        )
        p.add_argument("--cases", type=int, default=50,
                       help="number of process cases to simulate")
        p.add_argument("--seed", type=int, default=7,
                       help="simulation seed (runs are deterministic)")
        p.add_argument(
            "--violation-rate", type=float, default=0.0,
            help="injection probability per violation kind (0..1)",
        )
        p.add_argument(
            "--visibility", type=float, default=None,
            help="uniform capture rate (0..1); omit for full visibility",
        )
        add_backend_args(p)

    simulate = sub.add_parser(
        "simulate", help="simulate a workload and show what was captured"
    )
    add_workload_args(simulate)

    def add_evaluation_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--execution-mode", choices=("compiled", "interpret"),
            default="compiled",
            help=(
                "rule execution back end: 'compiled' lowers each control "
                "to Python closures once (fast, the default); 'interpret' "
                "walks the AST every evaluation (the reference semantics)"
            ),
        )
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help=(
                "evaluate the compliance sweep with N worker processes "
                "(fork-based; falls back to serial where fork is "
                "unavailable)"
            ),
        )

    check = sub.add_parser(
        "check", help="simulate, evaluate controls, print the dashboard"
    )
    add_workload_args(check)
    add_evaluation_args(check)
    check.add_argument(
        "--exceptions-only", action="store_true",
        help="print only the violation report",
    )
    check.add_argument(
        "--incremental", action="store_true",
        help=(
            "restore the materialized verdict snapshot from the storage "
            "backend, re-evaluate only traces appended to since it was "
            "saved, and save the updated snapshot back (most useful with "
            "--backend sqlite --db, where snapshots survive the process)"
        ),
    )

    watch = sub.add_parser(
        "watch",
        help=(
            "tail a store's change feed, re-evaluating affected pairs as "
            "rows arrive"
        ),
    )
    add_workload_args(watch)
    watch.add_argument(
        "--execution-mode", choices=("compiled", "interpret"),
        default="compiled",
        help="rule execution back end (see 'check')",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll interval between change-feed syncs",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="sync and refresh a single time, then exit (for scripting)",
    )
    watch.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="exit after N polls (default: watch until interrupted)",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the compliance service: HTTP ingest + verdict queries "
            "over a live runtime with a background refresh loop"
        ),
    )
    add_workload_args(serve)
    # A server usually fronts an existing --db; an empty store starts
    # empty and fills from /ingest rather than self-simulating.
    serve.set_defaults(cases=0)
    serve.add_argument(
        "--execution-mode", choices=("compiled", "interpret"),
        default="compiled",
        help="rule execution back end (see 'check')",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: loopback only)",
    )
    serve.add_argument(
        "--port", type=int, default=8787, metavar="N",
        help="TCP port; 0 picks a free port (printed at startup)",
    )
    serve.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="background change-feed refresh interval",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help=(
            "persist the verdict snapshot every N refresh ticks "
            "(default: only at shutdown)"
        ),
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="list the registered workloads and their control points",
    )
    scenarios.add_argument(
        "--verbose", action="store_true",
        help="also list each workload's individual controls",
    )

    report = sub.add_parser(
        "report", help="simulate, evaluate, and print a full audit report"
    )
    add_workload_args(report)
    add_evaluation_args(report)

    vocabulary = sub.add_parser(
        "vocabulary", help="print the generated business vocabulary"
    )
    vocabulary.add_argument("workload", choices=sorted(WORKLOADS))
    add_backend_args(vocabulary)

    chaos = sub.add_parser(
        "chaos",
        help=(
            "run seeded crash schedules through the fault-injection "
            "harness and verify every recovery invariant"
        ),
    )
    chaos.add_argument(
        "--schedules", type=int, default=25, metavar="N",
        help="schedules to run per backend kind",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help=(
            "base replay seed; schedule i runs with seed+i, so a failure "
            "report's seed replays as --seed <it> --schedules 1"
        ),
    )
    chaos.add_argument(
        "--backend", choices=("memory", "sqlite", "both"), default="both",
        help="which storage backend kinds to crash",
    )
    chaos.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help=(
            "run each schedule against an N-shard store with per-shard "
            "crash points (one shard can die while the others survive)"
        ),
    )
    chaos.add_argument(
        "--verbose", action="store_true",
        help="print one line per schedule (crash site, surviving rows)",
    )

    stats = sub.add_parser(
        "store-stats",
        help=(
            "print per-shard row counts, change-feed positions, and "
            "on-disk sizes of an existing store"
        ),
    )
    add_backend_args(stats)
    return parser


def _backend_for(args, threadsafe: bool = False) -> Optional[StorageBackend]:
    """The storage backend the flags select; None means in-memory default.

    *threadsafe* relaxes SQLite's same-thread check for stores a service
    runtime serializes behind its own lock (``serve``'s HTTP handler
    threads).
    """
    shards = getattr(args, "shards", 1)
    cache = getattr(args, "decode_cache", None)
    sqlite_options = {} if cache is None else {"cache_size": cache}
    if threadsafe:
        sqlite_options["threadsafe"] = True
    if shards > 1:
        if args.backend == "sqlite":
            if args.db:
                return ShardedBackend.for_sqlite(
                    args.db, shards, **sqlite_options
                )
            return ShardedBackend(
                [
                    SQLiteBackend(":memory:", **sqlite_options)
                    for _ in range(shards)
                ]
            )
        return ShardedBackend([MemoryBackend() for _ in range(shards)])
    if args.backend == "sqlite":
        return SQLiteBackend(args.db or ":memory:", **sqlite_options)
    return None


def _simulate(args, threadsafe: bool = False):
    module = WORKLOADS[args.workload]
    workload = module.workload()
    visibility = (
        VisibilityPolicy.uniform(args.visibility)
        if args.visibility is not None
        else None
    )
    backend = _backend_for(args, threadsafe=threadsafe)
    if backend is not None and backend.count() > 0:
        # The --db already holds captured rows: audit them instead of
        # re-simulating.  Verdicts match the run that wrote the rows.
        from repro.store.store import ProvenanceStore

        store = ProvenanceStore(model=workload.build_model(), backend=backend)
        return module, workload, workload.attach(store, visibility=visibility)
    plan = (
        ViolationPlan.uniform(list(module.VIOLATION_KINDS),
                              args.violation_rate)
        if args.violation_rate > 0
        else ViolationPlan.none()
    )
    sim = workload.simulate(
        cases=args.cases, seed=args.seed,
        violations=plan, visibility=visibility,
        backend=backend,
    )
    return module, workload, sim


def cmd_simulate(args, out) -> int:
    __, __, sim = _simulate(args)
    try:
        if sim.runs:
            print(
                f"workload {sim.workload_name!r}: {len(sim.runs)} cases, "
                f"{sim.visible_events} events captured, "
                f"{sim.dropped_events} dropped, "
                f"{len(sim.store)} provenance rows",
                file=out,
            )
        else:
            print(
                f"workload {sim.workload_name!r}: reusing "
                f"{len(sim.store)} provenance rows from {args.db!r}",
                file=out,
            )
        if sim.store.app_ids():
            trace_id = sim.store.app_ids()[0]
            rows = [r for r in sim.store.rows() if r.app_id == trace_id]
            print(file=out)
            print(
                render_provenance_table(
                    rows, title=f"Provenance rows of trace {trace_id}"
                ),
                file=out,
            )
        return 0
    finally:
        sim.store.close()


def cmd_check(args, out) -> int:
    module, workload, sim = _simulate(args)
    try:
        evaluator = ComplianceEvaluator(
            sim.store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
            execution_mode=args.execution_mode,
        )
        if args.incremental:
            materializer = evaluator.materializer
            # The snapshot key depends on the registered control set, so
            # register before asking the backend for a snapshot.
            for control in sim.controls:
                materializer.register(control)
            restored = materializer.restore()
            before = materializer.refreshes
            results = evaluator.run(sim.controls, jobs=args.jobs)
            materializer.save()
            evaluated = materializer.refreshes - before
            origin = (
                "snapshot restored" if restored
                else "no snapshot (cold sweep)"
            )
            print(
                f"incremental: {origin}; {evaluated} of {len(results)} "
                f"(control, trace) pairs re-evaluated",
                file=out,
            )
        else:
            results = evaluator.run(sim.controls, jobs=args.jobs)
        dashboard = ComplianceDashboard()
        for control in sim.controls:
            dashboard.register_control(control)
        dashboard.record_all(results)
        if args.exceptions_only:
            exceptions = dashboard.exceptions()
            if not exceptions:
                print("no violations", file=out)
            for result in exceptions:
                print(result.describe(), file=out)
        else:
            print(dashboard.render(), file=out)
        return 1 if dashboard.exceptions() else 0
    finally:
        sim.store.close()


def cmd_watch(args, out) -> int:
    """Thin client of the service runtime's continuous-evaluation loop.

    Built *without* the workload's mapping/correlation: watch observes a
    feed other processes write to; it never adds rows of its own.
    """
    from repro.service import ComplianceRuntime

    __, __, sim = _simulate(args)
    runtime = ComplianceRuntime.from_simulation(
        sim, execution_mode=args.execution_mode, owns_store=True
    )
    try:
        report = runtime.open()
        print(
            f"watching {sim.workload_name!r}: "
            f"{report.traces} traces at seq {report.last_seq}; "
            f"{'snapshot restored, ' if report.restored else ''}"
            f"{report.evaluated} pairs evaluated at startup",
            file=out,
        )

        def announce(transition) -> None:
            if transition.changed:
                print(f"  {transition.describe()}", file=out)

        # Subscribed only after the startup sweep: the live feed shows
        # changes, not the initial materialization.
        runtime.subscribe(announce)

        def on_poll(outcome) -> None:
            if outcome.new_rows:
                print(
                    f"[seq {outcome.last_seq}] {outcome.new_rows} new "
                    f"row(s), {outcome.refreshed} pair(s) re-evaluated",
                    file=out,
                )

        # time.sleep resolved here, at call time, so a monkeypatched
        # clock (the fake-clock tests) is honoured.
        runtime.poll_loop(
            interval=args.interval,
            once=args.once,
            max_polls=args.max_polls,
            sleep=time.sleep,
            on_poll=on_poll,
        )
        return 0
    finally:
        # Graceful exit = snapshot + flush + close, same as the server's.
        runtime.shutdown()


def cmd_serve(args, out) -> int:
    """Run the compliance service until interrupted or POST /shutdown."""
    import signal

    from repro.service import ComplianceHTTPServer, ComplianceRuntime

    __, workload, sim = _simulate(args, threadsafe=True)
    runtime = ComplianceRuntime.from_simulation(
        sim, workload=workload,
        execution_mode=args.execution_mode, owns_store=True,
    )
    report = runtime.open()
    print(
        f"serving {sim.workload_name!r}: "
        f"{report.traces} traces at seq {report.last_seq}; "
        f"{'snapshot restored, ' if report.restored else ''}"
        f"{report.evaluated} pairs evaluated at startup",
        file=out,
    )
    print(
        f"{runtime.lane_count} ingest lane(s) (one per shard, routed by "
        f"APPID hash)",
        file=out,
    )
    try:
        server = ComplianceHTTPServer(
            runtime, host=args.host, port=args.port
        )
    except OSError as exc:
        runtime.shutdown()
        print(f"serve: cannot bind {args.host}:{args.port}: {exc}", file=out)
        return 1
    runtime.start_background(
        interval=args.interval, snapshot_every=args.snapshot_every
    )
    print(
        f"listening on {server.endpoint} "
        f"(refresh every {args.interval:g}s; Ctrl-C or POST /shutdown "
        f"to stop)",
        file=out,
    )
    if hasattr(out, "flush"):
        out.flush()  # scripted callers wait for the endpoint line

    def _stop(signum, frame) -> None:  # pragma: no cover - signal path
        server.request_shutdown()

    try:
        signal.signal(signal.SIGINT, _stop)
        signal.signal(signal.SIGTERM, _stop)
    except ValueError:
        pass  # not the main thread (tests drive serve from a thread)
    server.serve_until_shutdown()
    print("stopped; verdict snapshot persisted", file=out)
    return 0


def cmd_scenarios(args, out) -> int:
    """List the registered workloads and their control points."""
    from repro.reporting.tables import render_table

    rows = []
    details = []
    for key in sorted(WORKLOADS):
        module = WORKLOADS[key]
        workload = module.workload()
        rows.append(
            (
                key,
                workload.name,
                len(workload.control_specs),
                "yes" if workload.ground_truth is not None else "no",
                len(module.VIOLATION_KINDS),
            )
        )
        if args.verbose:
            details.append((key, workload))
    print(
        render_table(
            (
                "scenario", "process", "controls",
                "ground truth", "violation kinds",
            ),
            rows,
            title="Registered workloads",
        ),
        file=out,
    )
    for key, workload in details:
        print(file=out)
        print(f"{key}:", file=out)
        for spec in workload.control_specs:
            print(
                f"  {spec.name} [{spec.severity.value}]"
                f"{': ' + spec.description if spec.description else ''}",
                file=out,
            )
    return 0


def cmd_report(args, out) -> int:
    from repro.reporting.audit import AuditReportBuilder

    __, __, sim = _simulate(args)
    try:
        evaluator = ComplianceEvaluator(
            sim.store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
            execution_mode=args.execution_mode,
        )
        results = evaluator.run(sim.controls, jobs=args.jobs)
        builder = AuditReportBuilder(sim.store, sim.controls)
        print(builder.build(results), file=out)
        return 0
    finally:
        sim.store.close()


def cmd_chaos(args, out) -> int:
    """Run seeded crash schedules; exit 1 on any invariant violation."""
    from repro.faults import CheckFailure, run_schedules
    from repro.faults.checker import BACKEND_KINDS

    kinds = BACKEND_KINDS if args.backend == "both" else (args.backend,)

    def emit(report):
        if args.verbose:
            print(report.describe(), file=out)

    try:
        reports = run_schedules(
            args.schedules, base_seed=args.seed, backends=kinds,
            on_report=emit, shards=args.shards,
        )
    except CheckFailure as exc:
        print(f"chaos: FAILED\n{exc}", file=out)
        return 1
    crashed = sum(1 for r in reports if r.crashed)
    survived = sum(r.recovered for r in reports)
    acked = sum(r.acknowledged for r in reports)
    sharding = f" with {args.shards} shards" if args.shards > 1 else ""
    print(
        f"chaos: {len(reports)} schedules ok over {', '.join(kinds)}"
        f"{sharding} "
        f"(seeds {args.seed}..{args.seed + args.schedules - 1}): "
        f"{crashed} crashed, {len(reports) - crashed} closed clean; "
        f"{survived}/{acked} acknowledged rows survived recovery",
        file=out,
    )
    return 0


def _print_lane_stats(backend, out) -> None:
    """Per-lane ingest counters a sharded service runtime persisted.

    A sharded ``repro serve`` saves each lane's counters as auxiliary
    state at snapshot/shutdown; reporting them here makes ``store-stats``
    show how ingest load actually spread across lanes, instead of only
    the aggregate.
    """
    import json

    from repro.service.runtime import LANE_STATS_KEY

    raw = backend.load_state(LANE_STATS_KEY)
    if raw is None:
        return
    try:
        payload = json.loads(raw)
    except ValueError:
        return
    if not isinstance(payload, dict) or payload.get("version") != 1:
        return
    for entry in payload.get("lanes", ()):
        print(
            f"lane {entry.get('lane')}: "
            f"{entry.get('events_routed', 0)} events routed over "
            f"{entry.get('batches', 0)} batches, "
            f"{entry.get('dedup_hits', 0)} dedup hits, "
            f"{entry.get('correlation_batches', 0)} correlation batches "
            f"({entry.get('correlated_rows', 0)} relation rows)",
            file=out,
        )


def cmd_store_stats(args, out) -> int:
    """Per-shard row counts, feed positions, and on-disk sizes."""
    backend = _backend_for(args)
    if backend is None:
        backend = MemoryBackend()
    try:
        children = backend.shard_backends()
        total_rows = 0
        total_bytes = 0
        total_cols = 0
        cols_known = False
        for index, child in enumerate(children):
            rows = child.count()
            seq = child.last_seq()
            traces = len(child.app_ids())
            if (
                isinstance(child, SQLiteBackend)
                and child.path != ":memory:"
                and os.path.exists(child.path)
            ):
                size = os.path.getsize(child.path)
                disk = f"{size} bytes ({child.path})"
            else:
                size = 0
                disk = "in memory"
            total_rows += rows
            total_bytes += size
            print(
                f"shard {index}: {rows} rows, {traces} traces, "
                f"last_seq {seq}, {disk}",
                file=out,
            )
            if isinstance(child, SQLiteBackend):
                cols_known = True
                with_cols, total = child.columnar_coverage()
                total_cols += with_cols
                print(
                    f"shard {index}: columnar: {with_cols}/{total} rows "
                    f"encoded, decode cache {child.cache_size} slots "
                    f"({child.cache_hits} hits, {child.cache_misses} "
                    f"misses), {child.pushdown_queries} pushed-down "
                    f"queries",
                    file=out,
                )
        _print_lane_stats(backend, out)
        print(
            f"total: {total_rows} rows across {len(children)} shard(s), "
            f"{total_bytes} bytes on disk",
            file=out,
        )
        if cols_known:
            print(
                f"total: columnar: {total_cols}/{total_rows} rows encoded",
                file=out,
            )
        return 0
    finally:
        backend.close()


def cmd_vocabulary(args, out) -> int:
    # The vocabulary derives from the data model alone; --backend/--db are
    # accepted for interface uniformity but the store is never written, so
    # an existing --db is left untouched.
    module = WORKLOADS[args.workload]
    sim = module.workload().simulate(cases=0)
    try:
        for concept, phrases in sim.vocabulary.dropdown_entries().items():
            print(concept, file=out)
            for phrase in phrases:
                print(f"  - {phrase}", file=out)
        return 0
    finally:
        sim.store.close()


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "db", None) and args.backend == "memory":
        parser.error("--db requires --backend sqlite")
    if getattr(args, "shards", 1) < 1:
        parser.error("--shards must be >= 1")
    if (
        args.command in ("serve", "watch")
        and args.backend == "sqlite"
        and not args.db
    ):
        # Each ingest lane forks its own connection per shard, and a
        # ``:memory:`` database cannot be shared with a second one.
        parser.error(f"{args.command} with --backend sqlite needs --db")
    try:
        if args.command == "simulate":
            return cmd_simulate(args, out)
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "watch":
            return cmd_watch(args, out)
        if args.command == "serve":
            return cmd_serve(args, out)
        if args.command == "scenarios":
            return cmd_scenarios(args, out)
        if args.command == "report":
            return cmd_report(args, out)
        if args.command == "chaos":
            return cmd_chaos(args, out)
        if args.command == "store-stats":
            return cmd_store_stats(args, out)
        return cmd_vocabulary(args, out)
    except BackendError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
