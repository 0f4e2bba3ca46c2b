"""End-to-end benchmark of ``repro serve``.

Usage, from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 16 --trace 0

The workload is one of ``ingest``, ``dashboard`` and ``cold_start`` (see
``perfbench/README.md``).  The run builds its preloaded store from the
seed, launches the real CLI server as its own process, drives it over
HTTP, checks every reply and the final verdict table, and prints one
JSON object as its last line: the end-to-end metrics with ``--trace 0``;
with ``--trace 1`` an untraced pass followed by a traced one, and the
per-layer metrics of the traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: scratch space inside the checkout; each invocation uses its own subdirectory.
WORK = os.path.join(ROOT, ".perfbench-work")

UNITS = {
    "setup_s": "s",
    "restart_s": "s",
    "rss_peak_mb": "MiB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def unit(name: str) -> str:
    """A metric's unit, from its name: ``_ms``, ``_s``, ``_us_per_...``."""
    if name in UNITS:
        return UNITS[name]
    if "_us_per_" in name:
        return "us"
    for suffix in ("ms", "s"):
        if name.endswith("_" + suffix):
            return suffix
    return "ratio" if "_ratio" in name or name.endswith("_share") else "count"


def _pass(workload, fixture, workdir: str, seconds: int, tracer=None):
    """One pass of *workload*; a server that fails to start or stop, or a
    dead connection outside a timed operation, aborts it as one failure."""
    from repro.service import TransportError
    from server import ServerError
    from workloads import Run

    os.makedirs(workdir)
    run = Run(ROOT, workdir, seconds, workload.ops(seconds), tracer)
    try:
        workload.body(run, fixture)
    except (ServerError, TransportError) as exc:
        run.aborted = str(exc)
        run.check(False, f"pass aborted: {exc}")
    finally:
        run.close()
    return run


def _summary(label: str, run, workload) -> None:
    from stats import beyond, highest_supported

    n = len(run.latencies)
    tail = (
        f"p{workload.tail} tail with {beyond(n, workload.tail)} beyond it"
        if workload.tail is not None else "max as tail"
    )
    tail += f"; highest supported percentile: {highest_supported(n)}"
    print(
        f"{label}: {n} operations ({tail}), "
        f"{run.units} {workload.unit} in {run.busy:.2f}s; "
        f"{len(run.setup_s)} setup and {len(run.restart_s)} restart launches; "
        f"{run.failed}/{run.attempted} failed"
    )
    for problem in run.problems:
        print(f"  failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark of repro serve")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"run.py: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    # One CPU for the load generator and every server it starts: on a
    # shared 2-vCPU guest the request ping-pong across CPUs made the
    # same run vary by a third; on one CPU the spread falls to a few %.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fixtures
    import layers
    import probes
    from spans import Tracer, load
    from workloads import WORKLOADS, end_to_end

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{os.getpid()}-{time.monotonic_ns()}")
    try:
        built = time.perf_counter()
        fixture = fixtures.build(
            os.path.join(workdir, "fixture"), args.seed, workload.preload,
            workload.stream_cases(workload.ops(args.seconds)), workload.snapshot,
        )
        print(
            f"fixture: {fixture.traces} traces, {fixture.rows} rows, "
            f"{len(fixture.stream)} stream cases, built in "
            f"{time.perf_counter() - built:.1f}s"
        )
        runs = [_pass(workload, fixture, os.path.join(workdir, "untraced"), args.seconds)]
        _summary("untraced", runs[0], workload)
        metrics = {} if runs[0].aborted else end_to_end(runs[0], workload)
        if args.trace and metrics:
            tracer = Tracer()
            probes.install_client(tracer)
            traced = _pass(
                workload, fixture, os.path.join(workdir, "traced"), args.seconds, tracer
            )
            runs.append(traced)
            _summary("traced", traced, workload)
            metrics = {} if traced.aborted else layers.per_layer(
                [load(server.spans) for server in traced.servers],
                tracer.spans,
                tracer.counters,
                traced.snapshots,
                traced.transports,
                metrics["latency_p50_ms"] / 1000.0,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
