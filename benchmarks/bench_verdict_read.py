"""Where a full-table ``GET /verdicts`` spends its time, stage by stage.

A served runtime over a 3,000-trace hiring store (3 controls, 9,000
verdicts) answers a full-table read in these stages, each timed on its
own as the median of ``REPEATS`` runs:

- **cache miss** — the runtime's read after its cache was invalidated
  with nothing dirty: fold the lanes, sync the store, read the
  materialized table in sweep order (and pair each row with its stored
  bytes);
- **filter** — a cache hit narrowed to ``status=violated``;
- **encode** — the reference a server that keeps no encoded verdicts
  pays per read: ``to_payload`` for every row, then one ``json.dumps``;
- **join** — the body the server sends now: the stored per-verdict
  bytes joined into ``{"verdicts": [...]}``;
- **write** — the body pushed through a local socket pair to a reader
  thread that drains it;
- **get** — one whole served ``GET /verdicts`` on a cache hit, over
  loopback HTTP with a keep-alive connection.

The joined body, the encoded body and the served body must be
byte-identical (``correct``).

Standalone, the last line of the output is one JSON object in the shape
``benchmarks/history/append.py`` reads, so runs append to
``benchmarks/history/verdict_read.jsonl``::

    PYTHONPATH=src python3 benchmarks/bench_verdict_read.py > run.txt
    python3 benchmarks/history/append.py --commit <sha> --side change \\
        --workload verdict_read --seeds 101 --seconds 0 \\
        --history benchmarks/history/verdict_read.jsonl run.txt

Under pytest it writes ``benchmarks/out/verdict-read-path-split.*``;
``BAL_BENCH_SCALE=tiny`` shrinks the store to 300 traces.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import statistics
import sys
import threading
import time
from typing import Callable, Dict

from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.service import ComplianceHTTPServer, ComplianceRuntime
from repro.service.http import verdicts_body

TINY = os.environ.get("BAL_BENCH_SCALE") == "tiny"
TRACES = 300 if TINY else 3000
REPEATS = 5 if TINY else 20
SEED = 101


def _median_ms(fn: Callable[[], object]) -> float:
    times = []
    for __ in range(REPEATS):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def _socket_write(body: bytes) -> None:
    """Send *body* over a socket pair; return once the reader has it."""
    sender, receiver = socket.socketpair()
    received = 0

    def drain() -> None:
        nonlocal received
        while received < len(body):
            chunk = receiver.recv(1 << 20)
            if not chunk:
                return
            received += len(chunk)

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        sender.sendall(body)
        reader.join()
    finally:
        sender.close()
        receiver.close()


def measure() -> Dict:
    """One run: the stage timings, sizes and the byte-identity check."""
    workload = hiring.workload()
    sim = workload.simulate(
        cases=TRACES, seed=SEED,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.3),
    )
    runtime = ComplianceRuntime.from_simulation(sim)
    runtime.open()

    def miss():
        # The materializer's epoch says "the view may have changed":
        # the next read misses, and nothing is dirty to re-evaluate.
        runtime.materializer.epoch += 1
        return runtime.verdict_rows()

    def encode():
        return json.dumps(
            {"verdicts": [r.to_payload() for r in runtime.verdicts()]}
        ).encode("utf-8")

    def join():
        return verdicts_body(runtime.verdict_rows())

    encoded_body = encode()
    stages = {
        "cache_miss_ms": _median_ms(miss),
        "filter_ms": _median_ms(
            lambda: runtime.verdict_rows(status="violated")
        ),
        "encode_ms": _median_ms(encode),
        "join_ms": _median_ms(join),
        "write_ms": _median_ms(lambda: _socket_write(encoded_body)),
    }
    correct = join() == encoded_body

    server = ComplianceHTTPServer(runtime)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=60)

    def get() -> bytes:
        connection.request("GET", "/verdicts")
        return connection.getresponse().read()

    try:
        correct = correct and get() == encoded_body
        stages["get_ms"] = _median_ms(get)
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join()
        runtime.shutdown()
    return {
        "traces": TRACES,
        "verdicts": len(runtime.materializer.all_latest()),
        "body_bytes": len(encoded_body),
        "stages": stages,
        "correct": correct,
    }


def _history_line(run: Dict) -> Dict:
    """The run in ``perfbench/run.py``'s last-line shape."""
    metrics = {
        name: {"value": value, "unit": "ms"}
        for name, value in run["stages"].items()
    }
    metrics["verdicts"] = {"value": run["verdicts"], "unit": "count"}
    metrics["body_bytes"] = {"value": run["body_bytes"], "unit": "bytes"}
    return {"correct": run["correct"], "failed": 0, "metrics": metrics}


def _render(run: Dict) -> str:
    lines = [
        f"{run['traces']} traces, {run['verdicts']} verdicts, "
        f"{run['body_bytes']:,} body bytes, correct={run['correct']}",
    ]
    for name, value in run["stages"].items():
        lines.append(f"  {name:<16} {value:8.2f}")
    return "\n".join(lines)


def test_verdict_read_split(artifact):
    run = measure()
    assert run["correct"]
    assert run["verdicts"] == 3 * run["traces"]
    stages = run["stages"]
    # The point of keeping verdicts encoded: joining the stored bytes
    # is far cheaper than encoding the table on every read.
    assert stages["join_ms"] < stages["encode_ms"]
    artifact("Verdict read path split", _render(run), data=run)


def main() -> int:
    run = measure()
    print(_render(run))
    print(json.dumps(_history_line(run), sort_keys=True))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
