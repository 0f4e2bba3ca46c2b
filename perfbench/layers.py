"""Per-layer metrics from one traced pass.

Inputs are the spans each traced server wrote at exit, the load
generator's own spans (``bench.op`` around each main operation and the
transport's event encoding under it), and the ``/stats`` payloads taken
before each server stopped.  Spans from different processes share the
monotonic clock, so a server request span belongs to the operation whose
interval it starts in.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from spans import Span, Tree, self_times

#: layers a main operation can block on, in request order.
BLOCKING_LAYERS = (
    "service.transport",
    "service.http",
    "service.runtime",
    "service.lanes",
    "capture.recorder",
    "capture.correlation",
    "store",
    "controls.evaluator",
)


def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _named(spans: Iterable[Span], name: str) -> List[Span]:
    return [span for span in spans if span["name"] == name]


def _seconds(spans: Iterable[Span]) -> float:
    return sum(span["end"] - span["start"] for span in spans)


def _mean_seconds(spans: Sequence[Span]) -> float:
    return _seconds(spans) / len(spans) if spans else 0.0


def _per_unit(spans: Sequence[Span]) -> float:
    units = sum(span.get("n", 1) for span in spans)
    return _seconds(spans) / units if units else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class _Launch:
    """The spans one server process wrote, keyed for startup questions."""

    def __init__(self, data: Dict) -> None:
        self.role = data["meta"].get("role", "")
        self.spans: List[Span] = data["spans"]
        opens = _named(self.spans, "service.runtime.open")
        self.open = opens[0] if opens else None
        self.in_open = (
            Tree(self.spans).descendants([self.open["id"]]) if self.open else []
        )

    def before_ready(self) -> List[Span]:
        """Top-level spans on the main thread up to the end of ``open``."""
        if self.open is None:
            return []
        return [
            span for span in self.spans
            if span["parent"] is None
            and span["thread"] == self.open["thread"]
            and span["end"] <= self.open["end"]
        ]


def _startup(launches: Sequence[_Launch]) -> Dict[str, float]:
    """Startup metrics, averaged over the launches ``setup_s`` times."""
    setups = [launch for launch in launches if launch.role == "setup" and launch.open]
    ratios, open_s, init_s, run_ms, pairs = [], [], [], [], []
    for launch in setups:
        ready = launch.before_ready()
        rows = launch.open.get("n", 0)
        decoded = sum(span["decoded"] for span in ready)
        ratios.append(decoded / rows if rows else 0.0)
        opened = [
            span for span in launch.spans
            if span["name"] == "store.open" and span["end"] <= launch.open["end"]
        ]
        open_s.append(_seconds(opened))
        init_s.append(_seconds(_named(launch.in_open, "capture.correlation.init")))
        run_ms.append(_mean_seconds(_named(launch.in_open, "controls.evaluator.run")) * 1e3)
        pairs.append(len(_named(launch.in_open, "controls.evaluator.evaluate_pair")))
    return {
        "store.open_s": _mean(open_s),
        "store.decode_ratio_at_open": _mean(ratios),
        "capture.correlation.init_s": _mean(init_s),
        "controls.evaluator.run_ms": _mean(run_ms),
        "controls.evaluator.pairs_evaluated": _mean(pairs),
    }


def _from_stats(snapshots: Sequence[Dict]) -> Dict[str, float]:
    hits = sum(s["verdict_cache"]["hits"] for s in snapshots)
    misses = sum(s["verdict_cache"]["misses"] for s in snapshots)
    routed: Dict[int, int] = defaultdict(int)
    for snapshot in snapshots:
        for lane in snapshot.get("lanes") or ():
            routed[lane["lane"]] += lane["events_routed"]
    total = sum(routed.values())
    return {
        "service.runtime.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.lanes.occupancy_max_share": max(routed.values()) / total if total else 0.0,
    }


def blocking_path(
    ops: Sequence[Span],
    client: Sequence[Span],
    server: Sequence[Span],
    untraced_p50_s: float,
) -> Dict[str, float]:
    """Self time per layer along the typical main operation.

    Each operation collects the self times of its client-side spans and
    of every server request that started inside its interval.  The rows
    average the operations ranked between the 40th and 60th percentile
    of traced latency, so they add up to about the traced median; what
    no span covers (the wire, HTTP framing, lock waits) is
    ``remainder_ms``, and the traced median minus the untraced one is
    ``tracing_overhead_ms``.
    """
    client_self = self_times(client)
    server_self = self_times(server)
    client_tree, server_tree = Tree(client), Tree(server)
    requests = [
        span for span in server
        if span["parent"] is None and span["name"] == "service.http.request"
    ]
    ordered = sorted(ops, key=lambda op: op["end"] - op["start"])
    n = len(ordered)
    # The 40th to 60th percentile, and never less than the middle op(s).
    band = ordered[min(int(n * 0.4), (n - 1) // 2):max(int(n * 0.6), n // 2 + 1)]
    totals: Dict[str, float] = defaultdict(float)
    remainder = 0.0
    for op in band:
        mine = [span for span in client_tree.descendants([op["id"]]) if span is not op]
        # By start: a handler span closes just after its reply is written,
        # which can be after the client has read it.
        inside = [
            request["id"] for request in requests
            if op["start"] <= request["start"] <= op["end"]
        ]
        spent = 0.0
        for span in mine:
            totals[_layer(span["name"])] += client_self[span["id"]]
            spent += client_self[span["id"]]
        for span in server_tree.descendants(inside):
            totals[_layer(span["name"])] += server_self[span["id"]]
            spent += server_self[span["id"]]
        remainder += (op["end"] - op["start"]) - spent
    count = len(band) or 1
    traced_p50 = statistics.median([op["end"] - op["start"] for op in ops]) if ops else 0.0
    metrics = {
        f"blocking.{layer}_ms": totals.get(layer, 0.0) / count * 1e3
        for layer in BLOCKING_LAYERS
    }
    metrics["blocking.remainder_ms"] = remainder / count * 1e3
    metrics["blocking.traced_p50_ms"] = traced_p50 * 1e3
    metrics["blocking.untraced_p50_ms"] = untraced_p50_s * 1e3
    metrics["blocking.tracing_overhead_ms"] = (traced_p50 - untraced_p50_s) * 1e3
    return metrics


def per_layer(
    launches_data: Sequence[Dict],
    client: Sequence[Span],
    client_counters: Dict[str, int],
    snapshots: Sequence[Dict],
    transports: int,
    untraced_p50_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass."""
    launches = [_Launch(data) for data in launches_data]
    # Span ids are per process; make them unique across launches.
    server: List[Span] = []
    for index, launch in enumerate(launches):
        offset = (index + 1) << 40
        for span in launch.spans:
            span = dict(span, id=span["id"] + offset)
            if span["parent"] is not None:
                span["parent"] += offset
            server.append(span)

    def named(name: str) -> List[Span]:
        return _named(server, name)

    verdicts = named("service.runtime.verdicts")
    correlation = named("capture.correlation.run")
    refreshes = named("controls.materializer.refresh")
    metrics = {
        "service.transport.encode_us_per_event": _per_unit(
            _named(client, "service.transport.encode")
        ) * 1e6,
        "service.transport.reconnects": client_counters.get("connects", 0) - transports,
        "service.http.decode_us_per_event": _per_unit(named("service.http.decode")) * 1e6,
        "service.http.encode_us_per_verdict": _per_unit(
            named("service.http.encode_verdict")
        ) * 1e6,
        "service.http.requests": len(named("service.http.request")),
        "service.lanes.ingest_us_per_event": _per_unit(named("service.lanes.ingest")) * 1e6,
        "capture.recorder.process_us_per_event": _per_unit(
            named("capture.recorder.process_all")
        ) * 1e6,
        "capture.correlation.run_ms": _mean_seconds(correlation) * 1e3,
        "capture.correlation.relations_per_run": _mean(
            [span.get("n", 0) for span in correlation]
        ),
        "store.flush_ms": _mean_seconds(named("store.flush")) * 1e3,
        "store.rows_decoded_per_read": _mean([span["decoded"] for span in verdicts]),
        "service.runtime.sync_ms": _mean_seconds(named("service.runtime.sync")) * 1e3,
        "service.runtime.verdicts_ms": _mean_seconds(verdicts) * 1e3,
        "controls.materializer.refresh_ms": _mean_seconds(refreshes) * 1e3,
        "controls.materializer.pairs_refreshed": sum(span.get("n", 0) for span in refreshes),
        "controls.materializer.save_ms": _mean_seconds(
            named("controls.materializer.save")
        ) * 1e3,
        "controls.materializer.restore_ms": _mean_seconds(
            named("controls.materializer.restore")
        ) * 1e3,
        "controls.evaluator.prime_frames_ms": _mean_seconds(
            named("controls.evaluator.prime_frames")
        ) * 1e3,
        "controls.evaluator.traces_primed": sum(
            span.get("n", 0) for span in named("controls.evaluator.prime_frames")
        ),
    }
    metrics.update(_startup(launches))
    metrics.update(_from_stats(snapshots))
    metrics.update(
        blocking_path(_named(client, "bench.op"), client, server, untraced_p50_s)
    )
    return metrics
