"""Tests of the benchmark's own helpers.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os

import pytest

import fixtures
import layers
import run
import stats
from spans import Tracer, Tree, covered, self_times
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- the percentile rule ------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("n, expected", [
    (9, None), (10, None), (11, 9), (20, 50), (22, 54),
    (100, 90), (110, 90), (1000, 99), (1370, 99),
])
def test_highest_supported_percentile(n, expected):
    assert stats.highest_supported(n) == expected


@pytest.mark.parametrize("n", [11, 37, 100, 555, 1370])
def test_supported_percentile_has_ten_samples_beyond(n):
    q = stats.highest_supported(n)
    assert stats.beyond(n, q) >= stats.MIN_BEYOND
    assert q == 99 or stats.beyond(n, q + 1) < stats.MIN_BEYOND
    assert sum(v > stats.percentile(range(n), q) for v in range(n)) >= 10


def test_configured_runs_support_their_tail_percentile():
    seconds = _benchmark()["run_seconds"]
    for workload in WORKLOADS.values():
        if workload.tail is not None:
            ops = workload.ops(seconds)
            assert stats.beyond(ops, workload.tail) >= stats.MIN_BEYOND


# -- span self time -----------------------------------------------------------


def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


def test_covered_merges_overlaps_and_clips():
    assert covered(0, 10, [(1, 3), (2, 5), (8, 9)]) == 5
    assert covered(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered(0, 10, [(2, 4), (2.5, 3)]) == 2
    assert covered(0, 10, []) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(1, None, 0, 10),
        _span(2, 1, 1, 5),
        _span(3, 2, 2, 4),
        _span(4, 1, 6, 7),
        _span(5, None, 20, 21),
    ]
    assert self_times(spans) == {1: 5, 2: 2, 3: 2, 4: 1, 5: 1}


def test_tracer_links_nested_calls_to_their_parent():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    outer = next(s for s in tracer.spans if s["name"] == "outer")
    children = [s for s in tracer.spans if s["name"] == "inner"]
    assert [s["parent"] for s in children] == [outer["id"], outer["id"]]
    assert outer["parent"] is None
    # outer spans ticks 0..5; its two children cover 1..2 and 3..4.
    assert self_times(tracer.spans)[outer["id"]] == 3
    assert Tree(tracer.spans).descendants([outer["id"]])[0] is outer


def test_tracer_counts_work_and_decoded_rows():
    tracer = Tracer()

    def decode():
        tracer.count("decoded", 3)
        return [1, 2]

    tracer.wrap("read", decode, work=lambda args, result: len(result))()
    (span,) = tracer.spans
    assert span["n"] == 2 and span["decoded"] == 3
    assert tracer.counters["decoded"] == 3


def test_blocking_rows_add_up_to_the_traced_median():
    ops = [_span(i, None, 10 * i, 10 * i + 4, "bench.op") for i in range(1, 6)]
    server = []
    for i in range(1, 6):
        root = 100 + i
        server.append(_span(root, None, 10 * i + 1, 10 * i + 3, "service.http.request"))
        server.append(_span(200 + i, root, 10 * i + 1.5, 10 * i + 2.5, "store.sync"))
    rows = layers.blocking_path(ops, ops, server, untraced_p50_s=3.0)
    assert rows["blocking.traced_p50_ms"] == 4000
    assert rows["blocking.store_ms"] == 1000
    assert rows["blocking.service.http_ms"] == 1000
    assert rows["blocking.remainder_ms"] == 2000
    assert rows["blocking.tracing_overhead_ms"] == 1000


# -- fixtures -----------------------------------------------------------------


def _fixture(tmp_path, name, seed):
    return fixtures.build(str(tmp_path / name), seed, preload=12, stream=6, snapshot=True)


def test_same_seed_gives_the_same_store_and_verdicts(tmp_path):
    first = _fixture(tmp_path, "a", seed=5)
    second = _fixture(tmp_path, "b", seed=5)
    assert first.rows == second.rows > 0
    assert fixtures.cold_sweep(first.db) == fixtures.cold_sweep(second.db)
    assert [case.events for case in first.stream] == [case.events for case in second.stream]
    other = _fixture(tmp_path, "c", seed=6)
    assert fixtures.cold_sweep(other.db) != fixtures.cold_sweep(first.db)


def test_stream_holds_only_recordable_events(tmp_path):
    fixture = _fixture(tmp_path, "a", seed=5)
    ids = [event.event_id for case in fixture.stream for event in case.events]
    assert len(ids) == len(set(ids)) > 0
    assert len(fixture.stream) == 6


# -- BENCHMARK.json -----------------------------------------------------------


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_the_workloads():
    listed = {entry["name"]: entry["why"] for entry in _benchmark()["workloads"]}
    assert listed == {name: w.why for name, w in WORKLOADS.items()}


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = _benchmark()
    per_layer = layers.per_layer([], [], {}, [], 0, 0.0)
    for section, produced in (("end_to_end", run.UNITS), ("per_layer", per_layer)):
        listed = {entry["name"]: entry["unit"] for entry in spec[section]}
        assert set(listed) == set(produced)
        assert listed == {name: run.unit(name) for name in listed}
