"""End-to-end tests for the served runtime: HTTP front end + transport.

The serve contract: recorder clients stream events over HTTP while
readers query verdicts mid-ingest; a killed-and-restarted server resumes
from its persisted cursor; and whatever the wire does, the final served
verdicts are byte-identical to a cold sweep of the same database.
"""

import contextlib
import dataclasses
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.capture.recorder import RecorderClient
from repro.controls.evaluator import ComplianceEvaluator
from repro.processes import hiring
from repro.processes.engine import ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.service import (
    ComplianceHTTPServer,
    ComplianceRuntime,
    HTTPTransport,
    TransportError,
)
from repro.store.backends import SQLiteBackend
from repro.store.store import ProvenanceStore


def _event_stream(workload, cases, seed=11, rate=0.25):
    simulator = ProcessSimulator(
        workload.build_spec(),
        workload.case_factory(
            ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), rate)
        ),
        seed=seed,
    )
    return all_events(simulator.run(cases))


def _cold_sweep_payloads(sim):
    oracle = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    return json.dumps(
        [result.to_payload() for result in oracle.run(sim.controls)]
    )


def _sqlite_runtime(workload, db):
    """A served runtime over *db*; ``threadsafe`` because HTTP handler
    threads and the test thread share the connection (the runtime's lock
    serializes them — the same wiring ``repro serve`` uses)."""
    store = ProvenanceStore(
        model=workload.build_model(),
        backend=SQLiteBackend(db, threadsafe=True),
    )
    sim = workload.attach(store)
    runtime = ComplianceRuntime.from_simulation(
        sim, workload=workload, owns_store=True
    )
    return sim, runtime


@contextlib.contextmanager
def _served(runtime):
    """An ephemeral-port server thread; graceful shutdown on exit."""
    server = ComplianceHTTPServer(runtime)  # port 0 -> ephemeral
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    try:
        yield server.endpoint
    finally:
        server.request_shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()


class TestHTTPRoundtrip:
    def test_ingest_query_snapshot_over_the_wire(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0, seed=2011)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload
        )
        runtime.open()
        events = _event_stream(workload, cases=4)
        with _served(runtime) as endpoint:
            transport = HTTPTransport(endpoint)
            health = transport.health()
            assert health["status"] == "ok"
            assert health["workload"] == "new-position-open"

            client = RecorderClient(transport=transport)
            client.process_all(events)
            assert client.stats.recorded > 0
            # The same batch again is all duplicates — the server's
            # dedup reaches the client's counters across the wire.
            client.process_all(events)
            assert client.stats.duplicates == client.stats.recorded

            stats = transport.stats()
            assert stats["traces"] == 4
            assert stats["ingest_batches"] == 2

            served = transport.sync()
            assert "last_seq" in served

            payloads = transport.verdicts()
            assert json.dumps(payloads) == _cold_sweep_payloads(sim)
            subset = transport.verdicts(
                control="gm-approval", status="violated"
            )
            assert all(
                p["control"] == "gm-approval" and p["status"] == "violated"
                for p in subset
            )
            assert transport.snapshot() == {"saved": True}
        # Context exit shut the server down and closed the runtime.
        assert runtime.stats  # object survives; session is closed
        with pytest.raises(Exception):
            runtime.verdicts()

    def test_transitions_endpoint_pages_by_index(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0, seed=2011)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload
        )
        runtime.open()
        with _served(runtime) as endpoint:
            transport = HTTPTransport(endpoint)
            client = RecorderClient(transport=transport)
            client.process_all(_event_stream(workload, cases=2))
            transport.sync()
            first = json.loads(
                urllib.request.urlopen(
                    f"{endpoint}/transitions?after=0", timeout=30
                ).read()
            )
            assert first["newest"] == len(first["transitions"]) > 0
            entry = first["transitions"][0]
            assert {"index", "verdict", "previous", "changed",
                    "description"} <= set(entry)
            caught_up = json.loads(
                urllib.request.urlopen(
                    f"{endpoint}/transitions?after={first['newest']}",
                    timeout=30,
                ).read()
            )
            assert caught_up["transitions"] == []

    def test_error_surfaces_are_json(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=1, seed=2011)
        # No workload: ingestion disabled -> 409 over the wire.
        runtime = ComplianceRuntime.from_simulation(sim)
        runtime.open()
        with _served(runtime) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{endpoint}/nowhere", timeout=30)
            assert excinfo.value.code == 404
            assert "error" in json.loads(excinfo.value.read())

            malformed = urllib.request.Request(
                f"{endpoint}/ingest", data=b"not json",
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(malformed, timeout=30)
            assert excinfo.value.code == 400
            assert "error" in json.loads(excinfo.value.read())

            transport = HTTPTransport(endpoint)
            with pytest.raises(TransportError) as excinfo:
                transport.ingest(_event_stream(workload, cases=1)[:1])
            assert "409" in str(excinfo.value)

    def test_unreachable_server_is_a_transport_error(self):
        # A port nothing listens on: connection refused, not a hang.
        transport = HTTPTransport("http://127.0.0.1:9", timeout=2)
        with pytest.raises(TransportError):
            transport.health()


class TestServeLifecycle:
    """The acceptance scenario: concurrent HTTP writers + live readers,
    a mid-stream kill/restart, and byte-identical final verdicts."""

    WRITERS = 2

    def _partition(self, events):
        trace_ids = sorted({event.app_id for event in events})
        owner = {
            trace: index % self.WRITERS
            for index, trace in enumerate(trace_ids)
        }
        return [
            [e for e in events if owner[e.app_id] == index]
            for index in range(self.WRITERS)
        ]

    def _drive_writers(self, endpoint, partitions, errors):
        """Each writer is its own HTTPTransport client streaming small
        batches; a reader polls verdicts + stats while they run."""
        stop_reading = threading.Event()

        def write(partition):
            try:
                client = RecorderClient(
                    transport=HTTPTransport(endpoint)
                )
                for start in range(0, len(partition), 5):
                    client.process_all(partition[start:start + 5])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            try:
                reader = HTTPTransport(endpoint)
                while not stop_reading.is_set():
                    for payload in reader.verdicts():
                        assert payload["control"] and payload["trace"]
                    reader.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        reader = threading.Thread(target=read)
        writers = [
            threading.Thread(target=write, args=(partition,))
            for partition in partitions
        ]
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop_reading.set()
        reader.join()

    def test_concurrent_ingest_with_mid_stream_restart(self, tmp_path):
        db = str(tmp_path / "serve.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=10, seed=47)
        partitions = self._partition(events)
        half = [len(p) // 2 for p in partitions]
        errors = []

        # Phase A: serve an empty database, stream the first half from
        # two concurrent HTTP clients with a live reader, then stop the
        # server mid-stream (graceful kill: snapshot + cursor persist).
        sim1, first = _sqlite_runtime(workload, db)
        report = first.open()
        assert not report.restored
        with _served(first) as endpoint:
            self._drive_writers(
                endpoint,
                [p[:n] for p, n in zip(partitions, half)],
                errors,
            )
        assert errors == []

        # Phase B: restart over the same file. The snapshot covers every
        # row already ingested — nothing re-evaluates at startup.
        sim2, second = _sqlite_runtime(workload, db)
        report = second.open()
        assert report.restored
        assert report.evaluated == 0
        with _served(second) as endpoint:
            self._drive_writers(
                endpoint,
                [p[n:] for p, n in zip(partitions, half)],
                errors,
            )
            assert errors == []
            # Every event landed exactly once across both phases.
            transport = HTTPTransport(endpoint)
            stats = transport.stats()
            assert stats["traces"] == 10
            # The served table equals a cold sweep of the same store —
            # byte-identical, mid-restart history notwithstanding.
            transport.sync()
            served = json.dumps(transport.verdicts())
            assert served == _cold_sweep_payloads(sim2)

        # Phase C: a third open resumes from the final cursor; the full
        # stream was already evaluated, so startup does zero work, and a
        # plain cold re-audit of the file agrees with what was served.
        sim3, third = _sqlite_runtime(workload, db)
        report = third.open()
        assert report.restored
        assert report.evaluated == 0
        assert json.dumps(
            [r.to_payload() for r in third.verdicts()]
        ) == served
        third.shutdown()


def _raw_exchange(endpoint, request, timeout=10.0):
    """Send raw request bytes; read until the server closes the socket.

    A server that keeps the connection open past its reply makes this
    raise ``socket.timeout`` — which is how the tests below detect a
    connection left alive with an unread body on it.
    """
    host, port = endpoint.rsplit("//", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse_single_reply(raw):
    """(status, JSON body) of exactly one HTTP reply; trailing bytes fail."""
    head, sep, rest = raw.partition(b"\r\n\r\n")
    assert sep, f"no complete reply: {raw!r}"
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {
        name.strip().lower(): value.strip()
        for name, __, value in (line.partition(":") for line in lines[1:])
    }
    assert headers["content-type"] == "application/json"
    length = int(headers["content-length"])
    assert len(rest) == length, f"bytes after the reply: {rest[length:]!r}"
    return status, json.loads(rest)


class TestMalformedRequests:
    """Each malformed request gets a JSON 4xx body, and the server keeps
    serving correct verdicts afterwards."""

    def _runtime(self, tmp_path):
        workload = hiring.workload()
        sim, runtime = _sqlite_runtime(workload, str(tmp_path / "bad.db"))
        runtime.open()
        return workload, sim, runtime

    def _assert_still_serving(self, endpoint, workload, sim):
        transport = HTTPTransport(endpoint)
        assert transport.health()["status"] == "ok"
        client = RecorderClient(transport=transport)
        client.process_all(_event_stream(workload, cases=3))
        assert client.stats.recorded > 0
        transport.sync()
        assert json.dumps(transport.verdicts()) == _cold_sweep_payloads(sim)

    def test_non_integer_content_length_is_a_json_400(self, tmp_path):
        workload, sim, runtime = self._runtime(tmp_path)
        with _served(runtime) as endpoint:
            raw = _raw_exchange(
                endpoint,
                b"POST /ingest HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: abc\r\n\r\n{}",
            )
            status, body = _parse_single_reply(raw)
            assert status == 400
            assert "Content-Length" in body["error"]
            self._assert_still_serving(endpoint, workload, sim)

    @pytest.mark.parametrize(
        "body",
        [b"not json", b'{"events": "\xff\xfe"}'],
        ids=["non-json", "invalid-utf8"],
    )
    def test_undecodable_body_is_a_json_400(self, body, tmp_path):
        workload, sim, runtime = self._runtime(tmp_path)
        with _served(runtime) as endpoint:
            host, port = endpoint.rsplit("//", 1)[1].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            try:
                conn.request(
                    "POST", "/ingest", body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                assert reply.status == 400
                assert reply.getheader("Content-Type") == "application/json"
                assert json.loads(reply.read()) == {
                    "error": "request body is not valid JSON"
                }
                # The worker read the whole body and is free again: the
                # same keep-alive connection answers the next request.
                conn.request("GET", "/health")
                reply = conn.getresponse()
                assert reply.status == 200
                reply.read()
            finally:
                conn.close()
            assert runtime.stats()["traces"] == 0
            self._assert_still_serving(endpoint, workload, sim)

    def test_non_object_event_payload_is_a_json_400(self, tmp_path):
        workload, sim, runtime = self._runtime(tmp_path)
        with _served(runtime) as endpoint:
            host, port = endpoint.rsplit("//", 1)[1].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            try:
                conn.request(
                    "POST", "/ingest",
                    body=json.dumps({"events": [{
                        "event_id": "e1", "source": "email",
                        "kind": "k", "payload": [1, 2],
                    }]}),
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                assert reply.status == 400
                assert reply.getheader("Content-Type") == "application/json"
                assert "malformed event" in json.loads(reply.read())["error"]
                # The body was consumed, so the keep-alive connection
                # stays usable.
                conn.request("GET", "/health")
                reply = conn.getresponse()
                assert reply.status == 200
                reply.read()
            finally:
                conn.close()
            assert runtime.stats()["traces"] == 0
            self._assert_still_serving(endpoint, workload, sim)

    def test_oversized_body_is_a_413_that_closes_the_connection(
        self, tmp_path
    ):
        workload, sim, runtime = self._runtime(tmp_path)
        with _served(runtime) as endpoint:
            # The declared body is never read; what follows the headers
            # must not be parsed as a second request on the connection.
            smuggled = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
            raw = _raw_exchange(
                endpoint,
                b"POST /ingest HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % (64 * 1024 * 1024 + 1)
                + smuggled,
            )
            status, body = _parse_single_reply(raw)
            assert status == 413
            assert "error" in body
            self._assert_still_serving(endpoint, workload, sim)


def _get(endpoint, path):
    with urllib.request.urlopen(endpoint + path, timeout=30) as reply:
        return reply.read()


def _expected_body(runtime, **filters):
    """The reference body: one ``json.dumps`` of every filtered row's
    freshly built payload."""
    return json.dumps(
        {"verdicts": [r.to_payload() for r in runtime.verdicts(**filters)]}
    ).encode()


def _cold_sweep_body(sim):
    return (
        '{"verdicts": ' + _cold_sweep_payloads(sim) + "}"
    ).encode()


class TestVerdictBodyBytes:
    """``/verdicts`` joins bytes each verdict was encoded to when it was
    stored; the body must equal a fresh encode of the same rows."""

    def test_every_filter_combination(self):
        workload = hiring.workload()
        sim = workload.simulate(
            cases=8, seed=2011,
            violations=ViolationPlan.uniform(
                list(hiring.VIOLATION_KINDS), 0.4
            ),
        )
        runtime = ComplianceRuntime.from_simulation(sim, workload=workload)
        runtime.open()
        statuses = {r.status.value for r in runtime.verdicts()}
        assert {"satisfied", "violated"} <= statuses
        with _served(runtime) as endpoint:
            assert _get(endpoint, "/verdicts") == _cold_sweep_body(sim)
            matched = 0
            for control in (None, "gm-approval", "no-such-control"):
                for trace in (None, "App03", "App99"):
                    for status in (None, "violated", "satisfied", "error"):
                        filters = {
                            key: value
                            for key, value in (
                                ("control", control),
                                ("trace", trace),
                                ("status", status),
                            )
                            if value is not None
                        }
                        query = urllib.parse.urlencode(filters)
                        body = _get(endpoint, f"/verdicts?{query}")
                        assert body == _expected_body(runtime, **filters)
                        matched += body != b'{"verdicts": []}'
            # Both matching and empty selections were exercised.
            assert 0 < matched < 3 * 3 * 4

    def test_empty_table(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0, seed=2011)
        runtime = ComplianceRuntime.from_simulation(sim, workload=workload)
        runtime.open()
        with _served(runtime) as endpoint:
            body = _get(endpoint, "/verdicts")
            assert body == b'{"verdicts": []}' == _expected_body(runtime)

    def test_a_verdict_that_flips_between_reads(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0, seed=2011)
        runtime = ComplianceRuntime.from_simulation(sim, workload=workload)
        runtime.open()
        events = _event_stream(workload, cases=1, seed=5, rate=0.0)
        with _served(runtime) as endpoint:
            transport = HTTPTransport(endpoint)
            # Two people and a submission: no requisition yet, so every
            # control is not applicable until the rest arrives.
            transport.ingest(events[:3])
            before = _get(endpoint, "/verdicts")
            assert before == _expected_body(runtime)
            first = {
                (r.control_name, r.trace_id): r.status
                for r in runtime.verdicts()
            }
            transport.ingest(events[3:])
            after = _get(endpoint, "/verdicts")
            assert after == _expected_body(runtime) == _cold_sweep_body(sim)
            flipped = [
                r for r in runtime.verdicts()
                if (r.control_name, r.trace_id) in first
                and first[(r.control_name, r.trace_id)] is not r.status
            ]
            assert flipped
            assert before != after

    def test_snapshot_restart_read(self, tmp_path):
        db = str(tmp_path / "bytes.db")
        workload = hiring.workload()
        workload.simulate(
            cases=6, seed=2011,
            violations=ViolationPlan.uniform(
                list(hiring.VIOLATION_KINDS), 0.4
            ),
            backend=SQLiteBackend(db),
        ).store.close()
        sim, first = _sqlite_runtime(workload, db)
        first.open()
        with _served(first) as endpoint:
            served = _get(endpoint, "/verdicts")
            assert served == _cold_sweep_body(sim)
            HTTPTransport(endpoint).snapshot()
        sim, second = _sqlite_runtime(workload, db)
        report = second.open()
        assert report.restored and report.evaluated == 0
        with _served(second) as endpoint:
            restarted = _get(endpoint, "/verdicts")
            assert restarted == served == _cold_sweep_body(sim)
            assert _get(
                endpoint, "/verdicts?status=violated"
            ) == _expected_body(second, status="violated")


class TestBackgroundTickFailures:
    """The background refresh thread outlives a trace that does not fit
    the vocabulary, and any other failed tick."""

    @staticmethod
    def _served_db(tmp_path):
        db = str(tmp_path / "tick.db")
        workload = hiring.workload()
        workload.simulate(
            cases=3, seed=2011, backend=SQLiteBackend(db)
        ).store.close()
        sim, runtime = _sqlite_runtime(workload, db)
        runtime.open()
        return db, sim, runtime

    @staticmethod
    def _wait_for_polls(runtime, count):
        deadline = time.monotonic() + 30.0
        target = runtime.stats()["polls"] + count
        while runtime.stats()["polls"] < target:
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def test_a_cloned_person_row_gives_an_error_verdict(self, tmp_path):
        db, sim, runtime = self._served_db(tmp_path)
        with _served(runtime) as endpoint:
            runtime.start_background(interval=0.02)
            # Another process clones App01's person row: correlation links
            # the clone to the requisition as a second submitter, which
            # the XOM's one-submitter navigation refuses.
            other = ProvenanceStore(backend=SQLiteBackend(db))
            person = next(
                r for r in other.records()
                if r.app_id == "App01" and r.entity_type == "person"
            )
            other.append(dataclasses.replace(person, record_id="clone-1"))
            other.close()
            self._wait_for_polls(runtime, 2)
            stats = runtime.stats()
            assert stats["background_running"]
            assert stats["tick_failures"] == 0
            errors = runtime.verdicts(trace="App01", status="error")
            assert [r.control_name for r in errors] == ["submitter-known"]
            assert "multiple 'submitterOf'" in errors[0].alerts[0]
            assert _get(endpoint, "/verdicts") == _cold_sweep_body(sim)

    def test_a_tick_that_fails_mid_refresh_loses_no_dirty_pair(
        self, tmp_path, capsys
    ):
        db, sim, runtime = self._served_db(tmp_path)
        evaluator = runtime.materializer.evaluator
        real_evaluate = evaluator.evaluate_pair
        calls = []

        def evaluate_failing_once(control, trace_id, *args, **kwargs):
            calls.append((control.name, trace_id))
            if len(calls) == 2:
                raise RuntimeError("injected refresh failure")
            return real_evaluate(control, trace_id, *args, **kwargs)

        evaluator.evaluate_pair = evaluate_failing_once
        # Dirty every trace out-of-band, each with a verdict that flips:
        # a cloned person row makes the submitter check read ``error``.
        other = ProvenanceStore(backend=SQLiteBackend(db))
        people = [
            r for r in other.records() if r.entity_type == "person"
        ]
        for number, person in enumerate(people):
            other.append(
                dataclasses.replace(person, record_id=f"clone-{number}")
            )
        other.close()
        with _served(runtime) as endpoint:
            runtime.start_background(interval=0.02)
            self._wait_for_polls(runtime, 2)
            stats = runtime.stats()
            assert stats["background_running"]
            assert stats["tick_failures"] == 1
            assert runtime.materializer.dirty_count == 0
            # The pair that failed and every pair after it in the failed
            # tick were evaluated again by the next one.
            assert len(calls) > 3 and calls[1] in calls[2:]
            errors = runtime.verdicts(status="error")
            assert sorted(r.trace_id for r in errors) == sorted(
                {person.app_id for person in people}
            )
            assert _get(endpoint, "/verdicts") == _cold_sweep_body(sim)
        assert "injected refresh failure" in capsys.readouterr().err

    def test_a_failed_tick_is_logged_counted_and_retried(
        self, tmp_path, capsys
    ):
        db, sim, runtime = self._served_db(tmp_path)
        real_sync = runtime.sync
        failures = []

        def failing_sync():
            if not failures:
                failures.append(1)
                raise RuntimeError("injected tick failure")
            return real_sync()

        runtime.sync = failing_sync
        runtime.start_background(interval=0.02)
        try:
            self._wait_for_polls(runtime, 2)
            stats = runtime.stats()
            assert stats["background_running"]
            assert stats["tick_failures"] == 1
        finally:
            runtime.shutdown()
        assert "injected tick failure" in capsys.readouterr().err
