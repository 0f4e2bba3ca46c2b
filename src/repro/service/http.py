"""Stdlib HTTP front end for a :class:`ComplianceRuntime`.

``repro serve`` wraps a runtime in a :class:`ComplianceHTTPServer` — a
``http.server.ThreadingHTTPServer`` speaking the small JSON protocol the
:class:`~repro.service.transport.HTTPTransport` client expects:

====== ============== ====================================================
Method Path           Meaning
====== ============== ====================================================
GET    /health        liveness + store shape
GET    /stats         full runtime counters
GET    /verdicts      the fresh verdict table; optional ``control=``,
                      ``trace=``, ``status=`` filters
GET    /transitions   live verdict deltas after ``after=<index>``
POST   /ingest        recorder batch: ``{"events": [<wire event>...]}``
POST   /sync          one explicit sync/correlate/refresh tick
POST   /snapshot      persist the verdict snapshot now
POST   /shutdown      graceful stop: flush, snapshot, release the port
====== ============== ====================================================

Handler threads speak HTTP/1.1 with keep-alive (every reply carries a
Content-Length), so a streaming client holds one connection — and one
handler thread — for its whole session instead of paying accept/teardown
per batch.  The threads funnel into the runtime, which serializes them
per ingest lane (one per shard); the server adds no state of its own
beyond the shutdown latch.  Errors surface as JSON bodies —
``{"error": ...}`` with a 4xx/5xx code — never as HTML tracebacks.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.capture.events import event_from_wire
from repro.errors import ReproError, ServiceError
from repro.service.runtime import ComplianceRuntime

#: cap on one ingest request body (64 MiB) — a malformed Content-Length
#: must not make a handler thread try to allocate the moon.
_MAX_BODY = 64 * 1024 * 1024


class _RuntimeRequestHandler(BaseHTTPRequestHandler):
    """One JSON request against the server's runtime."""

    # The runtime serializes real work; keep per-request overhead low.
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    sys_version = ""
    # Keep-alive + Nagle is a 40ms-per-request trap: the reply goes out
    # as two small writes (header block, body), and with the client's
    # next request waiting on a delayed ACK the whole pipeline stalls.
    # Fresh-connection servers never see this; persistent ones must
    # disable coalescing.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Per-request stderr chatter would swamp benchmark runs; the
        # runtime's stats endpoint is the observability surface.
        pass

    # -- plumbing -------------------------------------------------------------

    @property
    def runtime(self) -> ComplianceRuntime:
        return self.server.runtime  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _read_json(self) -> Optional[Dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0 or length > _MAX_BODY:
            self._reply_error(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            self._reply_error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._reply_error(400, "request body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urllib.parse.urlsplit(self.path)
        params = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", params

    # -- verbs ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path, params = self._route()
        try:
            if path == "/health":
                self._reply(200, self.runtime.health())
            elif path == "/stats":
                self._reply(200, self.runtime.stats())
            elif path == "/verdicts":
                results = self.runtime.verdicts(
                    control=params.get("control"),
                    trace=params.get("trace"),
                    status=params.get("status"),
                )
                self._reply(
                    200,
                    {"verdicts": [result.to_payload() for result in results]},
                )
            elif path == "/transitions":
                try:
                    after = int(params.get("after", "0"))
                except ValueError:
                    self._reply_error(400, "after= must be an integer")
                    return
                newest, entries = self.runtime.transitions_since(after)
                self._reply(
                    200,
                    {
                        "newest": newest,
                        "transitions": [
                            {
                                "index": index,
                                "verdict": transition.result.to_payload(),
                                "previous": (
                                    transition.previous.value
                                    if transition.previous is not None
                                    else None
                                ),
                                "changed": transition.changed,
                                "description": transition.describe(),
                            }
                            for index, transition in entries
                        ],
                    },
                )
            else:
                self._reply_error(404, f"unknown path {path!r}")
        except ServiceError as exc:
            self._reply_error(409, str(exc))
        except ReproError as exc:
            self._reply_error(500, str(exc))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, __ = self._route()
        try:
            if path == "/ingest":
                payload = self._read_json()
                if payload is None:
                    return
                try:
                    events = [
                        event_from_wire(entry)
                        for entry in payload.get("events", ())
                    ]
                except (KeyError, ValueError, TypeError) as exc:
                    self._reply_error(400, f"malformed event: {exc}")
                    return
                reply = self.runtime.ingest(events)
                self._reply(200, reply.as_dict())
            elif path == "/sync":
                self._reply(200, self.runtime.sync().as_dict())
            elif path == "/snapshot":
                self.runtime.snapshot()
                self._reply(200, {"saved": True})
            elif path == "/shutdown":
                self._reply(200, {"stopping": True})
                # Drop this keep-alive connection after the reply: the
                # server is stopping and must not strand a client
                # waiting on a socket no handler will read again.
                self.close_connection = True
                self.server.request_shutdown()  # type: ignore[attr-defined]
            else:
                self._reply_error(404, f"unknown path {path!r}")
        except ServiceError as exc:
            self._reply_error(409, str(exc))
        except ReproError as exc:
            self._reply_error(500, str(exc))


class ComplianceHTTPServer(ThreadingHTTPServer):
    """A served :class:`ComplianceRuntime`.

    Args:
        runtime: an **opened** runtime (the server does not call
            :meth:`~ComplianceRuntime.open`; the CLI prints the startup
            report first, then serves).
        host / port: bind address; port 0 picks an ephemeral port —
            read :attr:`server_port` after construction.

    ``serve_forever`` runs until :meth:`request_shutdown` (or a POST to
    ``/shutdown``); the caller then runs the runtime's graceful
    :meth:`~ComplianceRuntime.shutdown`.  Handler threads are daemons, so
    a straggling slow request never wedges process exit.
    """

    daemon_threads = True
    # The runtime outlives request churn; reuse the port across fast
    # restart cycles (tests restart on the same port).
    allow_reuse_address = True

    def __init__(
        self,
        runtime: ComplianceRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _RuntimeRequestHandler)
        self.runtime = runtime
        self._shutdown_requested = threading.Event()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def request_shutdown(self) -> None:
        """Stop ``serve_forever`` from any thread (handler threads too).

        ``BaseServer.shutdown`` deadlocks when called from the thread
        running ``serve_forever``; a helper thread posts the stop instead,
        which is also what lets the ``/shutdown`` endpoint work.
        """
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        threading.Thread(
            target=self.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    def serve_until_shutdown(self) -> None:
        """``serve_forever`` + graceful runtime shutdown, as one call."""
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.server_close()
            self.runtime.shutdown()
