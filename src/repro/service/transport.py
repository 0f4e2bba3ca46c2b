"""Runtime transports: how a recorder client reaches a ComplianceRuntime.

The recorder pipeline (§II.A) is split across a wire boundary: relevance
filtering and sensitive-data scrubbing stay *client-side* (scrubbed fields
must never leave the emitting system), while typing per the data model,
duplicate suppression, and correlation run *server-side*, where the
runtime owns the store and the mapping.  A transport carries the filtered,
scrubbed events across that boundary and brings the server's dispositions
back:

- :class:`InProcessTransport` — the degenerate wire: direct method calls
  into a runtime living in the same process (embedding, tests),
- :class:`HTTPTransport` — stdlib ``http.client`` JSON calls against a
  ``repro serve`` endpoint over one persistent keep-alive connection, so
  N recorder processes on N machines can stream into one served runtime
  without paying TCP setup per batch.

Both speak :class:`IngestReply`, the per-batch disposition summary a
:class:`~repro.capture.recorder.RecorderClient` folds into its stats.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.parse
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.capture.events import ApplicationEvent, event_to_wire
from repro.errors import ServiceError
from repro.store.cursor import VectorCursor, cursor_from_wire, cursor_to_wire

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.service.runtime import ComplianceRuntime


class TransportError(ServiceError):
    """A runtime transport could not complete a call."""


@dataclass
class IngestReply:
    """What the runtime did with one shipped event batch.

    ``dispositions`` has one ``(recorded, reason)`` entry per event sent,
    in order, so a client can reconstruct faithful per-event envelopes;
    the counters aggregate them; ``last_seq`` is the store's change-feed
    position after the batch — the checkpoint an incremental consumer
    resumes from; ``correlated`` counts relation rows the runtime derived
    from the batch.
    """

    recorded: int = 0
    duplicates: int = 0
    dropped_irrelevant: int = 0
    dropped_unmapped: int = 0
    correlated: int = 0
    dispositions: List[Tuple[bool, str]] = field(default_factory=list)
    last_seq: VectorCursor = VectorCursor(())

    def as_dict(self) -> Dict:
        return {
            "recorded": self.recorded,
            "duplicates": self.duplicates,
            "dropped_irrelevant": self.dropped_irrelevant,
            "dropped_unmapped": self.dropped_unmapped,
            "correlated": self.correlated,
            "dispositions": [
                {"recorded": recorded, "reason": reason}
                for recorded, reason in self.dispositions
            ],
            "last_seq": cursor_to_wire(self.last_seq),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "IngestReply":
        return cls(
            recorded=int(payload.get("recorded", 0)),
            duplicates=int(payload.get("duplicates", 0)),
            dropped_irrelevant=int(payload.get("dropped_irrelevant", 0)),
            dropped_unmapped=int(payload.get("dropped_unmapped", 0)),
            correlated=int(payload.get("correlated", 0)),
            dispositions=[
                (bool(entry["recorded"]), str(entry.get("reason", "")))
                for entry in payload.get("dispositions", ())
            ],
            last_seq=cursor_from_wire(payload.get("last_seq", ())),
        )


class InProcessTransport:
    """Direct calls into a runtime in the same process."""

    def __init__(self, runtime: "ComplianceRuntime") -> None:
        self.runtime = runtime

    def ingest(self, events: Sequence[ApplicationEvent]) -> IngestReply:
        return self.runtime.ingest(events)

    def verdicts(
        self,
        control: Optional[str] = None,
        trace: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[Dict]:
        return [
            result.to_payload()
            for result in self.runtime.verdicts(
                control=control, trace=trace, status=status
            )
        ]

    def stats(self) -> Dict:
        return self.runtime.stats()

    def sync(self) -> Dict:
        return self.runtime.sync().as_dict()

    def snapshot(self) -> Dict:
        self.runtime.snapshot()
        return {"saved": True}

    def health(self) -> Dict:
        return self.runtime.health()

    def close(self) -> None:
        """Nothing to release; the runtime's owner shuts it down."""


class HTTPTransport:
    """JSON-over-HTTP calls against a ``repro serve`` endpoint.

    Stdlib only (``http.client``), over one **persistent keep-alive
    connection**: a recorder streaming thousands of batches pays TCP
    (and slow-start) once, not per call, so the serve bench measures the
    runtime rather than connection setup.  If the server idles the kept
    socket out between calls, the next call transparently retries once
    on a fresh connection — only when the failure happened on a *reused*
    socket before a response arrived, so a request is never knowingly
    sent twice (and the runtime's dedup absorbs the unknowable case).

    One connection means one in-flight request: a transport instance is
    not thread-safe.  Give each streaming thread/process its own (they
    are cheap — the socket opens lazily on first use).

    Args:
        base_url: e.g. ``http://127.0.0.1:8787`` (trailing slash ok).
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", "https"):
            raise TransportError(
                f"unsupported endpoint scheme {parsed.scheme!r} "
                f"in {base_url!r}"
            )
        self._scheme = parsed.scheme
        self._netloc = parsed.netloc
        self._path_prefix = parsed.path.rstrip("/")
        self._conn: Optional[http.client.HTTPConnection] = None
        self._fresh = False

    def _connect(self) -> http.client.HTTPConnection:
        if self._conn is None:
            factory = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            self._conn = factory(self._netloc, timeout=self.timeout)
            self._fresh = True
        return self._conn

    def _reset(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._conn = None

    def _call(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict:
        url = f"{self.base_url}{path}"
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        headers = {"Content-Type": "application/json"}
        while True:
            conn = self._connect()
            reused = not self._fresh
            try:
                if conn.sock is None:
                    conn.connect()
                    # Small request/reply bodies on a persistent socket
                    # hit the Nagle + delayed-ACK stall (~40ms/call);
                    # a batching transport coalesces at the JSON layer,
                    # not in the kernel.
                    conn.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                conn.request(
                    method,
                    f"{self._path_prefix}{path}" or "/",
                    body=body,
                    headers=headers,
                )
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, OSError) as exc:
                self._reset()
                if reused:
                    # The server closed the idle kept-alive socket; the
                    # request cannot have been answered, so one retry on
                    # a fresh connection is safe.
                    continue
                raise TransportError(
                    f"{method} {url} unreachable: {exc}"
                ) from exc
            self._fresh = False
            if response.will_close:
                self._reset()
            if response.status >= 400:
                detail = raw.decode("utf-8", "replace")[:200]
                raise TransportError(
                    f"{method} {url} failed: {response.status} {detail}"
                )
            try:
                return json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                raise TransportError(
                    f"{method} {url} returned non-JSON body"
                ) from exc

    def ingest(self, events: Sequence[ApplicationEvent]) -> IngestReply:
        reply = self._call(
            "POST",
            "/ingest",
            {"events": [event_to_wire(event) for event in events]},
        )
        return IngestReply.from_dict(reply)

    def verdicts(
        self,
        control: Optional[str] = None,
        trace: Optional[str] = None,
        status: Optional[str] = None,
    ) -> List[Dict]:
        params = {
            key: value
            for key, value in (
                ("control", control), ("trace", trace), ("status", status)
            )
            if value is not None
        }
        query = f"?{urllib.parse.urlencode(params)}" if params else ""
        return self._call("GET", f"/verdicts{query}")["verdicts"]

    def stats(self) -> Dict:
        return self._call("GET", "/stats")

    def sync(self) -> Dict:
        return self._call("POST", "/sync")

    def snapshot(self) -> Dict:
        return self._call("POST", "/snapshot")

    def health(self) -> Dict:
        return self._call("GET", "/health")

    def shutdown(self) -> Dict:
        """Ask the server to stop gracefully (flush + snapshot)."""
        reply = self._call("POST", "/shutdown")
        # The server is going away; don't keep a socket to it.
        self._reset()
        return reply

    def close(self) -> None:
        """Drop the persistent connection (reopens lazily if reused)."""
        self._reset()
