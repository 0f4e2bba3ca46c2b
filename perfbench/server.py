"""One ``repro serve`` process, launched the way users run it."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from typing import List, Optional

from repro.service import HTTPTransport

from fixtures import SHARDS

_EVALUATED = re.compile(r"(\d+) pairs evaluated at startup")
#: longest a launch may take to answer /health before the run fails.
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """The server did not start or stop as expected."""


class Server:
    """``repro serve hiring --backend sqlite --shards 4`` over *db*.

    The default refresh interval is kept; ``--port 0`` lets the kernel
    pick a port, which the server prints.  With *spans* the process is
    the traced launcher instead, which writes its spans there at exit.
    """

    def __init__(
        self, root: str, db: str, log: str,
        spans: Optional[str] = None, role: str = "",
    ) -> None:
        serve = [
            "serve", "hiring", "--backend", "sqlite", "--db", db,
            "--shards", str(SHARDS), "--port", "0",
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro"] + serve
        else:
            command = [
                sys.executable, os.path.join(root, "perfbench", "launch.py"),
                "--spans", spans, "--role", role, "--",
            ] + serve
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.spans = spans
        self.banner: List[str] = []
        self._log = open(log, "ab")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        self.transport: Optional[HTTPTransport] = None

    def wait_ready(self) -> float:
        """Block until ``/health`` answers; returns seconds since launch."""
        deadline = self.launched + START_TIMEOUT
        while True:
            line = self.process.stdout.readline()
            if not line:
                raise ServerError(f"server exited before listening: {self.banner}")
            self.banner.append(line.strip())
            if line.startswith("listening on "):
                break
        self.transport = HTTPTransport(line.split()[2])
        while self.transport.health().get("status") != "ok":
            if time.perf_counter() > deadline:
                raise ServerError("server never reported healthy")
            time.sleep(0.01)
        return time.perf_counter() - self.launched

    @property
    def evaluated_at_startup(self) -> Optional[int]:
        found = _EVALUATED.search(self.banner[0]) if self.banner else None
        return int(found.group(1)) if found else None

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> List[str]:
        """Graceful ``POST /shutdown``; waits for exit, returns its last lines."""
        self.transport.shutdown()
        try:
            tail, __ = self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not exit after /shutdown")
        finally:
            self._log.close()
        if self.process.returncode != 0:
            raise ServerError(f"server exited with {self.process.returncode}")
        return tail.splitlines()

    def kill(self) -> None:
        """Stop the process if it still runs, and reap it."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self._log.close()
