"""Benchmark harness plumbing.

Each bench regenerates one paper artifact (table/figure) or one derived
experiment's rows.  The regenerated text is:

- recorded via the ``artifact`` fixture,
- written to ``benchmarks/out/<slug>.txt`` (human-readable) and
  ``benchmarks/out/<slug>.json`` (machine-readable: the same title/text
  plus whatever structured ``data`` payload the bench passes),
- printed in the pytest terminal summary (so
  ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` captures
  the rows alongside pytest-benchmark's timing table).

The headline experiments additionally record into history files at the
repo root (``BENCH_e5.json``, ``BENCH_e7.json``): a list of entries, one
per measured commit, so a checkout carries every measurement of them, not
only the latest.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
from typing import Any, List, Optional, Tuple

import pytest

_ARTIFACTS: List[Tuple[str, str]] = []
_OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Root history file → slug prefixes recorded into it.  Runs on one commit
# merge into that commit's entry (keyed by slug), so partial benchmark runs
# update their own artifact without clobbering the others'; a run on a new
# commit appends a new entry.
_ROOT_SNAPSHOTS = {
    "BENCH_e5.json": ("e5-", "bal-execution-modes"),
    "BENCH_e7.json": ("e7-",),
}


@functools.lru_cache(maxsize=None)
def _commit() -> str:
    """The checkout's short commit, ``+dirty`` when ``src/`` has
    uncommitted changes, ``unknown`` outside a git checkout."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=_REPO_ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return commit + ("+dirty" if dirty else "")


def _record_in_history(path: str, slug: str, payload: Any) -> None:
    """Put *payload* into this commit's entry of the history at *path*:
    the last entry when it is this commit's, otherwise a new one."""
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
    commit = _commit()
    if not entries or entries[-1]["commit"] != commit:
        entries.append({"commit": commit, "artifacts": {}})
    entries[-1]["artifacts"][slug] = payload
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dump({"entries": entries}))


def _slug(title: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:60]


def _canonical(value: Any) -> Any:
    """Round floats to 6 places, recursively, so re-measured artifacts
    only diff when a number meaningfully moved."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def _dump(payload: Any) -> str:
    """The one JSON shape every artifact file uses: sorted keys, fixed
    float precision, trailing newline — byte-stable across runs that
    measured the same numbers."""
    return json.dumps(
        _canonical(payload), indent=2, sort_keys=True, default=str
    ) + "\n"


@pytest.fixture
def artifact():
    """Record one regenerated artifact: ``artifact(title, text, data=...)``.

    ``data`` is an optional JSON-serializable payload (typically
    ``{"columns": [...], "rows": [...]}``) mirroring the rendered table so
    downstream tooling can diff numbers without re-parsing text.
    """

    def record(title: str, text: str, data: Optional[Any] = None) -> None:
        _ARTIFACTS.append((title, text))
        os.makedirs(_OUT_DIR, exist_ok=True)
        slug = _slug(title)
        path = os.path.join(_OUT_DIR, f"{slug}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{title}\n\n{text}\n")
        payload = {"title": title, "slug": slug, "data": data, "text": text}
        with open(
            os.path.join(_OUT_DIR, f"{slug}.json"), "w", encoding="utf-8"
        ) as handle:
            handle.write(_dump(payload))
        for snapshot, prefixes in _ROOT_SNAPSHOTS.items():
            if slug.startswith(tuple(prefixes)):
                _record_in_history(
                    os.path.join(_REPO_ROOT, snapshot), slug, payload
                )

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ARTIFACTS:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 78)
    write("REGENERATED PAPER ARTIFACTS & EXPERIMENT ROWS")
    write("(also written to benchmarks/out/)")
    write("=" * 78)
    for title, text in _ARTIFACTS:
        write("")
        write(f"### {title}")
        for line in text.splitlines():
            write(line)
