"""Tests for the command-line interface."""

import contextlib
import io
import re
import threading
import time

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSimulate:
    def test_simulate_prints_capture_summary_and_rows(self):
        code, text = run_cli("simulate", "hiring", "--cases", "5")
        assert code == 0
        assert "5 cases" in text
        assert "Provenance rows of trace App01" in text
        assert "jobrequisition" in text

    def test_visibility_flag_drops_events(self):
        __, full = run_cli("simulate", "expenses", "--cases", "10")
        __, partial = run_cli(
            "simulate", "expenses", "--cases", "10",
            "--visibility", "0.5",
        )
        assert "0 dropped" in full
        assert "0 dropped" not in partial


class TestCheck:
    def test_clean_run_exits_zero(self):
        code, text = run_cli("check", "hiring", "--cases", "10")
        assert code == 0
        assert "COMPLIANCE DASHBOARD" in text
        assert "gm-approval" in text

    def test_violations_exit_nonzero(self):
        code, text = run_cli(
            "check", "hiring", "--cases", "30",
            "--violation-rate", "0.5",
        )
        assert code == 1
        assert "EXCEPTIONS" in text

    def test_exceptions_only(self):
        code, text = run_cli(
            "check", "procurement", "--cases", "30",
            "--violation-rate", "0.5", "--exceptions-only",
        )
        assert code == 1
        assert "COMPLIANCE DASHBOARD" not in text
        assert "violated" in text

    def test_exceptions_only_clean(self):
        code, text = run_cli(
            "check", "procurement", "--cases", "5", "--exceptions-only"
        )
        assert code == 0
        assert "no violations" in text


class TestVocabulary:
    def test_vocabulary_lists_menus(self):
        code, text = run_cli("vocabulary", "hiring")
        assert code == 0
        assert "Job Requisition" in text
        assert "the general manager of the job requisition" in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("vocabulary", "banking")


class TestReport:
    def test_report_command(self):
        code, text = run_cli(
            "report", "incidents", "--cases", "15",
            "--violation-rate", "0.3",
        )
        assert code == 0
        assert "INTERNAL CONTROLS AUDIT REPORT" in text
        assert "p1-escalation" in text
        assert "EXCEPTIONS" in text


class TestIncrementalCheck:
    def test_snapshot_roundtrip_on_sqlite(self, tmp_path):
        db = str(tmp_path / "inc.db")
        code, __ = run_cli(
            "simulate", "hiring", "--cases", "8",
            "--violation-rate", "0.25", "--backend", "sqlite", "--db", db,
        )
        assert code == 0
        code1, text1 = run_cli(
            "check", "hiring", "--backend", "sqlite", "--db", db,
            "--incremental",
        )
        assert "incremental: no snapshot (cold sweep)" in text1
        code2, text2 = run_cli(
            "check", "hiring", "--backend", "sqlite", "--db", db,
            "--incremental",
        )
        # Second run restores the saved snapshot and evaluates nothing.
        assert "incremental: snapshot restored; 0 of" in text2
        assert code1 == code2
        # Same dashboard either way.
        assert text1.split("\n", 1)[1] == text2.split("\n", 1)[1]

    def test_incremental_without_db_still_works(self):
        code, text = run_cli(
            "check", "hiring", "--cases", "4", "--incremental",
        )
        assert "incremental: no snapshot (cold sweep)" in text
        assert "COMPLIANCE DASHBOARD" in text


class TestServe:
    """``serve`` is the one continuous-evaluation loop: its startup sweep,
    snapshot restore, background tick over out-of-band appends, and
    graceful shutdown, driven end to end through ``main``."""

    @staticmethod
    def _simulated_db(tmp_path, cases=5):
        db = str(tmp_path / "serve.db")
        run_cli(
            "simulate", "hiring", "--cases", str(cases),
            "--backend", "sqlite", "--db", db,
        )
        return db

    @staticmethod
    def _append_out_of_band(db, record_id):
        """Another process clones one App01 relation into the shared file.

        A parallel ``notificationFor`` edge gives correlation nothing to
        add, so exactly one row lands.
        """
        import dataclasses

        from repro.store.backends import SQLiteBackend
        from repro.store.store import ProvenanceStore

        other = ProvenanceStore(backend=SQLiteBackend(db))
        template = next(
            r for r in other.records()
            if r.app_id == "App01" and r.entity_type == "notificationFor"
        )
        other.append(dataclasses.replace(template, record_id=record_id))
        other.close()

    @staticmethod
    def _request(endpoint, path, method="GET"):
        import json
        import urllib.request

        request = urllib.request.Request(
            endpoint + path, method=method,
            data=b"{}" if method == "POST" else None,
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read().decode("utf-8"))

    @contextlib.contextmanager
    def _serving(self, db):
        """Run ``serve`` on an ephemeral port in a thread; yields
        (endpoint, output buffer, exit codes) and always stops it."""
        out = io.StringIO()
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(
                main(
                    [
                        "serve", "hiring", "--backend", "sqlite",
                        "--db", db, "--port", "0", "--interval", "0.05",
                    ],
                    out=out,
                )
            ),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        match = None
        while match is None and thread.is_alive():
            assert time.monotonic() < deadline, out.getvalue()
            match = re.search(r"listening on (http://\S+)", out.getvalue())
            time.sleep(0.01)
        assert match is not None, out.getvalue()
        try:
            yield match.group(1), out, codes
        finally:
            if thread.is_alive():
                try:
                    self._request(match.group(1), "/shutdown", "POST")
                except OSError:
                    pass
            thread.join(timeout=30.0)
            assert not thread.is_alive()

    def _serve_once(self, db):
        with self._serving(db) as (endpoint, out, codes):
            self._request(endpoint, "/shutdown", "POST")
        assert codes == [0]
        return out.getvalue()

    def test_startup_banner_reports_the_sweep(self, tmp_path):
        text = self._serve_once(self._simulated_db(tmp_path))
        assert "serving 'new-position-open'" in text
        match = re.search(r"(\d+) pairs evaluated at startup", text)
        assert match is not None and int(match.group(1)) > 0
        assert "snapshot restored" not in text
        assert "stopped; verdict snapshot persisted" in text

    def test_restart_catches_up_after_out_of_band_append(self, tmp_path):
        db = self._simulated_db(tmp_path)
        self._serve_once(db)  # saves the verdict snapshot on shutdown
        # Another process appends to one trace while nobody is serving.
        self._append_out_of_band(db, "oob-clone-1")
        text = self._serve_once(db)
        match = re.search(
            r"snapshot restored, (\d+) pairs evaluated at startup", text
        )
        assert match is not None
        # Only the touched trace's pairs re-evaluated, not all 5 traces'.
        assert 0 < int(match.group(1)) <= 5

    def test_background_tick_picks_up_live_appends(self, tmp_path):
        """An append landing while the server runs is folded in by the
        background tick itself, with no request driving a sync."""
        db = self._simulated_db(tmp_path, cases=4)
        with self._serving(db) as (endpoint, __, __):
            before = self._request(endpoint, "/stats")["rows"]
            assert self._request(endpoint, "/transitions")["newest"] == 0
            self._append_out_of_band(db, "live-oob-1")
            deadline = time.monotonic() + 30.0
            feed = self._request(endpoint, "/transitions")
            while feed["newest"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.05)
                feed = self._request(endpoint, "/transitions")
            # Only the touched trace's pairs re-evaluated.
            assert {
                entry["verdict"]["trace"] for entry in feed["transitions"]
            } == {"App01"}
            assert 0 < len(feed["transitions"]) <= 5
            stats = self._request(endpoint, "/stats")
            assert stats["rows"] == before + 1
            assert stats["background_running"]

    def test_shutdown_persists_the_snapshot(self, tmp_path):
        db = self._simulated_db(tmp_path, cases=4)
        self._serve_once(db)
        # The snapshot written at shutdown makes the next incremental
        # check a no-op catch-up, not a cold sweep.
        code, text = run_cli(
            "check", "hiring", "--backend", "sqlite", "--db", db,
            "--incremental",
        )
        assert code == 0
        assert "incremental: snapshot restored; 0 of" in text

    @pytest.mark.parametrize("command", ["serve"])
    def test_sqlite_without_db_is_rejected_before_simulating(
        self, command, capsys
    ):
        # Ingest lanes fork a connection per shard; a ``:memory:``
        # database has no second connection to give them.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "hiring", "--backend", "sqlite"])
        assert excinfo.value.code != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1] == (
            f"repro: error: {command} with --backend sqlite needs --db"
        )

    def test_watch_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", "hiring"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'watch'" in capsys.readouterr().err


class TestChaos:
    def test_chaos_runs_seeded_schedules(self):
        code, text = run_cli("chaos", "--schedules", "3", "--seed", "7")
        assert code == 0
        assert "3 schedules ok" not in text  # both backends → 6 total
        assert "6 schedules ok" in text
        assert "seeds 7..9" in text

    def test_chaos_verbose_names_crash_sites(self):
        code, text = run_cli(
            "chaos", "--schedules", "4", "--backend", "memory", "--verbose",
        )
        assert code == 0
        assert "seed=0 backend=memory" in text
        assert "crash@" in text

    def test_chaos_failure_is_replayable(self, monkeypatch):
        from repro.faults import checker

        monkeypatch.setattr(checker, "_norm", lambda results: [object()])
        code, text = run_cli("chaos", "--schedules", "1", "--seed", "3")
        assert code == 1
        assert "chaos: FAILED" in text
        assert "--seed 3" in text


class TestScenarios:
    def test_lists_every_registered_workload(self):
        code, text = run_cli("scenarios")
        assert code == 0
        assert "Registered workloads" in text
        for scenario, process in (
            ("expenses", "expense-reimbursement"),
            ("hiring", "new-position-open"),
            ("incidents", "incident-management"),
            ("procurement", "purchase-to-pay"),
        ):
            assert scenario in text
            assert process in text

    def test_verbose_names_each_control_point(self):
        code, text = run_cli("scenarios", "--verbose")
        assert code == 0
        assert "gm-approval" in text
        # Control lines carry severity + description.
        assert re.search(r"gm-approval \[\w+\]: ", text)
