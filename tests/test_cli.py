"""Tests for the command-line interface."""

import io
import re

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


class TestWatch:
    def test_watch_once_reports_startup_sweep(self, tmp_path):
        db = str(tmp_path / "watch.db")
        run_cli(
            "simulate", "hiring", "--cases", "5",
            "--backend", "sqlite", "--db", db,
        )
        code, text = run_cli(
            "watch", "hiring", "--backend", "sqlite", "--db", db, "--once",
        )
        assert code == 0
        assert "watching 'new-position-open'" in text
        assert "pairs evaluated at startup" in text

    @pytest.mark.parametrize("command", ["serve", "watch"])
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

    def test_watch_catches_up_after_out_of_band_append(self, tmp_path):
        import dataclasses

        from repro.store.backends import SQLiteBackend
        from repro.store.store import ProvenanceStore

        db = str(tmp_path / "watch.db")
        run_cli(
            "simulate", "hiring", "--cases", "5",
            "--backend", "sqlite", "--db", db,
        )
        # First watch saves the verdict snapshot on exit.
        run_cli(
            "watch", "hiring", "--backend", "sqlite", "--db", db, "--once",
        )
        # Another process appends to one trace while nobody is watching.
        other = ProvenanceStore(backend=SQLiteBackend(db))
        template = next(r for r in other.records() if r.app_id == "App01")
        other.append(
            dataclasses.replace(template, record_id="oob-clone-1")
        )
        other.close()
        code, text = run_cli(
            "watch", "hiring", "--backend", "sqlite", "--db", db, "--once",
        )
        assert code == 0
        match = re.search(
            r"snapshot restored, (\d+) pairs evaluated at startup", text
        )
        assert match is not None
        # Only the touched trace's pairs re-evaluated, not all 5 traces'.
        assert 0 < int(match.group(1)) <= 5

    def test_poll_loop_is_bounded_and_picks_up_live_appends(
        self, tmp_path, monkeypatch
    ):
        """`--max-polls N` polls exactly N times with the configured
        interval; an append landing between polls is caught by the loop
        itself (not the startup sweep)."""
        import dataclasses

        from repro.store.backends import SQLiteBackend
        from repro.store.store import ProvenanceStore

        db = str(tmp_path / "watch.db")
        run_cli(
            "simulate", "hiring", "--cases", "4",
            "--backend", "sqlite", "--db", db,
        )
        sleeps = []

        def fake_sleep(seconds):
            # The fake clock stands in for wall time; on the first tick
            # another "process" appends out-of-band.
            sleeps.append(seconds)
            if len(sleeps) == 1:
                other = ProvenanceStore(backend=SQLiteBackend(db))
                template = next(
                    r for r in other.records() if r.app_id == "App01"
                )
                other.append(
                    dataclasses.replace(template, record_id="live-oob-1")
                )
                other.close()

        monkeypatch.setattr("repro.cli.time.sleep", fake_sleep)
        code, text = run_cli(
            "watch", "hiring", "--backend", "sqlite", "--db", db,
            "--max-polls", "3", "--interval", "0.25",
        )
        assert code == 0
        # 3 polls → 2 sleeps between them, at the configured interval.
        assert sleeps == [0.25, 0.25]
        match = re.search(r"\[seq \d+\] (\d+) new row\(s\)", text)
        assert match is not None and int(match.group(1)) == 1

    def test_poll_loop_saves_snapshot_on_exit(self, tmp_path, monkeypatch):
        db = str(tmp_path / "watch.db")
        run_cli(
            "simulate", "hiring", "--cases", "4",
            "--backend", "sqlite", "--db", db,
        )
        monkeypatch.setattr("repro.cli.time.sleep", lambda seconds: None)
        code, __ = run_cli(
            "watch", "hiring", "--backend", "sqlite", "--db", db,
            "--max-polls", "2",
        )
        assert code == 0
        # The snapshot written when the bounded loop exited makes the next
        # incremental check a no-op catch-up, not a cold sweep.
        code, text = run_cli(
            "check", "hiring", "--backend", "sqlite", "--db", db,
            "--incremental",
        )
        assert code == 0
        assert "incremental: snapshot restored; 0 of" in text


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
