"""Tests for the dimmunix-report CLI."""

import json

import pytest

from repro.tools.report_cli import main


@pytest.fixture
def records_file(tmp_path):
    records = [
        {
            "experiment_id": "E1.vm",
            "description": "overhead",
            "paper_value": "4-5%",
            "measured_value": "4.4%",
            "holds": True,
        },
        {
            "experiment_id": "E2.overall",
            "description": "memory",
            "paper_value": "52% vs 50%",
            "measured_value": "52% vs 50%",
            "holds": True,
        },
        {
            "experiment_id": "E3",
            "description": "power",
            "paper_value": "14%",
            "measured_value": "19%",
            "holds": False,
        },
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


class TestTextReport:
    def test_renders_all_and_summary(self, records_file, capsys):
        exit_code = main([str(records_file)])
        out = capsys.readouterr().out
        assert "E1.vm" in out and "E3" in out
        assert "2/3 comparisons hold" in out
        assert exit_code == 1  # one record failed

    def test_all_holding_exits_zero(self, records_file, capsys):
        exit_code = main([str(records_file), "--only", "E1"])
        out = capsys.readouterr().out
        assert "1/1 comparisons hold" in out
        assert exit_code == 0

    def test_failing_filter(self, records_file, capsys):
        main([str(records_file), "--failing"])
        out = capsys.readouterr().out
        assert "E3" in out and "E1.vm" not in out

    def test_failing_filter_when_clean(self, records_file, capsys):
        exit_code = main(
            [str(records_file), "--failing", "--only", "E1"]
        )
        assert exit_code == 0
        assert "all recorded comparisons hold" in capsys.readouterr().out


class TestLedger:
    def test_header_rows_skipped_and_latest_run_wins(self, tmp_path, capsys):
        def row(measured: str, holds: bool) -> dict:
            return {
                "experiment_id": "E1.vm",
                "description": "overhead",
                "paper_value": "4-5%",
                "measured_value": measured,
                "holds": holds,
            }

        header = {"run_header": True, "git_sha": "abc", "nproc": 2}
        path = tmp_path / "records.jsonl"
        path.write_text(
            "\n".join(
                json.dumps(r)
                for r in (header, row("9%", False), header, row("5%", True))
            )
            + "\n"
        )
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "5%" in out and "9%" not in out
        assert "1/1 comparisons hold" in out


class TestMarkdown:
    def test_markdown_table(self, records_file, capsys):
        main([str(records_file), "--format", "markdown"])
        out = capsys.readouterr().out
        assert out.startswith("| id | claim |")
        assert "| E3 | power | 14% | 19% | **NO** |" in out


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "none.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_record(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(SystemExit, match="bad record"):
            main([str(path)])

    def test_no_matching_records(self, records_file, capsys):
        assert main([str(records_file), "--only", "ZZ"]) == 1
        assert "no matching records" in capsys.readouterr().err


class TestHistoryBlock:
    def _seeded_history(self, tmp_path):
        from repro.core.history import History
        from repro.workloads.synthetic_sigs import make_signature

        history = History()
        history.add(make_signature(("App.java", 10), ("App.java", 20), 0))
        history.add_predicted(
            make_signature(("Svc.java", 30), ("jni.cpp", 40), 1)
        )
        path = tmp_path / "immunity.history"
        history.save(path)
        return path

    def test_history_block_without_records(self, tmp_path, capsys):
        """--history alone works even when no bench records exist yet."""
        history = self._seeded_history(tmp_path)
        missing = tmp_path / "records.jsonl"
        assert main([str(missing), "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "2 antibodies" in out
        assert "earned:    1" in out
        assert "predicted: 1" in out
        assert "promoted:  0" in out

    def test_history_block_appended_to_records(
        self, records_file, tmp_path, capsys
    ):
        history = self._seeded_history(tmp_path)
        main([str(records_file), "--history", str(history)])
        out = capsys.readouterr().out
        assert "comparisons hold" in out
        assert "immunity" in out and "antibodies" in out


class TestHealthVerb:
    def test_renders_session_health_dump(self, tmp_path, capsys):
        """``dimmunix-report health`` on a ``Dimmunix.health()`` dump."""
        import json

        import repro

        dump = tmp_path / "health.json"
        with repro.immunity(
            watchdog=True,
            watchdog_scan_interval=0.02,
            auto_save=False,
            name="healthcli",
        ) as dx:
            import time

            with dx.lock("probe"):  # constructs the runtime core
                pass
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                health = dx.health()
                if health["scans"]:
                    break
                time.sleep(0.01)
            dump.write_text(json.dumps(health), encoding="utf-8")
        assert main(["health", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "health (" in out
        assert "0 suspect(s) now" in out
        assert "watchdog: on" in out
        assert "healthcli/runtime" in out

    def test_rejects_non_health_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"phases": {}}', encoding="utf-8")
        assert main(["health", str(bogus)]) == 2
        assert "not a Dimmunix.health() dump" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["health", str(tmp_path / "nope.json")]) == 2

    def test_renders_fleet_health_over_tcp(self, tmp_path, capsys):
        from repro.core.store import open_store
        from repro.fleet.remote import RemoteStore
        from repro.fleet.server import FleetServer

        backing = open_store("mem://", max_signatures=1024)
        fleet = FleetServer(backing, port=0)
        host, port = fleet.start_background()
        client = RemoteStore(
            host,
            port,
            timeout=2.0,
            retry_attempts=2,
            retry_backoff=0.01,
            spill_path=tmp_path / "health.spill.history",
        )
        try:
            client.push_metrics(
                {
                    "client": "phone-1",
                    "phases": {},
                    "spill_depth": 0,
                    "health": {
                        "suspected_now": 2,
                        "livelock_suspects": 5,
                        "watchdog_mitigations": 1,
                        "oldest_waiter_age_ns": 1_234_500_000,
                    },
                }
            )
            assert main(["health", f"tcp://{host}:{port}"]) == 0
            out = capsys.readouterr().out
            assert "2 suspect(s) now" in out
            assert "oldest waiter 1234.5ms" in out
            assert "reporting clients: 1" in out
        finally:
            client.close()
            fleet.stop()
            backing.close()

    def test_tcp_without_reports_exits_one(self, capsys):
        from repro.core.store import open_store
        from repro.fleet.server import FleetServer

        backing = open_store("mem://", max_signatures=1024)
        fleet = FleetServer(backing, port=0)
        host, port = fleet.start_background()
        try:
            assert main(["health", f"tcp://{host}:{port}"]) == 1
            assert "no health reports" in capsys.readouterr().err
        finally:
            fleet.stop()
            backing.close()
