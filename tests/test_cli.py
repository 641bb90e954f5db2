"""Tests for the command-line interface."""

import glob
import json
import os

import pytest

from repro.cli import main


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        code = main([
            "run", "--engine", "DCART", "--workload", "DE",
            "--keys", "500", "--ops", "1000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DCART" in out and "DE" in out
        assert "Mops/s" in out

    def test_run_json_output(self, capsys):
        code = main([
            "run", "--engine", "SMART", "--workload", "RS",
            "--keys", "400", "--ops", "800", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "SMART"
        assert data["n_ops"] == 800

    def test_write_ratio_flag(self, capsys):
        main([
            "run", "--engine", "ART", "--workload", "DE",
            "--keys", "400", "--ops", "800", "--write-ratio", "0.0", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert data["lock_contentions"] == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--engine", "BTREE"])


class TestWorkloadCommand:
    def test_generate_and_replay(self, capsys, tmp_path):
        path = str(tmp_path / "wl.jsonl")
        assert main([
            "workload", "--name", "DICT", "--keys", "400",
            "--ops", "800", "--out", path,
        ]) == 0
        assert "wrote" in capsys.readouterr().err
        assert main([
            "run", "--engine", "DCART", "--replay", path, "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "DICT"
        assert data["n_ops"] == 800

    def test_replay_of_corrupt_workload_exits_2(self, capsys, tmp_path):
        path = tmp_path / "wl.jsonl"
        path.write_text('{"name": "X", "format": 1}\n{"load": "zz"}\n')
        assert main(["run", "--engine", "DCART", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: line 2:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("op_line", [
        '{"id": 0, "op": "scan", "key": "0a", "scan": "x"}',
        '{"id": 3, "op": "read", "key": "0a"}',
    ], ids=["scan-not-int", "id-not-position"])
    def test_replay_of_bad_op_fields_exits_2(self, capsys, tmp_path, op_line):
        path = tmp_path / "wl.jsonl"
        path.write_text(
            '{"name": "X", "format": 1}\n{"load": "0a"}\n' + op_line + "\n"
        )
        assert main(["run", "--engine", "DCART", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: line 3:")
        assert len(err.strip().splitlines()) == 1


#: Bad input that no command-specific handler catches: each must end in
#: one stderr line and exit 2, never a traceback.
BAD_INPUT = [
    ["run", "--engine", "DCART", "--keys", "0"],
    ["run", "--engine", "DCART", "--write-ratio", "1.5",
     "--keys", "400", "--ops", "1000"],
    ["workload", "--name", "IPGEO", "--keys", "0", "--out", "X"],
    ["run", "--engine", "ART", "--trace", "t.json"],
    ["run", "--engine", "DCART", "--metrics", "nope/m.json",
     "--keys", "400", "--ops", "1000"],
    ["run", "--engine", "DCART", "--metrics", "", "--keys", "400",
     "--ops", "1000"],
    ["run", "--engine", "ART", "--durable", "d"],
    ["run", "--engine", "DCART", "--fault", "crash"],
    ["run", "--engine", "DCART", "--every", "2"],
    ["run", "--engine", "DCART", "--durable", "d", "--fault", "sou-failstop:2"],
    ["figures", "--only", "fig9", "--keys", "0"],
    ["chaos", "--keys", "0"],
    ["chaos", "--json", "nope/c.json", "--keys", "400", "--ops", "1000"],
    ["chaos", "--fault", "quake:9"],
    ["bench", "--ab", "HEAD", "--pairs", "0"],
    ["bench", "--ab", "no-such-rev"],
    ["sweep", "--jobs", "0", "--keys", "400", "--ops", "1000"],
    ["sweep", "--keys", "0"],
    ["sweep", "--write-ratio", "2", "--keys", "400", "--ops", "1000"],
    ["sweep", "--seeds", "1", "1", "--keys", "400", "--ops", "1000"],
    ["sweep", "--json", "nope/s.json", "--keys", "400", "--ops", "1000"],
    ["serve", "--shards", "4", "--fault", "sou-failstop:2"],
    ["serve", "--shards", "4", "--fault", "crash"],
    ["cluster", "--fault", "buffer-storm:0.5"],
    ["cluster", "--replicas", "0", "--fault", "replication-slowdown:8"],
    ["run", "--engine", "DCART", "--fault", "shard-failstop:1"],
    ["chaos", "--fault", "shard-failstop:1"],
    ["cluster", "--keys", "800", "--ops", "6000", "--batch-size", "512",
     "--fault", "replication-slowdown:8", "--fault-batch", "20"],
    ["cluster", "--keys", "800", "--ops", "6000", "--batch-size", "512",
     "--fault", "shard-failstop:1", "--fault-batch", "20"],
]

#: The reason a fault string that its run cannot fire is refused with.
FAULT_REASONS = {
    "serve --shards 4 --fault sou-failstop:2":
        "a cluster runs no machine-level fault",
    "serve --shards 4 --fault crash": "a cluster runs no machine-level fault",
    "cluster --fault buffer-storm:0.5": "a cluster runs no machine-level fault",
    "cluster --replicas 0 --fault replication-slowdown:8":
        "no replication link",
    "run --engine DCART --fault shard-failstop:1": "needs a cluster",
    "chaos --fault shard-failstop:1": "needs a cluster",
    "cluster --keys 800 --ops 6000 --batch-size 512 --fault "
    "replication-slowdown:8 --fault-batch 20":
        "the fault at batch 20 never fires: 6000 ops form 12 batches",
    "cluster --keys 800 --ops 6000 --batch-size 512 --fault "
    "shard-failstop:1 --fault-batch 20":
        "the fault at batch 20 never fires: 6000 ops form 12 batches",
}


@pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
def test_bad_input_exits_2_with_one_line(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"repro {argv[0]}: ")
    assert FAULT_REASONS.get(" ".join(argv), "") in err
    assert not os.listdir(tmp_path)


class TestChaosCommand:
    """``chaos`` is an unsaved fault campaign; ``run --fault`` is one
    faulted DCART run."""

    ARGS = ["chaos", "--keys", "800", "--ops", "6000", "--seed", "1"]
    RUN = ["run", "--engine", "DCART", "--keys", "800", "--ops", "6000",
           "--seed", "1"]

    def test_healthy_chaos_run(self, capsys):
        assert main(self.ARGS + ["--fault", "sou-failstop:1"]) == 0
        out = capsys.readouterr().out
        assert "## IPGEO (healthy)" in out
        assert "## IPGEO (fault: sou-failstop:1)" in out
        assert "fault verdict" not in out.split("## IPGEO (fault")[0]

    def test_fail_sous_graceful(self, capsys):
        assert main(self.ARGS + ["--fault", "sou-failstop:4", "--json"]) == 0
        healthy, faulted = json.loads(capsys.readouterr().out)["rows"]
        assert healthy["fault"] == "none" and "verdict" not in healthy
        verdict = faulted["verdict"]
        assert verdict["degradation"] == pytest.approx(1.066193, abs=1e-6)
        assert verdict["proportional_loss"] == pytest.approx(16 / 12)
        assert verdict["tree_valid"] is True
        assert verdict["graceful"] is True

    def test_json_output(self, capsys):
        assert main(self.RUN + ["--fault", "sou-failstop:2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["extra"]["failed_sous"]) == 2
        assert data["engine"] == "DCART"
        assert len(data["extra"]["fault_schedule_signature"]) == 64

    # Each string's schedule signature, throughput and fault counters at
    # 800 keys, 6,000 ops and seed 1, pinned.
    @pytest.mark.parametrize("fault, signature, mops, counters", [
        ("sou-failstop:4", "1aaec03574fda94d", 92.9230,
         {"failed_sous": [4, 9, 12, 13]}),
        ("sou-failstop:2+shortcut-corrupt:64+buffer-storm:0.5"
         "+hbm-throttle:0.5", "e6195d4372738e70", 96.9442,
         {"shortcut_corruptions": 64, "storm_invalidations": 64,
          "fault_events_applied": 4}),
        ("hbm-throttle:0", "56190455369d42fc", 1.3623, {}),
    ])
    def test_fault_strings_pin_their_runs(
        self, fault, signature, mops, counters, capsys
    ):
        assert main(self.RUN + ["--fault", fault, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["extra"]["fault_schedule_signature"][:16] == signature
        assert round(data["throughput_mops"], 4) == mops
        for key, value in counters.items():
            assert data["extra"][key] == value

    def test_mixed_faults(self, capsys):
        assert main(self.RUN + [
            "--fault", "sou-failstop:2+shortcut-corrupt:64+buffer-storm:0.5"
                       "+hbm-throttle:0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out  # schedule description lists the event
        assert "schedule signature: e6195d4372738e70" in out

    def test_bad_scenario_exits_2(self, capsys):
        assert main(self.RUN + ["--fault", "sou-failstop:16"]) == 2
        assert main(self.ARGS + ["--fault", "sou-failstop:16"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("repro run: n_failed must be in [0, n_sous)")
        assert err[1].startswith("repro chaos: n_failed must be in")

    def test_zero_throttle_runs_as_blackout(self, capsys):
        # hbm-throttle:0 is a legal full HBM blackout: the run completes
        # (every off-chip line priced at the blackout cost) instead of
        # dying on a division by zero, and reads as not graceful.
        assert main(self.ARGS + ["--fault", "hbm-throttle:0"]) == 1
        out = capsys.readouterr().out
        assert "degradation 72.72 vs proportional 1.00, tree ok, NOT graceful" in out

    def test_negative_throttle_rejected(self, capsys):
        # A throttle outside [0, 1) is a schedule error, not a crash.
        assert main(self.RUN + ["--fault", "hbm-throttle:-0.5"]) == 2

    @pytest.mark.parametrize(
        "fault", ["shortcut-corrupt:64", "buffer-storm:0.5", "hbm-throttle:0.5"]
    )
    def test_mid_run_event_needs_a_second_batch(self, fault, capsys):
        # --ops 2000 is one 2,048-op batch: the event has nowhere to land.
        assert main([
            "run", "--engine", "DCART", "--keys", "800", "--ops", "2000",
            "--fault", fault,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro run: ")
        assert "1 batch of 2048" in err

    def test_mid_run_events_land_on_a_second_batch(self, capsys):
        assert main([
            "run", "--engine", "DCART", "--keys", "800", "--ops", "2049",
            "--fault", "shortcut-corrupt:64+buffer-storm:0.5", "--json",
        ]) == 0
        extra = json.loads(capsys.readouterr().out)["extra"]
        assert extra["shortcut_corruptions"] == 64
        assert extra["storm_invalidations"] > 0

    @pytest.mark.parametrize("event", [
        ["--fail-sous", "2"], ["--corrupt-shortcuts", "64"],
        ["--storm", "0.5"], ["--throttle", "0.25"],
    ], ids=" ".join)
    def test_sweep_takes_no_event_flags(self, event, capsys):
        # A closed-loop fault has one name: its fault string.
        with pytest.raises(SystemExit) as exited:
            main(["chaos", "--keys", "600", "--ops", "4000"] + event)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_renders_curve(self, capsys):
        assert main(["chaos", "--keys", "600", "--ops", "4000"]) == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        assert "fault: sou-failstop:15" in out

    def test_sweep_json_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "curve.json")
        assert main([
            "chaos", "--keys", "600", "--ops", "4000", "--json", path,
        ]) == 0
        captured = capsys.readouterr()
        assert "wrote JSON to" in captured.err
        assert captured.out == ""
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema"] == "campaign-report/v1"
        assert data["complete"] is True
        assert len(data["rows"]) == 16
        assert all(row["verdict"]["graceful"] for row in data["rows"][1:])

    def test_json_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "chaos.json")
        assert main(self.ARGS + [
            "--fault", "sou-failstop:2", "crash", "--json", path,
        ]) == 0
        with open(path) as handle:
            data = json.load(handle)
        assert [row["fault"] for row in data["rows"]] == [
            "none", "sou-failstop:2", "crash",
        ]
        assert data["rows"][1]["verdict"]["graceful"] is True
        assert data["rows"][2]["verdict"]["ok"] is True

    def test_fault_error_exits_3_with_one_line(self, capsys, monkeypatch):
        from repro.errors import SouFailedError
        from repro.harness import resilience

        def dies(*args, **kwargs):
            raise SouFailedError("no surviving SOU", {"failed_sous": [0]})

        monkeypatch.setattr(resilience, "faulted_run", dies)
        assert main(self.RUN + ["--fault", "sou-failstop:1"]) == 3
        err = capsys.readouterr().err
        assert err == "repro run: no surviving SOU\n"

    def test_fault_combines_with_metrics_and_trace(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        assert main(self.RUN + [
            "--fault", "sou-failstop:2", "--metrics", str(metrics),
            "--trace", str(trace), "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["extra"]["failed_sous"] == [4, 9]
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["pcu.total_ops"] == 6000
        assert json.loads(trace.read_text())["traceEvents"]

    def test_log_level_flag_accepted(self, capsys):
        from repro.log import reset

        try:
            assert main(["--log-level", "WARNING"] + self.ARGS
                        + ["--fault", "sou-failstop:2"]) == 0
        finally:
            reset()

    def test_bad_log_level_exits_2(self, capsys):
        assert main(["--log-level", "CHATTY"] + self.ARGS) == 2
        assert "unknown log level: CHATTY" in capsys.readouterr().err


class TestDurabilityCommands:
    CKPT = ["run", "--engine", "DCART", "--workload", "DE", "--keys", "600",
            "--ops", "4000", "--every", "2"]

    def test_checkpoint_then_recover(self, capsys, tmp_path):
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--durable", directory]) == 0
        out = capsys.readouterr().out
        assert f"durable state in {directory}:" in out
        assert "wal_bytes" in out

        assert main(["recover", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out and "OK" in out

    def test_checkpoint_json(self, capsys, tmp_path):
        directory = str(tmp_path / "state")
        # Exit 0: the tree validated.
        assert main(self.CKPT + ["--durable", directory, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["extra"]["checkpoints_written"] >= 1
        assert data["extra"]["wal_batches_logged"] >= 1

    def test_recover_json_report(self, capsys, tmp_path):
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--durable", directory]) == 0
        capsys.readouterr()
        assert main(["recover", "--dir", directory, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["validation_ok"] is True
        assert data["n_keys"] > 0
        assert data["wal_torn"] is False

    def test_recover_empty_directory_fails(self, capsys, tmp_path):
        assert main(["recover", "--dir", str(tmp_path / "nothing")]) == 1
        assert "recovery failed" in capsys.readouterr().err

    @staticmethod
    def _truncate(path):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: max(1, len(data) // 3)])

    def test_recover_skips_a_truncated_manifest(self, capsys, tmp_path):
        """A torn newest manifest falls back to the previous checkpoint
        plus WAL replay — exit 0, not a crash."""
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--durable", directory]) == 0
        capsys.readouterr()
        manifests = sorted(glob.glob(os.path.join(directory, "ckpt-*.json")))
        assert len(manifests) >= 2
        self._truncate(manifests[-1])
        assert main(["recover", "--dir", directory, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["validation_ok"] is True
        assert data["n_keys"] > 0

    def test_recover_unrecoverable_state_exits_1_with_diagnostic(
        self, capsys, tmp_path
    ):
        """Every manifest truncated and the WAL gone: a clean non-zero
        exit and a 'recovery failed:' line on stderr, never a traceback."""
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--durable", directory]) == 0
        capsys.readouterr()
        for manifest in glob.glob(os.path.join(directory, "ckpt-*.json")):
            self._truncate(manifest)
        os.remove(os.path.join(directory, "wal.log"))
        assert main(["recover", "--dir", directory]) == 1
        err = capsys.readouterr().err
        assert "recovery failed:" in err
        assert "Traceback" not in err

    def test_recover_needs_dir_or_campaign(self, capsys):
        assert main(["recover"]) == 2
        assert "--dir" in capsys.readouterr().err

    def test_serve_table_reports_capacity_and_knee(self, capsys):
        assert main([
            "serve", "--keys", "800", "--ops", "4000",
            "--batch-size", "256", "--load-sweep", "0.5", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "closed-loop capacity" in out
        assert "p99 us" in out and "RTO cyc" in out

    def test_serve_json_report_schema(self, capsys, tmp_path):
        path = str(tmp_path / "serve.json")
        assert main([
            "serve", "--keys", "800", "--ops", "4000",
            "--batch-size", "256", "--load-sweep", "0.5",
            "--json", path,
        ]) == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema"] == "serve-sweep/v1"
        assert len(data["rows"]) == 1
        assert data["rows"][0]["completed_ops"] > 0

    def test_serve_crash_fault_reports_rto(self, capsys, tmp_path):
        path = str(tmp_path / "crash.json")
        assert main([
            "serve", "--keys", "1000", "--ops", "40000",
            "--batch-size", "1024", "--queue-capacity", "2048",
            "--slo-us", "300", "--load-sweep", "0.1",
            "--fault", "crash", "--dir", str(tmp_path / "durable"),
            "--json", path,
        ]) == 0
        with open(path) as handle:
            data = json.load(handle)
        (row,) = data["rows"]
        assert row["crashes"] == 1
        assert row["rto_cycles"] is not None and row["rto_cycles"] > 0
        assert data["fault_schedule_signature"] is not None

    def test_serve_crash_state_is_scratch_unless_dir_given(
        self, capsys, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        args = [
            "serve", "--keys", "1000", "--ops", "8000",
            "--batch-size", "1024", "--queue-capacity", "2048",
            "--load-sweep", "0.1", "--fault", "crash", "--fault-batch", "2",
        ]
        main(args + ["--json"])
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["crashes"] == 1
        assert not glob.glob(str(tmp_path / "dcart-serve-*"))
        kept = tmp_path / "kept"
        main(args + ["--dir", str(kept)])
        assert f"durable state under {kept}" in capsys.readouterr().out
        assert (kept / "load-0" / "wal.log").is_file()

    def test_serve_bad_load_exits_2(self, capsys):
        assert main([
            "serve", "--keys", "600", "--ops", "1000",
            "--load-sweep", "-1.0",
        ]) == 2
        err = capsys.readouterr().err
        assert err == "repro serve: offered loads must be positive: -1.0\n"

    def test_bad_checkpoint_interval_exits_2(self, capsys, tmp_path):
        assert main(self.CKPT[:-1] + ["0", "--durable", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "repro run: checkpoint_every must be positive: 0\n"

    def test_campaign(self, capsys):
        assert main([
            "recover", "--campaign", "2", "--seed", "3",
            "--keys", "800", "--ops", "6000",
        ]) == 0
        out = capsys.readouterr().out
        assert "fault: crash" in out
        assert "2/2 EXACT" in out


class TestClusterCommand:
    ARGS = ["cluster", "--keys", "800", "--ops", "6000", "--batch-size", "512",
            "--fault", "shard-failstop:1"]

    def test_failover_run_report(self, capsys, tmp_path):
        path = str(tmp_path / "cluster.json")
        assert main(self.ARGS + ["--json", path]) == 0
        with open(path) as handle:
            report = json.load(handle)
        assert report["schema"] == "cluster-run/v1"
        assert len(report["failovers"]) == 1
        assert report["completed_ops"] == report["n_ops"]
        replication = report["replication"]
        assert 0 < replication["ops_applied"] <= replication["ops_shipped"]

    def test_diverged_replica_exits_1_with_one_line(self, capsys, monkeypatch):
        from repro.cluster import ClusterCoordinator

        run = ClusterCoordinator.run

        def run_then_diverge(self, *args, **kwargs):
            report = run(self, *args, **kwargs)
            replica = next(s.replica for s in self.shards if s.replica is not None)
            key, _ = next(iter(replica.tree.items()))
            replica.tree.upsert(key, "stray")
            return report

        monkeypatch.setattr(ClusterCoordinator, "run", run_then_diverge)
        assert main(self.ARGS) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "does not match its primary" in err


class TestServeClusterFaults:
    """``serve --fault`` and ``cluster --fault`` take the fault string."""

    SERVE_CRASH = ["serve", "--keys", "1000", "--ops", "8000",
                   "--batch-size", "1024", "--queue-capacity", "2048",
                   "--load-sweep", "0.1", "--fault-batch", "2"]
    CLUSTER = ["cluster", "--keys", "800", "--ops", "6000",
               "--batch-size", "512"]

    # Each string reproduces the run of the fixed menu entry it replaced
    # exactly: the schedule signature (serve's fault_schedule_signature,
    # cluster's faults) and the sha256 of the whole --json report.
    @pytest.mark.parametrize("argv, fault, signature, digest", [
        (SERVE_CRASH, "crash", "ee9af26a0432bfa4", "ab2c627ef46c90cc"),
        (["serve", "--keys", "1000", "--ops", "20000", "--batch-size", "1024",
          "--load-sweep", "0.1", "0.5"],
         "sou-failstop:2", "4a38e80493675434", "831a306ac3be4bce"),
        (["serve", "--keys", "2000", "--ops", "20000", "--batch-size", "512",
          "--queue-capacity", "8192", "--slo-us", "50", "--load-sweep", "0.5",
          "--shards", "4", "--fault-batch", "2"],
         "shard-failstop:1", "ea8d810c31258ec1", "d122a6e4d8066b0e"),
        (CLUSTER, "shard-failstop:1", "ea8d810c31258ec1", "33b85ae63c6e946f"),
        (CLUSTER, "replication-slowdown:8", "e6134cc39969b02d",
         "6d51acefea41e2c1"),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_fault_strings_pin_their_runs(
        self, argv, fault, signature, digest, capsys
    ):
        import hashlib

        assert main(argv + ["--fault", fault, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        schedule = report.get("fault_schedule_signature") or report["faults"]
        assert schedule[:16] == signature
        text = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest

    @pytest.mark.parametrize("fault", [
        "sou-failstop:2", "shortcut-corrupt:64", "buffer-storm:0.5",
        "hbm-throttle:0.5", "crash",
    ])
    def test_every_machine_kind_is_stamped_at_the_fault_batch(
        self, fault, capsys
    ):
        # Nothing differs before batch 2, so every kind stamps the same
        # start cycle of batch 2; a window stamps its first batch.
        assert main(self.SERVE_CRASH + ["--fault", fault, "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["fault_cycles"] == [68776]
        assert row["rto_cycles"] is not None

    def test_a_fault_that_never_fires_says_so(self, capsys):
        assert main([
            "serve", "--keys", "1000", "--ops", "8000", "--batch-size",
            "1024", "--load-sweep", "0.1", "--fault", "sou-failstop:2",
        ]) == 1
        err = capsys.readouterr().err
        assert err == (
            "serve: the fault at batch 9 never fired (load 0.1 formed 9 "
            "batches)\n"
        )

    def test_none_runs_no_schedule(self, capsys):
        assert main(self.CLUSTER + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["faults"] is None


class TestFiguresCommand:
    def test_table1_only(self, capsys):
        assert main(["figures", "--only", "table1"]) == 0
        out = capsys.readouterr().out
        assert "16 x SOUs" in out

    def test_figure_with_save(self, capsys, tmp_path):
        from repro.harness import experiments

        experiments.clear_cache()
        save_dir = str(tmp_path / "figs")
        assert main([
            "figures", "--only", "fig3", "--keys", "1000",
            "--ops", "3000", "--save", save_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert (tmp_path / "figs" / "fig3.txt").exists()
        assert (tmp_path / "figs" / "fig3.csv").exists()
        assert (tmp_path / "figs" / "fig3.json").exists()
        experiments.clear_cache()


class TestSweepCommand:
    """``repro sweep`` is an unsaved campaign: it prints the campaign
    report of an in-memory store."""

    ARGS = ["sweep", "--engines", "ART", "DCART", "--seeds", "1", "2",
            "--keys", "400", "--ops", "1000"]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "# Campaign report: sweep" in out
        assert "- git SHA: `unstamped`" in out
        assert "## IPGEO (healthy)" in out
        assert "best Mops/s" in out and "median Mops/s" in out
        assert "| ART " in out and "| DCART " in out
        assert "Incomplete" not in out

    def test_jobs_parallel_matches_serial_json(self, capsys, tmp_path):
        serial_path = tmp_path / "serial.json"
        pooled_path = tmp_path / "pooled.json"
        assert main(self.ARGS + ["--jobs", "1", "--json", str(serial_path)]) == 0
        assert main(self.ARGS + ["--jobs", "2", "--json", str(pooled_path)]) == 0
        capsys.readouterr()
        assert serial_path.read_bytes() == pooled_path.read_bytes()
        doc = json.loads(serial_path.read_text())
        assert doc["schema"] == "campaign-report/v1"
        assert doc["complete"] is True
        assert [(r["engine"], r["seeds"]) for r in doc["rows"]] == [
            ("ART", [1, 2]), ("DCART", [1, 2]),
        ]

    def test_failed_cell_exits_1_and_is_reported(self, capsys, monkeypatch):
        from repro.experiments import campaign

        def dies(cell, **kwargs):
            raise RuntimeError("cell died")

        monkeypatch.setattr(campaign, "run_campaign_cell", dies)
        assert main([
            "sweep", "--engines", "ART", "--keys", "400", "--ops", "1000",
        ]) == 1
        out = capsys.readouterr().out
        assert "Incomplete campaign" in out
        assert "`ART/IPGEO/seed=1/none`" in out


class TestTraceCommand:
    """``repro run --trace``: the Chrome trace export of a DCART run."""

    ARGS = ["run", "--engine", "DCART", "--keys", "500", "--ops", "2000"]

    def test_writes_chrome_loadable_json(self, capsys, tmp_path):
        path = str(tmp_path / "trace.json")
        assert main(self.ARGS + ["--trace", path]) == 0
        captured = capsys.readouterr()
        assert "trace events" in captured.err
        assert "batch timeline" in captured.out
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["otherData"]["schema"] == "trace-export/v2"
        assert "exported_at" not in doc["otherData"]
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "M"}
        assert any(e["ph"] == "X" for e in events)
        # Every complete event carries the trace_event complete schema.
        for event in events:
            if event["ph"] == "X":
                assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)

    def test_no_stamp_is_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(self.ARGS + ["--trace", str(a)]) == 0
        assert main(self.ARGS + ["--trace", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_metrics_sidecar(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        assert main(self.ARGS + ["--trace", trace, "--metrics", metrics]) == 0
        with open(metrics) as handle:
            doc = json.load(handle)
        assert "pcu.total_cycles" in doc["counters"]

    def test_json_stdout_is_json(self, capsys, tmp_path):
        path = str(tmp_path / "trace.json")
        assert main(self.ARGS + ["--json", "--trace", path]) == 0
        assert json.loads(capsys.readouterr().out)["engine"] == "DCART"

    def test_trace_file_mode_is_that_of_open(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(self.ARGS + ["--trace", str(trace)]) == 0
        plain = tmp_path / "plain.json"
        with open(plain, "w"):
            pass
        assert trace.stat().st_mode == plain.stat().st_mode


class TestMetricsFlag:
    def test_run_metrics_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main([
            "run", "--engine", "DCART", "--workload", "DE",
            "--keys", "400", "--ops", "1000", "--metrics", path,
        ]) == 0
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["counters"]["run.batches"] >= 1

    def test_run_metrics_json_output(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main([
            "run", "--engine", "DCART", "--workload", "RS",
            "--keys", "400", "--ops", "1000", "--metrics", path, "--json",
        ]) == 0
        # The "wrote JSON to" status line goes to stderr: stdout is JSON.
        assert json.loads(capsys.readouterr().out)["n_ops"] == 1000
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["counters"]["pcu.total_ops"] == 1000

    def test_run_metrics_cpu_engine(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main([
            "run", "--engine", "ART", "--keys", "400", "--ops", "1000",
            "--metrics", path,
        ]) == 0
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["counters"]["llc.hits"] > 0

    def test_sweep_metrics_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main([
            "sweep", "--engines", "ART", "DCART", "--seeds", "1", "2",
            "--keys", "400", "--ops", "1000", "--metrics", path,
        ]) == 0
        with open(path) as handle:
            docs = json.load(handle)
        # One entry per cell, in grid order, each with a non-empty
        # registry and the campaign cell identity.
        assert [(d["cell"]["engine"], d["cell"]["seed"]) for d in docs] == [
            ("ART", 1), ("ART", 2), ("DCART", 1), ("DCART", 2),
        ]
        assert all(doc["cell"]["fault"] == "none" for doc in docs)
        assert all(doc["metrics"]["counters"] for doc in docs)


class TestBenchCommand:
    """``repro bench --ab`` on a throwaway checkout, perfbench faked."""

    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        from repro.harness import benchmarking
        from tests.fakebench import make_repo

        root = make_repo(tmp_path / "repo")
        monkeypatch.setattr(benchmarking, "REPO_ROOT", str(root))
        return root

    def _fake(self, monkeypatch, root, **sides):
        from repro.harness import benchmarking
        from tests.fakebench import FakeRunner

        runner = FakeRunner(root, **sides)
        monkeypatch.setattr(
            benchmarking, "perfbench_runner", lambda command, seconds: runner
        )
        return runner

    def test_same_code_passes_and_prints_the_table(
        self, capsys, repo, monkeypatch
    ):
        from tests.fakebench import WORKLOADS, worktree_count

        self._fake(monkeypatch, repo)
        assert main(["bench", "--ab", "HEAD", "--pairs", "2"]) == 0
        captured = capsys.readouterr()
        assert "| verdict |" in captured.out
        for workload in WORKLOADS:
            assert f"| {workload} | sim_ops_per_s |" in captured.out
            assert f"digest {workload}: parent d1, change d1" in captured.out
        assert "pair 2/2" in captured.err
        assert worktree_count(repo) == 1

    def test_worse_verdict_exits_1(self, capsys, repo, monkeypatch):
        self._fake(monkeypatch, repo, change={"sim_ops_per_s": 0.5})
        assert main(["bench", "--ab", "HEAD", "--pairs", "1"]) == 1
        captured = capsys.readouterr()
        assert "| worse |" in captured.out
        assert "repro bench: worse: " in captured.err

    @pytest.mark.parametrize("side, output", [
        ("parent", {"correct": False}),
        ("change", {"failed": 2}),
    ])
    def test_a_failed_run_exits_1(self, capsys, repo, monkeypatch, side,
                                  output):
        self._fake(monkeypatch, repo, **{side: output})
        assert main(["bench", "--ab", "HEAD", "--pairs", "1"]) == 1
        err = capsys.readouterr().err
        assert f"repro bench: {side} run of " in err

    def test_moved_digest_passes(self, capsys, repo, monkeypatch):
        self._fake(monkeypatch, repo, change={"digest": "d2"})
        assert main(["bench", "--ab", "HEAD", "--pairs", "1"]) == 0
        assert "parent d1, change d2  (moved)" in capsys.readouterr().out

    def test_record_appends_one_schema_2_entry(
        self, capsys, repo, monkeypatch, tmp_path
    ):
        import shutil

        from repro.harness import benchmarking

        # The committed trajectory (REPO_ROOT points at the throwaway repo).
        committed = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_speed.json",
        )
        path = tmp_path / "BENCH_speed.json"
        shutil.copy(committed, path)
        before = benchmarking.load_trajectory(str(path))["history"]
        self._fake(monkeypatch, repo)
        assert main([
            "bench", "--ab", "HEAD", "--pairs", "2", "--record",
            "--file", str(path),
        ]) == 0
        assert f"recorded in {path}" in capsys.readouterr().out
        after = benchmarking.load_trajectory(str(path))["history"]
        assert after[:-1] == before
        assert sum("schema" not in entry for entry in after) == 5
        assert after[-1]["schema"] == 2 and after[-1]["pairs"] == 2


class TestCampaignCommand:
    def _write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-smoke", "engines": ["ART", "DCART"],
            "workloads": ["IPGEO"], "seeds": [1],
            "n_keys": 400, "n_ops": 1000,
        }))
        return str(path)

    def test_run_resume_and_report(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        store = str(tmp_path / "c.db")
        base = ["campaign", "run", "--spec", spec, "--store", store,
                "--mode", "smoke", "--no-stamp"]
        assert main(base) == 0
        assert "2 ran" in capsys.readouterr().out
        # Second invocation: every cell reused, zero re-simulation.
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 reused" in out and "0 ran" in out

        assert main(["campaign", "status", "--spec", spec, "--store",
                     store, "--mode", "smoke", "--no-stamp"]) == 0
        assert "2/2 ok" in capsys.readouterr().out

        md_path = str(tmp_path / "report.md")
        html_path = str(tmp_path / "report.html")
        assert main(["campaign", "report", "--spec", spec, "--store",
                     store, "--mode", "smoke", "--no-stamp",
                     "--md", md_path, "--html", html_path]) == 0
        with open(md_path) as fh:
            md = fh.read()
        assert md.startswith("<!-- GENERATED FILE")
        assert "| DCART " in md
        with open(html_path) as fh:
            assert "<table>" in fh.read()

    def test_report_is_byte_deterministic_under_no_stamp(
        self, capsys, tmp_path
    ):
        spec = self._write_spec(tmp_path)
        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--spec", spec, "--store", store,
                     "--no-stamp"]) == 0
        capsys.readouterr()
        texts = []
        for path in ("a.md", "b.md"):
            out = str(tmp_path / path)
            assert main(["campaign", "report", "--spec", spec, "--store",
                         store, "--no-stamp", "--md", out]) == 0
            with open(out) as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]

    def test_missing_spec_exits_2_one_line(self, capsys, tmp_path):
        assert main(["campaign", "run", "--spec",
                     str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert "not found" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_utf8_spec_exits_2_one_line(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'{"name": "\xff"}')
        assert main(["campaign", "run", "--spec", str(path),
                     "--store", str(tmp_path / "c.db")]) == 2
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_spec_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "x", "engines": ["BTREE"], "workloads": ["IPGEO"],
            "seeds": [1],
        }))
        assert main(["campaign", "run", "--spec", str(path)]) == 2
        assert "unknown engine" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["run", "status", "report"])
    def test_json_on_stdout_is_json(self, action, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        store = str(tmp_path / "c.db")
        base = ["--spec", spec, "--store", store, "--no-stamp"]
        if action != "run":
            assert main(["campaign", "run"] + base) == 0
            capsys.readouterr()
        assert main(["campaign", action] + base + ["--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["spec_hash"]
        if action != "report":
            # The one-line summary moves to stderr.
            assert captured.err.startswith("campaign cli-smoke [")

    def test_incomplete_campaign_status_exits_1(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        assert main(["campaign", "status", "--spec", spec, "--store",
                     str(tmp_path / "c.db"), "--no-stamp"]) == 1
        assert "2 pending" in capsys.readouterr().out


class TestBenchCorruptTrajectory:
    def test_check_on_corrupt_trajectory_exits_2_one_line(
        self, capsys, tmp_path, monkeypatch
    ):
        # A torn trajectory file is a configuration problem: one line on
        # stderr and exit code 2, before any run, never a traceback.
        from repro.harness import benchmarking

        def no_runs(command, seconds):
            raise AssertionError("a run started before the file was read")

        monkeypatch.setattr(benchmarking, "perfbench_runner", no_runs)
        path = tmp_path / "BENCH_speed.json"
        path.write_text('{"schema": 1, "history": [{"git_sha": "tor')
        assert main([
            "bench", "--ab", "HEAD", "--record", "--file", str(path),
        ]) == 2
        captured = capsys.readouterr()
        assert "not valid JSON" in captured.err
        assert captured.err.startswith("repro bench: ")
        assert len(captured.err.strip().splitlines()) == 1
