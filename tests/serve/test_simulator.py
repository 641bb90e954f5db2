"""The serving event loop and offered-load sweep, end to end.

Runtime discipline: every test pins ``capacity_ops_per_s`` so no
closed-loop calibration run is needed, and workloads stay small.  The
pinned capacity (100 Mops/s) matches the calibrated DCART closed-loop
rate on this workload family to within a few percent, so the dynamics
are the ones ``repro serve`` reports.
"""

import pytest

from repro.errors import ConfigError
from repro.faults.schedule import CrashFault, FaultSchedule, SouFailStop
from repro.harness.resilience import chaos_config
from repro.serve import SERVE_SCHEMA, ServeConfig, ServingSimulator, load_sweep
from repro.workloads import make_workload

#: Pinned closed-loop capacity (ops/s) — skips calibration, keeps the
#: offered-load fractions in the same regime the CLI measures.
CAP = 1.0e8


def _workload(n_ops=6_000, n_keys=1_000, seed=1):
    return make_workload("IPGEO", n_keys=n_keys, n_ops=n_ops, seed=seed)


class TestSweepReport:
    def test_sweep_is_deterministic(self):
        workload = _workload()
        serve = ServeConfig(batch_size=256, queue_capacity=2_048)
        kwargs = dict(loads=[0.5, 1.0], seed=3, capacity_ops_per_s=CAP)
        first = load_sweep(workload, serve, **kwargs)
        second = load_sweep(workload, serve, **kwargs)
        assert first == second
        assert first["schema"] == SERVE_SCHEMA
        assert first["capacity_ops_per_s"] == CAP
        assert len(first["rows"]) == 2

    def test_p99_monotone_below_the_knee(self):
        workload = _workload(n_ops=8_000)
        serve = ServeConfig(batch_size=256, queue_capacity=2_048)
        report = load_sweep(
            workload, serve, loads=[0.3, 0.6, 0.9, 1.2],
            capacity_ops_per_s=CAP,
        )
        knee = report["knee_load"]
        assert knee is not None
        below = [row for row in report["rows"] if row["offered_load"] <= knee]
        assert len(below) >= 2
        p99s = [row["p99_us"] for row in below]
        assert p99s == sorted(p99s), f"p99 not monotone below knee: {p99s}"
        # Every row completed traffic and billed real queueing delay.
        for row in report["rows"]:
            assert row["completed_ops"] > 0
            assert row["p99_us"] >= row["p50_us"] > 0

    def test_loads_are_swept_in_ascending_order(self):
        workload = _workload(n_ops=2_000)
        report = load_sweep(
            workload, ServeConfig(batch_size=256), loads=[1.0, 0.25],
            capacity_ops_per_s=CAP,
        )
        assert [r["offered_load"] for r in report["rows"]] == [0.25, 1.0]


class TestAdmissionUnderOverload:
    def test_bounded_admission_caps_the_tail_the_unbounded_queue_grows(self):
        """The graceful-degradation headline: at 3x overload, drop-tail
        sheds and keeps p99 bounded while admit-all's tail diverges."""
        workload = _workload(n_ops=8_000)
        bounded = ServeConfig(
            admission="drop-tail", batch_size=256, queue_capacity=2_048
        )
        unbounded = ServeConfig(
            admission="none", batch_size=256, queue_capacity=2_048
        )
        row_bounded = ServingSimulator(
            workload, bounded, capacity_ops_per_s=CAP
        ).run(3.0)
        row_unbounded = ServingSimulator(
            workload, unbounded, capacity_ops_per_s=CAP
        ).run(3.0)
        assert row_unbounded.shed_ops == 0
        assert row_bounded.shed_ops > 0
        assert row_unbounded.p99_us > 1.5 * row_bounded.p99_us
        # At 3x overload a bounded queue serves roughly a third of the
        # offered stream and sheds the rest; nothing simply vanishes.
        assert row_bounded.completed_ops > 0
        assert (
            row_bounded.completed_ops + row_bounded.shed_ops
            == row_bounded.offered_ops
        )


class TestFaultsMidTraffic:
    def test_crash_recover_reports_downtime_and_rto(self, tmp_path):
        schedule = FaultSchedule(
            seed=1, events=(CrashFault(9, "wal-pre-commit", 7),)
        )
        serve = ServeConfig(
            batch_size=1_024,
            queue_capacity=2_048,
            slo_us=300.0,
            checkpoint_every=4,
        )
        report = load_sweep(
            _workload(n_ops=40_000),
            serve,
            loads=[0.1],
            accel_config=chaos_config(1_000),
            schedule=schedule,
            durability_dir=str(tmp_path),
            capacity_ops_per_s=CAP,
        )
        assert report["fault_schedule_signature"] == schedule.signature()
        (row,) = report["rows"]
        assert row["crashes"] == 1
        # Exactly the crashed batch is lost (it may have closed by
        # deadline short of the full batch size).
        assert 0 < row["lost_ops"] <= serve.batch_size
        assert row["downtime_cycles"] > 0
        assert len(row["fault_cycles"]) == 1
        # The tail left the SLO during the outage and came back: a
        # positive, finite recovery-time objective.
        assert row["rto_cycles"] is not None and row["rto_cycles"] > 0

    def test_sou_failstop_rto_is_measured(self):
        config = chaos_config(1_000)
        schedule = FaultSchedule.fail_sous(
            2, seed=1, n_sous=config.n_sous, at_batch=3
        )
        serve = ServeConfig(batch_size=256, queue_capacity=2_048, slo_us=200.0)
        report = load_sweep(
            _workload(n_ops=8_000),
            serve,
            loads=[0.5],
            accel_config=config,
            schedule=schedule,
            capacity_ops_per_s=CAP,
        )
        (row,) = report["rows"]
        assert row["fault_cycles"], "fail-stop batch never executed"
        # Measured, not missing: 0 means the tail never left SLO, which
        # is a legitimate verdict for losing 2 SOUs with redispatch.
        assert row["rto_cycles"] is not None


class TestBackendsAndValidation:
    def test_cpu_baseline_serves_via_calibrated_backend(self):
        row = ServingSimulator(
            _workload(n_ops=3_000), ServeConfig(batch_size=256),
            engine="ART", capacity_ops_per_s=5.0e7,
        ).run(0.5)
        assert row.engine == "ART"
        assert row.completed_ops == row.admitted_ops > 0
        assert row.crashes == 0
        assert row.p99_us > 0

    def test_fault_schedule_requires_dcart(self):
        schedule = FaultSchedule.fail_sous(1, seed=1, n_sous=16)
        with pytest.raises(ConfigError):
            ServingSimulator(
                _workload(n_ops=100), ServeConfig(),
                engine="ART", schedule=schedule, capacity_ops_per_s=CAP,
            )

    def test_out_of_range_sou_id_rejected_up_front(self):
        schedule = FaultSchedule(seed=1, events=(SouFailStop(0, 4_096),))
        with pytest.raises(ConfigError):
            ServingSimulator(
                _workload(n_ops=100), ServeConfig(),
                accel_config=chaos_config(1_000), schedule=schedule,
            )

    def test_cluster_serving_rejects_a_crash(self):
        # The cluster backend has no crash recovery: the crash would be
        # stamped and never fire.
        from repro.cluster import ClusterConfig

        schedule = FaultSchedule(
            seed=1, events=(CrashFault(2, "wal-pre-commit"),)
        )
        with pytest.raises(ConfigError, match="no machine-level fault"):
            ServingSimulator(
                _workload(n_ops=100), ServeConfig(),
                accel_config=chaos_config(1_000), schedule=schedule,
                capacity_ops_per_s=CAP, cluster_config=ClusterConfig(),
            )

    def test_crash_without_a_durability_dir_is_refused(self, monkeypatch):
        # With no durable state there is nothing to tear: the injector
        # would skip the crash, yet the run would stamp it and measure
        # an RTO from it.
        schedule = FaultSchedule(
            seed=1, events=(CrashFault(2, "wal-pre-commit"),)
        )
        workload = _workload(n_ops=8_000)
        serve = ServeConfig(batch_size=1024)
        simulator = ServingSimulator(
            workload, serve, accel_config=chaos_config(1_000),
            schedule=schedule, capacity_ops_per_s=CAP,
        )
        with pytest.raises(ConfigError, match="durability_dir"):
            simulator.run(0.1)
        monkeypatch.setattr(
            ServingSimulator, "_calibrate",
            lambda self: pytest.fail("calibrated before refusing the crash"),
        )
        with pytest.raises(ConfigError, match="durability_dir"):
            load_sweep(
                workload, serve, loads=[0.1],
                accel_config=chaos_config(1_000), schedule=schedule,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(queue_capacity=0),
            dict(batch_size=-1),
            dict(deadline_us=0.0),
            dict(slo_us=-5.0),
            dict(rto_window_ops=0),
            dict(burst_factor=1.0),
            dict(burst_factor=0.5),
            dict(watermark=0.0),
            dict(watermark=1.5),
            dict(checkpoint_every=0),
        ],
    )
    def test_serve_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ServeConfig(**kwargs)

    def test_sweep_needs_loads(self):
        with pytest.raises(ConfigError):
            load_sweep(_workload(n_ops=100), ServeConfig(), loads=[],
                       capacity_ops_per_s=CAP)

    def test_loads_must_be_positive(self):
        with pytest.raises(ConfigError):
            load_sweep(_workload(n_ops=100), ServeConfig(), loads=[0.5, -1.0],
                       capacity_ops_per_s=CAP)

    def test_calibration_path_still_works(self):
        """One small run through real calibration (no pinned capacity)."""
        simulator = ServingSimulator(
            _workload(n_ops=2_000), ServeConfig(batch_size=256)
        )
        assert simulator.capacity_ops_per_s() > 0
