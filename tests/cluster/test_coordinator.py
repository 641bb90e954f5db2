"""ClusterCoordinator: config validation, fault paths, report shape."""

import pytest

from repro.cluster import (
    CLUSTER_SCHEMA,
    ClusterConfig,
    ClusterCoordinator,
)
from repro.errors import ConfigError, FaultError
from repro.faults import FaultSchedule, ShardFailStop, SouFailStop
from repro.harness.resilience import chaos_config
from repro.workloads import make_workload

N_KEYS = 500
N_OPS = 4_000
BATCH = 1_024


def _workload(seed=7):
    return make_workload("IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=seed)


def _coordinator(workload=None, cluster=None, schedule=None):
    return ClusterCoordinator(
        workload if workload is not None else _workload(),
        cluster=cluster if cluster is not None else ClusterConfig(seed=7),
        accel_config=chaos_config(N_KEYS, batch_size=BATCH),
        schedule=schedule,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_shards=0),
            dict(replicas=2),
            dict(replicas=-1),
            dict(partitioning="rendezvous"),
            dict(n_shards=8, n_buckets=4),
            dict(rebalance_every=0),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs)

    def test_bad_rebalance_knobs_rejected_at_build(self):
        cluster = ClusterConfig(rebalance=True, rebalance_threshold=0.5)
        with pytest.raises(ConfigError):
            _coordinator(cluster=cluster)

    def test_out_of_range_shard_event_rejected(self):
        schedule = FaultSchedule(seed=1, events=(ShardFailStop(0, 9),))
        with pytest.raises(ConfigError):
            _coordinator(
                cluster=ClusterConfig(n_shards=4), schedule=schedule
            )

    def test_machine_level_event_rejected(self):
        # Shards run no fault injector: an SOU fail-stop would never fire.
        schedule = FaultSchedule(seed=1, events=(SouFailStop(0, 3),))
        with pytest.raises(ConfigError, match="no machine-level fault"):
            _coordinator(schedule=schedule)


class TestFaultPaths:
    def test_failstop_without_replica_is_fatal(self):
        schedule = FaultSchedule(seed=1, events=(ShardFailStop(1, 0),))
        coordinator = _coordinator(
            cluster=ClusterConfig(n_shards=4, replicas=0, seed=7),
            schedule=schedule,
        )
        with pytest.raises(FaultError, match="unrecoverable"):
            coordinator.run(batch_size=BATCH)

    def test_two_distinct_shards_both_fail_over(self):
        schedule = FaultSchedule(
            seed=1, events=(ShardFailStop(1, 0), ShardFailStop(1, 2))
        )
        coordinator = _coordinator(
            cluster=ClusterConfig(n_shards=4, seed=7), schedule=schedule
        )
        report = coordinator.run(batch_size=BATCH)
        assert report["completed_ops"] == N_OPS
        assert sorted(f["shard_id"] for f in report["failovers"]) == [0, 2]

    def test_double_failstop_of_one_shard_is_fatal(self):
        # The second kill lands before the first failover revives the
        # shard: a primary cannot die twice.
        schedule = FaultSchedule(
            seed=1, events=(ShardFailStop(0, 2), ShardFailStop(1, 2))
        )
        coordinator = _coordinator(
            cluster=ClusterConfig(n_shards=4, seed=7), schedule=schedule
        )
        with pytest.raises(FaultError, match="already down"):
            coordinator.run(batch_size=BATCH)


class TestRunReport:
    def test_healthy_run_completes_everything(self):
        workload = _workload()
        coordinator = _coordinator(workload=workload)
        report = coordinator.run(batch_size=BATCH)
        assert report["schema"] == CLUSTER_SCHEMA
        assert report["completed_ops"] == N_OPS
        assert report["failovers"] == []
        assert report["throughput_mops"] > 0
        assert report["route_cycles"] > 0  # routing is never free
        per_shard = report["per_shard"]
        assert len(per_shard) == 4
        assert sum(row["ops"] for row in per_shard) == N_OPS
        # IPGEO dedups its key draw, so compare against the workload.
        assert sum(row["keys"] for row in per_shard) == len(
            workload.loaded_keys
        )
        coordinator.validate_trees()

    def test_replication_commit_point_reported(self):
        coordinator = _coordinator()
        report = coordinator.run(batch_size=BATCH)
        replication = report["replication"]
        # Every mutating op shipped; the tail may still be unapplied.
        assert replication["ops_shipped"] > 0
        assert replication["ops_applied"] <= replication["ops_shipped"]
        assert replication["bytes_shipped"] > 0

    def test_replicas_zero_runs_without_replication(self):
        coordinator = _coordinator(
            cluster=ClusterConfig(n_shards=4, replicas=0, seed=7)
        )
        report = coordinator.run(batch_size=BATCH)
        assert report["completed_ops"] == N_OPS
        assert report["replication"]["ops_shipped"] == 0

    def test_schedule_signature_in_report(self):
        schedule = FaultSchedule(seed=3, events=(ShardFailStop(1, 0),))
        coordinator = _coordinator(
            cluster=ClusterConfig(n_shards=4, seed=7), schedule=schedule
        )
        report = coordinator.run(batch_size=BATCH)
        assert report["faults"] == schedule.signature()
