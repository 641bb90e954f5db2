"""End-to-end tests for the DCART accelerator model."""

import pytest

from repro.core import DCARTConfig, DcartAccelerator
from repro.workloads import OpKind, make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("IPGEO", n_keys=3000, n_ops=15_000, seed=7)


@pytest.fixture(scope="module")
def result(workload):
    config = DCARTConfig(
        batch_size=4096, tree_buffer_bytes=64 * 1024, shortcut_buffer_bytes=8 * 1024
    )
    return DcartAccelerator(config=config).run(workload)


class TestFunctionalExecution:
    def test_all_ops_accounted(self, workload, result):
        assert result.n_ops == workload.n_ops
        assert len(result.latencies_ns) == workload.n_ops

    def test_writes_applied_to_tree(self, workload):
        accel = DcartAccelerator(config=DCARTConfig(batch_size=4096))
        tree = accel.build_tree(workload)
        accel.run(workload, tree=tree)
        # Replay expected final values: last write wins per key.
        expected = {}
        for position, key in enumerate(workload.loaded_keys):
            expected[key] = position
        for op in workload.operations:
            if op.kind is OpKind.WRITE:
                expected[op.key] = op.value
            elif op.kind is OpKind.DELETE:
                expected.pop(op.key, None)
        for key, value in expected.items():
            assert tree.search(key) == value
        tree.validate()

    def test_deterministic(self, workload):
        config = DCARTConfig(batch_size=4096)
        a = DcartAccelerator(config=config).run(workload)
        b = DcartAccelerator(config=config).run(workload)
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.partial_key_matches == b.partial_key_matches
        assert a.lock_contentions == b.lock_contentions


class TestTiming:
    def test_elapsed_positive_and_cycle_consistent(self, result):
        assert result.elapsed_seconds > 0
        cycles = result.extra["total_cycles"]
        assert result.elapsed_seconds == pytest.approx(cycles / 230e6)

    def test_pcu_floor(self, workload, result):
        # The PCU sustains at most one op per cycle: the run can never
        # be faster than n_ops cycles.
        assert result.extra["total_cycles"] >= workload.n_ops

    def test_energy_is_power_times_time(self, result):
        assert result.energy_joules == pytest.approx(42.0 * result.elapsed_seconds)

    def test_breakdown_sums_to_elapsed(self, result):
        assert result.breakdown.total_seconds == pytest.approx(
            result.elapsed_seconds, rel=1e-6
        )

    def test_latencies_positive(self, result):
        assert result.latencies_ns.min() > 0
        assert result.p99_latency_us > 0


class TestMechanisms:
    def test_shortcuts_generated_and_hit(self, result):
        assert result.extra["shortcut_entries"] > 0
        assert result.extra["shortcut_hits"] > 0
        # With Zipf repetition, most ops come from shortcuts.
        assert result.extra["shortcut_hits"] > result.extra["traversals"]

    def test_matches_far_below_op_count(self, workload, result):
        # Operation-centric engines pay >= depth matches per op.
        assert result.partial_key_matches < workload.n_ops

    def test_prefix_calibration_reported(self, result):
        assert result.extra["prefix_byte_offset"] == 0  # IPv4 first octet

    def test_tree_buffer_active(self, result):
        assert 0 < result.extra["tree_buffer_hit_rate"] < 1

    def test_residual_contentions_nonzero_but_small(self, workload, result):
        # Fig. 7: DCART retains a small residual (coalesced group locks
        # and shared-ancestor syncs), far below one per write.
        writes = workload.operations.write_count
        assert 0 < result.lock_contentions < writes


class TestBucketBufferSpill:
    def test_no_spill_with_roomy_buffer(self, result):
        assert result.extra["spilled_bytes"] == 0

    def test_tiny_buffer_overflows_and_is_reported(self, workload):
        # 4096 ops/batch at 24 B/record >> 1 KB of Bucket_buffer: the
        # overflow must spill to HBM and surface in the run result.
        config = DCARTConfig(batch_size=4096, bucket_buffer_bytes=1024)
        spilled = DcartAccelerator(config=config).run(workload)
        assert spilled.extra["spilled_bytes"] > 0
        roomy = DcartAccelerator(config=DCARTConfig(batch_size=4096)).run(workload)
        # The spill is billed: PCU writes the overflow out and back.
        assert spilled.elapsed_seconds > roomy.elapsed_seconds


class TestAblationSwitches:
    def test_no_shortcuts_increases_matches(self, workload):
        base = DcartAccelerator(config=DCARTConfig(batch_size=4096)).run(workload)
        ablated = DcartAccelerator(
            config=DCARTConfig(batch_size=4096, enable_shortcuts=False)
        ).run(workload)
        assert ablated.partial_key_matches > 3 * base.partial_key_matches
        assert ablated.extra["shortcut_entries"] == 0

    def test_no_combining_increases_contentions(self, workload):
        base = DcartAccelerator(config=DCARTConfig(batch_size=4096)).run(workload)
        ablated = DcartAccelerator(
            config=DCARTConfig(batch_size=4096, enable_combining=False)
        ).run(workload)
        assert ablated.lock_contentions > base.lock_contentions
        assert ablated.elapsed_seconds > base.elapsed_seconds

    def test_no_overlap_is_slower(self, workload):
        base = DcartAccelerator(config=DCARTConfig(batch_size=2048)).run(workload)
        ablated = DcartAccelerator(
            config=DCARTConfig(batch_size=2048, enable_overlap=False)
        ).run(workload)
        assert ablated.elapsed_seconds > base.elapsed_seconds

    def test_fixed_prefix_offset_respected(self, workload):
        accel = DcartAccelerator(
            config=DCARTConfig(batch_size=4096, prefix_byte_offset=1)
        )
        result = accel.run(workload)
        assert result.extra["prefix_byte_offset"] == 1


class TestDurableRun:
    def test_durability_billed_and_recoverable(self, workload, tmp_path):
        from repro.art.validate import validate_tree
        from repro.durability import DurabilityManager, recover

        directory = str(tmp_path / "state")
        accel = DcartAccelerator(
            config=DCARTConfig(batch_size=4096),
            durability=DurabilityManager(directory, checkpoint_every=2),
        )
        tree = accel.build_tree(workload)
        durable = accel.run(workload, tree=tree)

        # Telemetry lands in extra and the cycles are billed.
        assert durable.extra["wal_batches_logged"] > 0
        assert durable.extra["wal_fsyncs"] == durable.extra["wal_batches_logged"]
        assert durable.extra["checkpoints_written"] >= 2  # base + periodic
        assert durable.extra["durability_cycles"] > 0

        # Durability is a cost, not a correctness change.
        baseline = DcartAccelerator(config=DCARTConfig(batch_size=4096)).run(
            workload
        )
        assert durable.elapsed_seconds > baseline.elapsed_seconds
        assert durable.lock_contentions == baseline.lock_contentions

        # And the on-disk state replays to exactly the live tree.
        recovery = recover(directory)
        assert recovery.ok
        assert dict(recovery.tree.items()) == dict(tree.items())
        assert validate_tree(tree).ok


class TestHbmBandwidthCycles:
    def test_zero_bytes_is_free(self):
        from repro.core.accelerator import hbm_bandwidth_cycles

        assert hbm_bandwidth_cycles(0, 0.0, 230e6) == 0
        assert hbm_bandwidth_cycles(0, 460.0, 230e6) == 0

    def test_zero_bandwidth_is_a_priced_stall_not_a_crash(self):
        from repro.core.accelerator import hbm_bandwidth_cycles
        from repro.model.costs import DEFAULT_FPGA_COSTS

        per_line = DEFAULT_FPGA_COSTS.hbm_blackout_cycles_per_line
        # Two cache lines of traffic during a full blackout.
        assert hbm_bandwidth_cycles(128, 0.0, 230e6) == 2 * per_line
        # Partial lines round up, exactly like the healthy path.
        assert hbm_bandwidth_cycles(65, 0.0, 230e6) == 2 * per_line

    def test_explicit_blackout_cost_overrides_default(self):
        from repro.core.accelerator import hbm_bandwidth_cycles

        assert hbm_bandwidth_cycles(
            64, 0.0, 230e6, blackout_cycles_per_line=7
        ) == 7

    def test_blackout_slower_than_any_real_bandwidth(self):
        from repro.core.accelerator import hbm_bandwidth_cycles

        throttled = hbm_bandwidth_cycles(4096, 0.5, 230e6)
        blackout = hbm_bandwidth_cycles(4096, 0.0, 230e6)
        assert blackout > throttled


class TestNoOperationRows:
    """Run paths read the stream's columns; none builds an ``Operation``."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.workloads.ops import Operation

        calls = []
        original = Operation.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Operation, "__init__", counting_init)
        return calls

    def test_closed_loop_run_builds_no_operation(self, built, tmp_path):
        from repro.durability import DurabilityManager

        workload = make_workload("IPGEO", n_keys=2_000, n_ops=20_000, seed=3)
        config = DCARTConfig(batch_size=4096)
        DcartAccelerator(config=config).run(workload)
        DcartAccelerator(
            config=config, durability=DurabilityManager(str(tmp_path))
        ).run(workload)
        assert built == []
        workload.operations[0]  # a row asked for is built: the hook counts
        assert built == [1]

    def test_clustered_serving_builds_no_operation(self, built):
        from repro.cluster import ClusterConfig
        from repro.faults import FaultSchedule
        from repro.serve import ServeConfig, ServingSimulator

        workload = make_workload("IPGEO", n_keys=1_000, n_ops=5_000, seed=3)
        server = ServingSimulator(
            workload,
            ServeConfig(batch_size=256),
            schedule=FaultSchedule.fail_shards(1, 3, n_shards=2, at_batch=4),
            cluster_config=ClusterConfig(n_shards=2, replicas=1),
            capacity_ops_per_s=1.0e7,
        )
        row = server.run(0.5, seed=3)
        assert row.completed_ops + row.shed_ops == workload.n_ops
        assert built == []
