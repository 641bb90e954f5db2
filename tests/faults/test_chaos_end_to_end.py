"""End-to-end chaos runs: correctness under faults, billed degradation."""

import pytest

pytestmark = pytest.mark.chaos

from repro.art.validate import validate_tree
from repro.core.accelerator import DcartAccelerator
from repro.errors import SouFailedError, WatchdogTimeout
from repro.experiments.spec import fault_schedule
from repro.faults import (
    BufferStorm,
    FaultInjector,
    FaultSchedule,
    HbmThrottle,
    ShortcutCorruption,
    SouFailStop,
    SouSlowdown,
    Watchdog,
)
from repro.harness import resilience
from repro.harness.resilience import chaos_config
from repro.workloads import OpKind, make_workload

N_KEYS = 1_500
N_OPS = 12_000


@pytest.fixture(scope="module")
def workload():
    return make_workload("IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=7)


@pytest.fixture(scope="module")
def config():
    return chaos_config(N_KEYS, batch_size=2048)


def faulted_run(workload, config, events, seed=1, watchdog=None):
    injector = FaultInjector(
        FaultSchedule(seed=seed, events=tuple(events)), watchdog=watchdog
    )
    accel = DcartAccelerator(config=config, injector=injector)
    tree = accel.build_tree(workload)
    result = accel.run(workload, tree=tree)
    return result, tree


def expected_final_state(workload):
    expected = {key: pos for pos, key in enumerate(workload.loaded_keys)}
    for op in workload.operations:
        if op.kind is OpKind.WRITE:
            expected[op.key] = op.value
        elif op.kind is OpKind.DELETE:
            expected.pop(op.key, None)
    return expected


class TestFunctionalCorrectnessUnderFaults:
    def test_fail_stop_preserves_results(self, workload, config):
        events = [SouFailStop(1, s) for s in (0, 3, 7, 11)]
        result, tree = faulted_run(workload, config, events)
        for key, value in expected_final_state(workload).items():
            assert tree.search(key) == value
        assert validate_tree(tree).ok
        assert result.extra["failed_sous"] == [0, 3, 7, 11]
        assert result.extra["failover_buckets"] > 0
        assert result.extra["redispatch_cycles"] > 0

    def test_corruption_storm_throttle_preserve_results(self, workload, config):
        events = [
            ShortcutCorruption(1, 200),
            BufferStorm(2, 1.0),
            HbmThrottle(0, 5, 0.25),
        ]
        result, tree = faulted_run(workload, config, events)
        for key, value in expected_final_state(workload).items():
            assert tree.search(key) == value
        assert validate_tree(tree).ok
        assert result.extra["shortcut_corruptions"] > 0
        assert result.extra["corrupted_shortcut_hits"] > 0
        assert result.extra["storm_invalidations"] > 0

    def test_all_ops_complete_under_faults(self, workload, config):
        events = [SouFailStop(0, 5), SouSlowdown(1, 3, 2, 4.0)]
        result, _ = faulted_run(workload, config, events)
        assert result.n_ops == workload.n_ops
        assert len(result.latencies_ns) == workload.n_ops


class TestDegradationBilling:
    def test_healthy_run_unaffected_by_empty_schedule(self, workload, config):
        healthy = DcartAccelerator(config=config).run(workload)
        empty, _ = faulted_run(workload, config, [])
        assert empty.elapsed_seconds == healthy.elapsed_seconds
        assert empty.extra["fault_events_applied"] == 0

    def test_slowdown_costs_cycles(self, workload, config):
        healthy = DcartAccelerator(config=config).run(workload)
        slowed, _ = faulted_run(
            workload, config, [SouSlowdown(0, 100, sou_id=0, factor=8.0)]
        )
        assert slowed.elapsed_seconds > healthy.elapsed_seconds

    def test_throttle_costs_cycles(self, workload, config):
        healthy = DcartAccelerator(config=config).run(workload)
        throttled, _ = faulted_run(
            workload, config, [HbmThrottle(0, 100, factor=0.001)]
        )
        assert throttled.elapsed_seconds > healthy.elapsed_seconds

    def test_full_blackout_completes_and_costs_more(self, workload, config):
        # factor=0.0 used to divide by zero inside the bandwidth model;
        # now it prices every off-chip line at the blackout stall cost.
        healthy = DcartAccelerator(config=config).run(workload)
        blackout, tree = faulted_run(
            workload, config, [HbmThrottle(0, 100, factor=0.0)]
        )
        assert blackout.n_ops == workload.n_ops
        assert blackout.elapsed_seconds > healthy.elapsed_seconds
        for key, value in expected_final_state(workload).items():
            assert tree.search(key) == value
        assert validate_tree(tree).ok

    def test_corruption_bills_retries(self, workload, config):
        result, _ = faulted_run(workload, config, [ShortcutCorruption(1, 300)])
        assert result.extra["corrupted_retry_cycles"] > 0
        assert result.extra["stale_shortcut_repairs"] >= (
            result.extra["corrupted_shortcut_hits"]
        )


class TestReproducibility:
    def test_same_seed_byte_identical(self, workload, config):
        outcomes = []
        for _ in range(2):
            # All five machine-level kinds, windows overlapping.
            schedule = FaultSchedule(
                seed=11,
                events=(
                    BufferStorm(1, 1.0), HbmThrottle(3, 5, 0.75),
                    SouSlowdown(3, 5, 13, 8.0), ShortcutCorruption(4, 64),
                    SouFailStop(4, 14),
                ),
            )
            injector = FaultInjector(schedule)
            result = DcartAccelerator(config=config, injector=injector).run(workload)
            outcomes.append((schedule.signature(), result))
        (sig_a, a), (sig_b, b) = outcomes
        assert sig_a == sig_b
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.lock_contentions == b.lock_contentions
        assert (a.latencies_ns == b.latencies_ns).all()
        assert a.extra == b.extra

    def test_injector_is_replayable(self, workload, config):
        injector = FaultInjector(FaultSchedule.fail_sous(3, seed=2))
        accel = DcartAccelerator(config=config, injector=injector)
        a = accel.run(workload)
        b = accel.run(workload)  # reset() rewinds the injector state
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.extra == b.extra


class TestAborts:
    def test_watchdog_aborts_pathological_slowdown(self, workload, config):
        with pytest.raises(WatchdogTimeout) as excinfo:
            faulted_run(
                workload,
                config,
                [SouSlowdown(0, 100, sou_id=0, factor=10_000.0)],
                watchdog=Watchdog(max_cycles_per_op=50, floor_cycles=0),
            )
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["batch_cycles"] > diagnostics["budget_cycles"]
        assert diagnostics["per_sou_cycles"]

    def test_all_sous_dead_raises(self, workload, config):
        events = [SouFailStop(0, s) for s in range(config.n_sous)]
        with pytest.raises(SouFailedError) as excinfo:
            faulted_run(workload, config, events)
        assert excinfo.value.diagnostics["failed_sous"] == list(
            range(config.n_sous)
        )


class TestAcceptance:
    """The acceptance scenario: ``run --fault sou-failstop:4 --seed 1``
    beside the healthy run of the same config."""

    @staticmethod
    def _chaos():
        config = chaos_config(N_KEYS)
        workload = make_workload("IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=1)
        schedule = fault_schedule("sou-failstop:4", config, N_OPS, seed=1)
        healthy = DcartAccelerator(config=config).run(workload)
        result, validation = resilience.faulted_run(config, workload, schedule)
        return config, schedule, healthy, result, validation

    def test_four_failed_sous_graceful(self):
        config, _, healthy, result, validation = self._chaos()
        n_failed = len(result.extra["failed_sous"])
        degradation = resilience.degradation_ratio(
            healthy.throughput_mops, result.throughput_mops
        )
        proportional = resilience.proportional_loss_ratio(config.n_sous, n_failed)
        assert validation.ok
        assert n_failed == 4
        assert degradation <= 2.0 * proportional
        assert resilience.is_graceful(validation.ok, degradation, proportional)

    def test_acceptance_reproducible(self):
        _, schedule_a, _, a, _ = self._chaos()
        _, schedule_b, _, b, _ = self._chaos()
        assert schedule_a.signature() == schedule_b.signature()
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.extra == b.extra
