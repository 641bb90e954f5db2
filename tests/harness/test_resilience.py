"""Tests for the chaos harness (graceful-degradation experiments)."""

import pytest

from repro.art.validate import ValidationReport
from repro.core.accelerator import DcartAccelerator
from repro.experiments import (
    CampaignSpec,
    ResultStore,
    build_report,
    render_markdown,
    run_campaign,
)
from repro.experiments.spec import fault_schedule
from repro.harness import resilience
from repro.workloads import make_workload

N_KEYS = 800
N_OPS = 6_000


@pytest.fixture(scope="module")
def shared():
    config = resilience.chaos_config(N_KEYS)
    workload = make_workload("IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=1)
    return config, workload


def _faulted(config, workload, signature, seed=1):
    schedule = fault_schedule(signature, config, workload.n_ops, seed)
    return resilience.faulted_run(config, workload, schedule)


class TestChaosRun:
    """A chaos run: :func:`resilience.faulted_run` beside a healthy run,
    judged by the degradation and proportional-loss ratios."""

    def test_healthy_run_is_trivially_graceful(self, shared):
        config, workload = shared
        healthy = DcartAccelerator(config=config).run(workload)
        result, validation = _faulted(config, workload, "none")
        degradation = resilience.degradation_ratio(
            healthy.throughput_mops, result.throughput_mops
        )
        proportional = resilience.proportional_loss_ratio(
            config.n_sous, len(result.extra["failed_sous"])
        )
        assert result.extra["failed_sous"] == []
        assert degradation == pytest.approx(1.0)
        assert proportional == 1.0
        assert resilience.is_graceful(validation.ok, degradation, proportional)
        assert validation.ok

    def test_failed_units_reported(self, shared):
        config, workload = shared
        result, validation = _faulted(config, workload, "sou-failstop:3", seed=5)
        n_failed = len(result.extra["failed_sous"])
        assert n_failed == 3
        assert resilience.proportional_loss_ratio(
            config.n_sous, n_failed
        ) == pytest.approx(16 / 13)
        assert validation.ok

    def test_broken_validation_is_not_graceful(self, shared):
        config, workload = shared
        _, validation = _faulted(config, workload, "none")
        assert resilience.is_graceful(validation.ok, 1.0, 1.0)
        validation = ValidationReport()
        validation.add("occupancy", 1, "synthetic")
        assert not resilience.is_graceful(validation.ok, 1.0, 1.0)

    def test_shared_baseline_reused(self, shared):
        # A run with no injector and the empty schedule's faulted run
        # read the same numbers, so one healthy run is the baseline of
        # every fault (the campaign's ``none`` cell).
        config, workload = shared
        healthy = DcartAccelerator(config=config).run(workload)
        empty, _ = _faulted(config, workload, "none")
        assert empty.elapsed_seconds == healthy.elapsed_seconds
        assert empty.throughput_mops == healthy.throughput_mops
        assert empty.p99_latency_us == healthy.p99_latency_us


class TestDegradationCurve:
    def test_small_sweep_shape(self):
        faults = ("none", "sou-failstop:1", "sou-failstop:2", "sou-failstop:3")
        spec = CampaignSpec(
            name="curve", engines=("DCART",), workloads=("IPGEO",),
            seeds=(1,), n_keys=N_KEYS, n_ops=N_OPS, faults=faults,
        )
        with ResultStore(":memory:") as store:
            run_campaign(spec, store, git_sha="unstamped")
            cells = store.get_cells(spec.content_hash(), "unstamped", "full")
            report = build_report(spec, store, git_sha="unstamped")
        assert report["complete"]
        assert [row["fault"] for row in report["rows"]] == list(faults)
        verdicts = [row["verdict"] for row in report["rows"][1:]]
        # Degradation is monotone non-decreasing in failed units here:
        # every cell runs one workload, so differences are fault-made.
        degradations = [1.0] + [v["degradation"] for v in verdicts]
        assert degradations == sorted(degradations)
        assert all(c["payload"]["cell"]["tree_valid"] for c in cells.values())
        assert all(v["graceful"] for v in verdicts)
        assert "degradation" in render_markdown(report)


class TestVacuousOutcomes:
    """Zero-throughput edge cases must not blow up into inf/NaN ratios."""

    @staticmethod
    def _mops(n_ops):
        from repro.engines.base import RunResult

        return RunResult(
            engine="DCART", workload="IPGEO", platform="fpga", n_ops=n_ops,
            elapsed_seconds=1e-3 if n_ops else 0.0,
        ).throughput_mops

    def test_empty_workload_degradation_is_one_not_inf(self):
        degradation = resilience.degradation_ratio(self._mops(0), self._mops(0))
        proportional = resilience.proportional_loss_ratio(16, 0)
        assert degradation == 1.0
        assert proportional == 1.0
        assert resilience.is_graceful(True, degradation, proportional)

    def test_genuine_stall_still_reads_as_infinite(self):
        degradation = resilience.degradation_ratio(
            self._mops(1_000), self._mops(0)
        )
        assert degradation == float("inf")
        assert not resilience.is_graceful(True, degradation, 1.0)

    def test_zero_sou_machine_is_vacuous(self):
        assert resilience.proportional_loss_ratio(0, 0) == 1.0
