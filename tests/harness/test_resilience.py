"""Tests for the chaos harness (graceful-degradation experiments)."""

import pytest

from repro.art.validate import ValidationReport
from repro.experiments import (
    CampaignSpec,
    ResultStore,
    build_report,
    render_markdown,
    run_campaign,
)
from repro.harness import resilience
from repro.workloads import make_workload

N_KEYS = 800
N_OPS = 6_000


@pytest.fixture(scope="module")
def shared():
    config = resilience.chaos_config(N_KEYS)
    workload = make_workload("IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=1)
    return config, workload


class TestChaosRun:
    def test_healthy_run_is_trivially_graceful(self, shared):
        config, workload = shared
        outcome = resilience.chaos_run(
            n_failed=0, config=config, workload=workload
        )
        assert outcome.n_failed == 0
        assert outcome.degradation == pytest.approx(1.0)
        assert outcome.proportional_loss == 1.0
        assert outcome.graceful
        assert outcome.validation.ok

    def test_failed_units_reported(self, shared):
        config, workload = shared
        outcome = resilience.chaos_run(
            n_failed=3, seed=5, config=config, workload=workload
        )
        assert outcome.n_failed == 3
        assert outcome.proportional_loss == pytest.approx(16 / 13)
        assert outcome.validation.ok
        assert "3/16 SOUs failed" in outcome.summary()

    def test_broken_validation_is_not_graceful(self, shared):
        config, workload = shared
        outcome = resilience.chaos_run(
            n_failed=0, config=config, workload=workload
        )
        outcome.validation = ValidationReport()
        outcome.validation.add("occupancy", 1, "synthetic")
        assert not outcome.graceful

    def test_shared_baseline_reused(self, shared):
        config, workload = shared
        baseline = resilience.chaos_run(
            n_failed=0, config=config, workload=workload
        ).result
        outcome = resilience.chaos_run(
            n_failed=1, config=config, workload=workload, baseline=baseline
        )
        assert outcome.baseline is baseline


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
    def _outcome(baseline_ops, result_ops, n_sous=16):
        from repro.engines.base import RunResult
        from repro.faults import FaultSchedule

        def run(n_ops):
            return RunResult(
                engine="DCART", workload="IPGEO", platform="fpga",
                n_ops=n_ops,
                elapsed_seconds=1e-3 if n_ops else 0.0,
            )

        return resilience.ChaosOutcome(
            schedule=FaultSchedule(seed=1),
            result=run(result_ops),
            baseline=run(baseline_ops),
            validation=ValidationReport(),
            n_sous=n_sous,
        )

    def test_empty_workload_degradation_is_one_not_inf(self):
        outcome = self._outcome(baseline_ops=0, result_ops=0)
        assert outcome.degradation == 1.0
        assert outcome.proportional_loss == 1.0
        assert outcome.graceful
        # summary() must format, not crash, on the vacuous ratios.
        assert "degradation 1.00x" in outcome.summary()

    def test_genuine_stall_still_reads_as_infinite(self):
        outcome = self._outcome(baseline_ops=1_000, result_ops=0)
        assert outcome.degradation == float("inf")
        assert not outcome.graceful

    def test_zero_sou_machine_is_vacuous(self):
        outcome = self._outcome(baseline_ops=0, result_ops=0, n_sous=0)
        assert outcome.proportional_loss == 1.0
