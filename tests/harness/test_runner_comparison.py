"""Tests for the harness: engine roster, scaling, comparisons, tables."""

import pytest

from repro.engines.base import RunResult
from repro.errors import SimulationError
from repro.harness.comparison import band, energy_savings, speedups
from repro.harness.formatting import format_table
from repro.harness.runner import (
    DEFAULT_SCALE_REFERENCE,
    default_engines,
    run_matrix,
    scaled_cpu_costs,
    scaled_dcart_config,
    scaled_gpu_costs,
)
from repro.workloads import make_workload


class TestScaling:
    def test_full_scale_keeps_datasheet_capacity(self):
        costs = scaled_cpu_costs(DEFAULT_SCALE_REFERENCE)
        assert costs.llc_bytes == 64 * 1024 * 1024

    def test_scaled_down_proportionally(self):
        costs = scaled_cpu_costs(5_000_000)  # 1/10 of the paper's keys
        assert costs.llc_bytes == pytest.approx(6.4 * 1024 * 1024, rel=0.01)

    def test_floor_applies(self):
        costs = scaled_cpu_costs(1000)
        assert costs.llc_bytes >= 64 * 1024

    def test_capacity_granule(self):
        for n in (1000, 77_777, 5_000_000):
            assert scaled_cpu_costs(n).llc_bytes % 1024 == 0
            assert scaled_gpu_costs(n).l2_bytes % 1024 == 0

    def test_dcart_buffers_scaled(self):
        config = scaled_dcart_config(5_000_000)
        assert config.tree_buffer_bytes == pytest.approx(
            0.4 * 1024 * 1024, rel=0.01
        )
        # Ablation switches survive scaling.
        from repro.core.config import DCARTConfig

        ablated = scaled_dcart_config(1000, DCARTConfig(enable_shortcuts=False))
        assert not ablated.enable_shortcuts


class TestRoster:
    def test_default_six_engines_in_order(self):
        engines = default_engines(10_000)
        assert [e.name for e in engines] == [
            "ART", "Heart", "SMART", "CuART", "DCART-C", "DCART",
        ]

    def test_include_filter(self):
        engines = default_engines(10_000, include=["DCART", "ART"])
        assert [e.name for e in engines] == ["ART", "DCART"]


class TestRunMatrix:
    def test_shared_records_give_same_results_as_isolated_runs(self):
        wl = make_workload("DE", n_keys=1500, n_ops=6000, seed=2)
        engines = default_engines(1500, include=["ART", "SMART"])
        matrix = run_matrix(engines, [wl])["DE"]
        isolated = {e.name: e.run(wl) for e in default_engines(1500, include=["ART", "SMART"])}
        for name in ("ART", "SMART"):
            assert matrix[name].elapsed_seconds == pytest.approx(
                isolated[name].elapsed_seconds
            )

    def test_matrix_covers_engines_and_workloads(self):
        wls = [
            make_workload("DE", n_keys=800, n_ops=2000, seed=1),
            make_workload("RS", n_keys=800, n_ops=2000, seed=1),
        ]
        matrix = run_matrix(default_engines(800, include=["SMART", "DCART"]), wls)
        assert set(matrix) == {"DE", "RS"}
        assert set(matrix["DE"]) == {"SMART", "DCART"}


def fake_results():
    def make(elapsed, energy, matches, contentions):
        r = RunResult(engine="", workload="W", platform="P", n_ops=10)
        r.elapsed_seconds = elapsed
        r.energy_joules = energy
        r.partial_key_matches = matches
        r.lock_contentions = contentions
        return r

    return {
        "ART": make(10.0, 100.0, 1000, 500),
        "DCART": make(0.1, 0.5, 50, 10),
    }


class TestComparison:
    def test_speedups(self):
        assert speedups(fake_results())["ART"] == pytest.approx(100.0)

    def test_energy_savings(self):
        assert energy_savings(fake_results())["ART"] == pytest.approx(200.0)

    def test_missing_reference_raises(self):
        with pytest.raises(SimulationError):
            speedups({"ART": fake_results()["ART"]})

    def test_band(self):
        assert band([3.0, 1.0, 2.0]) == (1.0, 3.0)
        with pytest.raises(SimulationError):
            band([])


class TestFormatting:
    def test_aligned_table(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["longer", 2.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_float_format(self):
        text = format_table(["x"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in text and "1.23" not in text

    def test_row_width_mismatch_raises(self):
        with pytest.raises(SimulationError):
            format_table(["a", "b"], [["only one"]])
