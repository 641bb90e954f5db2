"""Tests for the calibrated cost constants and platform descriptors."""

import pytest

from repro.errors import ConfigError
from repro.model.costs import (
    CAS_L1_NS,
    CAS_RAM_NS,
    CpuCosts,
    FpgaCosts,
    GpuCosts,
    PowerModel,
    SoftwareCttCosts,
)
from repro.model.platform import (
    CPU_PLATFORM,
    FPGA_PLATFORM,
    GPU_PLATFORM,
    Platform,
)


class TestCostInvariants:
    def test_cpu_dram_slower_than_cache(self):
        costs = CpuCosts()
        assert costs.node_fetch_dram_ns > 5 * costs.node_fetch_cached_ns

    def test_cpu_contention_penalty_dominates_lock(self):
        costs = CpuCosts()
        assert costs.contention_penalty_ns > 10 * costs.lock_uncontended_ns

    def test_cpu_thread_count_matches_paper(self):
        assert CpuCosts().n_threads == 96  # 2 x 48-core Xeon 8468

    def test_gpu_warp_geometry(self):
        costs = GpuCosts()
        assert costs.warp_width == 32
        assert costs.n_sms == 108  # A100

    def test_fpga_clock_matches_paper(self):
        assert FpgaCosts().clock_hz == pytest.approx(230e6)  # Table/§IV-A

    def test_fpga_offchip_matches_hbm_latency(self):
        costs = FpgaCosts()
        # The U280's HBM answers a random read in about 120 ns.
        assert costs.tree_offchip_cycles == round(120e-9 * costs.clock_hz)

    def test_cas_in_ram_over_15x_slower_than_in_l1(self):
        # The asymmetry the paper cites from Schweizer et al. [21].
        assert 0 < CAS_L1_NS and CAS_RAM_NS > 15 * CAS_L1_NS

    def test_fpga_onchip_much_faster_than_offchip(self):
        costs = FpgaCosts()
        assert costs.tree_offchip_cycles >= 10 * costs.tree_buffer_hit_cycles

    def test_cycle_seconds(self):
        assert FpgaCosts().cycle_seconds == pytest.approx(1 / 230e6)

    def test_validation_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CpuCosts(n_threads=0)
        with pytest.raises(ConfigError):
            GpuCosts(divergence_factor=0)
        with pytest.raises(ConfigError):
            FpgaCosts(clock_hz=0)
        with pytest.raises(ConfigError):
            SoftwareCttCosts(combine_ns=0)


class TestPowerCalibration:
    """Power ratios must land in the band implied by Fig. 9 vs Fig. 11."""

    def test_cpu_fpga_ratio_in_band(self):
        power = PowerModel()
        ratio = power.cpu_watts / power.fpga_watts
        # (92.7/44.2) to (148.9/35.9) per SMART bands.
        assert 2.1 <= ratio <= 4.1

    def test_gpu_fpga_ratio_in_band(self):
        power = PowerModel()
        ratio = power.gpu_watts / power.fpga_watts
        # (71.1/31.2) to (126.2/21.1) per CuART bands.
        assert 2.3 <= ratio <= 6.0

    def test_fpga_is_lowest_power(self):
        power = PowerModel()
        assert power.fpga_watts < power.cpu_watts
        assert power.fpga_watts < power.gpu_watts


class TestPlatform:
    def test_presets(self):
        assert CPU_PLATFORM.kind == "cpu"
        assert GPU_PLATFORM.kind == "gpu"
        assert FPGA_PLATFORM.kind == "fpga"

    def test_energy_integral(self):
        assert CPU_PLATFORM.energy_joules(2.0) == pytest.approx(
            2.0 * CPU_PLATFORM.active_watts
        )

    def test_energy_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            CPU_PLATFORM.energy_joules(-1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            Platform("x", "tpu", 10)

    def test_rejects_nonpositive_watts(self):
        with pytest.raises(ConfigError):
            Platform("x", "cpu", 0)
