"""Platform descriptors for the three hardware targets of the evaluation."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.model.costs import DEFAULT_POWER


@dataclass(frozen=True)
class Platform:
    """A compute platform and its power draw.

    Parallel resources and memory latency and bandwidth are the
    engines' cost constants (:mod:`repro.model.costs`).
    """

    name: str
    kind: str                  # "cpu" | "gpu" | "fpga"
    active_watts: float

    def __post_init__(self):
        if self.kind not in ("cpu", "gpu", "fpga"):
            raise ConfigError(f"unknown platform kind: {self.kind!r}")
        if self.active_watts <= 0:
            raise ConfigError(f"active_watts must be positive: {self.active_watts}")

    def energy_joules(self, seconds: float) -> float:
        """Energy for a run of ``seconds`` (power-meter style integral)."""
        if seconds < 0:
            raise ConfigError(f"duration must be >= 0: {seconds}")
        return self.active_watts * seconds


CPU_PLATFORM = Platform(
    name="2x Intel Xeon Platinum 8468 (96 cores)",
    kind="cpu",
    active_watts=DEFAULT_POWER.cpu_watts,
)

GPU_PLATFORM = Platform(
    name="NVIDIA A100 (108 SMs)",
    kind="gpu",
    active_watts=DEFAULT_POWER.gpu_watts,
)

FPGA_PLATFORM = Platform(
    name="Xilinx Alveo U280 (XCU280, 230 MHz)",
    kind="fpga",
    active_watts=DEFAULT_POWER.fpga_watts,
)
