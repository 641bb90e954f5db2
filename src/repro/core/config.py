"""DCART configuration — the parameters of Table I.

    Compute units   1 x PCU, 1 x Dispatcher, 16 x SOUs
    On-chip memory  Scan_buffer    512 KB
                    Bucket_buffer    2 MB
                    Shortcut_buffer 128 KB
                    Tree_buffer      4 MB
    Clock           230 MHz (Vivado-reported, used conservatively)

``batch_size`` is the unit of PCU/SOU overlap (§III-D); the paper does
not publish the RTL value, so it defaults to a Scan_buffer-sized batch
(512 KB / 16 B per queued operation = 32 Ki ops) and is sweepable in the
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.art.nodes import Node256
from repro.errors import ConfigError
from repro.model.costs import DEFAULT_FPGA_COSTS, FpgaCosts

KIB = 1024
MIB = 1024 * 1024

#: Bytes one queued operation occupies in the scan/bucket streams
#: (8-byte key/key-id, 8-byte value/opcode word).
OP_RECORD_BYTES = 16
#: Bytes of one Shortcut_Table entry: <Key_ID, Addr_Target, Addr_Parent>.
SHORTCUT_ENTRY_BYTES = 24


@dataclass
class DCARTConfig:
    """Table I, plus the model knobs the paper leaves to the RTL."""

    n_sous: int = 16
    n_buckets: int = 16
    scan_buffer_bytes: int = 512 * KIB
    bucket_buffer_bytes: int = 2 * MIB
    shortcut_buffer_bytes: int = 128 * KIB
    tree_buffer_bytes: int = 4 * MIB
    batch_size: Optional[int] = None      # default: scan-buffer capacity
    prefix_byte_offset: Optional[int] = None  # None = auto-calibrate
    costs: FpgaCosts = field(default_factory=lambda: DEFAULT_FPGA_COSTS)
    # Ablation switches (all True = the paper's DCART).
    enable_shortcuts: bool = True
    enable_combining: bool = True
    enable_overlap: bool = True
    value_aware_tree_buffer: bool = True

    def __post_init__(self):
        if self.n_sous <= 0:
            raise ConfigError(f"n_sous must be positive: {self.n_sous}")
        if self.n_buckets <= 0:
            raise ConfigError(f"n_buckets must be positive: {self.n_buckets}")
        if self.n_buckets % self.n_sous and self.n_sous % self.n_buckets:
            raise ConfigError(
                f"n_buckets ({self.n_buckets}) and n_sous ({self.n_sous}) "
                "must divide one another for the static dispatcher"
            )
        for name in (
            "scan_buffer_bytes",
            "bucket_buffer_bytes",
            "shortcut_buffer_bytes",
            "tree_buffer_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        # Every fetched node is admitted whole, so the Tree_buffer must
        # hold the largest one; a smaller buffer fails mid-run otherwise.
        if self.tree_buffer_bytes < Node256.size_bytes:
            raise ConfigError(
                f"tree_buffer_bytes ({self.tree_buffer_bytes}) is smaller "
                f"than the largest node, a Node256 of {Node256.size_bytes} B"
            )
        if self.batch_size is None:
            self.batch_size = self.scan_buffer_bytes // OP_RECORD_BYTES
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive: {self.batch_size}")

    @property
    def shortcut_buffer_entries(self) -> int:
        return self.shortcut_buffer_bytes // SHORTCUT_ENTRY_BYTES

    def describe(self) -> str:
        """Render Table I (the bench for Table I prints this)."""
        lines = [
            "DCART configuration (paper Table I)",
            f"  Compute units : 1 x PCU, 1 x Dispatcher, {self.n_sous} x SOUs",
            f"  Scan_buffer   : {self.scan_buffer_bytes // KIB} KB",
            f"  Bucket_buffer : {self.bucket_buffer_bytes // MIB} MB",
            f"  Shortcut_buffer: {self.shortcut_buffer_bytes // KIB} KB",
            f"  Tree_buffer   : {self.tree_buffer_bytes // MIB} MB",
            f"  Clock         : {self.costs.clock_hz / 1e6:.0f} MHz",
            f"  Batch size    : {self.batch_size} ops",
        ]
        return "\n".join(lines)
