"""All calibrated cost constants, in one place.

Sources of each number:

* **Cited by the paper** — the >15× CAS slowdown on RAM-resident lines
  ([21] Schweizer et al.); partial key = 1 byte, pointer = 8 bytes,
  cache line = 64 bytes (§II-B).
* **Public datasheet / measured folklore** — DRAM ~90 ns random load,
  L2/LLC ~6-14 ns, Xeon 8468 = 2×48 cores, A100 = 108 SMs × 32-lane
  warps, U280 HBM ≈ 460 GB/s, DCART clock = 230 MHz (§IV-A).
* **Calibrated to the paper's ratios** — platform power draws.  The
  paper's energy meters are not reproducible, but energy = power × time,
  so power ratios follow from (Fig. 11 energy ratios) / (Fig. 9 speedup
  ratios): CPU/FPGA ≈ 2.6-3.4 and GPU/FPGA ≈ 3.4-4.0.  With the U280 at
  a typical 42 W that yields ~135 W measured CPU draw and ~165 W GPU
  draw, which is what the respective meters plausibly reported under
  this memory-bound load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError


def _positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class CpuCosts:
    """Per-operation cost constants for the Xeon-host engines (ns)."""

    n_threads: int = 96                 # 2 x 48-core Xeon Platinum 8468
    window: int = 8192                  # operations outstanding at once
    node_fetch_cached_ns: float = 8.0   # LLC hit
    node_fetch_dram_ns: float = 90.0    # LLC miss -> DRAM
    key_match_ns: float = 1.2           # one partial-key compare + branch
    leaf_op_ns: float = 12.0            # read/update the value
    structure_op_ns: float = 60.0       # split/grow bookkeeping
    lock_uncontended_ns: float = 22.0   # atomic RMW on a cached line
    contention_penalty_ns: float = 380.0  # queueing + line ping-pong per waiter
    llc_bytes: int = 64 * 1024 * 1024   # modelled shared-LLC slice for the index
    dram_bandwidth_gb_s: float = 200.0

    def __post_init__(self) -> None:
        _positive(
            n_threads=self.n_threads,
            window=self.window,
            node_fetch_cached_ns=self.node_fetch_cached_ns,
            node_fetch_dram_ns=self.node_fetch_dram_ns,
            key_match_ns=self.key_match_ns,
            leaf_op_ns=self.leaf_op_ns,
            lock_uncontended_ns=self.lock_uncontended_ns,
            llc_bytes=self.llc_bytes,
            dram_bandwidth_gb_s=self.dram_bandwidth_gb_s,
        )


@dataclass(frozen=True)
class GpuCosts:
    """Cost constants for the CuART GPU engine (A100)."""

    n_sms: int = 108
    warp_width: int = 32
    concurrent_warps: int = 1024        # resident warps across the device
    window: int = 32768                 # one kernel batch
    kernel_launch_us: float = 8.0       # per-batch launch + sync overhead
    node_fetch_l2_ns: float = 35.0      # L2 hit
    node_fetch_hbm_ns: float = 350.0    # global-memory miss
    key_match_ns: float = 0.6           # SIMT compare
    leaf_op_ns: float = 6.0
    atomic_uncontended_ns: float = 30.0
    # A contended global-memory atomic round-trips HBM per retry.
    contention_penalty_ns: float = 850.0
    l2_bytes: int = 40 * 1024 * 1024
    hbm_bandwidth_gb_s: float = 1550.0
    divergence_factor: float = 1.35     # warp lockstep: pay the longest lane

    def __post_init__(self) -> None:
        _positive(
            n_sms=self.n_sms,
            warp_width=self.warp_width,
            concurrent_warps=self.concurrent_warps,
            window=self.window,
            node_fetch_hbm_ns=self.node_fetch_hbm_ns,
            divergence_factor=self.divergence_factor,
        )


@dataclass(frozen=True)
class FpgaCosts:
    """Cycle costs for the DCART accelerator at 230 MHz (paper §IV-A)."""

    clock_hz: float = 230e6
    # SOU pipeline stage costs (cycles)
    shortcut_lookup_cycles: int = 2      # hash probe in Shortcut_buffer
    shortcut_offchip_cycles: int = 28    # Shortcut_Table probe in HBM
    tree_buffer_hit_cycles: int = 2      # node fetch from Tree_buffer (BRAM)
    tree_offchip_cycles: int = 28        # node fetch from HBM (~120 ns)
    match_cycles: int = 1                # partial-key match (combinational+reg)
    trigger_cycles: int = 2              # apply read/write at the target
    structure_op_cycles: int = 12        # split/grow applied by the SOU
    generate_shortcut_cycles: int = 2    # append to Shortcut_buffer
    #: Outstanding HBM requests per SOU (non-blocking pipeline): an
    #: off-chip stall is amortised over this many in-flight fetches.
    memory_parallelism: int = 8
    # PCU pipeline: 1 op/cycle steady state (3 stages)
    pcu_cycles_per_op: float = 1.0
    pcu_pipeline_fill_cycles: int = 3
    bucket_flush_cycles_per_line: int = 4  # buffered Bucket_Table spill
    # cross-bucket structural sync (a global lock among SOUs)
    global_sync_cycles: int = 40
    hbm_bandwidth_gb_s: float = 460.0
    # fault handling (chaos harness): re-targeting a failed unit's
    # bucket, and the backoff base of a corrupted-shortcut retry.
    redispatch_cycles: int = 6
    shortcut_retry_base_cycles: int = 4
    #: Stall per off-chip cache line while the HBM channel is fully
    #: blacked out (chaos ``bandwidth_factor() == 0``): traffic waits on
    #: the channel's retry/arbitration interval instead of streaming, so
    #: each line bills a fixed stall rather than dividing by zero
    #: bandwidth.  ~2.2 us per line at 230 MHz.
    hbm_blackout_cycles_per_line: int = 512

    def __post_init__(self) -> None:
        _positive(
            clock_hz=self.clock_hz,
            shortcut_lookup_cycles=self.shortcut_lookup_cycles,
            tree_buffer_hit_cycles=self.tree_buffer_hit_cycles,
            tree_offchip_cycles=self.tree_offchip_cycles,
            trigger_cycles=self.trigger_cycles,
            memory_parallelism=self.memory_parallelism,
            hbm_blackout_cycles_per_line=self.hbm_blackout_cycles_per_line,
        )

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / self.clock_hz


@dataclass(frozen=True)
class SoftwareCttCosts:
    """Extra per-operation runtime the software CTT (DCART-C) pays.

    §II-C Challenges: on a CPU, combining and shortcut maintenance are
    *instructions competing with the traversal itself*, and the bucketed
    execution limits parallelism to the bucket count.  These constants
    make DCART-C "only slightly outperform" the best baselines (Fig. 9).
    """

    combine_ns: float = 150.0           # hash + scattered bucket append (DRAM)
    shortcut_lookup_ns: float = 260.0   # chained hash probe: ~2 dependent misses
    shortcut_maintain_ns: float = 300.0 # allocate + link + write back an entry
    dispatch_ns: float = 20.0

    def __post_init__(self) -> None:
        _positive(
            combine_ns=self.combine_ns,
            shortcut_lookup_ns=self.shortcut_lookup_ns,
            shortcut_maintain_ns=self.shortcut_maintain_ns,
        )


@dataclass(frozen=True)
class DurabilityCosts:
    """Cost model for the durability subsystem (WAL + checkpoints).

    The accelerator's host pairs the FPGA with an NVMe-class log device
    (SafarDB-style: the index accelerator is only production-usable when
    its state survives power loss).  Appends stream at the device's
    sequential bandwidth; an fsync point — the COMMIT barrier of a batch,
    or a checkpoint's rename-into-place — pays the flash write-cache
    flush latency.  Checkpoints stream at a lower effective bandwidth
    because they compete with the log for the same device.
    """

    wal_bandwidth_gb_s: float = 3.2      # NVMe sequential append stream
    fsync_latency_us: float = 15.0       # write-cache flush per sync point
    checkpoint_bandwidth_gb_s: float = 1.8
    #: Fixed restart cost of one crash recovery (device re-open, manifest
    #: walk, checkpoint image load) — the serving-mode downtime floor.
    recovery_fixed_us: float = 500.0
    #: Per-op WAL replay cost during recovery: decode one record and
    #: re-apply it to the in-memory tree (DRAM-bound upsert).
    recovery_replay_op_us: float = 0.25

    def __post_init__(self) -> None:
        _positive(
            wal_bandwidth_gb_s=self.wal_bandwidth_gb_s,
            fsync_latency_us=self.fsync_latency_us,
            checkpoint_bandwidth_gb_s=self.checkpoint_bandwidth_gb_s,
            recovery_fixed_us=self.recovery_fixed_us,
            recovery_replay_op_us=self.recovery_replay_op_us,
        )

    def wal_seconds(self, n_bytes: int, n_fsyncs: int = 0) -> float:
        """Time to append ``n_bytes`` and cross ``n_fsyncs`` sync points."""
        return (
            n_bytes / (self.wal_bandwidth_gb_s * 1e9)
            + n_fsyncs * self.fsync_latency_us * 1e-6
        )

    def checkpoint_seconds(self, n_bytes: int) -> float:
        """Time to stream one checkpoint image plus its two sync points.

        Two fsyncs: one for the payload before rename, one for the
        manifest after — the write order crash consistency depends on.
        """
        return (
            n_bytes / (self.checkpoint_bandwidth_gb_s * 1e9)
            + 2 * self.fsync_latency_us * 1e-6
        )

    def recovery_seconds(self, ops_replayed: int) -> float:
        """Downtime of one crash recovery that replayed ``ops_replayed``.

        The serving simulator bills this as server unavailability between
        a :class:`~repro.errors.SimulatedCrash` and the first post-crash
        batch — the denominator of the measured recovery-time objective.
        """
        return (
            self.recovery_fixed_us * 1e-6
            + ops_replayed * self.recovery_replay_op_us * 1e-6
        )


@dataclass(frozen=True)
class ClusterCosts:
    """Cost model for the sharded multi-accelerator cluster.

    The cluster layer (``repro.cluster``) pairs N DCART instances behind
    a routing coordinator, with primary/replica pairs kept consistent by
    shipping the primary's CRC-framed WAL stream over a replication
    link.  Everything the coordinator bills — routing, replication
    shipping, heartbeat cadence, failover promotion, WAL-tail catch-up,
    hinted handoff, and bucket migration — prices through these
    constants so COST01 keeps every cycle literal in this module.

    Latencies are expressed in DCART cycles (230 MHz unless the shard
    config overrides the clock): the network numbers model a same-rack
    RDMA-class fabric (~10 us one-way), and the catch-up replay cost
    mirrors :attr:`DurabilityCosts.recovery_replay_op_us` at the default
    clock.
    """

    #: Coordinator work per routed op: bucket hash + route-table lookup.
    route_cycles_per_op: int = 2
    #: Parallel routing lanes at the coordinator (CRC + table lookup is
    #: embarrassingly parallel; width matches one shard's SOU count so
    #: routing only bottlenecks once shards outnumber lanes).
    route_lanes: int = 16
    #: One-way network hop primary <-> coordinator / primary <-> replica
    #: (~10 us at 230 MHz).
    link_latency_cycles: int = 2300
    #: Replication-link stream bandwidth (WAL frames on the wire).
    link_bandwidth_gb_s: float = 10.0
    #: Heartbeat cadence on the cluster cycle clock (~5 us — a few
    #: serving batches between beats, so a fail-stop is detectable
    #: within a handful of batch boundaries rather than a whole run).
    heartbeat_interval_cycles: int = 1150
    #: Missed heartbeats before a shard turns SUSPECT.
    suspect_after_misses: int = 2
    #: Missed heartbeats before a SUSPECT shard is declared DEAD.
    dead_after_misses: int = 4
    #: Fixed failover bookkeeping: promote the replica, repoint routes
    #: (~20 us).
    promotion_cycles: int = 4600
    #: Replaying one committed WAL-tail op into the promoted replica
    #: (DRAM-bound upsert, ~0.25 us — the recovery replay cost).
    catchup_replay_cycles_per_op: int = 58
    #: Re-enqueueing one hinted-handoff op onto the promoted primary.
    handoff_cycles_per_op: int = 6
    #: Coordinator-visible cost of moving one resident key during a
    #: rebalancer bucket migration: extract + frame + insert on the
    #: target, with the bulk transfer DMA-overlapped (the route-table
    #: swap, not the byte copy, is what serialises against traffic).
    migration_cycles_per_key: int = 20
    #: Coordinator-side cost of one rebalance evaluation pass.
    rebalance_check_cycles: int = 200

    def __post_init__(self) -> None:
        _positive(
            route_cycles_per_op=self.route_cycles_per_op,
            route_lanes=self.route_lanes,
            link_latency_cycles=self.link_latency_cycles,
            link_bandwidth_gb_s=self.link_bandwidth_gb_s,
            heartbeat_interval_cycles=self.heartbeat_interval_cycles,
            suspect_after_misses=self.suspect_after_misses,
            dead_after_misses=self.dead_after_misses,
            promotion_cycles=self.promotion_cycles,
            catchup_replay_cycles_per_op=self.catchup_replay_cycles_per_op,
            handoff_cycles_per_op=self.handoff_cycles_per_op,
            migration_cycles_per_key=self.migration_cycles_per_key,
            rebalance_check_cycles=self.rebalance_check_cycles,
        )
        if self.dead_after_misses <= self.suspect_after_misses:
            raise ConfigError(
                "dead_after_misses must exceed suspect_after_misses: "
                f"{self.dead_after_misses} <= {self.suspect_after_misses}"
            )

    def route_batch_cycles(self, n_ops: int) -> int:
        """Coordinator cycles to route an ``n_ops`` batch (ceil over lanes)."""
        if n_ops <= 0:
            return 0
        total = n_ops * self.route_cycles_per_op
        return -(-total // self.route_lanes)

    def link_transfer_cycles(self, n_bytes: int, clock_hz: float) -> int:
        """Cycles to ship ``n_bytes`` over the replication link (ceil)."""
        if n_bytes <= 0:
            return 0
        seconds = n_bytes / (self.link_bandwidth_gb_s * 1e9)
        return max(1, int(seconds * clock_hz) + 1)


@dataclass(frozen=True)
class PowerModel:
    """Average electrical power while executing the workload (watts).

    Calibrated: see module docstring.  Energy = power × simulated time,
    mirroring how CPU Energy Meter / nvidia-smi / xbutil integrate power
    over the run.
    """

    cpu_watts: float = 135.0
    gpu_watts: float = 165.0
    fpga_watts: float = 42.0

    def __post_init__(self) -> None:
        _positive(
            cpu_watts=self.cpu_watts,
            gpu_watts=self.gpu_watts,
            fpga_watts=self.fpga_watts,
        )

    def watts_for(self, kind: str) -> float:
        """The draw for a platform ``kind`` (``cpu``/``gpu``/``fpga``).

        The experiment platform's platform-cost dimension re-prices a
        stored run's energy under alternative power draws; since
        energy = power × time, rescaling by the watts ratio is exact.
        """
        try:
            return {
                "cpu": self.cpu_watts,
                "gpu": self.gpu_watts,
                "fpga": self.fpga_watts,
            }[kind]
        except KeyError:
            raise ConfigError(f"unknown platform kind: {kind!r}") from None


#: Per-engine contention penalty for the CPU baselines (ns per queued
#: waiter).  One table, here, so every billed latency in the tree traces
#: to this module (the COST01 contract): ROWEX lock convoys pay a futex
#: round trip + line ping-pong; Heart's CAS retries pay the
#: RAM-resident-line round trip [21]; OLC's version checks queue more
#: cheaply than convoys; SMART's read delegation keeps retries on a
#: locally cached line.  Ordering calibrated to Fig. 7.
ENGINE_CONTENTION_PENALTY_NS: Dict[str, float] = {
    "ART": 400.0,
    "Heart": 220.0,
    "OLC": 250.0,
    "SMART": 90.0,
}

#: Latency of one CAS (ns) by where its target line sits: in L1, or in
#: RAM, where an atomic is more than 15x slower ([21] Schweizer et al.).
#: Traversal thrashes the cache, so Heart's and SMART's atomics mostly
#: pay the RAM price.
CAS_L1_NS = 20.0
CAS_RAM_NS = 320.0

DEFAULT_CLUSTER_COSTS = ClusterCosts()
DEFAULT_CPU_COSTS = CpuCosts()
DEFAULT_DURABILITY_COSTS = DurabilityCosts()
DEFAULT_GPU_COSTS = GpuCosts()
DEFAULT_FPGA_COSTS = FpgaCosts()
DEFAULT_CTT_COSTS = SoftwareCttCosts()
DEFAULT_POWER = PowerModel()
