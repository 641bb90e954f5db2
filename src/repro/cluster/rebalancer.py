"""Skew-driven bucket migration between shards.

IPGEO's hot first octet can pin half the offered stream on one shard
(the cluster-scale echo of the paper's single-SOU hotspot).  The
rebalancer watches two signals:

* **shard occupancy** — the summed ``busy_cycles`` of each shard
  session's SOUs (what their ``sou.<i>.busy_cycles`` counters report),
  differenced per window so only *recent* load counts;
* **bucket heat** — ops routed per virtual bucket since the last check,
  recorded by the coordinator's router.

When the hottest shard's window load exceeds ``threshold`` x the mean,
it plans moves of that shard's hottest buckets to the coldest shard —
enough heat to close roughly half the gap, never more than
``max_moves`` buckets per round.  Moves are *plans*; the coordinator
executes them (migrating live keys between shard trees and replicas)
and bills :attr:`~repro.model.costs.ClusterCosts.
migration_cycles_per_key` for every key that moves.  Migration is never
free — a round that moves nothing costs only the
:attr:`~repro.model.costs.ClusterCosts.rebalance_check_cycles` probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.cluster.partition import Partitioner
from repro.errors import ConfigError
from repro.model.costs import ClusterCosts

if TYPE_CHECKING:
    from repro.core.sou import ShortcutOperatingUnit


def shard_busy_cycles(sous: Sequence["ShortcutOperatingUnit"]) -> int:
    """Total SOU occupancy of one shard session.

    Each unit counts once: the sum of the ``sou.<i>.busy_cycles``
    counters the observability layer reports, so the rebalancer reacts
    to exactly what an operator's dashboard would show.
    """
    return sum(sou.busy_cycles for sou in sous)


@dataclass(frozen=True)
class BucketMove:
    """One planned migration: ``bucket`` from ``source`` to ``target``."""

    bucket: int
    source: int
    target: int
    heat: int  #: ops routed to the bucket in the window that chose it


class SkewRebalancer:
    """Plans bucket moves from windowed occupancy + bucket heat."""

    def __init__(
        self,
        partitioner: Partitioner,
        costs: ClusterCosts,
        threshold: float = 1.5,
        max_moves: int = 8,
    ):
        if threshold <= 1.0:
            raise ConfigError(
                f"rebalance threshold must exceed 1.0: {threshold}"
            )
        if max_moves <= 0:
            raise ConfigError(f"max_moves must be positive: {max_moves}")
        self.partitioner = partitioner
        self.costs = costs
        self.threshold = threshold
        self.max_moves = max_moves
        self._heat: Dict[int, int] = {}
        self.rounds = 0
        self.moves_planned = 0

    # ------------------------------------------------------------------

    def record_route(self, bucket: int, n_ops: int = 1) -> None:
        """Account ``n_ops`` routed to ``bucket`` this window."""
        self._heat[bucket] = self._heat.get(bucket, 0) + n_ops

    def plan(self, window_loads: Sequence[int]) -> List[BucketMove]:
        """One rebalance round against this window's shard loads.

        ``window_loads[s]`` is shard *s*'s occupancy (busy cycles) since
        the previous round.  Returns the moves to execute, hottest
        bucket first; clears the heat window either way, so every round
        judges only fresh traffic.
        """
        part = self.partitioner
        if len(window_loads) != part.n_shards:
            raise ConfigError(
                f"expected {part.n_shards} shard loads, "
                f"got {len(window_loads)}"
            )
        self.rounds += 1
        heat = self._heat
        self._heat = {}
        total = sum(window_loads)
        if total <= 0:
            return []
        mean = total / part.n_shards
        hot = max(range(part.n_shards), key=lambda s: (window_loads[s], -s))
        cold = min(range(part.n_shards), key=lambda s: (window_loads[s], s))
        if hot == cold or window_loads[hot] <= self.threshold * mean:
            return []

        candidates = sorted(
            (
                (bucket, heat.get(bucket, 0))
                for bucket in part.buckets_on(hot)
            ),
            key=lambda item: (-item[1], item[0]),
        )
        hot_heat = sum(h for _, h in candidates)
        if hot_heat == 0:
            return []
        # Close half the load gap, attributed proportionally to heat:
        # moving fraction f of the hot shard's routed ops should shed
        # about f of its excess occupancy.
        target_heat = hot_heat * (window_loads[hot] - mean) / (
            2 * window_loads[hot]
        )
        moves: List[BucketMove] = []
        moved_heat = 0
        for bucket, bucket_heat in candidates:
            if len(moves) >= self.max_moves:
                break
            if bucket_heat == 0 or moved_heat >= target_heat:
                break
            if len(moves) + 1 >= len(candidates):
                break  # never strip the hot shard bare
            moves.append(BucketMove(bucket, hot, cold, bucket_heat))
            moved_heat += bucket_heat
        self.moves_planned += len(moves)
        return moves

    # ------------------------------------------------------------------

    def describe(self) -> str:
        return (
            f"rebalancer over {self.partitioner.n_shards} shards: "
            f"{self.rounds} rounds, {self.moves_planned} moves planned, "
            f"threshold {self.threshold}x"
        )
