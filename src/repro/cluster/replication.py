"""Primary → replica WAL shipping for one shard.

The primary replicates by shipping the *exact bytes* its write-ahead
log would append for a batch (:func:`~repro.durability.wal.
encode_batch_frames`): a CRC-framed ``BEGIN / op* / COMMIT`` group.
Acknowledged shipment is the commit point — a batch whose frames
reached the replica's inbox survives the primary's death, a batch that
never shipped is in-flight and goes to hinted handoff.

The replica applies shipped groups *lazily*: each group carries an
apply-ready cycle (link latency + byte transfer + seeded jitter, all
stretched by any :class:`~repro.faults.schedule.
ReplicationLinkSlowdown` in force), and :meth:`ReplicaShard.advance`
applies whatever has become ready as the cluster clock passes it.  The
gap between shipped and applied is the replication lag that failover's
catch-up replay has to close — and pay for.

*Applied* is modelled state: ``applied_through`` and ``ops_applied``
move when a group applies, but the group's frames only join a replay
backlog.  The replica's tree is built the first time something reads
it — :meth:`ReplicaShard.catch_up` at a promotion or a migration
quiesce, or :attr:`ReplicaShard.tree` — and the backlog is decoded and
replayed into it then, in ship order.  A replica that is read holds
the tree an apply-on-arrival replica would; one that never is costs
only its frame bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Deque, Optional
from collections import deque

from repro.art.tree import AdaptiveRadixTree
from repro.durability.wal import OpRecord, decode_frames
from repro.errors import SimulationError
from repro.model.costs import ClusterCosts


@dataclass(slots=True)
class _ShippedGroup:
    """One batch's framed record group in flight to the replica."""

    batch_index: int
    frames: bytes
    ready_cycle: int
    n_ops: int


class ReplicaShard:
    """A shard's replica: a tree trailing the primary's WAL stream.

    ``build_tree`` makes the replica's starting tree (the shard's bulk
    load); it runs once, on the first read of :attr:`tree`.  ``seed``
    drives the per-group lag jitter; two replicas constructed with the
    same ``(seed, shard_id)`` see identical lag, so cluster runs stay
    bit-reproducible.
    """

    def __init__(
        self,
        shard_id: int,
        build_tree: Callable[[], AdaptiveRadixTree],
        costs: ClusterCosts,
        clock_hz: float,
        seed: int,
    ):
        self.shard_id = shard_id
        self.costs = costs
        self.clock_hz = clock_hz
        # Arithmetic mix keeps the stream independent per shard without
        # relying on randomised string hashing.
        self._rng = Random(seed * 1_000_003 + shard_id)
        self._inbox: Deque[_ShippedGroup] = deque()
        #: Applied groups not yet replayed into the tree, in ship order.
        self._backlog: Deque[_ShippedGroup] = deque()
        self._build_tree = build_tree
        self._tree: Optional[AdaptiveRadixTree] = None
        self.shipped_through = -1  #: newest batch index acked into the inbox
        self.applied_through = -1  #: newest batch index applied
        self.ops_shipped = 0
        self.ops_applied = 0
        self.bytes_shipped = 0

    # ------------------------------------------------------------------

    def lag_batches(self) -> int:
        """Shipped-but-unapplied batch groups (the failover debt)."""
        return len(self._inbox)

    def ship(
        self,
        batch_index: int,
        frames: bytes,
        n_ops: int,
        now_cycle: int,
        slowdown: float = 1.0,
    ) -> int:
        """Ack one batch group into the inbox; returns its ready cycle.

        The ack is immediate (commit point); the *apply* is delayed by
        link latency + transfer time + jitter, stretched by
        ``slowdown`` when a replication-link fault is in force.
        """
        if batch_index <= self.shipped_through:
            raise SimulationError(
                f"replication stream went backwards on shard "
                f"{self.shard_id}: batch {batch_index} after "
                f"{self.shipped_through}"
            )
        costs = self.costs
        delay = costs.link_latency_cycles
        delay += costs.link_transfer_cycles(len(frames), self.clock_hz)
        delay += self._rng.randrange(costs.link_latency_cycles + 1)
        ready = now_cycle + max(1, int(delay * slowdown))
        self._inbox.append(_ShippedGroup(batch_index, frames, ready, n_ops))
        self.shipped_through = batch_index
        self.ops_shipped += n_ops
        self.bytes_shipped += len(frames)
        return ready

    # ------------------------------------------------------------------

    def advance(self, now_cycle: int) -> int:
        """Apply every shipped group whose ready cycle has passed.

        Returns the number of ops applied.  Groups apply strictly in
        ship order — a later group never overtakes an earlier one, even
        if jitter made its ready cycle smaller.
        """
        applied = 0
        while self._inbox and self._inbox[0].ready_cycle <= now_cycle:
            applied += self._apply(self._inbox.popleft())
        return applied

    def catch_up(self) -> int:
        """Apply the whole inbox now and bring the tree up to date
        (failover, migration quiesce); returns the ops the inbox held."""
        replayed = 0
        while self._inbox:
            replayed += self._apply(self._inbox.popleft())
        self._replay()
        return replayed

    def _apply(self, group: _ShippedGroup) -> int:
        # Batch indices need not be dense (a shard sees only the batches
        # with ops routed to it), but must be strictly monotone.
        if group.batch_index <= self.applied_through:
            raise SimulationError(
                f"replica {self.shard_id} applied batch "
                f"{group.batch_index} out of order "
                f"(already at {self.applied_through})"
            )
        self._backlog.append(group)
        self.applied_through = group.batch_index
        self.ops_applied += group.n_ops
        return group.n_ops

    @property
    def tree(self) -> AdaptiveRadixTree:
        """The replica's tree, every applied group replayed into it."""
        return self._replay()

    def _replay(self) -> AdaptiveRadixTree:
        """Build the tree if need be, then replay the backlog into it.

        A group is decoded whole before any of its ops applies, so
        damaged frames raise :class:`SimulationError` with the group
        still in the backlog and the tree at the group before it.
        """
        tree = self._tree
        if tree is None:
            tree = self._tree = self._build_tree()
        backlog = self._backlog
        while backlog:
            group = backlog[0]
            ops = [
                record
                for record in decode_frames(group.frames)
                if isinstance(record, OpRecord)
            ]
            if len(ops) != group.n_ops:
                raise SimulationError(
                    f"replica {self.shard_id}: batch {group.batch_index} "
                    f"holds {len(ops)} ops, {group.n_ops} were shipped"
                )
            for record in ops:
                record.apply(tree)
            backlog.popleft()
        return tree

    # ------------------------------------------------------------------

    def describe(self) -> str:
        return (
            f"replica of shard {self.shard_id}: applied through batch "
            f"{self.applied_through} (shipped {self.shipped_through}, "
            f"lag {self.lag_batches()} groups, "
            f"{self.ops_shipped - self.ops_applied} ops)"
        )
