"""Failover acceptance: kill one primary mid-traffic, lose nothing.

The PR's headline robustness claim, end to end on an 8-shard IPGEO
cluster:

* the death is *detected* (finite, positive RTO) and the replica
  promoted;
* **zero committed-op loss** — every admitted op completes (committed
  batches via replica catch-up, the in-flight batch via hinted
  handoff), and the promoted shard's tree exactly equals an
  independently-replayed reference;
* the promoted tree passes the standalone ART invariant validator;
* steady-state goodput recovers: post-failover batches run within
  8/7 of the unfaulted run's same batches (one shard pair lost its
  replica, not its capacity).
"""

import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.art.validate import validate_tree
from repro.cluster import ClusterConfig, ClusterCoordinator, Partitioner
from repro.errors import KeyNotFoundError
from repro.faults import FaultSchedule
from repro.harness.resilience import chaos_config
from repro.serve import ServeConfig, ServingSimulator
from repro.workloads import make_workload
from repro.workloads.ops import OpKind

N_SHARDS = 8
N_KEYS = 2_000
N_OPS = 20_000
BATCH = 2_048
SEED = 7
DEATH_BATCH = 2


def _workload():
    return make_workload("IPGEO", n_keys=N_KEYS, n_ops=N_OPS, seed=SEED)


def _cluster():
    return ClusterConfig(n_shards=N_SHARDS, replicas=1, seed=SEED)


def _run(schedule=None):
    workload = _workload()
    coordinator = ClusterCoordinator(
        workload,
        cluster=_cluster(),
        accel_config=chaos_config(N_KEYS, batch_size=BATCH),
        schedule=schedule,
    )
    batches = []
    completed = 0
    for batch_index, ids in enumerate(
        workload.operations.batches(BATCH)
    ):
        result = coordinator.execute_batch(ids, batch_index)
        completed += len(result.completions)
        batches.append(result)
    tail = coordinator.drain(len(batches))
    completed += len(tail.completions)
    return workload, coordinator, batches, completed


def _reference_tree(workload, shard_id):
    """Independent replay of everything routed to ``shard_id``."""
    part = Partitioner(N_SHARDS, "hash")
    keys = part.split_keys(workload.loaded_keys)[shard_id]
    tree = AdaptiveRadixTree()
    for position, key in enumerate(keys):
        tree.insert(key, position)
    for op in workload.operations:
        if part.shard_of(op.key) != shard_id:
            continue
        if op.kind is OpKind.WRITE:
            tree.upsert(op.key, op.value)
        elif op.kind is OpKind.DELETE:
            try:
                tree.delete(op.key)
            except KeyNotFoundError:
                pass
    return tree


@pytest.fixture(scope="module")
def faulted():
    schedule = FaultSchedule.fail_shards(
        1, SEED, n_shards=N_SHARDS, at_batch=DEATH_BATCH
    )
    return _run(schedule)


@pytest.fixture(scope="module")
def unfaulted():
    return _run(None)


class TestFailover:
    def test_exactly_one_failover_with_finite_rto(self, faulted):
        _, coordinator, _, _ = faulted
        assert len(coordinator.failovers) == 1
        record = coordinator.failovers[0]
        assert record.died_batch == DEATH_BATCH
        assert record.rto_cycles > 0
        assert record.detected_cycle > record.died_cycle
        assert record.recovered_cycle >= record.detected_cycle

    def test_zero_committed_op_loss(self, faulted):
        _, _, _, completed = faulted
        assert completed == N_OPS

    def test_handoff_covered_the_dark_window(self, faulted):
        _, coordinator, _, _ = faulted
        record = coordinator.failovers[0]
        # The shard was dark for at least its own in-flight batch.
        assert record.handoff_ops > 0
        assert coordinator.deferred_ops_peak >= record.handoff_ops

    def test_promoted_tree_is_valid_and_exact(self, faulted):
        workload, coordinator, _, _ = faulted
        record = coordinator.failovers[0]
        shard = coordinator.shards[record.shard_id]
        assert shard.failed_over and shard.alive
        validate_tree(shard.tree).raise_if_failed()
        reference = _reference_tree(workload, record.shard_id)
        assert dict(shard.tree.items()) == dict(reference.items())

    def test_survivor_trees_also_exact(self, faulted):
        workload, coordinator, _, _ = faulted
        for shard in coordinator.shards:
            if shard.failed_over:
                continue
            reference = _reference_tree(workload, shard.shard_id)
            assert dict(shard.tree.items()) == dict(reference.items())

    def test_steady_state_goodput_recovers(self, faulted, unfaulted):
        _, coordinator, faulted_batches, _ = faulted
        _, _, clean_batches, _ = unfaulted
        # Detection lags the death by the heartbeat miss budget, so the
        # failover's admin bill lands a few batches after died_batch;
        # steady state starts after the last batch that paid any.
        recovered_batch = 1 + max(
            index
            for index, batch in enumerate(faulted_batches)
            if batch.admin_cycles > 0
        )
        assert recovered_batch < len(faulted_batches)
        steady_faulted = sum(
            b.makespan_cycles for b in faulted_batches[recovered_batch:]
        )
        steady_clean = sum(
            b.makespan_cycles for b in clean_batches[recovered_batch:]
        )
        assert steady_faulted > 0
        # >= 7/8 of unfaulted throughput <=> <= 8/7 of its cycle bill.
        assert steady_faulted <= steady_clean * 8 / 7


class TestFailoverThroughServing:
    def test_serve_reports_finite_rto_for_shard_death(self):
        workload = _workload()
        schedule = FaultSchedule.fail_shards(
            1, SEED, n_shards=N_SHARDS, at_batch=DEATH_BATCH
        )
        # SLO between the steady-state windowed p99 (~65 us at this
        # load) and the handoff-op spike (~84 us), so the failover's
        # dent — and only the dent — breaches it.
        serve = ServeConfig(
            batch_size=512, queue_capacity=8_192, slo_us=75.0
        )
        simulator = ServingSimulator(
            workload,
            serve,
            engine="DCART",
            accel_config=chaos_config(N_KEYS, batch_size=BATCH),
            schedule=schedule,
            cluster_config=_cluster(),
            capacity_ops_per_s=150e6,
        )
        result = simulator.run(offered_load=0.5, seed=SEED)
        assert result.lost_ops == 0
        assert result.completed_ops == result.admitted_ops
        assert result.fault_cycles, "the shard death must be stamped"
        assert result.rto_cycles is not None and result.rto_cycles > 0
