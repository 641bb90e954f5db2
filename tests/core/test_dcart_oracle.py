"""Scalar DCART against a plain-dict oracle.

DCART combines a batch by prefix, deals the buckets to SOUs and serves
most ops through shortcuts, so the order it applies ops in is not the
stream order.  Whatever that order, the final key -> value map must be
what a ``dict`` replaying the stream op by op holds: the bulk load
(key -> load position), then every write and delete in stream order.

Hypothesis draws workloads from four fixed-width key families (so every
key set is prefix-free, as the tree requires) crossed with read-,
write- and delete-heavy mixes, and runs them under the paper's config
and three ablations at three batch sizes.  After each run the tree must
also satisfy every ART structural invariant.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.art.validate import assert_valid
from repro.core.accelerator import DcartAccelerator
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule, ShortcutCorruption, SouSlowdown
from repro.harness.runner import scaled_dcart_config
from repro.workloads.factory import make_workload
from repro.workloads.ops import Operation, OperationStream, OpKind, Workload

# -- key families (all fixed-width => prefix-free) ---------------------

sparse_keys = st.integers(0, 2**40 - 1).map(
    lambda i: b"\x00" + i.to_bytes(8, "big")
)
deep_keys = st.lists(
    st.integers(0, 3), min_size=8, max_size=8
).map(lambda bs: b"\x01" + bytes(bs))
prefix_keys = st.integers(0, 2**16 - 1).map(
    lambda i: b"\x02" + b"\xab" * 6 + i.to_bytes(2, "big")
)
fanout_keys = st.integers(0, 2**16 - 1).map(
    lambda i: b"\x03" + i.to_bytes(2, "big")
)

KEY_FAMILIES = (sparse_keys, deep_keys, prefix_keys, fanout_keys)

# (read, write, delete) weights per mix.
MIXES = ((8, 1, 0), (2, 6, 1), (3, 3, 3))

#: The paper's DCART and the ablations that change how ops are served.
CONFIGS = {
    "default": {},
    "no-shortcuts": {"enable_shortcuts": False},
    "lru-tree-buffer": {"value_aware_tree_buffer": False},
    "no-overlap": {"enable_overlap": False},
}

BATCH_SIZES = (16, 64, 256)


@st.composite
def workloads(draw):
    family = draw(st.sampled_from(range(len(KEY_FAMILIES))))
    keys = draw(
        st.lists(KEY_FAMILIES[family], min_size=8, max_size=60,
                 unique=True)
    )
    mix = draw(st.sampled_from(MIXES))
    n_loaded = draw(st.integers(1, len(keys)))
    kinds = (
        [OpKind.READ] * mix[0] + [OpKind.WRITE] * mix[1]
        + [OpKind.DELETE] * mix[2]
    )
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(kinds) - 1),
                st.integers(0, len(keys) - 1),
            ),
            min_size=20,
            max_size=300,
        )
    )
    ops = tuple(
        Operation(i, kinds[k], keys[j],
                  i if kinds[k] is OpKind.WRITE else None, 0)
        for i, (k, j) in enumerate(raw)
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return Workload(
        f"hyp-f{family}", "synthetic", keys[:n_loaded],
        OperationStream(ops), seed,
    )


def replay(workload):
    """The oracle: the bulk load, then each op in stream order."""
    expected = {key: position for position, key in enumerate(workload.loaded_keys)}
    for op in workload.operations:
        if op.kind is OpKind.WRITE:
            expected[op.key] = op.value
        elif op.kind is OpKind.DELETE:
            expected.pop(op.key, None)
    return expected


def run_dcart(workload, batch_size, injector=None, **overrides):
    """Run scalar DCART on ``workload`` and return the final tree."""
    config = replace(
        scaled_dcart_config(max(len(workload.loaded_keys), 16)),
        batch_size=batch_size,
        **overrides,
    )
    accelerator = DcartAccelerator(config=config, injector=injector)
    tree = accelerator.build_tree(workload)
    accelerator.run(workload, tree=tree)
    return tree


def assert_matches_oracle(tree, workload):
    assert_valid(tree)
    assert dict(tree.items()) == replay(workload)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@given(workload=workloads())
@settings(max_examples=25, deadline=None)
def test_final_map_matches_dict_replay(config, batch_size, workload):
    tree = run_dcart(workload, batch_size, **CONFIGS[config])
    assert_matches_oracle(tree, workload)


def test_delete_churn():
    # The workload factory never emits DELETE, so build the stream by
    # hand: fixed-width keys over a tiny alphabet force merge and
    # shrink churn deep in the tree.
    rng = random.Random(17)
    keys = list(dict.fromkeys(
        b"\x00" + bytes(rng.randrange(4) for _ in range(8))
        for _ in range(300)
    ))
    ops = []
    for i in range(900):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.35:
            ops.append(Operation(i, OpKind.DELETE, key, None, 0))
        elif roll < 0.60:
            ops.append(Operation(i, OpKind.WRITE, key, i, 0))
        else:
            ops.append(Operation(i, OpKind.READ, key, None, 0))
    workload = Workload("DEL", "synthetic", keys[: len(keys) // 2],
                        OperationStream(tuple(ops)), 17)
    assert_matches_oracle(run_dcart(workload, 256), workload)


def test_slowdown_and_shortcut_corruption():
    injector = FaultInjector(FaultSchedule(seed=9, events=(
        SouSlowdown(start_batch=0, end_batch=2, sou_id=1, factor=2.5),
        ShortcutCorruption(batch=1, n_entries=4),
    )))
    workload = make_workload(
        "DICT", n_keys=500, n_ops=1200, seed=13, op_skew=0.95,
        write_ratio=0.3, insert_share_of_writes=0.4,
    )
    tree = run_dcart(workload, 256, injector=injector)
    assert injector.shortcut_corruptions > 0
    assert_matches_oracle(tree, workload)


@pytest.mark.parametrize("combining", [
    True,
    pytest.param(False, marks=pytest.mark.xfail(
        strict=True,
        reason="without combining, a batch's ops are dealt to SOUs by "
               "position and the slices run in SOU-id order, so two "
               "writes to one key can apply in reverse",
    )),
])
def test_same_key_writes_apply_in_stream_order(combining):
    # 16 SOUs: the 15 reads fill SOUs 0-14, WRITE "first" lands on
    # SOU 15 and WRITE "second" wraps round to SOU 0, which runs first.
    key = b"\x00" * 8
    ops = [Operation(i, OpKind.READ, key, None, 0) for i in range(15)]
    ops.append(Operation(15, OpKind.WRITE, key, "first", 0))
    ops.append(Operation(16, OpKind.WRITE, key, "second", 0))
    workload = Workload("LOST", "synthetic", [key],
                        OperationStream(tuple(ops)), 0)
    tree = run_dcart(workload, 64, enable_combining=combining)
    assert tree.search(key) == "second"
