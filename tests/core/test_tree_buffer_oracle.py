"""The value-aware Tree_buffer against its lazy-heap reference.

:class:`~tests.core.lazy_heap_buffer.LazyHeapTreeBuffer` orders victims
by a heap of ``(value, seq)`` entries, one per touch.  The buffer under
test keeps one recency-ordered group per value instead.  Lowest value,
then least recent, is the same order, so the two must agree on every
call: hit or miss, which node is evicted, and which newcomer is
rejected.  The scripts mix fetches at a few integer values (equal
normalised values are common), single and storm-like bulk
invalidations, and runs of decays long enough to pass the
renormalisation, where values that fold to one float must merge in
recency order.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tree_buffer import ValueAwareTreeBuffer
from repro.errors import ConfigError
from tests.core.lazy_heap_buffer import LazyHeapTreeBuffer

CAPACITY = 16 * 64
ADDRESSES = 40


def address(slot):
    return 0x1000 + slot * 0x1000


slot = st.integers(min_value=0, max_value=ADDRESSES - 1)
action = st.one_of(
    st.tuples(
        st.just("fetch"),
        slot,
        st.sampled_from([52, 160, 656]),
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 8.0]),
    ),
    st.tuples(st.just("invalidate"), slot),
    st.tuples(st.just("storm"), st.lists(slot, max_size=ADDRESSES)),
    st.tuples(st.just("decay"), st.sampled_from([0.5, 0.25, 0.3])),
    st.tuples(st.just("decays"), st.integers(min_value=1, max_value=1600)),
    # Larger than CAPACITY: a miss on it raises.
    st.tuples(st.just("fetch"), slot, st.just(CAPACITY + 1), st.just(1.0)),
)


def apply(buffer, step):
    """Run one step; the result, or the type of what it raised."""
    kind = step[0]
    try:
        if kind == "fetch":
            return buffer.fetch(address(step[1]), step[2], step[3])
        if kind == "invalidate":
            return buffer.invalidate(address(step[1]))
        if kind == "storm":
            return [buffer.invalidate(address(s)) for s in step[1]]
        for _ in range(step[1] if kind == "decays" else 1):
            buffer.decay(0.5 if kind == "decays" else step[1])
        return None
    except ConfigError as exc:
        return type(exc)


def state(buffer):
    return (
        set(buffer.resident_addresses()),
        buffer.used_bytes,
        buffer.hits,
        buffer.misses,
        buffer.evictions,
        buffer.rejected_inserts,
    )


def assert_agree(script):
    groups = ValueAwareTreeBuffer(CAPACITY)
    heap = LazyHeapTreeBuffer(CAPACITY)
    for step in script:
        assert apply(groups, step) == apply(heap, step), step
        assert state(groups) == state(heap), step
    return groups, heap


class TestMatchesLazyHeap:
    @given(st.lists(action, max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_every_call_agrees(self, script):
        assert_agree(script)

    def test_oversized_node_raises_in_both(self):
        for buffer in (ValueAwareTreeBuffer(100), LazyHeapTreeBuffer(100)):
            with pytest.raises(ConfigError):
                buffer.fetch(0x10, 101, 1.0)

    @given(
        st.lists(
            st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0]), min_size=2, max_size=12
        ),
        st.lists(st.integers(min_value=0, max_value=11), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_folded_values_merge_in_recency_order(self, values, refreshes):
        # Nodes fetched at a few values, some fetched again, then left
        # untouched through 1,500 half-life decays: the third
        # renormalisation (at the 1,497th) folds every value below the
        # subnormal range, all round to the same float, and the groups
        # merge.  Fresh fetches then evict the merged nodes one by one;
        # the order must be the heap's (value, then least recent).
        script = [("fetch", i, 52, v) for i, v in enumerate(values)]
        script += [
            ("fetch", i, 52, values[i]) for i in refreshes if i < len(values)
        ]
        script += [("decays", 1500)]
        script += [("fetch", 20 + i, 160, 1.0) for i in range(8)]
        groups, heap = assert_agree(script)
        assert groups.evictions == heap.evictions > 0

    def test_many_decays_do_not_underflow(self):
        # Far past six renormalisations, fresh values still order and
        # reject exactly: the 3,000-decay-old node is the first victim,
        # then 1.0 before 1.5, and a newcomer colder than 1.5 and 2.0
        # is turned away.
        buffer = ValueAwareTreeBuffer(200)
        buffer.fetch(0x10, 100, 4.0)
        for _ in range(3000):
            buffer.decay(0.5)
        buffer.fetch(0x20, 100, 2.0)
        buffer.fetch(0x30, 100, 1.0)
        assert set(buffer.resident_addresses()) == {0x20, 0x30}
        buffer.fetch(0x40, 100, 1.5)
        assert set(buffer.resident_addresses()) == {0x20, 0x40}
        assert not buffer.fetch(0x50, 100, 1.0)
        assert buffer.rejected_inserts == 1 and buffer.evictions == 2

    def test_merge_happens(self):
        # The scenario above does reach a merge: eight values before the
        # decays, one group after them.
        buffer = ValueAwareTreeBuffer(CAPACITY)
        values = [1.0, 3.0, 2.0, 5.0, 1.5, 4.0, 6.0, 7.0]
        for i, value in enumerate(values):
            buffer.fetch(address(i), 52, value)
        for _ in range(1500):
            buffer.decay(0.5)
        assert len(buffer._groups) == 1
        assert len(buffer.resident_addresses()) == len(values)


def traced_bytes_after(n_fetches):
    """Traced memory a buffer holds after ``n_fetches`` over 64 nodes."""
    buffer = ValueAwareTreeBuffer(64 * 64)
    tracemalloc.start()
    try:
        for i in range(n_fetches):
            if i % 1000 == 0:
                buffer.decay()
            buffer.fetch(0x1000 + (i % 64) * 0x40, 64, float(1 + i % 7))
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_memory_follows_residents_not_touches():
    # 64 resident nodes touched 20k or 200k times (a decay every 1,000
    # fetches, seven values): the buffer's memory must not grow with
    # the touches.
    assert traced_bytes_after(200_000) <= traced_bytes_after(20_000) + 16 * 1024
