"""Property-based tests for the value-aware Tree_buffer invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.lru_buffer import LruBuffer
from repro.core.tree_buffer import ValueAwareTreeBuffer

CAPACITY = 16 * 64

# An access script: (address-slot, size-class, value) triples.
script = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.sampled_from([52, 160, 656]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    max_size=300,
)


def replay(buffer, actions):
    for slot, size, value in actions:
        buffer.fetch(0x1000 + slot * 0x1000, size, value)
    return buffer


def effective_values(buffer):
    return {
        address: norm * buffer._mult for address, norm in buffer._norm.items()
    }


@given(script)
@settings(max_examples=80, deadline=None)
def test_capacity_never_exceeded(actions):
    buffer = replay(ValueAwareTreeBuffer(CAPACITY), actions)
    assert buffer.used_bytes <= CAPACITY


@given(script)
@settings(max_examples=80, deadline=None)
def test_accounting_is_consistent(actions):
    buffer = replay(ValueAwareTreeBuffer(CAPACITY), actions)
    assert buffer.hits + buffer.misses == len(actions)  # one fetch per action
    # used_bytes is the sum of resident sizes.
    assert buffer.used_bytes == sum(buffer._size.values())


@given(script)
@settings(max_examples=60, deadline=None)
def test_resident_set_matches_contains(actions):
    # Every resident sits in exactly the group of its value, no group is
    # empty, and every group value is on the heap.
    buffer = replay(ValueAwareTreeBuffer(CAPACITY), actions)
    grouped = {
        address: norm
        for norm, group in buffer._groups.items()
        for address in group
    }
    assert grouped == buffer._norm
    assert set(buffer.resident_addresses()) == set(grouped)
    assert set(buffer._size) == set(grouped)
    assert all(buffer._groups.values())
    assert set(buffer._groups) <= set(buffer._values)


@given(script, st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=60, deadline=None)
def test_decay_scales_every_value(actions, factor):
    buffer = replay(ValueAwareTreeBuffer(CAPACITY), actions)
    before = effective_values(buffer)
    buffer.decay(factor)
    after = effective_values(buffer)
    assert set(after) == set(before)
    for address, value in before.items():
        assert after[address] == value * factor


@given(script)
@settings(max_examples=60, deadline=None)
def test_lookup_after_admit_always_hits(actions):
    # A miss that was not rejected leaves the node resident, so the next
    # fetch of the same address hits.
    buffer = ValueAwareTreeBuffer(CAPACITY)
    for slot, size, value in actions:
        address = 0x1000 + slot * 0x1000
        rejected = buffer.rejected_inserts
        buffer.fetch(address, size, value)
        if buffer.rejected_inserts == rejected:
            assert buffer.fetch(address, size, value)


@given(script)
@settings(max_examples=60, deadline=None)
def test_constant_value_is_exact_lru(actions):
    # The LRU ablation fetches every node at one value: the buffer then
    # hits, misses and evicts exactly as an LRU buffer, decay included.
    buffer = ValueAwareTreeBuffer(CAPACITY)
    lru = LruBuffer(CAPACITY)
    addresses = set()
    for step, (slot, size, _) in enumerate(actions):
        address = 0x1000 + slot * 0x1000
        addresses.add(address)
        if step % 7 == 0:
            buffer.decay()
        hit = buffer.fetch(address, size, 0.0)
        assert hit == lru.lookup(address)
        if not hit:
            lru.insert(address, size)
    assert (buffer.hits, buffer.misses, buffer.evictions) == (
        lru.hits, lru.misses, lru.evictions
    )
    assert buffer.rejected_inserts == 0
    assert buffer.used_bytes == lru.used_bytes <= CAPACITY
    assert set(buffer.resident_addresses()) == {
        address for address in addresses if address in lru
    }
