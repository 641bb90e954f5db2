"""Property-based tests for the cache simulator."""

from hypothesis import given, settings, strategies as st

from repro.memsim.cache import SetAssociativeCache

lines = st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=400)


def run(ways, trace, sets=1):
    cache = SetAssociativeCache(capacity_bytes=ways * sets * 64, ways=ways)
    for line in trace:
        cache.access(line * 64)
    return cache


@given(lines)
@settings(max_examples=80, deadline=None)
def test_lru_inclusion_property(trace):
    """A bigger fully-associative LRU cache hits a superset of a smaller.

    The stack property of LRU: hit counts are monotone in capacity.
    """
    small = run(4, trace)
    large = run(16, trace)
    assert large.stats.hits >= small.stats.hits
    assert large.stats.misses <= small.stats.misses


@given(lines)
@settings(max_examples=80, deadline=None)
def test_accounting_invariants(trace):
    cache = run(8, trace)
    assert cache.stats.accesses == len(trace)
    assert cache.stats.hits + cache.stats.misses == len(trace)
    # Evictions can never exceed misses, and residency <= capacity.
    assert cache.stats.evictions <= cache.stats.misses
    assert cache.stats.evictions >= cache.stats.misses - 8


@given(lines)
@settings(max_examples=60, deadline=None)
def test_repeat_access_always_hits(trace):
    cache = SetAssociativeCache(8 * 64, ways=8)
    for line in trace:
        cache.access(line * 64)
        hits, misses = cache.access(line * 64)  # immediate re-touch
        assert (hits, misses) == (1, 0)


@given(lines)
@settings(max_examples=60, deadline=None)
def test_distinct_lines_bound_misses(trace):
    cache = run(8, trace)
    # Cold misses at least once per distinct line; never more misses
    # than accesses.
    assert cache.stats.misses >= min(len(set(trace)), 1)
    assert cache.stats.misses <= len(trace)

