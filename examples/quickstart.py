#!/usr/bin/env python
"""Quickstart: the ART as an index, and DCART as its accelerator.

Runs in a few seconds:

    python examples/quickstart.py

Covers the three layers of the library bottom-up — the Adaptive Radix
Tree itself, a workload, and the DCART accelerator model — and prints
what each layer reports.
"""

from repro import (
    AdaptiveRadixTree,
    DcartAccelerator,
    SmartEngine,
    encode_str,
    encode_u64,
    make_workload,
    record_traversal,
)


def demo_tree() -> None:
    """The substrate: a plain Adaptive Radix Tree."""
    print("=" * 64)
    print("1. The Adaptive Radix Tree")
    print("=" * 64)

    tree = AdaptiveRadixTree()
    for word, meaning in [
        ("art", "adaptive radix tree"),
        ("artful", "indexing for main-memory databases"),
        ("radix", "the branching factor"),
        ("trie", "the family it belongs to"),
    ]:
        tree.insert(encode_str(word), meaning)

    print(f"size: {len(tree)} keys, height: {tree.height()} nodes")
    print(f"lookup 'art' -> {tree.search(encode_str('art'))!r}")

    print("range scan a..s:")
    for key, value in tree.range_scan(encode_str("a"), encode_str("s")):
        print(f"  {key[:-1].decode():8s} -> {value}")

    # Every operation is instrumented: this is what the engines price.
    with record_traversal(tree, "read", encode_str("artful")) as trace:
        tree.search(encode_str("artful"))
    print(
        f"traversal of 'artful': {trace.depth} nodes, "
        f"{trace.inner_nodes_visited} partial-key matches, "
        f"{trace.bytes_fetched} B fetched / {trace.bytes_used} B used"
    )

    # Integers work too; they become big-endian bytes.
    numbers = AdaptiveRadixTree()
    for i in range(1000):
        numbers.insert(encode_u64(i), i * i)
    print(f"u64 tree: {len(numbers)} keys, node mix {numbers.node_counts()}")
    print()


def demo_workload_and_engines() -> None:
    """A paper workload on the best CPU baseline and on DCART."""
    print("=" * 64)
    print("2. A paper workload: IPGEO (scaled down)")
    print("=" * 64)

    workload = make_workload("IPGEO", n_keys=5_000, n_ops=50_000, seed=1)
    print(workload.summary())

    smart = SmartEngine().run(workload)
    dcart = DcartAccelerator().run(workload)
    print(smart.summary())
    print(dcart.summary())
    speedup = smart.elapsed_seconds / dcart.elapsed_seconds
    saving = smart.energy_joules / dcart.energy_joules
    print(f"DCART vs SMART: {speedup:.1f}x faster, {saving:.1f}x less energy")
    print(
        f"DCART internals: {dcart.extra['shortcut_hits']} shortcut hits, "
        f"{dcart.extra['traversals']} full traversals, "
        f"Tree_buffer hit rate {dcart.extra['tree_buffer_hit_rate']:.2f}"
    )
    print()


def main() -> None:
    demo_tree()
    demo_workload_and_engines()
    print("Next: examples/ip_geolocation_store.py and examples/design_space.py")


if __name__ == "__main__":
    main()
