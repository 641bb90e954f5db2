#!/usr/bin/env python
"""A dictionary/autocomplete service on the ART — the DICT scenario.

    python examples/dictionary_autocomplete.py

Tree indexes beat hash indexes exactly here (paper §V): prefix queries.
This example loads an English-like word list, serves autocomplete via
range scans, mutates the dictionary concurrently, and shows the
operation-level statistics the paper's motivation study is built on.
"""

import numpy as np

from repro import AdaptiveRadixTree, encode_str, make_workload, record_traversal
from repro.engines import SmartEngine
from repro.core import DcartAccelerator
from repro.workloads import realworld

N_WORDS = 10_000


def autocomplete(tree: AdaptiveRadixTree, prefix: str, limit: int = 8):
    """All words starting with ``prefix``, lexicographically."""
    low = encode_str(prefix)[:-1]  # drop the terminator: open interval
    high = low + b"\xff"
    out = []
    for key, _ in tree.range_scan(low, high):
        out.append(key[:-1].decode())
        if len(out) >= limit:
            break
    return out


def main() -> None:
    rng = np.random.default_rng(5)
    words = realworld.dict_keys(N_WORDS, rng)
    tree = AdaptiveRadixTree()
    for i, word in enumerate(words):
        tree.insert(word, i)

    print(f"dictionary: {len(tree)} words, height {tree.height()}")
    print(f"node mix: {tree.node_counts()}")

    for raw in (words[10], words[100], words[1000]):
        prefix = raw[:-1].decode()[:3]
        matches = autocomplete(tree, prefix)
        print(f"autocomplete({prefix!r}): {matches}")

    # The traversal economics behind the paper's Fig. 2:
    probe_words = [words[i] for i in range(0, N_WORDS, 97)]
    with record_traversal(tree, "read") as rec:
        for word in probe_words:
            tree.search(word)
    print(
        f"\n{len(probe_words)} point lookups: "
        f"{rec.depth} node visits, "
        f"{rec.inner_nodes_visited} child lookups, "
        f"{rec.bytes_used} B used of {rec.bytes_fetched} B fetched: "
        f"cacheline utilisation {100 * rec.bytes_used / rec.bytes_fetched:.1f} % "
        f"(paper Fig. 2c: ~20 %)"
    )

    # And the headline comparison on the DICT workload:
    workload = make_workload("DICT", n_keys=N_WORDS, n_ops=80_000, seed=5)
    smart = SmartEngine().run(workload)
    dcart = DcartAccelerator().run(workload)
    print(f"\n{workload.summary()}")
    print(smart.summary())
    print(dcart.summary())
    print(
        f"DCART vs SMART on DICT: "
        f"{smart.elapsed_seconds / dcart.elapsed_seconds:.1f}x faster, "
        f"{smart.energy_joules / dcart.energy_joules:.1f}x less energy"
    )


if __name__ == "__main__":
    main()
