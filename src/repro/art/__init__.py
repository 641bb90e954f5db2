"""Adaptive Radix Tree substrate (paper §II-A, Fig. 1).

This subpackage is a faithful, instrumented Python implementation of the
ART of Leis et al. [8]: four adaptive inner-node types (N4/N16/N48/N256),
pessimistic path compression, lazy expansion, and ordered range scans.
Every descent step can be recorded (the nodes visited, and each node's
bytes fetched vs. bytes actually used) because those traces are what the
DCART paper's motivation figures (Fig. 2) and evaluation figures (Fig. 8)
are priced from.

Keys are plain ``bytes`` in binary-comparable form; :mod:`repro.art.keys`
provides encoders for the paper's key families (8-byte integers, strings,
IPv4 addresses, e-mail addresses).
"""

from repro.art.keys import (
    encode_email,
    encode_ipv4,
    encode_str,
    encode_u32,
    encode_u64,
    decode_u64,
)
from repro.art.nodes import (
    Leaf,
    Node,
    Node4,
    Node16,
    Node48,
    Node256,
    InnerNode,
)
from repro.art.stats import TraversalRecord
from repro.art.traversal import record_traversal
from repro.art.tree import AdaptiveRadixTree

__all__ = [
    "AdaptiveRadixTree",
    "InnerNode",
    "Leaf",
    "Node",
    "Node4",
    "Node16",
    "Node48",
    "Node256",
    "TraversalRecord",
    "decode_u64",
    "encode_email",
    "encode_ipv4",
    "encode_str",
    "encode_u32",
    "encode_u64",
    "record_traversal",
]
