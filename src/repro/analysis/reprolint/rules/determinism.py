"""Determinism rules: DET01 (RNG), DET02 (wall clock), DET03 (set order).

These protect the repo's strongest guarantee: the golden determinism
test (``tests/harness/test_golden_determinism.py``) pins the full
simulator to bit-identical results, ``repro sweep --jobs N`` is asserted
bit-identical to ``--jobs 1``, and crash recovery is compared EXACT
against a committed-prefix reference.  All three break silently the
moment hidden entropy — an unseeded RNG, a wall-clock read, a set
iteration order — leaks into a simulated path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.reprolint.diagnostics import Diagnostic
from repro.analysis.reprolint.engine import Rule
from repro.analysis.reprolint.rules._util import call_name, is_set_expression

#: numpy.random attributes that construct *explicit* generators (fine
#: when given a seed) rather than touching the legacy global RNG.
_NP_RANDOM_OK = ("default_rng", "Generator", "SeedSequence", "PCG64",
                 "Philox", "SFC64", "MT19937", "BitGenerator")

#: Names importable from stdlib ``random`` that are explicit generator
#: classes (deterministic once seeded) rather than global-state helpers.
_RANDOM_OK_IMPORTS = ("Random", "SystemRandom")

_WALL_CLOCK_TIME_ATTRS = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
)
_WALL_CLOCK_DATETIME_ATTRS = ("now", "utcnow", "today")


class Det01UnseededRandomness(Rule):
    """DET01 — unseeded or global-state randomness in a simulated path.

    **Failing pattern**: any call through the stdlib ``random`` module's
    global RNG (``random.random()``, ``random.seed()``, ``from random
    import randint``), the legacy numpy global RNG (``np.random.rand``,
    ``np.random.seed``), or a generator constructed without a seed
    (``Random()``, ``np.random.default_rng()`` with no argument).

    **Contract**: every random draw in ``core/``, ``art/``,
    ``engines/``, ``workloads/``, ``faults/``, ``harness/`` must flow
    from an explicit generator seeded by the harness (``Random(seed)``,
    ``np.random.default_rng(seed)``) so that a (seed, workload, engine)
    triple fully determines the run — the invariant behind the golden
    determinism test and bit-identical ``--jobs N`` sweeps.

    **Escape hatch**: ``# reprolint: disable=DET01 -- <why>`` on the
    offending line, e.g. for a diagnostics-only path that never feeds a
    simulated result.
    """

    code = "DET01"
    name = "unseeded-randomness"

    def check(self, tree, path, source) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    for alias in node.names:
                        if alias.name not in _RANDOM_OK_IMPORTS:
                            yield self.diagnostic(
                                path, node,
                                f"'from random import {alias.name}' pulls a "
                                f"global-RNG helper; thread a seeded "
                                f"random.Random through the harness instead",
                            )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if name.startswith("random."):
                attr = name.split(".", 1)[1]
                if attr not in _RANDOM_OK_IMPORTS:
                    yield self.diagnostic(
                        path, node,
                        f"call to the shared global RNG '{name}'; use an "
                        f"explicitly seeded random.Random from the harness",
                    )
                elif attr == "Random" and not node.args and not node.keywords:
                    yield self.diagnostic(
                        path, node,
                        "random.Random() without a seed draws entropy from "
                        "the OS; pass the harness seed",
                    )
            elif ".random." in name or name.startswith("numpy.random"):
                # np.random.X / numpy.random.X: legacy global RNG unless
                # constructing an explicit generator.
                attr = name.rsplit(".", 1)[-1]
                if attr not in _NP_RANDOM_OK:
                    yield self.diagnostic(
                        path, node,
                        f"legacy numpy global-RNG call '{name}'; use "
                        f"np.random.default_rng(seed)",
                    )
                elif attr == "default_rng" and not node.args \
                        and not node.keywords:
                    yield self.diagnostic(
                        path, node,
                        "np.random.default_rng() without a seed draws "
                        "entropy from the OS; pass the harness seed",
                    )
            elif name == "Random" and not node.args and not node.keywords:
                yield self.diagnostic(
                    path, node,
                    "Random() without a seed draws entropy from the OS; "
                    "pass the harness seed",
                )
            elif name == "default_rng" and not node.args and not node.keywords:
                yield self.diagnostic(
                    path, node,
                    "default_rng() without a seed draws entropy from the "
                    "OS; pass the harness seed",
                )


class Det02WallClock(Rule):
    """DET02 — wall-clock reads outside the sanctioned timing modules.

    **Failing pattern**: ``time.time()``, ``time.perf_counter()``,
    ``time.monotonic()`` (and ``_ns`` variants), ``datetime.now()``,
    ``datetime.utcnow()``, ``date.today()``, or importing those helpers
    by name (``from time import perf_counter``).

    **Contract**: simulated time is *cycle accounting* through
    ``model/costs.py`` — real wall-clock must never influence a
    simulated result, or runs stop being reproducible and crash-recovery
    EXACT comparisons drift.  Host-side wall timing is sanctioned only
    in ``harness/benchmarking.py`` (host-side stamps) and ``log.py``
    (timestamped log records), which the default scope excludes.

    **Escape hatch**: ``# reprolint: disable=DET02 -- <why>`` for a
    read that demonstrably never reaches a simulated quantity.
    """

    code = "DET02"
    name = "wall-clock-read"

    def check(self, tree, path, source) -> Iterator[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_ATTRS:
                            yield self.diagnostic(
                                path, node,
                                f"'from time import {alias.name}' imports a "
                                f"wall-clock source; bill simulated time "
                                f"through model/costs instead",
                            )
                # ``from datetime import datetime`` itself is fine — the
                # hazard is the .now()/.today() call, flagged below.
                continue
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "time" and len(parts) == 2 \
                    and parts[1] in _WALL_CLOCK_TIME_ATTRS:
                yield self.diagnostic(
                    path, node,
                    f"wall-clock read '{name}()'; simulated time must flow "
                    f"through the model/costs cycle model",
                )
            elif parts[-1] in _WALL_CLOCK_DATETIME_ATTRS and (
                "datetime" in parts[:-1] or "date" in parts[:-1]
            ):
                yield self.diagnostic(
                    path, node,
                    f"wall-clock read '{name}()'; simulated paths must not "
                    f"observe the host clock",
                )


class Det03SetIterationOrder(Rule):
    """DET03 — unordered set iteration feeding an ordering-sensitive sink.

    **Failing pattern**: iterating a set expression (a ``set``/
    ``frozenset`` call, set literal, or set comprehension) in a ``for``
    statement or comprehension, or materialising one with ``list(...)``
    / ``tuple(...)`` / ``str.join(...)`` — anywhere the element order
    can reach results, buckets, or serialised output.  ``sorted(...)``
    over a set is the sanctioned form and is never flagged.

    **Contract**: CPython set iteration order depends on insertion
    history and hash randomisation of the *process*, so it differs
    between ``--jobs 1`` and ``--jobs N`` workers and across runs.
    Every ordered consumption of a set in a simulated path must go
    through ``sorted``.  (Dict iteration is insertion-ordered by the
    language and is allowed.)

    **Escape hatch**: ``# reprolint: disable=DET03 -- <why>`` when the
    consumer is provably order-insensitive (e.g. summing).
    """

    code = "DET03"
    name = "set-iteration-order"

    def check(self, tree, path, source) -> Iterator[Diagnostic]:
        sanctioned = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in ("sorted", "sum", "min", "max", "len", "any",
                            "all", "frozenset", "set"):
                    for arg in node.args:
                        sanctioned.add(id(arg))
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                if is_set_expression(node.iter) \
                        and id(node.iter) not in sanctioned:
                    yield self.diagnostic(
                        path, node.iter,
                        "iterating a set: element order is "
                        "process-dependent; wrap in sorted(...)",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if is_set_expression(gen.iter) \
                            and id(gen.iter) not in sanctioned:
                        yield self.diagnostic(
                            path, gen.iter,
                            "comprehension over a set: element order is "
                            "process-dependent; wrap in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name in ("list", "tuple") and node.args \
                        and is_set_expression(node.args[0]):
                    yield self.diagnostic(
                        path, node,
                        f"{name}(set) materialises process-dependent "
                        f"order; use sorted(...)",
                    )
                elif name is not None and name.endswith(".join") \
                        and node.args and is_set_expression(node.args[0]):
                    yield self.diagnostic(
                        path, node,
                        "join over a set serialises process-dependent "
                        "order; use sorted(...)",
                    )
