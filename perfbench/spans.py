"""Batch-granularity span tracing for the traced benchmark run.

The traced run wraps the public entry point of each simulator layer
(called once per run, batch or bucket, never per operation).  A stack of
open spans charges each span's duration to its parent, so a layer's
*self* time is its span time minus the time of the spans it caused, and
the self times of all spans, the benchmark's own root spans included,
add up to the traced time exactly (integer nanoseconds).  Times are the
process's CPU time, like the runner's phase times, so periods in which
the host does not run the process are left out.

The wrappers exist only inside :func:`installed`; leaving it restores
the original attributes, so the untraced run executes the simulator
unmodified.  :func:`installed_wrappers` lets a caller prove that.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span name, module, attribute path)`` of every wrapped entry point.
#: Several entry points may share one span name: their times add up.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("art.build", "repro.engines.base", "Engine.build_tree"),
    ("core.accelerator.run", "repro.core.accelerator", "DcartAccelerator.run"),
    ("core.accelerator.open", "repro.core.accelerator",
     "DcartAccelerator.open_session"),
    ("core.session", "repro.core.accelerator",
     "AcceleratorSession.execute_batch"),
    ("core.pcu.combine", "repro.core.pcu", "PrefixCombiningUnit.combine_batch"),
    ("core.dispatcher.dispatch", "repro.core.dispatcher", "Dispatcher.dispatch"),
    ("core.sou.bucket", "repro.core.sou",
     "ShortcutOperatingUnit.process_bucket"),
    ("durability.wal", "repro.durability.manager", "DurabilityManager.log_batch"),
    ("durability.checkpoint", "repro.durability.manager",
     "DurabilityManager.attach"),
    ("durability.checkpoint", "repro.durability.manager",
     "DurabilityManager.maybe_checkpoint"),
    ("cluster.route", "repro.cluster.coordinator",
     "ClusterCoordinator.execute_batch"),
    ("cluster.route", "repro.cluster.coordinator", "ClusterCoordinator.drain"),
    ("cluster.ship", "repro.cluster.coordinator", "encode_batch_frames"),
    ("cluster.ship", "repro.cluster.replication", "ReplicaShard.ship"),
    ("cluster.replication_apply", "repro.cluster.replication",
     "ReplicaShard.advance"),
    ("cluster.replication_apply", "repro.cluster.replication",
     "ReplicaShard.catch_up"),
    ("serve.loop", "repro.serve.simulator", "ServingSimulator.run"),
)

#: Marker attribute set on every wrapper this module installs.
_MARK = "__perfbench_span__"


class SpanTracer:
    """Accumulates inclusive and self nanoseconds per span name.

    Besides times, it records counts at the same boundaries: every
    ``process_bucket`` outcome's op, shortcut-hit and traversal counts,
    and every accelerator session opened, whose end-of-run accumulators
    :meth:`fold_sessions` adds up.
    """

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.sessions: List[object] = []
        self._child_ns: List[int] = []

    def _enter(self) -> int:
        self._child_ns.append(0)
        return time.process_time_ns()

    def _exit(self, name: str, start: int) -> None:
        elapsed = time.process_time_ns() - start
        self.self_ns[name] += elapsed - self._child_ns.pop()
        self.incl_ns[name] += elapsed
        self.calls[name] += 1
        if self._child_ns:
            self._child_ns[-1] += elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code."""
        start = self._enter()
        try:
            yield
        finally:
            self._exit(name, start)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start)
            if observe is not None:
                observe(result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def observer(self, path: str) -> Optional[Callable]:
        """The count hook for one entry point, if it has one."""
        if path == "ShortcutOperatingUnit.process_bucket":
            return self._count_bucket
        if path == "DcartAccelerator.open_session":
            return self.sessions.append
        return None

    def _count_bucket(self, outcome) -> None:
        counts = self.counts
        counts["sou.ops"] += outcome.n_ops
        counts["sou.shortcut_hits"] += outcome.shortcut_hits
        counts["sou.traversals"] += outcome.traversals

    def fold_sessions(self) -> None:
        """Add the opened sessions' run totals to ``counts``, drop them."""
        counts = self.counts
        for session in self.sessions:
            counts["session.offchip_lines"] += session.offchip_lines_total
            counts["session.tree_buffer_hits"] += session.tree_buffer.hits
            counts["session.tree_buffer_misses"] += session.tree_buffer.misses
            counts["session.sync_cycles"] += session.sync_cycles_total
            counts["session.durability_cycles"] += session.durability_cycles_total
        self.sessions.clear()

    def merge(self, other: "SpanTracer") -> None:
        for mine, theirs in (
            (self.self_ns, other.self_ns),
            (self.incl_ns, other.incl_ns),
            (self.calls, other.calls),
            (self.counts, other.counts),
        ):
            mine.update(theirs)


def span_or_null(tracer: Optional[SpanTracer], name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return nullcontext() if tracer is None else tracer.span(name)


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: SpanTracer) -> Iterator[SpanTracer]:
    """Wrap every layer entry point for the duration of the block."""
    originals: List[Tuple[object, str, object]] = []
    try:
        for name, module_name, path in LAYER_ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            # vars(), not getattr(): the attribute must be the owner's
            # own, so restoring it cannot shadow an inherited one.
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, tracer.observer(path)))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def installed_wrappers() -> Dict[str, str]:
    """Entry points currently wrapped: ``{"module:path": span name}``."""
    found: Dict[str, str] = {}
    for _, module_name, path in LAYER_ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        name = getattr(vars(owner)[attr], _MARK, None)
        if name is not None:
            found[f"{module_name}:{path}"] = name
    return found
