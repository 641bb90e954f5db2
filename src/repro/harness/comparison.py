"""Cross-engine ratio computation (speedups, energy savings, bands)."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.engines.base import RunResult
from repro.errors import SimulationError


def speedups(
    per_engine: Dict[str, RunResult], reference: str = "DCART"
) -> Dict[str, float]:
    """Execution-time ratio of every engine to ``reference`` (Fig. 9).

    ``speedups(...)["ART"] == 130.0`` means DCART is 130x faster than ART.
    """
    if reference not in per_engine:
        raise SimulationError(f"no result for reference engine {reference!r}")
    base = per_engine[reference].elapsed_seconds
    if base <= 0:
        raise SimulationError(f"reference {reference!r} has no elapsed time")
    return {
        name: result.elapsed_seconds / base
        for name, result in per_engine.items()
        if name != reference
    }


def energy_savings(
    per_engine: Dict[str, RunResult], reference: str = "DCART"
) -> Dict[str, float]:
    """Energy ratio of every engine to ``reference`` (Fig. 11)."""
    if reference not in per_engine:
        raise SimulationError(f"no result for reference engine {reference!r}")
    base = per_engine[reference].energy_joules
    if base <= 0:
        raise SimulationError(f"reference {reference!r} has no energy")
    return {
        name: result.energy_joules / base
        for name, result in per_engine.items()
        if name != reference
    }


def band(values: Iterable[float]) -> Tuple[float, float]:
    """(min, max) over a collection — the 'A×–B×' bands the paper quotes."""
    items = list(values)
    if not items:
        raise SimulationError("band() of an empty collection")
    return min(items), max(items)
